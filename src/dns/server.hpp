// The authoritative name server engine — our stand-in for BIND's `named`.
//
// Handles queries against one zone (answers, CNAME chasing, NXDOMAIN with
// NXT-based authenticated denial, additional-section processing) and applies
// RFC 2136 dynamic updates (prerequisite checks, add/delete semantics, SOA
// serial maintenance).
//
// Updates in a *signed* zone do not synchronously produce signatures:
// apply_update() mutates the zone data, repairs the NXT chain, and returns
// the list of SigTasks that must be completed (by a local key or by the
// threshold protocol) before the update is fully committed.  This split is
// exactly the hook the paper's Wrapper uses: "The signature routine of named
// has been modified so that it forwards the request ... to the local
// Wrapper" (§4.2).
#pragma once

#include <deque>
#include <optional>

#include "dns/dnssec.hpp"
#include "dns/message.hpp"
#include "dns/tsig.hpp"
#include "dns/zone.hpp"

namespace sdns::dns {

struct UpdatePolicy {
  /// Require a valid transaction signature on updates.
  bool require_tsig = false;
  /// Shared secrets for TSIG verification.
  std::vector<TsigKey> keys;
  /// Clock for the TSIG freshness check (empty = logical time only, no
  /// check — the deterministic simulator has no wall clock). The deployed
  /// runtime injects time(2) so captured updates stop replaying.
  std::function<std::uint64_t()> tsig_clock;
  /// RFC 2845-style fudge window, seconds.
  std::uint64_t tsig_fudge = 300;
};

struct UpdateResult {
  Rcode rcode = Rcode::kNoError;
  /// Signatures that must be produced to complete the update (signed zones
  /// only; empty on failure or unsigned zones). Ordered canonically so every
  /// replica derives the identical list.
  std::vector<SigTask> sig_tasks;
  /// Owner names whose data changed (diagnostics / tests).
  std::vector<Name> changed_names;
};

class AuthoritativeServer {
 public:
  /// `signature_validity` is how long produced SIGs live (seconds).
  AuthoritativeServer(Zone zone, UpdatePolicy policy = {},
                      std::uint32_t signature_validity = 30 * 24 * 3600);

  Zone& zone() { return zone_; }
  const Zone& zone() const { return zone_; }

  /// True once the zone carries an apex KEY record.
  bool zone_is_signed() const;

  /// Answer a standard query (including AXFR at the apex and wildcard
  /// synthesis). Never mutates the zone. When `max_udp_size` is nonzero and
  /// the encoded response would exceed it, the answer sections are dropped
  /// and the TC bit set (RFC 1035 §4.1.1), telling the client to retry over
  /// a transport without the limit.
  Message answer_query(const Message& query, std::size_t max_udp_size = 0) const;

  /// Answer an AXFR/IXFR query as an RFC 5936 envelope stream: each returned
  /// Message encodes below `max_wire` bytes (so a large zone fits the 64 KiB
  /// TCP length prefix one message at a time). `max_wire == 0` keeps the
  /// legacy single-message form — what answer_query produces in-process.
  /// IXFR serves journal diffs when the client's serial is still covered,
  /// otherwise falls back to an AXFR-format response (`used_axfr` reports
  /// which format went out). Validation failures (wrong opcode, non-apex
  /// qname, non-XFR qtype) come back as a single error-rcode message. Both
  /// formats serve the committed zone: between apply_update and
  /// finalize_journal they carry the zone and serial as they were before the
  /// update (Zone::find_committed), so no client receives half-signed data.
  std::vector<Message> answer_xfr(const Message& query, std::size_t max_wire,
                                  bool* used_axfr = nullptr) const;

  /// Apply an RFC 2136 dynamic update at logical time `now` (drives SIG
  /// inception). TSIG is checked per policy. The zone is mutated on success;
  /// on failure (bad prerequisite etc.) it is left untouched.
  UpdateResult apply_update(const Message& update, std::uint32_t now);

  /// Install one completed signature produced for a SigTask.
  void install_signature(const SigTask& task, util::Bytes signature_bytes);

  /// Build the (possibly failing) update response message.
  static Message update_response(const Message& update, Rcode rcode);

  // ---- update journal (feeds IXFR, RFC 1995) ----
  /// One committed update's effect on the zone.
  struct JournalEntry {
    ResourceRecord soa_before;
    ResourceRecord soa_after;
    std::vector<ResourceRecord> removed;  ///< excluding the SOA itself
    std::vector<ResourceRecord> added;
  };
  /// Keep at most this many entries (older serials fall back to AXFR).
  void set_journal_limit(std::size_t limit) { journal_limit_ = limit; }
  const std::deque<JournalEntry>& journal() const { return journal_; }
  /// Commit the pending journal capture: the records of the owners the
  /// update touched, diffed against their pre-images. apply_update() calls
  /// this itself when an update needs no signatures; otherwise the caller
  /// finalizes after installing the last SIG so the diff includes the new
  /// signatures.
  void finalize_journal();

 private:
  void answer_axfr(Message& response) const;
  void answer_ixfr(Message& response, const Message& query,
                   bool* used_axfr = nullptr) const;
  /// The wildcard owner covering `qname`, if any ("*." + closest encloser).
  std::optional<Name> wildcard_for(const Name& qname) const;
  void add_denial(Message& response, const Name& qname) const;
  void add_rrset_with_sigs(Message& response, std::vector<ResourceRecord>& section,
                           const RRset& rrset) const;
  void add_additionals(Message& response) const;

  Zone zone_;
  UpdatePolicy policy_;
  std::uint32_t signature_validity_;

  // Journal state.
  std::deque<JournalEntry> journal_;
  std::size_t journal_limit_ = 64;
};

}  // namespace sdns::dns
