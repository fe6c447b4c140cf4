// Zone transfer helpers: RFC 1982 serial arithmetic and client-side
// application of AXFR / IXFR responses.
//
// The server side lives in AuthoritativeServer (answer_query handles the
// AXFR and IXFR pseudo-types; a bounded journal of per-update diffs feeds
// IXFR). These helpers let a secondary — or a recovering replica — bring a
// stale zone copy up to date from a transfer response.
#pragma once

#include "dns/message.hpp"
#include "dns/zone.hpp"

namespace sdns::dns {

/// RFC 1982 serial-number comparison for 32-bit DNS serials:
/// -1 if a < b, +1 if a > b, 0 if equal or incomparable (distance 2^31).
int serial_compare(std::uint32_t a, std::uint32_t b);

/// Build an IXFR query: question (zone, IXFR), authority carrying the
/// client's current SOA (whose serial tells the server where to diff from).
Message make_ixfr_query(std::uint16_t id, const Name& zone, const SoaRdata& current_soa);

/// Build an RFC 1996 NOTIFY message: opcode NOTIFY, question (zone, SOA),
/// and — when given — the current SOA in the answer section as the serial
/// hint §3.7 allows.
Message make_notify(std::uint16_t id, const Name& zone,
                    const ResourceRecord* current_soa = nullptr);

enum class XfrOutcome {
  kUpToDate,    ///< single-SOA response: nothing to do
  kAppliedIxfr, ///< incremental diffs applied
  kReplacedAxfr,///< full zone replaced
  kMalformed,   ///< response did not follow the transfer format
};

/// What a transfer response carries, read from its SOA framing alone:
/// kUpToDate (a lone SOA), kAppliedIxfr (diffs: a SOA second), kReplacedAxfr
/// (a whole zone), or kMalformed. apply_xfr_response takes the same branch.
XfrOutcome xfr_format(const Message& response);

/// Apply a transfer response (from answer_query on AXFR/IXFR) to `zone`.
/// An IXFR edits `zone` in place through its mutators, so under an open
/// capture a rejected or malformed diff can be rolled back; an AXFR
/// replaces `zone` whole.
XfrOutcome apply_xfr_response(Zone& zone, const Message& response);

/// Reassembles an RFC 5936 / RFC 1995 multi-message transfer stream (what
/// AuthoritativeServer::answer_xfr emits) back into the single logical
/// Message apply_xfr_response consumes. Feed envelopes in arrival order;
/// stop at kDone or kMalformed. Completion is detected structurally: AXFR
/// ends at the trailing SOA, IXFR when the diff walk closes back on the
/// target serial, and a lone leading SOA means already up to date.
class XfrAssembler {
 public:
  enum class State { kContinue, kDone, kMalformed };

  State feed(const Message& envelope);
  State state() const { return state_; }

  /// The reassembled logical transfer (meaningful once state() == kDone).
  const Message& combined() const { return combined_; }

 private:
  enum class Mode { kUnknown, kAxfr, kIxfrDeletions, kIxfrAdditions };
  State step(const ResourceRecord& rr);

  State state_ = State::kContinue;
  Mode mode_ = Mode::kUnknown;
  Message combined_;
  std::uint32_t target_serial_ = 0;
  std::size_t records_seen_ = 0;
};

}  // namespace sdns::dns
