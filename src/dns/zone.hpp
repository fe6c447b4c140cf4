// Authoritative zone storage.
//
// A Zone holds the RRsets of one DNS zone keyed by (owner name, type), with
// owner names ordered canonically (RFC 4034 §6.1).  The canonical order is
// what the NXT chain walks: every authoritative name carries an NXT record
// naming its successor (the last name wraps to the apex), which lets a
// signed zone prove the *absence* of names and types.  Rebuilding that chain
// after a dynamic update is what makes the paper's adds cost 4 threshold
// signatures and deletes 2 (§5.2).
#pragma once

#include <functional>
#include <map>
#include <optional>
#include <string_view>
#include <utility>
#include <vector>

#include "dns/rr.hpp"

namespace sdns::dns {

class Zone {
 public:
  /// Canonical owner-name ordering (RFC 4034 §6.1) for the zone map.
  struct CanonicalLess {
    bool operator()(const Name& a, const Name& b) const {
      return Name::canonical_compare(a, b) < 0;
    }
  };
  using TypeMap = std::map<RRType, RRset>;
  using DataMap = std::map<Name, TypeMap, CanonicalLess>;

  /// Records per chunk in the SDNSZONE2 wire format (see to_wire). Chunks
  /// close on owner-name boundaries, so real chunks may run slightly over.
  static constexpr std::size_t kDefaultChunkRecords = 65536;

  explicit Zone(Name origin);

  /// Parse a simple master-file format: one record per line,
  /// "name [ttl] [IN] type rdata", '@' for the origin, names without a
  /// trailing dot are relative to the origin, ';' starts a comment.
  static Zone from_text(const Name& origin, std::string_view text);

  const Name& origin() const { return origin_; }

  /// True if `name` is at or below the origin.
  bool in_zone(const Name& name) const { return name.is_subdomain_of(origin_); }

  // ---- lookup ----
  const RRset* find(const Name& name, RRType type) const;
  std::vector<RRset> rrsets_at(const Name& name) const;
  bool name_exists(const Name& name) const;
  /// The last existing name canonically <= `name` (for NXT denial); the apex
  /// if `name` precedes every existing name.
  Name predecessor(const Name& name) const;

  // ---- mutation (low level; callers manage serial / NXT / SIGs) ----
  /// Insert one record, merging into its RRset (duplicates ignored,
  /// RRset TTL follows the new record).
  void add_record(const ResourceRecord& rr);
  /// Remove a whole RRset; returns true if something was removed.
  bool remove_rrset(const Name& name, RRType type);
  /// Remove one record matched by rdata; returns true if removed.
  bool remove_record(const Name& name, RRType type, util::BytesView rdata);
  /// Remove every RRset at a name.
  bool remove_name(const Name& name);

  // ---- SOA ----
  std::optional<SoaRdata> soa() const;
  /// Increment the SOA serial (throws std::logic_error if no SOA).
  void bump_serial();

  // ---- iteration ----
  /// All owner names, canonical order.
  std::vector<Name> names() const;
  void for_each_rrset(const std::function<void(const RRset&)>& fn) const;
  std::size_t record_count() const;
  std::size_t rrset_count() const;

  /// Recompute the NXT record at every name (next pointer + type bitmap,
  /// including the NXT and SIG types themselves). Returns the owner names
  /// whose NXT record changed or was created; removes NXT records at names
  /// that vanished. Names above 127 in the type registry are skipped in the
  /// bitmap (none of our supported types are). O(zone): sign_zone and tests
  /// use it; the update path uses refresh_nxt_chain.
  std::vector<Name> rebuild_nxt_chain();

  // ---- change capture (IXFR journal pre-images, incremental NXT) ----
  /// Each owner a mutator touched since begin_capture(), mapped to its types
  /// as they were before the first touch (nullopt: the owner did not exist).
  /// Every mutator above, remove_sigs and both NXT passes record into it.
  using PreImages = std::map<Name, std::optional<TypeMap>, CanonicalLess>;
  /// Start recording pre-images, discarding any capture still open.
  void begin_capture() { capture_.emplace(); }
  /// Close the capture and return it (nullopt if none was open).
  std::optional<PreImages> end_capture() { return std::exchange(capture_, std::nullopt); }
  /// Put every owner in `pre` (a closed capture) back as it was when that
  /// capture began: owners that did not exist are erased, the rest get their
  /// types back. With the capture's mutations the only ones since, the zone
  /// ends as it was, to_wire() byte for byte.
  void rollback(PreImages pre);

  /// Reads of the zone as the open capture found it: the pre-image at every
  /// owner the capture touched, the live data elsewhere. Without an open
  /// capture they read the zone itself. Transfers serve these, so a client
  /// never receives an update whose signatures are still being made.
  const RRset* find_committed(const Name& name, RRType type) const;
  void for_each_committed_rrset(const std::function<void(const RRset&)>& fn) const;

  /// The existing owner canonically just before / just after `name`,
  /// wrapping around the end of the zone the way the NXT chain does (so the
  /// apex follows the last name). `name` itself need not exist; a lone owner
  /// is its own neighbour. nullptr in an empty zone.
  const Name* cyclic_predecessor(const Name& name) const;
  const Name* cyclic_successor(const Name& name) const;

  /// rebuild_nxt_chain restricted to what the open capture recorded: drops
  /// touched owners left holding only NXT/SIG, then recomputes the NXT at
  /// every touched owner that remains and at the canonical predecessor of
  /// every touched owner. On a zone whose chain was whole before the capture
  /// opened, the result equals a full rebuild at O(k log n) for k touched
  /// owners.
  std::vector<Name> refresh_nxt_chain();

  /// Drop all SIG records covering `type` at `name`. Malformed SIG rdata is
  /// also dropped (it can never verify) but counted in
  /// malformed_sigs_dropped() so operators and chaos invariants can see it:
  /// in a fault-free run the counter must stay zero.
  void remove_sigs(const Name& name, RRType covered);

  /// Total malformed SIG rdatas silently discarded by remove_sigs over the
  /// life of this Zone object (exported as dns.zone.malformed_sigs_dropped).
  std::uint64_t malformed_sigs_dropped() const { return malformed_sigs_dropped_; }

  /// Full presentation-format dump in canonical order.
  std::string to_text() const;

  /// Binary snapshot of the whole zone (origin + every record), used for
  /// AXFR-style transfers and replica recovery. to_wire emits the chunked
  /// SDNSZONE2 format (magic + owner-aligned chunk index + canonical-order
  /// records) streamed straight off the map — no intermediate record vector.
  /// from_wire auto-detects the format: SDNSZONE2 parses chunks in parallel
  /// (`threads` workers; 0 = hardware concurrency) with strict order
  /// verification, while legacy v1 input (origin-first, no magic) stays
  /// readable forever via a sorted bulk-load path that falls back to
  /// add_record on out-of-order input. Throws util::ParseError on malformed
  /// input. Both writers and the parallel parser are deterministic: the same
  /// zone yields the same bytes, and the same bytes yield the same zone
  /// regardless of thread count.
  util::Bytes to_wire() const { return to_wire_v2(kDefaultChunkRecords); }
  util::Bytes to_wire_v2(std::size_t chunk_records) const;
  /// Legacy (pre-SDNSZONE2) encoding: origin, u32 record count, records.
  /// Kept for compatibility tests and for peers that only speak v1.
  util::Bytes to_wire_v1() const;
  static Zone from_wire(util::BytesView data, unsigned threads = 0);

  /// Builds a zone from a stream of records that is *expected* to arrive in
  /// canonical order (AXFR from our own serializers, snapshot replay).
  /// In-order records append in O(1) amortized; an out-of-order record
  /// degrades that single insert to the general add_record path, never
  /// rejects. Semantics match add_record exactly (duplicate rdatas collapse,
  /// RRset TTL follows the newest record).
  class SortedInserter {
   public:
    explicit SortedInserter(Zone& zone) : zone_(zone) {}
    void add(const ResourceRecord& rr);

   private:
    Zone& zone_;
  };

  /// Every record in canonical order (SOA-first AXFR framing is up to the
  /// caller).
  std::vector<ResourceRecord> all_records() const;

 private:
  static Zone from_wire_v1(util::BytesView data);
  static Zone from_wire_v2(util::BytesView data, unsigned threads);

  /// Save `name`'s pre-image if a capture is open and this is its first touch.
  void record(const Name& name);
  /// Store the NXT for `owner`, naming its canonical successor (the first
  /// name after the last); true if its rdata changed.
  bool set_nxt(DataMap::iterator owner, std::uint32_t ttl);
  std::uint32_t nxt_ttl() const;

  Name origin_;
  DataMap data_;
  std::uint64_t malformed_sigs_dropped_ = 0;
  std::optional<PreImages> capture_;
};

}  // namespace sdns::dns
