// Durable zone store — the narrow interface the replicated state machine
// persists through (ROADMAP item 1; shaped like nsblast's ResourceIf: the
// system codes against the interface, backends are swappable).
//
// The contract mirrors classic write-ahead logging, keyed by the atomic
// broadcast sequence:
//
//   deliver(seq, payload)  ->  append(seq, payload)        [buffered]
//   ...                        append(seq+1, payload')     [buffered]
//   first zone mutation    ->  sync()                      [ONE fsync]
//   apply mutations
//   pipeline drained       ->  maybe_snapshot(state_fn)    [compaction]
//
// sync() is group commit: one fsync covers every record appended since the
// last call — in particular a whole PR-6 update batch, and any payloads
// that queued behind an in-flight signing session. Non-mutating deliveries
// (disseminated reads) are appended as tiny cursor "marks" so the on-disk
// sequence stays contiguous; marks never force an fsync of their own.
//
// Recovery hands back a RecoveredState: the newest *verified* snapshot (the
// zone is threshold-signed, so a snapshot carrying the installed signatures
// is self-certifying — DurableZoneStore::Options::verify enforces it) plus
// the contiguous WAL tail from the snapshot's cursor. The replica replays
// the tail through its normal execution path and only falls back to network
// state transfer when the disk is behind the cluster.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "util/bytes.hpp"

namespace sdns::dns {
class Zone;
}

namespace sdns::store {

/// A consistent cut of one replica's replicated state, as persisted in a
/// snapshot: the zone in wire form plus every counter needed to resume the
/// state machine exactly where the snapshot was taken.
struct ZoneState {
  std::uint64_t abcast_cursor = 0;    ///< next abcast sequence to deliver
  std::uint64_t deliveries = 0;       ///< payloads executed so far
  std::uint64_t update_counter = 0;   ///< deterministic-inception counter
  std::uint64_t zone_generation = 1;  ///< packet-cache invalidation stamp
  util::Bytes zone_wire;              ///< dns::Zone::to_wire (signed zone)
  /// Verifier stash: the snapshot verifier had to parse zone_wire anyway,
  /// so it parks the result here and recovery installs it without paying a
  /// second full parse — at 1M RRsets that second parse dominates restart.
  std::shared_ptr<dns::Zone> verified_zone;
};

/// One recovered WAL record. `mark` records carry no payload: they advance
/// the cursor past a non-mutating delivery without re-executing it.
struct WalRecord {
  std::uint64_t seq = 0;
  bool mark = false;
  util::Bytes payload;
};

/// What the opening scan of a data directory produced.
struct RecoveredState {
  std::optional<ZoneState> snapshot;  ///< newest verified snapshot, if any
  /// Contiguous WAL records starting exactly at the snapshot's cursor (or
  /// at sequence 0 when there is no snapshot). Empty otherwise — a gapped
  /// tail cannot be replayed and is discarded.
  std::vector<WalRecord> tail;

  bool usable() const { return snapshot.has_value() || !tail.empty(); }
};

/// The storage seam. Exactly one implementation runs under a replica; the
/// in-memory one is the default so every existing test and simulation is
/// byte-for-byte unchanged.
class ZoneStoreIf {
 public:
  virtual ~ZoneStoreIf() = default;

  /// Buffer one delivered payload (or cursor mark) at `seq`. Sequences are
  /// appended strictly in order; durability is deferred to sync().
  virtual void append(std::uint64_t seq, util::BytesView payload, bool mark) = 0;

  /// Make every append so far durable (one fsync, skipped when clean).
  /// Called before the first zone mutation that depends on the appended
  /// records — the write-ahead invariant.
  virtual void sync() = 0;

  /// Compaction point: the replica is idle (nothing executing, queue
  /// drained), so `state` can produce a consistent cut. The store invokes
  /// it only if its log-bytes threshold says a snapshot is due.
  virtual void maybe_snapshot(const std::function<ZoneState()>& state) = 0;

  /// Unconditional snapshot + log truncation. Used when the replica adopts
  /// a network snapshot during recovery: the WAL's history no longer leads
  /// to the new state, so the disk must be re-anchored atomically. Lazy
  /// like maybe_snapshot — the in-memory backend never serializes the zone.
  virtual void checkpoint(const std::function<ZoneState()>& state) = 0;
};

/// The default backend: forgets everything. Keeping the no-op behind the
/// same interface means the replica's commit hook is always exercised.
class MemoryZoneStore final : public ZoneStoreIf {
 public:
  void append(std::uint64_t, util::BytesView, bool) override {}
  void sync() override {}
  void maybe_snapshot(const std::function<ZoneState()>&) override {}
  void checkpoint(const std::function<ZoneState()>&) override {}
};

}  // namespace sdns::store
