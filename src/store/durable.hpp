// DurableZoneStore — WAL + signed snapshots + disk-first recovery in one
// data directory:
//
//   <dir>/wal.log        the write-ahead log (store/wal.hpp format)
//   <dir>/snapshot.bin   newest snapshot (written to snapshot.tmp, renamed)
//
// Snapshot envelope (big-endian, util::Writer) — snapshot.bin and the
// network-recovery snapshot frame carry the same bytes:
//   8-byte magic "SDNSSNAP" | u8 version
//   u64 abcast_cursor | u64 deliveries | u64 update_counter
//   u64 zone_generation | lp32 zone_wire | u64 fnv1a(everything above)
//
// version=1 snapshots carry the legacy zone wire encoding, version=2 the
// chunked SDNSZONE2 encoding (dns/zone.cpp) that restores in parallel. New
// snapshots are written as v2; v1 files stay readable forever because
// Zone::from_wire auto-detects the payload format.
//
// The zone_wire carries the installed threshold SIG records, so a snapshot
// is self-certifying: recovery re-verifies the whole zone against the zone
// key (make_zone_verifier) before trusting it — a corrupted or attacker-
// planted snapshot fails verification and the replica falls back to the
// network state transfer, exactly as if the disk were empty. A snapshot a
// peer sends during network recovery passes the same verifier.
//
// Atomicity: snapshots are written to a temp file, fsynced, renamed over
// snapshot.bin, and the directory is fsynced — a crash leaves either the
// old snapshot or the new one, never a torn hybrid. The WAL is truncated
// only after the rename is durable; a crash between the two leaves stale
// pre-snapshot records that recovery skips by sequence number.
#pragma once

#include <memory>
#include <optional>
#include <string>

#include "crypto/rsa.hpp"
#include "store/wal.hpp"

namespace sdns::store {

/// Encode `state` as a current-version snapshot envelope (the stash is not
/// part of it).
util::Bytes encode_zone_state(const ZoneState& state);

/// Decode a snapshot envelope of any readable version. Throws
/// util::ParseError on a bad magic, checksum, version or layout. The
/// checksum only catches accidents; trust comes from make_zone_verifier.
ZoneState decode_zone_state(util::BytesView raw);

/// The snapshot verifier a replica installs as Options::verify: parse the
/// embedded zone (on `parse_threads` workers), require it to verify under
/// the dealt zone key `trusted` — skipped when nullopt, for unsigned zones —
/// and stash the parse in ZoneState::verified_zone for recovery to install.
std::function<bool(ZoneState&)> make_zone_verifier(
    std::optional<crypto::RsaPublicKey> trusted, unsigned parse_threads = 0);

class DurableZoneStore final : public ZoneStoreIf {
 public:
  struct Options {
    std::string dir;  ///< created if missing
    /// Snapshot when the WAL exceeds this many bytes (checked at
    /// maybe_snapshot, i.e. when the replica is idle). 0 disables
    /// size-triggered snapshots (checkpoint() still works).
    std::uint64_t snapshot_log_bytes = 4ull << 20;
    /// Snapshot admission: a checksum-valid snapshot is handed here before
    /// being trusted; return false to reject it (counted, and recovery
    /// proceeds as if no snapshot existed). The deployment installs
    /// make_zone_verifier. The state is mutable so the verifier can stash
    /// the zone it parsed in ZoneState::verified_zone for recovery to reuse.
    /// Null accepts all.
    std::function<bool(ZoneState&)> verify;
    /// An fsync/write failure aborts the process (default): a store that
    /// cannot make acknowledged updates durable must not keep serving.
    /// Tests set false to get util::IoError instead.
    bool fatal_io_errors = true;
    obs::Registry* metrics = nullptr;
  };

  /// Opens the directory and runs the disk half of the recovery ladder;
  /// recovered() holds the result. Throws util::IoError when the directory
  /// cannot be opened at all.
  explicit DurableZoneStore(Options options);

  /// What the opening scan found (snapshot + replayable tail).
  const RecoveredState& recovered() const { return recovered_; }

  // ZoneStoreIf
  void append(std::uint64_t seq, util::BytesView payload, bool mark) override;
  void sync() override;
  void maybe_snapshot(const std::function<ZoneState()>& state) override;
  void checkpoint(const std::function<ZoneState()>& state) override;

  std::uint64_t wal_bytes() const { return wal_->bytes(); }
  std::uint64_t snapshots_written() const { return snapshots_written_; }

 private:
  void write_snapshot(const ZoneState& state);
  template <typename Fn>
  void guarded(const char* what, Fn&& fn);

  Options opt_;
  std::unique_ptr<Wal> wal_;
  RecoveredState recovered_;
  std::uint64_t snapshots_written_ = 0;

  obs::Counter* c_snapshots_;
  obs::Counter* c_snapshot_bytes_;
  obs::Counter* c_snapshot_rejects_;
  obs::Counter* c_replayed_;
  obs::Counter* c_torn_bytes_;
  obs::Histogram* h_fsync_us_;
};

}  // namespace sdns::store
