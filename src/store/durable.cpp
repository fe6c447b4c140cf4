#include "store/durable.hpp"

#include <fcntl.h>
#include <time.h>

#include <cstdlib>
#include <cstring>

#include "dns/dnssec.hpp"
#include "util/fileio.hpp"
#include "util/log.hpp"

namespace sdns::store {

using util::Bytes;
using util::BytesView;

namespace {
constexpr char kSnapMagic[8] = {'S', 'D', 'N', 'S', 'S', 'N', 'A', 'P'};
// Snapshot versions share one field layout (cursor counters + lp32 zone
// wire + fnv1a trailer); the version byte records which zone wire encoding
// the writer used. v1 carried the legacy zone format, v2 carries SDNSZONE2
// (chunked, parallel-parsable — see dns/zone.cpp). Readers accept both
// forever: Zone::from_wire auto-detects the payload, so a snapshot written
// by a pre-SDNSZONE2 build still restores after an upgrade.
constexpr std::uint8_t kSnapVersion = 2;
constexpr std::uint8_t kSnapVersionMin = 1;

std::uint64_t now_us() {
  timespec ts{};
  ::clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000 +
         static_cast<std::uint64_t>(ts.tv_nsec) / 1'000;
}
}  // namespace

template <typename Fn>
void DurableZoneStore::guarded(const char* what, Fn&& fn) {
  try {
    fn();
  } catch (const util::IoError& e) {
    if (!opt_.fatal_io_errors) throw;
    // No retry, no degraded mode: after a failed fsync the kernel may have
    // dropped the very pages we acknowledged. Crash and recover from the
    // intact prefix instead of serving un-durable acknowledgements.
    SDNS_LOG_ERROR("store ", opt_.dir, ": fatal I/O failure during ", what, ": ",
                   e.what());
    std::abort();
  }
}

DurableZoneStore::DurableZoneStore(Options options) : opt_(std::move(options)) {
  obs::Registry* m = opt_.metrics;
  c_snapshots_ = m ? &m->counter("store.snapshots") : &obs::noop_counter();
  c_snapshot_bytes_ =
      m ? &m->counter("store.snapshot_bytes") : &obs::noop_counter();
  c_snapshot_rejects_ =
      m ? &m->counter("store.snapshot_rejects") : &obs::noop_counter();
  c_replayed_ = m ? &m->counter("store.wal_replayed") : &obs::noop_counter();
  c_torn_bytes_ = m ? &m->counter("store.wal_torn_bytes") : &obs::noop_counter();
  h_fsync_us_ = m ? &m->histogram("store.fsync_us") : &obs::noop_histogram();
  // Pre-create the names a scrape-based test asserts on, so they exist at 0.
  if (m) {
    m->counter("store.wal_appends");
    m->counter("store.recoveries_from_disk");
  }

  util::ensure_dir(opt_.dir);

  // ---- recovery ladder, disk half: snapshot, then the contiguous tail ----
  const std::string snap_path = opt_.dir + "/snapshot.bin";
  Bytes raw;
  try {
    raw = util::read_entire_file(snap_path);
  } catch (const util::IoError&) {
    // No snapshot yet — a fresh directory, or log-only history.
  }
  if (!raw.empty()) {
    bool ok = false;
    ZoneState snap;
    try {
      if (raw.size() < sizeof kSnapMagic + 1 + 8 ||
          std::memcmp(raw.data(), kSnapMagic, sizeof kSnapMagic) != 0) {
        throw util::ParseError("bad snapshot magic");
      }
      const BytesView body(raw.data(), raw.size() - 8);
      util::Reader sum_r(BytesView(raw).subspan(raw.size() - 8));
      if (util::fnv1a(body) != sum_r.u64()) throw util::ParseError("snapshot checksum");
      util::Reader r(body.subspan(sizeof kSnapMagic));
      const std::uint8_t version = r.u8();
      if (version < kSnapVersionMin || version > kSnapVersion) {
        throw util::ParseError("snapshot version");
      }
      snap.abcast_cursor = r.u64();
      snap.deliveries = r.u64();
      snap.update_counter = r.u64();
      snap.zone_generation = r.u64();
      snap.zone_wire = r.lp32();
      r.expect_done();
      ok = true;
    } catch (const util::ParseError& e) {
      SDNS_LOG_WARN("store ", opt_.dir, ": discarding corrupt snapshot: ",
                    e.what());
      c_snapshot_rejects_->inc();
    }
    if (ok && opt_.verify && !opt_.verify(snap)) {
      // Checksum-intact but the zone inside does not verify under the zone
      // key: disk tampering or bitrot past the checksum. Never trust it.
      SDNS_LOG_WARN("store ", opt_.dir,
                    ": snapshot failed zone-signature verification, rejecting");
      c_snapshot_rejects_->inc();
      ok = false;
    }
    if (ok) recovered_.snapshot = std::move(snap);
  }

  wal_ = std::make_unique<Wal>(opt_.dir + "/wal.log", opt_.metrics);
  c_torn_bytes_->inc(wal_->torn_bytes());

  // The tail must start exactly at the replay base and stay contiguous; a
  // gap means the records beyond it belong to a different history (e.g. a
  // crash lost the middle) and cannot be replayed.
  const std::uint64_t base =
      recovered_.snapshot ? recovered_.snapshot->abcast_cursor : 0;
  std::uint64_t expect = base;
  std::size_t skipped = 0;
  for (WalRecord& rec : wal_->take_records()) {
    if (rec.seq < base) {
      // Pre-snapshot leftovers: a crash between snapshot rename and WAL
      // reset leaves them behind; the snapshot already contains their effect.
      ++skipped;
      continue;
    }
    if (rec.seq != expect) {
      SDNS_LOG_WARN("store ", opt_.dir, ": WAL gap at seq ", rec.seq,
                    " (expected ", expect, "), dropping the rest of the tail");
      break;
    }
    ++expect;
    recovered_.tail.push_back(std::move(rec));
  }
  c_replayed_->inc(recovered_.tail.size());
  if (recovered_.usable()) {
    SDNS_LOG_INFO("store ", opt_.dir, ": recovered snapshot@",
                  recovered_.snapshot ? recovered_.snapshot->abcast_cursor : 0,
                  " + ", recovered_.tail.size(), " WAL records (", skipped,
                  " pre-snapshot skipped)");
  }
}

void DurableZoneStore::append(std::uint64_t seq, BytesView payload, bool mark) {
  guarded("wal append", [&] {
    WalRecord rec;
    rec.seq = seq;
    rec.mark = mark;
    rec.payload.assign(payload.begin(), payload.end());
    wal_->append(rec);
  });
}

void DurableZoneStore::sync() {
  guarded("wal sync", [&] {
    const std::uint64_t t0 = now_us();
    if (wal_->sync()) h_fsync_us_->observe(now_us() - t0);
  });
}

void DurableZoneStore::maybe_snapshot(const std::function<ZoneState()>& state) {
  if (opt_.snapshot_log_bytes == 0) return;
  if (wal_->bytes() < opt_.snapshot_log_bytes) return;
  checkpoint(state);
}

void DurableZoneStore::checkpoint(const std::function<ZoneState()>& state) {
  guarded("snapshot", [&] { write_snapshot(state()); });
}

void DurableZoneStore::write_snapshot(const ZoneState& state) {
  util::Writer w(state.zone_wire.size() + 64);
  w.raw(kSnapMagic, sizeof kSnapMagic);
  w.u8(kSnapVersion);
  w.u64(state.abcast_cursor);
  w.u64(state.deliveries);
  w.u64(state.update_counter);
  w.u64(state.zone_generation);
  w.lp32(state.zone_wire);
  const std::uint64_t sum = util::fnv1a(w.bytes());
  w.u64(sum);
  const Bytes blob = std::move(w).take();

  const std::string tmp = opt_.dir + "/snapshot.tmp";
  const std::string dst = opt_.dir + "/snapshot.bin";
  const int fd = util::retry_open(tmp, O_WRONLY | O_CREAT | O_TRUNC);
  try {
    util::write_all(fd, blob);
    const std::uint64_t t0 = now_us();
    util::fsync_fd(fd);
    h_fsync_us_->observe(now_us() - t0);
  } catch (...) {
    util::close_fd(fd);
    throw;
  }
  util::close_fd(fd);
  // rename + directory fsync: the snapshot becomes visible atomically and
  // durably. Only then is it safe to drop the log the snapshot supersedes.
  util::rename_file(tmp, dst);
  util::fsync_dir(opt_.dir);
  wal_->reset();
  ++snapshots_written_;
  c_snapshots_->inc();
  c_snapshot_bytes_->inc(blob.size());
  SDNS_LOG_INFO("store ", opt_.dir, ": snapshot@", state.abcast_cursor, " (",
                blob.size(), " bytes), log compacted");
}

std::function<bool(ZoneState&)> make_zone_verifier(
    std::optional<crypto::RsaPublicKey> trusted, unsigned parse_threads) {
  return [trusted = std::move(trusted), parse_threads](ZoneState& s) {
    try {
      auto zone = std::make_shared<dns::Zone>(
          dns::Zone::from_wire(s.zone_wire, parse_threads));
      if (trusted && !dns::verify_zone(*zone, *trusted).ok) return false;
      s.verified_zone = std::move(zone);
      return true;
    } catch (const util::ParseError&) {
      return false;
    }
  };
}

}  // namespace sdns::store
