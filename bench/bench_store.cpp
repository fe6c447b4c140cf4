// Durable zone store microbenchmarks (BENCH_store.json).
//
// Questions the durability and edge design docs need numbers for:
//   1. WAL append throughput — records/s through append() with group-commit
//      fsyncs every `batch` records (batch=1 is the worst case: one fsync
//      per committed update; batch=32 approximates a PR-6 update batch).
//   2. fsync latency — p50/p99/max of the individual fdatasync calls, the
//      floor under every acknowledged update's commit latency.
//   3. Cold-restart time — open a data directory holding a snapshot of a
//      1k / 100k / 1M-RRset zone plus a short WAL tail, with the
//      deployment-shaped verifier (full Zone::from_wire parse, parsed zone
//      stashed in ZoneState::verified_zone exactly as sdnsd does) in place.
//      Each row also times the legacy v1 zone encoding's parse so the
//      SDNSZONE2 bulk-load speedup stays visible in the JSON.
//   4. Update-path scaling — per-update cost of apply_update + every
//      install_signature + finalize_journal on signed zones of 10k / 100k /
//      1M RRsets (NXT and SIG RRsets counted), alternating adds and deletes.
//      A stub signer stands in for the threshold protocol: this path never
//      verifies, so the numbers are the zone bookkeeping alone.
//   5. Edge refresh scaling — per-IXFR cost of bringing an edge's verified
//      copy up to date after a one-name update, on really signed zones of
//      10k / 100k / 1M RRsets: apply under a capture + verify_zone_changes,
//      against copying the zone, applying and running a full verify_zone.
//
//   bench_store [--dir DIR] [--records N] [--quick] [--json FILE]
//               [--threads N] [--max-parse-us N]
//
// --dir points at the filesystem under test (default: a fresh /tmp dir —
// NOTE: tmpfs fsyncs are free; point at a real disk for honest numbers).
// --quick caps the cold-restart, update and edge-refresh sweeps at 100k
// RRsets for CI smoke runs.
// --threads forwards to Zone::from_wire (0 = hardware concurrency).
// --max-parse-us N exits nonzero if the fastest of the 100k-RRset row's
// kParseRuns v2 zone parses exceeds N microseconds — the CI perf-smoke
// regression gate. The first parse runs right after the synthetic zone is
// freed and pays for that free in the allocator, so a single timing read
// 2-4x the steady value on a loaded machine with no code change.
#include <time.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "crypto/rsa.hpp"
#include "dns/dnssec.hpp"
#include "dns/server.hpp"
#include "dns/xfr.hpp"
#include "dns/zone.hpp"
#include "store/durable.hpp"
#include "util/fileio.hpp"
#include "util/rng.hpp"

namespace {

using sdns::bench::LatencySummary;
using sdns::dns::Name;
using sdns::store::DurableZoneStore;
using sdns::store::ZoneState;
using sdns::util::Bytes;
using sdns::util::BytesView;

double now_s() {
  timespec ts{};
  ::clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

std::string fresh_dir(const std::string& base, const std::string& name) {
  sdns::util::ensure_dir(base);  // --dir need not pre-exist
  const std::string dir = base + "/" + name;
  const std::string cleanup = "rm -rf '" + dir + "'";
  (void)std::system(cleanup.c_str());
  sdns::util::ensure_dir(dir);
  return dir;
}

struct WalRow {
  std::size_t batch = 0;
  std::size_t records = 0;
  double seconds = 0;
  double records_per_s = 0;
  double mb_per_s = 0;
  LatencySummary fsync_us;
  double fsync_max_us = 0;
  std::size_t fsyncs = 0;
};

/// Append `records` payloads of ~128 bytes (a small signed update) with one
/// group-commit fsync per `batch`, timing each fsync individually.
WalRow bench_wal(const std::string& base, std::size_t records, std::size_t batch) {
  const std::string dir = fresh_dir(base, "wal_b" + std::to_string(batch));
  DurableZoneStore::Options opt;
  opt.dir = dir;
  opt.snapshot_log_bytes = 0;  // measure the log alone, no compaction
  DurableZoneStore store(opt);

  const Bytes payload(128, 0x5A);
  std::vector<double> fsync_us;
  fsync_us.reserve(records / batch + 1);
  const double t0 = now_s();
  for (std::size_t i = 0; i < records; ++i) {
    store.append(i, BytesView(payload), /*mark=*/false);
    if ((i + 1) % batch == 0) {
      const double s0 = now_s();
      store.sync();
      fsync_us.push_back((now_s() - s0) * 1e6);
    }
  }
  store.sync();
  const double elapsed = now_s() - t0;

  WalRow row;
  row.batch = batch;
  row.records = records;
  row.seconds = elapsed;
  row.records_per_s = static_cast<double>(records) / elapsed;
  row.mb_per_s =
      static_cast<double>(store.wal_bytes()) / elapsed / (1024.0 * 1024.0);
  row.fsync_us = LatencySummary::of(fsync_us);
  for (const double v : fsync_us) row.fsync_max_us = std::max(row.fsync_max_us, v);
  row.fsyncs = fsync_us.size();
  return row;
}

struct RestartRow {
  std::size_t rrsets = 0;
  std::size_t zone_bytes = 0;
  std::size_t snapshot_bytes = 0;
  std::size_t wal_tail = 0;
  unsigned parse_threads = 0;    ///< Zone::from_wire thread request (0 = auto)
  double zone_parse_us = 0;      ///< first Zone::from_wire, SDNSZONE2 encoding
  double zone_parse_min_us = 0;  ///< fastest of kParseRuns (the gated value)
  double zone_parse_v1_us = 0;   ///< Zone::from_wire, legacy v1 encoding
  double zone_parse_ms = 0;      ///< zone_parse_us / 1000 (kept for trajectory)
  double open_ms = 0;            ///< DurableZoneStore ctor incl. verify (parse)
};

/// A synthetic unsigned zone of `rrsets` A records. Unsigned keeps the
/// sweep about I/O + parse cost; the threshold-verification cost of a
/// signed zone is covered by BENCH_crypto.json's verify numbers.
/// Both encodings of a synthetic zone. The Zone itself is built and
/// destroyed inside this function so the timed parses below start from the
/// same allocator state a long-running process restarts with (freed pages
/// ready for reuse), not a pristine heap paying a page fault per node.
void synthetic_zone_wires(std::size_t rrsets, Bytes& wire, Bytes& wire_v1) {
  sdns::dns::Zone zone = sdns::dns::Zone::from_text(
      Name::parse("bench.example."),
      "@ 3600 IN SOA ns1.bench.example. op.bench.example. 1 7200 3600 1209600 "
      "3600\n@ 3600 IN NS ns1.bench.example.\n");
  sdns::dns::ResourceRecord rr;
  rr.type = sdns::dns::RRType::kA;
  rr.ttl = 300;
  for (std::size_t i = 0; i < rrsets; ++i) {
    rr.name = Name::parse("h" + std::to_string(i) + ".bench.example.");
    const std::uint32_t a = static_cast<std::uint32_t>(i);
    rr.rdata = {10, static_cast<std::uint8_t>(a >> 16),
                static_cast<std::uint8_t>(a >> 8), static_cast<std::uint8_t>(a)};
    zone.add_record(rr);
  }
  wire = zone.to_wire();
  wire_v1 = zone.to_wire_v1();
}

/// SDNSZONE2 parses per cold-restart row.
constexpr int kParseRuns = 5;

RestartRow bench_restart(const std::string& base, std::size_t rrsets,
                         unsigned threads) {
  const std::string dir = fresh_dir(base, "restart_" + std::to_string(rrsets));
  Bytes wire;
  Bytes wire_v1;
  synthetic_zone_wires(rrsets, wire, wire_v1);

  RestartRow row;
  row.rrsets = rrsets;
  row.zone_bytes = wire.size();
  row.wal_tail = 32;
  row.parse_threads = threads;

  {
    DurableZoneStore::Options opt;
    opt.dir = dir;
    DurableZoneStore store(opt);
    ZoneState state;
    state.abcast_cursor = 1000;
    state.deliveries = 1000;
    state.zone_wire = wire;
    store.checkpoint([&] { return state; });
    // A realistic tail: a few dozen committed-but-uncompacted updates.
    const Bytes payload(128, 0x5A);
    for (std::size_t i = 0; i < row.wal_tail; ++i) {
      store.append(1000 + i, BytesView(payload), false);
    }
    store.sync();
  }

  for (int run = 0; run < kParseRuns; ++run) {
    const double t0 = now_s();
    const sdns::dns::Zone parsed = sdns::dns::Zone::from_wire(wire, threads);
    const double us = (now_s() - t0) * 1e6;
    if (parsed.rrset_count() < rrsets) std::abort();  // sanity
    if (run == 0) row.zone_parse_us = us;
    row.zone_parse_min_us = run == 0 ? us : std::min(row.zone_parse_min_us, us);
  }
  row.zone_parse_ms = row.zone_parse_us / 1e3;
  {
    const double t0 = now_s();
    const sdns::dns::Zone parsed = sdns::dns::Zone::from_wire(wire_v1);
    row.zone_parse_v1_us = (now_s() - t0) * 1e6;
    if (parsed.rrset_count() < rrsets) std::abort();  // sanity
  }

  const double t0 = now_s();
  DurableZoneStore::Options opt;
  opt.dir = dir;
  // The deployment verifier parses the embedded zone before trusting it and
  // stashes the parsed Zone for the restore path to adopt by move; the
  // synthetic zone is unsigned, so only the key pin is left out and open_ms
  // is what a restarting sdnsd actually waits.
  opt.verify = sdns::store::make_zone_verifier(std::nullopt, threads);
  DurableZoneStore store(opt);
  row.open_ms = (now_s() - t0) * 1e3;
  if (!store.recovered().usable() ||
      store.recovered().tail.size() != row.wal_tail) {
    std::fprintf(stderr, "restart recovery mismatch at %zu rrsets\n", rrsets);
    std::abort();
  }
  row.snapshot_bytes =
      sdns::util::read_entire_file(dir + "/snapshot.bin").size();
  return row;
}

struct UpdateRow {
  std::size_t rrsets = 0;  ///< after signing: data, NXT and SIG RRsets
  std::size_t updates = 0;
  std::size_t sigs_per_add = 0;
  std::size_t sigs_per_del = 0;
  LatencySummary us;  ///< per update, apply through finalize_journal
  double max_us = 0;
};

sdns::dns::Message host_update(const Name& origin, const Name& host, bool add) {
  sdns::dns::Message m;
  m.opcode = sdns::dns::Opcode::kUpdate;
  m.questions.push_back({origin, sdns::dns::RRType::kSOA, sdns::dns::RRClass::kIN});
  sdns::dns::ResourceRecord rr;
  rr.name = host;
  rr.type = sdns::dns::RRType::kA;
  if (add) {
    rr.ttl = 300;
    rr.rdata = {192, 0, 2, 1};
  } else {
    rr.klass = sdns::dns::RRClass::kANY;  // delete the RRset
  }
  m.updates().push_back(rr);
  return m;
}

const Name kBenchOrigin = Name::parse("bench.example.");

/// A zone of about `rrsets` RRsets once signed (per host: an A record, its
/// NXT and their SIGs), signed under `pub` by `sign`.
sdns::dns::Zone host_zone(std::size_t rrsets, const sdns::crypto::RsaPublicKey& pub,
                          const sdns::dns::SignFn& sign) {
  sdns::dns::Zone zone = sdns::dns::Zone::from_text(
      kBenchOrigin,
      "@ 3600 IN SOA ns1.bench.example. op.bench.example. 1 7200 3600 1209600 "
      "3600\n@ 3600 IN NS ns1.bench.example.\n");
  const std::size_t hosts = rrsets / 3;
  sdns::dns::ResourceRecord rr;
  rr.type = sdns::dns::RRType::kA;
  rr.ttl = 300;
  for (std::size_t i = 0; i < hosts; ++i) {
    rr.name = Name::parse("h" + std::to_string(i) + ".bench.example.");
    const std::uint32_t a = static_cast<std::uint32_t>(i);
    rr.rdata = {10, static_cast<std::uint8_t>(a >> 16),
                static_cast<std::uint8_t>(a >> 8), static_cast<std::uint8_t>(a)};
    zone.add_record(rr);
  }
  sdns::dns::sign_zone(zone, pub, 1, 0x7fffffff, sign);
  return zone;
}

/// A signed zone of about `rrsets` RRsets, then `updates` alternating
/// updates: add an A record at a new name beside a random host, then delete
/// it again.
UpdateRow bench_update_path(std::size_t rrsets, std::size_t updates) {
  const Name& origin = kBenchOrigin;
  const std::size_t hosts = rrsets / 3;
  sdns::util::Rng rng(16);
  const auto key = sdns::crypto::rsa_generate(rng, 512);
  const Bytes stub(64, 0xA5);
  const auto sign = [&](BytesView) { return stub; };
  sdns::dns::AuthoritativeServer server(host_zone(rrsets, key.pub, sign));

  UpdateRow row;
  row.rrsets = server.zone().rrset_count();
  row.updates = updates;
  std::vector<double> us;
  us.reserve(updates);
  Name host;
  for (std::size_t i = 0; i < updates; ++i) {
    const bool add = i % 2 == 0;
    if (add) {
      host = Name::parse("h" + std::to_string(rng.below(hosts)) + "u.bench.example.");
    }
    const sdns::dns::Message m = host_update(origin, host, add);
    const double t0 = now_s();
    const sdns::dns::UpdateResult res =
        server.apply_update(m, 1000 + static_cast<std::uint32_t>(i));
    for (const auto& task : res.sig_tasks) server.install_signature(task, stub);
    server.finalize_journal();
    us.push_back((now_s() - t0) * 1e6);
    if (res.rcode != sdns::dns::Rcode::kNoError) std::abort();
    (add ? row.sigs_per_add : row.sigs_per_del) = res.sig_tasks.size();
  }
  row.us = LatencySummary::of(us);
  for (const double v : us) row.max_us = std::max(row.max_us, v);
  return row;
}

struct EdgeRefreshRow {
  std::size_t rrsets = 0;
  std::size_t refreshes = 0;       ///< one-name IXFRs timed on the after path
  std::size_t full_refreshes = 0;  ///< then more, timed on the before path
  double sign_s = 0;  ///< one-time cost of signing the zone for real
  LatencySummary before_us;  ///< copy + apply + full verify_zone
  LatencySummary after_us;   ///< apply under a capture + verify_zone_changes
};

/// An edge refresh: a primary commits a one-name update (really signed, as
/// the edge checks every SIG), and the edge brings its copy up to date from
/// the IXFR. Before: copy the zone, apply, verify the whole candidate (what
/// the edge did until it kept one zone). After: apply under a capture and
/// verify only what the diff touched. `refreshes` diffs take the after path,
/// then `full_refreshes` more take the before path.
EdgeRefreshRow bench_edge_refresh(std::size_t rrsets, std::size_t refreshes,
                                  std::size_t full_refreshes) {
  sdns::util::Rng rng(20);
  const auto key = sdns::crypto::rsa_generate(rng, 512);
  const auto sign = [&](BytesView d) { return sdns::crypto::rsa_sign_sha1(key, d); };
  EdgeRefreshRow row;
  row.refreshes = refreshes;
  row.full_refreshes = full_refreshes;
  double t0 = now_s();
  sdns::dns::Zone edge = host_zone(rrsets, key.pub, sign);
  row.sign_s = now_s() - t0;
  row.rrsets = edge.rrset_count();
  sdns::dns::AuthoritativeServer primary(edge);

  // Each call commits the next update on the primary and returns the IXFR
  // that brings the edge from its serial to the primary's.
  const std::size_t hosts = rrsets / 3;
  std::size_t commits = 0;
  Name host;
  const auto next_ixfr = [&] {
    const bool add = commits++ % 2 == 0;
    if (add) {
      host = Name::parse("h" + std::to_string(rng.below(hosts)) + "u.bench.example.");
    }
    const sdns::dns::UpdateResult res =
        primary.apply_update(host_update(kBenchOrigin, host, add), 1000);
    for (const auto& task : res.sig_tasks) primary.install_signature(task, sign(task.data));
    primary.finalize_journal();
    return primary.answer_query(sdns::dns::make_ixfr_query(0, kBenchOrigin, *edge.soa()));
  };
  const auto applied = [](sdns::dns::Zone& zone, const sdns::dns::Message& ixfr) {
    return sdns::dns::apply_xfr_response(zone, ixfr) == sdns::dns::XfrOutcome::kAppliedIxfr;
  };

  std::vector<double> before, after;
  for (std::size_t i = 0; i < refreshes; ++i) {
    const sdns::dns::Message ixfr = next_ixfr();
    t0 = now_s();
    edge.begin_capture();
    const bool ok = applied(edge, ixfr) &&
                    sdns::dns::verify_zone_changes(edge, *edge.end_capture(), key.pub).ok;
    after.push_back((now_s() - t0) * 1e6);
    if (!ok) std::abort();
  }
  // Timed apart from the after path: freeing each candidate leaves the
  // allocator work (consolidating a zone's worth of small chunks) that the
  // next allocation pays, which belongs to the before path alone.
  for (std::size_t i = 0; i < full_refreshes; ++i) {
    const sdns::dns::Message ixfr = next_ixfr();
    t0 = now_s();
    sdns::dns::Zone candidate = edge;
    const bool ok = applied(candidate, ixfr) && sdns::dns::verify_zone(candidate, key.pub).ok;
    before.push_back((now_s() - t0) * 1e6);
    if (!ok) std::abort();
    edge = std::move(candidate);
  }
  row.before_us = LatencySummary::of(before);
  row.after_us = LatencySummary::of(after);
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  std::string dir;
  std::string json_path;
  std::size_t records = 200000;
  bool quick = false;
  unsigned threads = 0;
  double max_parse_us = 0;  // 0: no gate
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--dir") == 0 && i + 1 < argc) {
      dir = argv[++i];
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else if (std::strcmp(argv[i], "--records") == 0 && i + 1 < argc) {
      records = static_cast<std::size_t>(std::strtoull(argv[++i], nullptr, 10));
    } else if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc) {
      threads = static_cast<unsigned>(std::strtoul(argv[++i], nullptr, 10));
    } else if (std::strcmp(argv[i], "--max-parse-us") == 0 && i + 1 < argc) {
      max_parse_us = std::strtod(argv[++i], nullptr);
    } else {
      std::fprintf(stderr,
                   "usage: %s [--dir DIR] [--records N] [--quick] [--json FILE]"
                   " [--threads N] [--max-parse-us N]\n",
                   argv[0]);
      return 2;
    }
  }
  std::string owned;
  if (dir.empty()) {
    char tmpl[] = "/tmp/sdns_bench_store_XXXXXX";
    if (::mkdtemp(tmpl) == nullptr) return 1;
    owned = dir = tmpl;
  }

  std::ostringstream json;
  json << "{\n  \"benchmark\": \"store_durability\",\n  \"dir\": \"" << dir
       << "\",\n  \"wal\": [\n";
  const std::size_t batches[] = {1, 8, 32};
  bool first = true;
  for (const std::size_t batch : batches) {
    // batch=1 fsyncs per record: scale the record count down so the row
    // finishes in seconds even on a disk with ~1 ms fsyncs.
    const std::size_t n = batch == 1 ? records / 10 : records;
    const WalRow row = bench_wal(dir, n, batch);
    std::printf(
        "wal batch=%-3zu %9zu records in %6.2fs  %10.0f rec/s  %7.2f MB/s  "
        "fsync p50/p99/max %.0f/%.0f/%.0f us (%zu syncs)\n",
        row.batch, row.records, row.seconds, row.records_per_s, row.mb_per_s,
        row.fsync_us.p50, row.fsync_us.p99, row.fsync_max_us, row.fsyncs);
    char buf[512];
    std::snprintf(buf, sizeof buf,
                  "%s    {\"batch\": %zu, \"records\": %zu, \"seconds\": %.3f, "
                  "\"records_per_s\": %.0f, \"mb_per_s\": %.2f, \"fsyncs\": %zu, "
                  "\"fsync_us\": {\"p50\": %.1f, \"p99\": %.1f, \"max\": %.1f}}",
                  first ? "" : ",\n", row.batch, row.records, row.seconds,
                  row.records_per_s, row.mb_per_s, row.fsyncs, row.fsync_us.p50,
                  row.fsync_us.p99, row.fsync_max_us);
    json << buf;
    first = false;
  }
  json << "\n  ],\n  \"snapshot_format\": 2,\n  \"cold_restart\": [\n";

  std::vector<std::size_t> sweep = {1000, 100000, 1000000};
  if (quick) sweep.pop_back();
  first = true;
  bool gate_failed = false;
  for (const std::size_t rrsets : sweep) {
    const RestartRow row = bench_restart(dir, rrsets, threads);
    std::printf(
        "restart %8zu rrsets  zone %9zu B  snapshot %9zu B  parse %8.2f ms  "
        "(min of %d %8.2f ms, v1 %8.2f ms)  open %8.2f ms\n",
        row.rrsets, row.zone_bytes, row.snapshot_bytes, row.zone_parse_ms, kParseRuns,
        row.zone_parse_min_us / 1e3, row.zone_parse_v1_us / 1e3, row.open_ms);
    if (max_parse_us > 0 && rrsets == 100000 && row.zone_parse_min_us > max_parse_us) {
      std::fprintf(stderr,
                   "perf gate: 100k-RRset zone parse (min of %d) %.0f us exceeds "
                   "--max-parse-us %.0f\n",
                   kParseRuns, row.zone_parse_min_us, max_parse_us);
      gate_failed = true;
    }
    char buf[512];
    std::snprintf(
        buf, sizeof buf,
        "%s    {\"rrsets\": %zu, \"zone_bytes\": %zu, \"snapshot_bytes\": %zu, "
        "\"wal_tail_records\": %zu, \"parse_threads\": %u, "
        "\"zone_parse_us\": %.0f, \"zone_parse_min_us\": %.0f, "
        "\"zone_parse_v1_us\": %.0f, \"zone_parse_ms\": %.2f, \"open_ms\": %.2f}",
        first ? "" : ",\n", row.rrsets, row.zone_bytes, row.snapshot_bytes,
        row.wal_tail, row.parse_threads, row.zone_parse_us, row.zone_parse_min_us,
        row.zone_parse_v1_us, row.zone_parse_ms, row.open_ms);
    json << buf;
    first = false;
  }
  json << "\n  ],\n  \"update_path\": [\n";

  std::vector<std::size_t> update_sweep = {10000, 100000, 1000000};
  if (quick) update_sweep.pop_back();
  first = true;
  for (const std::size_t rrsets : update_sweep) {
    const UpdateRow row = bench_update_path(rrsets, 200);
    std::printf(
        "update %8zu rrsets  %zu updates  sigs add/del %zu/%zu  "
        "p50/p99/max %.1f/%.1f/%.1f us\n",
        row.rrsets, row.updates, row.sigs_per_add, row.sigs_per_del, row.us.p50,
        row.us.p99, row.max_us);
    char buf[512];
    std::snprintf(buf, sizeof buf,
                  "%s    {\"rrsets\": %zu, \"updates\": %zu, \"sigs_per_add\": %zu, "
                  "\"sigs_per_del\": %zu, \"update_us\": {\"p50\": %.1f, "
                  "\"p99\": %.1f, \"mean\": %.1f, \"max\": %.1f}}",
                  first ? "" : ",\n", row.rrsets, row.updates, row.sigs_per_add,
                  row.sigs_per_del, row.us.p50, row.us.p99, row.us.mean, row.max_us);
    json << buf;
    first = false;
  }
  json << "\n  ],\n  \"edge_refresh\": [\n";

  // Signing is the setup cost here (a real RSA signature per RRset), so 1M
  // RRsets runs only in the full sweep.
  std::vector<std::size_t> edge_sweep = {10000, 100000, 1000000};
  if (quick) edge_sweep.pop_back();
  first = true;
  for (const std::size_t rrsets : edge_sweep) {
    const EdgeRefreshRow row = bench_edge_refresh(rrsets, 40, rrsets >= 1000000 ? 3 : 9);
    std::printf(
        "edge refresh %8zu rrsets  signed in %.1f s  before (copy+apply+verify_zone) "
        "p50 %.0f us  after (apply+verify_zone_changes) p50/p99 %.1f/%.1f us\n",
        row.rrsets, row.sign_s, row.before_us.p50, row.after_us.p50, row.after_us.p99);
    char buf[512];
    std::snprintf(buf, sizeof buf,
                  "%s    {\"rrsets\": %zu, \"sign_s\": %.1f, \"refreshes\": %zu, "
                  "\"before_runs\": %zu, \"before_us\": {\"p50\": %.0f, \"mean\": %.0f}, "
                  "\"after_us\": {\"p50\": %.1f, \"p99\": %.1f, \"mean\": %.1f}}",
                  first ? "" : ",\n", row.rrsets, row.sign_s, row.refreshes,
                  row.full_refreshes, row.before_us.p50, row.before_us.mean,
                  row.after_us.p50, row.after_us.p99, row.after_us.mean);
    json << buf;
    first = false;
  }
  json << "\n  ]\n}\n";

  if (!json_path.empty()) {
    std::ofstream out(json_path);
    out << json.str();
  }
  if (!owned.empty()) {
    const std::string cleanup = "rm -rf '" + owned + "'";
    (void)std::system(cleanup.c_str());
  }
  return gate_failed ? 1 : 0;
}
