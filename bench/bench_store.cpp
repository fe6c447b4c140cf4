// Durable zone store microbenchmarks (BENCH_store.json).
//
// Three questions the durability design doc needs numbers for:
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
//
//   bench_store [--dir DIR] [--records N] [--quick] [--json FILE]
//               [--threads N] [--max-parse-us N]
//
// --dir points at the filesystem under test (default: a fresh /tmp dir —
// NOTE: tmpfs fsyncs are free; point at a real disk for honest numbers).
// --quick caps the cold-restart sweep at 100k RRsets for CI smoke runs.
// --threads forwards to Zone::from_wire (0 = hardware concurrency).
// --max-parse-us N exits nonzero if the 100k-RRset row's v2 zone parse
// exceeds N microseconds — the CI perf-smoke regression gate.
#include <time.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "dns/zone.hpp"
#include "store/durable.hpp"
#include "util/fileio.hpp"

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
  double zone_parse_us = 0;      ///< Zone::from_wire, SDNSZONE2 encoding
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

  {
    const double t0 = now_s();
    const sdns::dns::Zone parsed = sdns::dns::Zone::from_wire(wire, threads);
    row.zone_parse_us = (now_s() - t0) * 1e6;
    row.zone_parse_ms = row.zone_parse_us / 1e3;
    if (parsed.rrset_count() < rrsets) std::abort();  // sanity
  }
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
        "(v1 %8.2f ms)  open %8.2f ms\n",
        row.rrsets, row.zone_bytes, row.snapshot_bytes, row.zone_parse_ms,
        row.zone_parse_v1_us / 1e3, row.open_ms);
    if (max_parse_us > 0 && rrsets == 100000 && row.zone_parse_us > max_parse_us) {
      std::fprintf(stderr,
                   "perf gate: 100k-RRset zone parse %.0f us exceeds --max-parse-us "
                   "%.0f\n",
                   row.zone_parse_us, max_parse_us);
      gate_failed = true;
    }
    char buf[512];
    std::snprintf(
        buf, sizeof buf,
        "%s    {\"rrsets\": %zu, \"zone_bytes\": %zu, \"snapshot_bytes\": %zu, "
        "\"wal_tail_records\": %zu, \"parse_threads\": %u, "
        "\"zone_parse_us\": %.0f, \"zone_parse_v1_us\": %.0f, "
        "\"zone_parse_ms\": %.2f, \"open_ms\": %.2f}",
        first ? "" : ",\n", row.rrsets, row.zone_bytes, row.snapshot_bytes,
        row.wal_tail, row.parse_threads, row.zone_parse_us, row.zone_parse_v1_us,
        row.zone_parse_ms, row.open_ms);
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
