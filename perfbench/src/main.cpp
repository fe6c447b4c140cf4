// perfbench_driver — one benchmark run against a freshly dealt cluster.
//
//   perfbench_driver --workload NAME --seed N --seconds S --trace 0|1
//                    --bin-dir DIR --work-dir DIR --out-dir DIR
//
// A run deals a (4,1) cluster whose 3000-name zone and keys come from the
// seed, boots four sdnsd replicas and one sdns_edge, and measures four
// phases in order (fractions of --seconds):
//
//   read    0.10  open-loop reads at a fixed rate against replica 0 only,
//                 in four bursts between the other phases: net frontend,
//                 packet cache and dns answer path; no updates
//   ladder    -   read capacity of one replica: open-loop steps on a fixed
//                 rate ladder against replica 0 while the others idle; as
//                 many ~1 s steps as the search needs (about 9)
//   update  0.35  a closed-loop TSIG client adding and deleting names, the
//                 gateway rotating per operation — the paper's Table 2 on the wire: gateway,
//                 abcast, dns apply/journal/NXT, threshold signing, WAL
//   mixed   0.35  open-loop reads spread over replicas and the edge beside a
//                 chain of add/delete updates, each sent once the edge served
//                 the one before; how long each change takes to be served by
//                 the edge (NOTIFY, IXFR, verify, swap). One at a time because
//                 a refresh that overlaps an update in flight is rejected by
//                 the edge (see the oracle) and its lag would measure that.
//
// The workload picks the read mix; every phase checks every answer against
// the seeded zone. Set-up (deal + boot until each process serves a verified
// answer) is repeated three times and its median reported. The last line of
// stdout is the result object; with --trace 1 it carries the per-layer
// metrics (scraped counters, replayed layer calls, /proc accounting) and the
// spans are written to --out-dir.
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "cluster.hpp"
#include "net/resolver.hpp"
#include "replay.hpp"
#include "traffic.hpp"
#include "util/bytes.hpp"

using namespace perfbench;
namespace dns = sdns::dns;
using sdns::net::SockAddr;

namespace {

constexpr std::size_t kZoneNames = 3000;
constexpr unsigned kSetups = 3;
constexpr const char* kOrigin = "example.com.";
constexpr std::uint64_t kReadStream = 0x5245'4144;
constexpr std::uint64_t kMixedStream = 0x4d49'5845;

struct Workload {
  const char* name;
  ReadMix mix;
};

// zipf: a skewed hot set the per-shard packet cache mostly holds; the tail
// and the fresh NXDOMAIN names still reach the dns answer path.
// uniform: every name equally likely, more NXDOMAINs, and half the queries
// advertising a 1232-byte payload. Each name has four cache keys (payload
// bucket x DO), 12000 in all against the 4096-entry cache, so most reads
// take the dns answer path on the replica's main loop.
constexpr Workload kWorkloads[] = {
    {"zipf", {1.1, 0.03, 0.02, 0.02, 0.25, 0.0}},
    {"uniform", {0.0, 0.10, 0.02, 0.02, 0.50, 0.50}},
};

constexpr double kReadRate = 8000;      ///< read phase, qps
constexpr double kMixedReadRate = 4000; ///< mixed phase, qps
/// The read phase runs as this many bursts spread over the run (before and
/// after the ladder, after the update phase, after the mixed phase);
/// read_p50_ms is the median of the bursts' medians, so a slow spell of the
/// host that covers one burst does not set it. No read tail is reported: on
/// a shared virtual machine, multi-ms vCPU stalls cover up to several
/// percent of a burst and set p90..p99 instead of the system; the bursts'
/// p90 and p99 are printed on stderr.
constexpr unsigned kReadBursts = 4;
/// Untimed reads after each cache flush: 6000, enough to fill the 4096-entry
/// cache on every workload, at a rate a cold cache sustains.
constexpr double kWarmUpReads = 6000;
constexpr double kWarmUpRate = 16000;
constexpr double kLadderStep = 0.3;     ///< seconds per ladder rung
constexpr double kLadderStart = 16000;  ///< first rung climbed from, qps
constexpr unsigned kLadderStride = 6;   ///< rungs per climbing step (x1.34)
/// The ladder tops out at rung 61, 98 kqps. Above ~100 kqps one driver
/// thread and the loopback path decide, not the replica: zipf steps there
/// failed by dropped reads with replica 0 at 80-85 % CPU, and its ceiling
/// spread 0.24 over five seeds. On zipf read_max_qps therefore says whether
/// the replica still sustains the top rung.
constexpr unsigned kLadderRungs = 62;
constexpr StepLimits kStepLimits{};

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.10g", v);
  return buf;
}

std::string result_json(bool correct, std::uint64_t attempted, std::uint64_t failed,
                        const std::vector<Metric>& metrics) {
  std::string s = "{\"correct\": " + std::string(correct ? "true" : "false") +
                  ", \"attempted\": " + std::to_string(attempted) +
                  ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    s += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " +
         json_number(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  return s + "}}";
}

double ratio(double num, double den) { return den > 0 ? num / den : 0; }

/// Sum of a counter's change across servers between two scrapes.
double delta(const std::vector<Counters>& a, const std::vector<Counters>& b,
             const std::string& name) {
  double d = 0;
  for (std::size_t i = 0; i < a.size() && i < b.size(); ++i) {
    d += counter(b[i], name) - counter(a[i], name);
  }
  return d;
}

double mean_of(const std::vector<Counters>& s, const std::string& name) {
  double v = 0;
  for (const Counters& c : s) v += counter(c, name);
  return s.empty() ? 0 : v / static_cast<double>(s.size());
}

/// Packet-cache hits and misses at one server between two scrapes.
struct CacheDelta {
  double hits = 0, misses = 0;
  CacheDelta(const Counters& a, const Counters& b)
      : hits(counter(b, "net.cache.hits") - counter(a, "net.cache.hits")),
        misses(counter(b, "net.cache.misses") - counter(a, "net.cache.misses")) {}
  double ratio() const { return hits + misses > 0 ? hits / (hits + misses) : 0; }
};

/// Fold one read burst into the phase total.
void merge(PhaseResult& into, const PhaseResult& from) {
  into.reads.merge(from.reads);
  into.late_ms.insert(into.late_ms.end(), from.late_ms.begin(), from.late_ms.end());
  into.reads_sent += from.reads_sent;
  into.reads_answered += from.reads_answered;
  into.wrong += from.wrong;
  into.send_errors += from.send_errors;
  into.wrong_examples.insert(into.wrong_examples.end(), from.wrong_examples.begin(),
                             from.wrong_examples.end());
  into.spans.insert(into.spans.end(), from.spans.begin(), from.spans.end());
  into.read_inputs.insert(into.read_inputs.end(), from.read_inputs.begin(),
                          from.read_inputs.end());
}

std::vector<Counters> scrape_all(const std::vector<SockAddr>& addrs) {
  std::vector<Counters> out;
  for (const SockAddr& a : addrs) out.push_back(scrape(a));
  return out;
}

struct Args {
  std::string workload, bin_dir, work_dir, out_dir;
  std::uint64_t seed = 1;
  double seconds = 40;
  bool trace = false;
};

int usage() {
  std::fprintf(stderr,
               "usage: perfbench_driver --workload zipf|uniform --seed N --seconds S "
               "--trace 0|1 --bin-dir DIR --work-dir DIR --out-dir DIR\n");
  return 2;
}

void write_trace(const std::string& path, const std::vector<const PhaseResult*>& phases,
                 const char* const* names, const ReplayResult& replay,
                 const std::vector<OpSpan>& replayed_ops) {
  std::ofstream out(path);
  for (std::size_t p = 0; p < phases.size(); ++p) {
    for (const OpSpan& s : phases[p]->spans) {
      out << "{\"span\": " << s.id << ", \"phase\": \"" << names[p] << "\", \"kind\": \""
          << s.kind << "\", \"target\": " << s.target << ", \"due\": " << json_number(s.due)
          << ", \"sent\": " << json_number(s.sent) << ", \"done\": " << json_number(s.done)
          << ", \"ok\": " << (s.ok ? "true" : "false") << "}\n";
    }
  }
  static const char* kStages[] = {"dns.apply_update", "dns.finalize_journal",
                                  "threshold.sign", "store.append_sync",
                                  "crypto.node_keys"};
  for (std::size_t i = 0; i < replay.updates.size(); ++i) {
    const auto d = replay.updates[i].durations();
    for (std::size_t k = 0; k < d.size(); ++k) {
      out << "{\"parent\": " << replayed_ops[i].id << ", \"name\": \"" << kStages[k]
          << "\", \"replayed\": true, \"dur_us\": " << json_number(d[k]) << "}\n";
    }
  }
}

int run(const Args& args) {
  const Workload* wl = nullptr;
  for (const Workload& w : kWorkloads) {
    if (args.workload == w.name) wl = &w;
  }
  if (!wl) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  std::vector<std::uint16_t> ports;
  for (unsigned k = 0; k < kSetups; ++k) {
    const auto block = PortBlock::for_instance(k).all();
    ports.insert(ports.end(), block.begin(), block.end());
  }
  std::string busy;
  if (!ports_free(ports, &busy)) {
    std::fprintf(stderr,
                 "port %s is still bound: a process from an earlier run is alive; "
                 "refusing to start\n",
                 busy.c_str());
    return 3;
  }
  std::filesystem::create_directories(args.work_dir);
  std::filesystem::create_directories(args.out_dir);
  split_cpus();

  const ZoneSpec zone = make_zone(args.seed, kZoneNames, kOrigin);

  // ---- set-up, three times; the last cluster stays up for the workload ----
  std::vector<double> setups;
  std::unique_ptr<Cluster> cluster;
  for (unsigned k = 0; k < kSetups; ++k) {
    cluster.reset();
    Cluster::Options copt;
    copt.bin_dir = args.bin_dir;
    copt.work_dir = args.work_dir + "/cluster" + std::to_string(k);
    std::filesystem::remove_all(copt.work_dir);
    copt.zone = &zone;
    copt.seed = args.seed;
    copt.ports = PortBlock::for_instance(k);
    cluster = std::make_unique<Cluster>(copt);
    setups.push_back(cluster->setup_s());
    std::fprintf(stderr, "setup %u: %.3f s (deal %.3f s)\n", k, cluster->setup_s(),
                 cluster->deal_s());
  }
  const auto& files = cluster->files();
  const std::vector<SockAddr>& core = files.dns_addrs;
  const SockAddr edge = files.edge_addrs.at(0);
  std::vector<SockAddr> servers = core;
  servers.push_back(edge);

  TrafficContext tctx;
  tctx.zone = &zone;
  tctx.zone_key = files.zone_key;
  tctx.tsig = {files.tsig_name, sdns::util::hex_decode(files.tsig_secret_hex)};
  tctx.seed = args.seed;
  Traffic traffic(tctx);

  const double S = args.seconds;
  // Traced runs scrape every server at the start (s0), before the update
  // phase (s1), after it (s2), and around the mixed phase (s3, s4).
  std::vector<Counters> s0, s1, s2, s3, s4;
  if (args.trace) s0 = scrape_all(servers);

  // ---- read ----
  ReadGenerator read_gen(wl->mix, zone.names.size(), args.seed, kReadStream);
  PhasePlan read_plan;
  read_plan.seconds = 0.10 * S / kReadBursts;
  read_plan.read_rate = kReadRate;
  read_plan.reads = &read_gen;
  // One replica under test: the others idle while it is measured, so the
  // replicas do not queue behind each other on the shared CPUs.
  read_plan.read_targets = {core[0]};
  read_plan.keep_spans = args.trace;
  read_plan.record_reads = args.trace;
  PhaseResult read_total;
  // Every timed read window (burst or ladder step) starts from the same
  // cache state. The cache evicts an arbitrary entry when full, so traffic
  // with never-repeated keys wears its hot set away: during one ladder its
  // hit ratio on zipf fell from 0.91 to 0.61, and the capacity with it. So
  // each window starts with one unmeasured update through replica 0, which
  // flushes every packet cache and is fully signed on replica 0 once it
  // answers, then fills the cache with untimed reads, then waits until
  // every server serves one signed serial: no replica still signs (one that
  // does answers NXDOMAIN with an NXT whose SIG is not there yet) and no
  // edge refresh competes for the CPUs.
  const auto prime_cache = [&] {
    if (!traffic.flush_caches(core[0])) {
      throw std::runtime_error("the cache-flushing update did not commit");
    }
    PhasePlan warm = read_plan;
    warm.read_rate = kWarmUpRate;
    warm.seconds = kWarmUpReads / kWarmUpRate;
    warm.keep_spans = warm.record_reads = false;
    const PhaseResult w = traffic.run(warm);
    read_total.wrong += w.wrong;
    read_total.wrong_examples.insert(read_total.wrong_examples.end(), w.wrong_examples.begin(),
                                     w.wrong_examples.end());
    if (!traffic.quiesce(servers, 10)) throw std::runtime_error("cluster did not settle");
  };
  std::vector<double> burst_p50;
  // Traced runs scrape replica 0 right before and after each timed burst
  // (never inside it), so the cache figures cover the bursts alone, and the
  // scrape after the first burst holds the server latency of fixed-rate
  // reads before the ladder overloads the replica.
  double burst_hits = 0, burst_misses = 0;
  Counters after_first_burst;
  const auto read_burst = [&] {
    prime_cache();
    const Counters before = args.trace ? scrape(core[0]) : Counters{};
    const PhaseResult b = traffic.run(read_plan);
    std::string cache_note;
    if (args.trace) {
      const Counters after = scrape(core[0]);
      const CacheDelta c(before, after);
      burst_hits += c.hits;
      burst_misses += c.misses;
      if (burst_p50.empty()) after_first_burst = after;
      char buf[64];
      std::snprintf(buf, sizeof buf, ", cache hit ratio %.3f", c.ratio());
      cache_note = buf;
    }
    burst_p50.push_back(b.reads.pct(50));
    std::fprintf(stderr, "read burst %zu: p50 %.4f ms, p90 %.4f ms, p99 %.4f ms%s\n",
                 burst_p50.size(), burst_p50.back(), b.reads.pct(90), b.reads.pct(99),
                 cache_note.c_str());
    merge(read_total, b);
  };
  read_burst();

  // ---- ladder ----
  const Ladder ladder{5000, 1.05, kLadderRungs};
  const auto start_rung = static_cast<unsigned>(
      std::ceil(std::log(kLadderStart / ladder.base) / std::log(ladder.ratio)));
  LadderSearch search(ladder, start_rung, kLadderStride);
  std::map<unsigned, StepResult> steps;
  std::uint64_t ladder_wrong = 0;
  std::vector<std::string> ladder_examples;
  // A rung fails only if two measurements of it fail: one stall of a shared
  // virtual CPU can blow a single step's p99 at any rate.
  const pid_t replica0 = cluster->replica_pids().at(0);
  const auto measure = [&](unsigned rung) {
    prime_cache();
    PhasePlan step;
    step.seconds = kLadderStep;
    step.read_rate = ladder.rate(rung);
    step.reads = &read_gen;
    step.read_targets = {core[0]};
    // Far past the 20 ms limit: an overloaded step fails without waiting.
    step.read_timeout_s = 0.1;
    step.check_all = false;
    const double cpu0 = process_cpu_s(replica0), t0 = now_s();
    const PhaseResult r = traffic.run(step);
    const double wall = now_s() - t0;
    StepResult sr;
    sr.replica_cpu_pct = 100 * (process_cpu_s(replica0) - cpu0) / wall;
    sr.driver_busy_pct = 100 * r.busy_s / wall;
    sr.offered_qps = step.read_rate;
    sr.achieved_qps = ratio(static_cast<double>(r.reads_answered), r.reads_active_s);
    sr.answered = ratio(static_cast<double>(r.reads_answered), static_cast<double>(r.reads_sent));
    sr.p99_ms = r.reads.pct(99);
    sr.late_p99_ms = percentile(r.late_ms, 99);
    ladder_wrong += r.wrong;
    for (const auto& e : r.wrong_examples) ladder_examples.push_back(e);
    std::fprintf(stderr,
                 "ladder rung %u: offered %.0f qps, answered %.5f, p99 %.3f ms, "
                 "late p99 %.3f ms, replica cpu %.0f %%, driver busy %.0f %%\n",
                 rung, sr.offered_qps, sr.answered, sr.p99_ms, sr.late_p99_ms,
                 sr.replica_cpu_pct, sr.driver_busy_pct);
    return sr;
  };
  while (const auto rung = search.next()) {
    StepResult sr = measure(*rung);
    if (!step_passes(sr, kStepLimits)) sr = measure(*rung);
    steps[*rung] = sr;
    search.record(*rung, step_passes(sr, kStepLimits));
  }
  const double max_qps = search.best() ? steps[*search.best()].achieved_qps : 0;
  read_burst();
  if (args.trace) s1 = scrape_all(servers);

  // ---- update ----
  PhasePlan update_plan;
  update_plan.seconds = 0.35 * S;
  update_plan.gateways = core;
  // One client, as in the paper's Table 2: each update's latency is its own
  // path through the layers. Concurrent clients queue behind each other's
  // O(zone) work on every replica's main loop and would measure that.
  update_plan.closed_loop_updates = true;
  update_plan.keep_spans = args.trace;
  const PhaseResult updates = traffic.run(update_plan);
  if (args.trace) s2 = scrape_all(servers);
  read_burst();
  if (args.trace) s3 = scrape_all(servers);

  // ---- mixed ----
  // No NXDOMAIN reads beside updates: a replica answers them from an NXT
  // chain whose new SIGs are still being threshold-signed, so the denial
  // does not verify until the update completes.
  ReadMix mixed_mix = wl->mix;
  mixed_mix.nx_share = 0;
  ReadGenerator mixed_gen(mixed_mix, zone.names.size(), args.seed, kMixedStream);
  PhasePlan mixed_plan;
  mixed_plan.seconds = 0.35 * S;
  mixed_plan.read_rate = kMixedReadRate;
  mixed_plan.reads = &mixed_gen;
  // Half the reads go to the edge, half round robin over the replicas.
  for (const SockAddr& a : core) {
    mixed_plan.read_targets.push_back(a);
    mixed_plan.read_targets.push_back(edge);
  }
  mixed_plan.gateways = core;
  mixed_plan.chained_updates = true;
  mixed_plan.edge = edge;
  mixed_plan.keep_spans = args.trace;
  const double edge_cpu0 = process_cpu_s(cluster->edge_pid()), mixed0 = now_s();
  const PhaseResult mixed = traffic.run(mixed_plan);
  const double edge_cpu_pct =
      100 * (process_cpu_s(cluster->edge_pid()) - edge_cpu0) / (now_s() - mixed0);
  if (args.trace) s4 = scrape_all(servers);
  read_burst();
  const PhaseResult& reads = read_total;

  // ---- correctness oracle (outside every timed window) ----
  bool invariants = true;
  const auto broken = [&](const std::string& what) {
    std::fprintf(stderr, "INVARIANT BROKEN: %s\n", what.c_str());
    invariants = false;
  };
  if (!traffic.cleanup(core)) broken("a cleanup delete did not commit");
  // Every replica and the edge converge on one signed serial...
  if (!traffic.quiesce(servers, 10)) {
    broken("replicas and edge did not converge on one signed SOA serial");
  }
  // ...the edge serves the last committed write...
  if (const auto last = traffic.last_write()) {
    sdns::net::StubResolver::Options ropt;
    ropt.servers = {edge};
    ropt.timeout = 0.5;
    ropt.edns_payload = 4096;
    sdns::net::StubResolver r(ropt);
    const auto res = r.query(traffic.update_name(last->name), dns::RRType::kA);
    const dns::Rcode want = last->add ? dns::Rcode::kNoError : dns::Rcode::kNxDomain;
    if (!res.ok || res.response.rcode != want) broken("edge does not serve the last write");
  }
  // ...and the replicas agree on the zone, fault-free, with a clean edge.
  const std::vector<Counters> fin = scrape_all(servers);
  for (std::size_t i = 0; i < core.size(); ++i) {
    if (fin[i].empty()) broken("replica " + std::to_string(i) + " did not answer the scrape");
    if (counter(fin[i], "replica.zone_digest") != counter(fin[0], "replica.zone_digest")) {
      broken("replica " + std::to_string(i) + " zone digest differs from replica 0");
    }
    if (counter(fin[i], "abcast.fallback") != 0) {
      broken("replica " + std::to_string(i) + " left the optimistic abcast path");
    }
  }
  if (fin.back().empty()) broken("edge did not answer the scrape");
  // Rejected transfers are counted, not fatal: under update load a replica
  // serves IXFR with the SOA of an update whose SIGs are still being signed,
  // the edge's verify gate rejects that candidate and refreshes again. The
  // edge answers themselves are checked like every other answer.
  if (const double rejected = counter(fin.back(), "edge.verify_failures"); rejected > 0) {
    std::fprintf(stderr, "note: the edge rejected %.0f unverifiable transfer(s)\n", rejected);
  }

  double peak_rss = 0;
  for (pid_t p : cluster->replica_pids()) peak_rss = std::max(peak_rss, process_peak_rss_mb(p));
  peak_rss = std::max(peak_rss, process_peak_rss_mb(cluster->edge_pid()));
  const std::string cluster_dir = cluster->dir();
  cluster.reset();

  // ---- accounting ----
  const std::uint64_t wrong = reads.wrong + updates.wrong + mixed.wrong + ladder_wrong;
  for (const PhaseResult* p : {&reads, &updates, &mixed}) {
    for (const auto& e : p->wrong_examples) std::fprintf(stderr, "WRONG ANSWER: %s\n", e.c_str());
  }
  for (const auto& e : ladder_examples) std::fprintf(stderr, "WRONG ANSWER: %s\n", e.c_str());
  std::uint64_t attempted = 0, failed = 0;
  for (const PhaseResult* p : {&reads, &updates, &mixed}) {
    for (const LatencySet* s : {&p->reads, &p->adds, &p->dels}) {
      attempted += s->attempted();
      failed += s->failed_count();
    }
    failed += p->edge_lag.failed_count();
  }
  const bool correct = wrong == 0 && invariants;

  std::vector<Metric> e2e = {
      {"setup_s", median(setups), "s"},
      {"peak_rss_mb", peak_rss, "MB"},
      {"read_p50_ms", median(burst_p50), "ms"},
      {"read_max_qps", max_qps, "qps"},
      {"add_p50_ms", updates.adds.pct(50), "ms"},
      {"add_p80_ms", updates.adds.pct(80), "ms"},
      {"del_p50_ms", updates.dels.pct(50), "ms"},
      {"del_p80_ms", updates.dels.pct(80), "ms"},
      {"updates_per_s", static_cast<double>(updates.committed) / updates.window_s, "1/s"},
      {"edge_lag_p50_ms", mixed.edge_lag.pct(50), "ms"},
      {"edge_lag_p80_ms", mixed.edge_lag.pct(80), "ms"},
  };
  std::fprintf(stderr,
               "samples: reads %zu, adds %zu, deletes %zu, edge lags %zu; mixed reads %zu; "
               "ladder steps %u\n",
               reads.reads.attempted(), updates.adds.attempted(), updates.dels.attempted(),
               mixed.edge_lag.attempted(), mixed.reads.attempted(), search.steps());
  for (const auto& [set, p] : {std::pair{&updates.adds, 80.0}, {&updates.dels, 80.0},
                              {&mixed.edge_lag, 80.0}}) {
    if (!supports_percentile(set->attempted(), p)) {
      std::fprintf(stderr, "note: p%.0f of %zu samples has fewer than %zu beyond it\n", p,
                   set->attempted(), kMinSamplesBeyond);
    }
  }
  // Every run records its end-to-end numbers so the traced run of the same
  // workload can report the tracing overhead against the untraced one.
  {
    std::ofstream out(args.out_dir + "/e2e-" + args.workload + "-trace" +
                      (args.trace ? "1" : "0") + ".json");
    out << result_json(correct, attempted, failed, e2e) << "\n";
  }

  std::vector<Metric> printed = e2e;
  if (args.trace) {
    ReplayInputs rin;
    rin.cluster_dir = cluster_dir;
    rin.scratch_dir = args.work_dir + "/store-replay";
    rin.reads = reads.read_inputs;
    for (const OpSpan& u : updates.updates) {
      if (u.ok) rin.updates.push_back(u);
    }
    const ReplayResult rep = replay(rin, traffic);

    // core: what the replayed stages do not explain of each add.
    std::vector<double> unattributed;
    for (std::size_t i = 0; i < rep.updates.size(); ++i) {
      const OpSpan& op = rin.updates[i];
      if (op.kind != 'a') continue;
      const Span parent{op.due * 1e6, op.done * 1e6};
      unattributed.push_back(self_time(parent, back_to_back(parent, rep.updates[i].durations())) /
                             1e3);
    }

    const auto replicas = [](const std::vector<Counters>& s) {
      return std::vector<Counters>(s.begin(), s.begin() + 4);
    };
    const auto edge_of = [](const std::vector<Counters>& s) {
      return std::vector<Counters>(s.end() - 1, s.end());
    };
    const auto rep0 = replicas(s0), rep1 = replicas(s1), rep2 = replicas(s2),
               rep4 = replicas(s4), rep_fin = replicas(fin);
    auto m = rep.metrics;
    m["net.cache_hit_ratio"] = ratio(burst_hits, burst_hits + burst_misses);
    m["net.cache_flushes_per_update"] =
        ratio(delta(s3, s4, "net.cache.flushes"), static_cast<double>(mixed.committed));
    // Reads and the ladder go to replica 0 alone.
    m["net.queries_per_recvmmsg"] =
        ratio(counter(s1[0], "net.udp.queries") - counter(s0[0], "net.udp.queries"),
              counter(s1[0], "net.udp.recvmmsg_calls") - counter(s0[0], "net.udp.recvmmsg_calls"));
    m["net.server_query_p50_us"] = counter(after_first_burst, "net.query.latency_us.p50");
    m["net.server_query_p99_us"] = counter(after_first_burst, "net.query.latency_us.p99");
    double send_errors = 0, mesh_drops = 0, reconnects = 0;
    for (std::size_t i = 0; i < fin.size(); ++i) {
      const auto d = [&](const char* name) { return counter(fin[i], name) - counter(s0[i], name); };
      send_errors += d("net.udp.send_errors");
      mesh_drops += d("mesh.conn.drops") + d("mesh.drops.fair_lossy");
      reconnects += d("mesh.reconnects");
    }
    for (const PhaseResult* p : {&reads, &updates, &mixed}) {
      send_errors += static_cast<double>(p->send_errors);
    }
    m["net.send_errors"] = send_errors;
    m["net.mesh_drops"] = mesh_drops;
    m["net.mesh_reconnects"] = reconnects;
    m["threshold.sign_us_p50"] = mean_of(rep2, "threshold.sign_us.p50");
    m["threshold.sign_us_p99"] = mean_of(rep2, "threshold.sign_us.p99");
    const double hits = delta(rep1, rep4, "threshold.optimistic.hit");
    m["threshold.optimistic_hit_ratio"] =
        ratio(hits, hits + delta(rep1, rep4, "threshold.optimistic.miss"));
    const double fast = delta(rep1, rep4, "abcast.commit.fast");
    m["abcast.fast_commit_ratio"] = ratio(fast, fast + delta(rep1, rep4, "abcast.commit.fallback"));
    const double phase_updates = static_cast<double>(updates.committed);
    m["abcast.deliveries_per_update"] =
        ratio(delta(rep1, rep2, "abcast.deliver") / 4, phase_updates);
    // From the batch count: the scraped .mean is truncated to a whole number.
    m["replica.update_batch_size_mean"] =
        ratio(phase_updates, delta(rep1, rep2, "replica.update_batch_size.count") / 4);
    m["store.fsync_us_p50"] = mean_of(rep2, "store.fsync_us.p50");
    m["store.fsync_us_p99"] = mean_of(rep2, "store.fsync_us.p99");
    m["store.wal_bytes_per_update"] =
        ratio(delta(rep1, rep2, "store.wal_append_bytes") / 4, phase_updates);
    m["store.snapshots"] = delta(rep0, rep_fin, "store.snapshots");
    m["edge.ixfr_per_update"] = ratio(delta(edge_of(s3), edge_of(s4), "edge.ixfr_applied"),
                                      static_cast<double>(mixed.committed));
    m["edge.verify_failures"] = counter(fin.back(), "edge.verify_failures");
    m["core.update_unattributed_ms"] = unattributed.empty() ? 0 : percentile(unattributed, 50);
    // The ceiling's bottleneck: both sides at the best passing rung and at
    // the first failing one (0 when the search never saw that rung).
    const auto at = [&](std::optional<unsigned> rung) {
      return rung ? steps.at(*rung) : StepResult{};
    };
    m["proc.replica_cpu_pct"] = at(search.best()).replica_cpu_pct;
    m["proc.driver_cpu_pct"] = at(search.best()).driver_busy_pct;
    m["proc.replica_cpu_pct_fail"] = at(search.first_failed()).replica_cpu_pct;
    m["proc.driver_cpu_pct_fail"] = at(search.first_failed()).driver_busy_pct;
    m["proc.edge_cpu_pct"] = edge_cpu_pct;
    std::vector<double> late = reads.late_ms;
    late.insert(late.end(), mixed.late_ms.begin(), mixed.late_ms.end());
    m["proc.driver_late_p99_ms"] = late.empty() ? 0 : percentile(late, 99);

    static const char* kUnits[][2] = {
        {"net.cache_hit_ratio", "ratio"},        {"net.cache_flushes_per_update", "1/update"},
        {"net.queries_per_recvmmsg", "1/call"},  {"net.server_query_p50_us", "us"},
        {"net.server_query_p99_us", "us"},       {"net.send_errors", "count"},
        {"net.mesh_drops", "count"},             {"net.mesh_reconnects", "count"},
        {"dns.answer_query_us_p50", "us"},       {"dns.answer_query_us_p99", "us"},
        {"dns.apply_update_us", "us"},           {"dns.finalize_journal_us", "us"},
        {"dns.rebuild_nxt_us", "us"},            {"dns.apply_xfr_us", "us"},
        {"dns.verify_zone_ms", "ms"},            {"dns.zone_copy_ms", "ms"},
        {"dns.zone_from_wire_ms", "ms"},         {"threshold.generate_share_us", "us"},
        {"threshold.verify_share_us", "us"},     {"threshold.assemble_us", "us"},
        {"threshold.final_verify_us", "us"},     {"threshold.sigs_per_add", "1/update"},
        {"threshold.sigs_per_del", "1/update"},  {"threshold.sign_us_p50", "us"},
        {"threshold.sign_us_p99", "us"},         {"threshold.optimistic_hit_ratio", "ratio"},
        {"crypto.rsa_sign_us", "us"},            {"crypto.rsa_verify_us", "us"},
        {"abcast.fast_commit_ratio", "ratio"},   {"abcast.deliveries_per_update", "1/update"},
        {"replica.update_batch_size_mean", "count"}, {"store.fsync_us_p50", "us"},
        {"store.fsync_us_p99", "us"},            {"store.append_sync_us", "us"},
        {"store.wal_bytes_per_update", "B/update"}, {"store.snapshots", "count"},
        {"edge.ixfr_per_update", "1/update"},    {"edge.verify_failures", "count"},
        {"core.update_unattributed_ms", "ms"},   {"proc.replica_cpu_pct", "%"},
        {"proc.driver_cpu_pct", "%"},            {"proc.replica_cpu_pct_fail", "%"},
        {"proc.driver_cpu_pct_fail", "%"},       {"proc.edge_cpu_pct", "%"},
        {"proc.driver_late_p99_ms", "ms"},
    };
    printed.clear();
    for (const auto& [name, unit] : kUnits) printed.push_back({name, m.at(name), unit});

    const char* names[] = {"read", "update", "mixed"};
    write_trace(args.out_dir + "/trace-" + args.workload + "-seed" + std::to_string(args.seed) +
                    ".jsonl",
                {&reads, &updates, &mixed}, names, rep, rin.updates);
    // The add's stages plus what they leave unexplained rebuild add_p50_ms.
    double stage_sum = 0;
    std::size_t adds = 0;
    for (std::size_t i = 0; i < rep.updates.size(); ++i) {
      if (rin.updates[i].kind != 'a') continue;
      for (double d : rep.updates[i].durations()) stage_sum += d;
      ++adds;
    }
    std::fprintf(stderr,
                 "add attribution: replayed stages %.3f ms + unattributed %.3f ms "
                 "(add_p50_ms %.3f)\n",
                 adds ? stage_sum / static_cast<double>(adds) / 1e3 : 0.0,
                 m["core.update_unattributed_ms"], updates.adds.pct(50));
  }

  for (const Metric& mt : e2e) {
    std::fprintf(stderr, "  %-32s %14.4f %s\n", mt.name.c_str(), mt.value, mt.unit.c_str());
  }
  if (args.trace) {
    for (const Metric& mt : printed) {
      std::fprintf(stderr, "  %-32s %14.4f %s\n", mt.name.c_str(), mt.value, mt.unit.c_str());
    }
  }
  std::printf("%s\n", result_json(correct, attempted, failed, printed).c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const auto value = [&](const char* flag) -> const char* {
      if (std::strcmp(argv[i], flag) != 0 || i + 1 >= argc) return nullptr;
      return argv[++i];
    };
    if (const char* v = value("--workload")) args.workload = v;
    else if (const char* v = value("--seed")) args.seed = std::stoull(v);
    else if (const char* v = value("--seconds")) args.seconds = std::stod(v);
    else if (const char* v = value("--trace")) args.trace = std::strcmp(v, "1") == 0;
    else if (const char* v = value("--bin-dir")) args.bin_dir = v;
    else if (const char* v = value("--work-dir")) args.work_dir = v;
    else if (const char* v = value("--out-dir")) args.out_dir = v;
    else return usage();
  }
  if (args.workload.empty() || args.bin_dir.empty() || args.work_dir.empty() ||
      args.out_dir.empty() || args.seconds <= 0) {
    return usage();
  }
  install_signal_cleanup();
  try {
    const int rc = run(args);
    kill_all_children();
    return rc;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_driver: %s\n", e.what());
    kill_all_children();
    return 1;
  }
}
