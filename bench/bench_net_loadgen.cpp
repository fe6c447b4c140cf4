// Loopback QPS/latency baseline for the real transport (BENCH_net.json).
//
// Deals a fresh (4,1) cluster into a temp directory, forks four sdnsd-
// equivalent replica processes (same code path: EventLoop + ReplicaRuntime),
// drives cached A queries at a fixed open-loop rate from a Loadgen on the
// parent's own event loop, and prints a JSON report with achieved QPS,
// latency percentiles, and syscall-batching accounting.
//
//   bench_net_loadgen [--rate QPS] [--duration S] [--dir DIR] [--json FILE]
//                     [--shards N] [--sockets N] [--batch N] [--min-qps QPS]
//                     [--edges N] [--matrix CxS:RATE[:MIN[:BATCH]]]...
//                     [--fail-on-send-errors]
//
// The configuration is the §3.4 rare-update mode (disseminate_reads=false):
// reads are answered from the replica's local signed zone without a round of
// atomic broadcast — the path a production resolver-facing deployment runs.
// --shards runs each replica with N SO_REUSEPORT frontend shards; --sockets
// spreads the driver across that many source ports so the kernel's 4-tuple
// hash actually reaches every shard (defaults to the shard count); --batch
// caps the datagrams per sendmmsg/recvmmsg syscall (the sweep knob).
//
// --matrix turns one invocation into a cores × shards scaling run: each cell
// "CxS:RATE[:MIN[:BATCH]]" deals its own cluster, pins the replica processes
// onto the first C cores (round-robin) with sched_setaffinity, drives RATE
// qps, and enforces MIN as that cell's floor. Cells asking for more cores
// than the machine has are reported as skipped, not failed, so one matrix
// works across container sizes.
//
// --edges runs the replication-edge scenario instead: the (4,1) core takes
// sustained TSIG-signed RFC 2136 update load while N forked sdns_edge
// processes serve the offered read rate from their packet caches; the run
// passes only if every edge serves the last committed write within the
// propagation window (no-stale probe) with zero verification failures.
//
// Beyond the delivery bar, a cell fails if its floor is not sustained or the
// pure-read invariant breaks (a read-only workload must never increment the
// TSIG or opcode cache-bypass counters). --fail-on-send-errors additionally
// fails the run when any driver- or server-side kernel-refused send was
// counted — the batched datapath accounts every ENOBUFS/EAGAIN instead of
// dropping silently, so a clean loopback run must report zero.
#include <sched.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "net/cluster.hpp"
#include "net/edge.hpp"
#include "net/loadgen.hpp"
#include "net/resolver.hpp"
#include "net/runtime.hpp"

using namespace sdns;

namespace {

int run_replica(const std::string& config_path) {
  try {
    net::EventLoop loop;
    net::ReplicaRuntime runtime(loop, net::RuntimeConfig::load(config_path));
    runtime.start();
    loop.run();
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "replica %s: %s\n", config_path.c_str(), e.what());
    return 1;
  }
}

int run_edge(const std::string& config_path) {
  try {
    net::EventLoop loop;
    net::EdgeConfig config = net::EdgeConfig::load(config_path);
    // Loadgen cadence: retry the bootstrap fast, and keep the SOA-refresh
    // backstop tight enough that a lost NOTIFY can't dominate propagation.
    config.retry_interval = 0.2;
    config.refresh_interval = 2.0;
    net::EdgeRuntime runtime(loop, std::move(config));
    runtime.start();
    loop.run();
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "edge %s: %s\n", config_path.c_str(), e.what());
    return 1;
  }
}

/// One point of the cores × shards matrix.
struct CellSpec {
  unsigned cores = 1;    ///< replica processes pinned onto this many cores
  unsigned shards = 1;   ///< SO_REUSEPORT frontend shards per replica
  double rate = 6000;    ///< offered qps
  double min_qps = 0;    ///< regression floor (0 = delivery bar only)
  unsigned batch = net::Loadgen::kBatch;  ///< datagrams per syscall
  unsigned sockets = 0;  ///< driver source sockets (0 = match shards)
};

/// Parse "CxS:RATE[:MIN[:BATCH]]" (e.g. "1x4:40000:36000").
bool parse_cell(const std::string& text, CellSpec& out) {
  unsigned cores = 0, shards = 0, batch = net::Loadgen::kBatch;
  double rate = 0, min_qps = 0;
  const int n = std::sscanf(text.c_str(), "%ux%u:%lf:%lf:%u", &cores, &shards,
                            &rate, &min_qps, &batch);
  if (n < 3 || cores == 0 || shards == 0 || rate <= 0) return false;
  out.cores = cores;
  out.shards = shards;
  out.rate = rate;
  out.min_qps = min_qps;
  out.batch = batch;
  return true;
}

struct CellResult {
  bool skipped = false;  ///< machine too small for the requested cores
  bool ok = false;
  std::string json;  ///< one JSON object (indented two spaces deep)
};

std::uint64_t to_u64(const std::string& s) {
  return std::strtoull(s.c_str(), nullptr, 10);
}

CellResult run_cell(const CellSpec& spec, const std::string& dir,
                    double duration, unsigned cell_index,
                    bool fail_on_send_errors) {
  CellResult result;
  const unsigned available = std::max(1u, std::thread::hardware_concurrency());
  char head[512];
  if (spec.cores > available) {
    std::fprintf(stderr, "cell %ux%u: skipped (%u cores available)\n",
                 spec.cores, spec.shards, available);
    std::snprintf(head, sizeof head,
                  "{\n"
                  "  \"cores\": %u,\n"
                  "  \"shards\": %u,\n"
                  "  \"offered_qps\": %.0f,\n"
                  "  \"skipped\": \"machine has %u cores\"\n"
                  "}",
                  spec.cores, spec.shards, spec.rate, available);
    result.skipped = true;
    result.ok = true;  // a skip is not a regression
    result.json = head;
    return result;
  }
  const unsigned sockets = spec.sockets ? spec.sockets : spec.shards;

  const std::string cell_dir = dir + "/cell" + std::to_string(cell_index);
  const std::string mkdir_cmd =
      "rm -rf '" + cell_dir + "' && mkdir -p '" + cell_dir + "'";
  if (std::system(mkdir_cmd.c_str()) != 0) {
    std::fprintf(stderr, "cannot create %s\n", cell_dir.c_str());
    return result;
  }

  net::ClusterOptions copt;
  copt.n = 4;
  copt.t = 1;
  // Each cell forks its own cluster; spaced ports keep a dying cell's
  // sockets from colliding with the next one's bind.
  copt.dns_base_port = 6300 + 100 * static_cast<int>(cell_index);
  copt.mesh_base_port = 6350 + 100 * static_cast<int>(cell_index);
  copt.seed = 11;
  copt.shards = spec.shards;
  std::fprintf(stderr, "cell %ux%u: dealing cluster keys...\n", spec.cores,
               spec.shards);
  const net::ClusterFiles files = net::generate_cluster(cell_dir, copt);

  std::vector<pid_t> children;
  for (const std::string& config : files.configs) {
    const pid_t pid = ::fork();
    if (pid == 0) std::_Exit(run_replica(config));
    // Pin replica i onto core i mod C: the cell's cores are saturated
    // round-robin, and C < nproc leaves the remaining cores to the driver.
    cpu_set_t set;
    CPU_ZERO(&set);
    CPU_SET(children.size() % spec.cores, &set);
    if (sched_setaffinity(pid, sizeof set, &set) != 0) {
      std::fprintf(stderr, "warning: sched_setaffinity(%d) failed: %s\n", pid,
                   std::strerror(errno));
    }
    children.push_back(pid);
  }

  // Wait for the cluster to come up (all four answer a probe query).
  {
    net::StubResolver::Options ropt;
    ropt.timeout = 0.5;
    ropt.attempts = 40;
    for (const net::SockAddr& addr : files.dns_addrs) {
      ropt.servers = {addr};
      net::StubResolver probe(ropt);
      const auto r = probe.query(dns::Name::parse("www.example.com."),
                                 dns::RRType::kA);
      if (!r.ok) {
        std::fprintf(stderr, "replica at %s never came up\n",
                     addr.to_string().c_str());
        for (pid_t pid : children) ::kill(pid, SIGTERM);
        for (pid_t pid : children) ::waitpid(pid, nullptr, 0);
        return result;
      }
    }
  }

  std::fprintf(stderr,
               "cell %ux%u up; driving %.0f qps for %.1f s (batch %u)...\n",
               spec.cores, spec.shards, spec.rate, duration, spec.batch);
  net::Loadgen::Report r;
  {
    net::EventLoop loop;
    net::Loadgen::Options lopt;
    lopt.servers = files.dns_addrs;
    lopt.name = dns::Name::parse("www.example.com.");
    lopt.rate = spec.rate;
    lopt.duration = duration;
    lopt.sockets = sockets;
    lopt.batch = spec.batch;
    net::Loadgen loadgen(loop, lopt);
    loadgen.start();
    loop.run();
    r = loadgen.report();
  }

  // Scrape each replica's counters while it is still alive: server-side
  // query totals, syscall-batching accounting, the server-observed latency
  // histogram, and — the run's fault-free invariant — zero abcast fallbacks.
  std::vector<std::map<std::string, std::string>> counters;
  for (const net::SockAddr& addr : files.dns_addrs) {
    counters.push_back(net::scrape_stats(addr));
  }

  for (pid_t pid : children) ::kill(pid, SIGTERM);
  for (pid_t pid : children) ::waitpid(pid, nullptr, 0);

  bool fallback_free = true;
  bool bypass_clean = true;
  std::uint64_t cache_hits = 0, cache_misses = 0;
  std::uint64_t server_queries = 0, server_recvmmsg = 0, server_sendmmsg = 0;
  std::uint64_t server_send_errors = 0;
  std::ostringstream replicas_json;
  for (std::size_t i = 0; i < counters.size(); ++i) {
    const auto& c = counters[i];
    auto get = [&c](const char* key) -> std::string {
      auto it = c.find(key);
      return it == c.end() ? "0" : it->second;
    };
    if (c.empty() || get("abcast.fallback") != "0") fallback_free = false;
    // A pure-read, unsigned workload must never take the TSIG or opcode
    // bypass — either one firing means signed/update traffic slipped into
    // the cacheable path or vice versa.
    if (get("net.cache.bypass.tsig") != "0" ||
        get("net.cache.bypass.opcode") != "0") {
      bypass_clean = false;
    }
    cache_hits += to_u64(get("net.cache.hits"));
    cache_misses += to_u64(get("net.cache.misses"));
    server_queries += to_u64(get("net.udp.queries"));
    server_recvmmsg += to_u64(get("net.udp.recvmmsg_calls"));
    server_sendmmsg += to_u64(get("net.udp.sendmmsg_calls"));
    server_send_errors += to_u64(get("net.udp.send_errors"));
    replicas_json << "    {\n"
                  << "      \"replica\": " << i << ",\n"
                  << "      \"scraped\": " << (c.empty() ? "false" : "true")
                  << ",\n"
                  << "      \"udp_queries\": " << get("net.udp.queries") << ",\n"
                  << "      \"replica_reads\": " << get("replica.reads") << ",\n"
                  << "      \"abcast_fallback\": " << get("abcast.fallback")
                  << ",\n"
                  << "      \"cache_hits\": " << get("net.cache.hits") << ",\n"
                  << "      \"cache_misses\": " << get("net.cache.misses")
                  << ",\n"
                  << "      \"cache_bypass_tsig\": "
                  << get("net.cache.bypass.tsig") << ",\n"
                  << "      \"cache_bypass_opcode\": "
                  << get("net.cache.bypass.opcode") << ",\n"
                  << "      \"udp_send_errors\": " << get("net.udp.send_errors")
                  << ",\n"
                  << "      \"recvmmsg_calls\": "
                  << get("net.udp.recvmmsg_calls") << ",\n"
                  << "      \"sendmmsg_calls\": "
                  << get("net.udp.sendmmsg_calls") << ",\n"
                  << "      \"query_latency_us\": {\n"
                  << "        \"count\": " << get("net.query.latency_us.count")
                  << ",\n"
                  << "        \"p50\": " << get("net.query.latency_us.p50")
                  << ",\n"
                  << "        \"p99\": " << get("net.query.latency_us.p99")
                  << ",\n"
                  << "        \"max\": " << get("net.query.latency_us.max")
                  << "\n"
                  << "      }\n"
                  << "    }" << (i + 1 < counters.size() ? "," : "") << "\n";
  }
  const double cache_hit_rate =
      (cache_hits + cache_misses) > 0
          ? static_cast<double>(cache_hits) /
                static_cast<double>(cache_hits + cache_misses)
          : 0.0;
  // Datagrams moved per syscall, both sides — THE number kernel batching
  // exists to raise (1.0 means one syscall per packet, the unbatched floor).
  const double server_queries_per_recvmmsg =
      server_recvmmsg ? static_cast<double>(server_queries) /
                            static_cast<double>(server_recvmmsg)
                      : 0.0;
  const double driver_sent_per_sendmmsg =
      r.sendmmsg_calls
          ? static_cast<double>(r.sent) / static_cast<double>(r.sendmmsg_calls)
          : 0.0;

  char json[2560];
  std::snprintf(json, sizeof json,
                "{\n"
                "  \"benchmark\": \"net_loadgen_loopback\",\n"
                "  \"topology\": \"(4,1) localhost, direct reads\",\n"
                "  \"cores\": %u,\n"
                "  \"shards\": %u,\n"
                "  \"driver_sockets\": %u,\n"
                "  \"batch\": %u,\n"
                "  \"offered_qps\": %.0f,\n"
                "  \"min_qps\": %.0f,\n"
                "  \"duration_s\": %.1f,\n"
                "  \"sent\": %llu,\n"
                "  \"received\": %llu,\n"
                "  \"duplicate_responses\": %llu,\n"
                "  \"timed_out\": %llu,\n"
                "  \"achieved_qps\": %.0f,\n"
                "  \"cache_hit_rate\": %.4f,\n"
                "  \"driver_send_errors\": %llu,\n"
                "  \"driver_sendmmsg_calls\": %llu,\n"
                "  \"driver_recvmmsg_calls\": %llu,\n"
                "  \"driver_sent_per_sendmmsg\": %.2f,\n"
                "  \"server_send_errors\": %llu,\n"
                "  \"server_queries_per_recvmmsg\": %.2f,\n"
                "  \"latency_ms\": {\n"
                "    \"mean\": %.3f,\n"
                "    \"p50\": %.3f,\n"
                "    \"p90\": %.3f,\n"
                "    \"p99\": %.3f,\n"
                "    \"p999\": %.3f,\n"
                "    \"max\": %.3f\n"
                "  },\n"
                "  \"replica_counters\": [\n",
                spec.cores, spec.shards, sockets, spec.batch, spec.rate,
                spec.min_qps, duration,
                static_cast<unsigned long long>(r.sent),
                static_cast<unsigned long long>(r.received),
                static_cast<unsigned long long>(r.duplicate_responses),
                static_cast<unsigned long long>(r.timed_out), r.achieved_qps,
                cache_hit_rate,
                static_cast<unsigned long long>(r.send_errors),
                static_cast<unsigned long long>(r.sendmmsg_calls),
                static_cast<unsigned long long>(r.recvmmsg_calls),
                driver_sent_per_sendmmsg,
                static_cast<unsigned long long>(server_send_errors),
                server_queries_per_recvmmsg, r.mean * 1e3, r.p50 * 1e3,
                r.p90 * 1e3, r.p99 * 1e3, r.p999 * 1e3, r.max * 1e3);
  result.json = json;
  result.json += replicas_json.str();
  result.json += "  ]\n}";

  // ≥95% answered at the offered rate counts as sustaining it, a fault-free
  // run must never leave the optimistic abcast path, a pure-read run must
  // never trip the TSIG/opcode cache bypass, and --min-qps (when given) is
  // the regression floor.
  const bool delivered = r.received >= static_cast<std::uint64_t>(0.95 * r.sent);
  // 2% tolerance: achieved = received / elapsed quantizes a hair below the
  // offered rate even at 100% delivery, so an exact floor would always fail.
  const bool fast_enough =
      spec.min_qps <= 0 || r.achieved_qps >= 0.98 * spec.min_qps;
  const bool sends_clean =
      !fail_on_send_errors || (r.send_errors == 0 && server_send_errors == 0);
  result.ok =
      delivered && fallback_free && bypass_clean && fast_enough && sends_clean;
  std::fprintf(stderr,
               "%s cell %ux%u: %llu/%llu answered, %.0f qps (floor %.0f), "
               "cache hit rate %.3f, %.1f q/recvmmsg, %llu send errors, "
               "%s, %s\n",
               result.ok ? "PASS" : "FAIL", spec.cores, spec.shards,
               static_cast<unsigned long long>(r.received),
               static_cast<unsigned long long>(r.sent), r.achieved_qps,
               spec.min_qps, cache_hit_rate, server_queries_per_recvmmsg,
               static_cast<unsigned long long>(r.send_errors +
                                               server_send_errors),
               fallback_free ? "fallback-free" : "FALLBACK OBSERVED",
               bypass_clean ? "bypass-clean" : "CACHE BYPASS TRIPPED");
  return result;
}

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// The replication-edge scenario: a (4,1) core under sustained RFC 2136
/// update load while `edges` forked sdns_edge processes serve the read
/// traffic at full packet-cache speed. Passes when the offered read rate is
/// delivered AND every edge is fresh (serves the last committed update)
/// within the propagation window after the load stops AND no edge ever
/// installed (or was even offered) an unverifiable zone.
bool run_edge_scenario(unsigned edges, double rate, double duration,
                       const std::string& dir, std::string* json_out) {
  net::ClusterOptions copt;
  copt.n = 4;
  copt.t = 1;
  copt.require_tsig = true;
  copt.seed = 11;
  copt.edges = edges;
  copt.dns_base_port = 6300;
  copt.mesh_base_port = 6350;
  copt.edge_base_port = 6400;
  std::fprintf(stderr, "edges scenario: dealing cluster keys...\n");
  const net::ClusterFiles files = net::generate_cluster(dir, copt);
  const dns::TsigKey tsig_key{files.tsig_name,
                              util::hex_decode(files.tsig_secret_hex)};

  std::vector<pid_t> children;
  for (const std::string& config : files.configs) {
    const pid_t pid = ::fork();
    if (pid == 0) std::_Exit(run_replica(config));
    children.push_back(pid);
  }
  const auto shutdown = [&children] {
    for (pid_t pid : children) ::kill(pid, SIGTERM);
    for (pid_t pid : children) ::waitpid(pid, nullptr, 0);
  };

  // Wait for the core, then fork the edges and wait for their bootstrap
  // (an edge answers ServFail until its AXFR copy verified and installed).
  {
    net::StubResolver::Options ropt;
    ropt.timeout = 0.5;
    ropt.attempts = 40;
    for (const net::SockAddr& addr : files.dns_addrs) {
      ropt.servers = {addr};
      net::StubResolver probe(ropt);
      if (!probe.query(dns::Name::parse("www.example.com."), dns::RRType::kA).ok) {
        std::fprintf(stderr, "replica at %s never came up\n",
                     addr.to_string().c_str());
        shutdown();
        return false;
      }
    }
  }
  for (const std::string& config : files.edge_configs) {
    const pid_t pid = ::fork();
    if (pid == 0) std::_Exit(run_edge(config));
    children.push_back(pid);
  }
  for (const net::SockAddr& addr : files.edge_addrs) {
    const double deadline = now_s() + 30.0;
    bool up = false;
    while (now_s() < deadline) {
      net::StubResolver::Options ropt;
      ropt.servers = {addr};
      ropt.timeout = 0.5;
      ropt.attempts = 1;
      net::StubResolver probe(ropt);
      const auto r =
          probe.query(dns::Name::parse("www.example.com."), dns::RRType::kA);
      if (r.ok && r.response.rcode == dns::Rcode::kNoError &&
          !r.response.answers.empty()) {
        up = true;
        break;
      }
      ::usleep(100 * 1000);
    }
    if (!up) {
      std::fprintf(stderr, "edge at %s never bootstrapped\n",
                   addr.to_string().c_str());
      shutdown();
      return false;
    }
  }

  // Sustained update load: one TSIG-signed RFC 2136 add every 250 ms,
  // round-robin across the core, each a fresh owner name so the no-stale
  // probe below has an unambiguous "last committed write" to look for.
  std::atomic<bool> stop_updates{false};
  std::atomic<unsigned> committed{0};
  std::thread updater([&] {
    unsigned i = 0;
    while (!stop_updates.load(std::memory_order_relaxed)) {
      dns::Message update;
      update.opcode = dns::Opcode::kUpdate;
      update.questions.push_back({dns::Name::parse("example.com."),
                                  dns::RRType::kSOA, dns::RRClass::kIN});
      dns::ResourceRecord rr;
      rr.name = dns::Name::parse("u" + std::to_string(i) + ".example.com.");
      rr.type = dns::RRType::kA;
      rr.ttl = 300;
      rr.rdata = dns::ARdata::from_text("10.9." + std::to_string(i / 250) + "." +
                                        std::to_string(i % 250 + 1))
                     .encode();
      update.updates().push_back(rr);
      net::StubResolver::Options ropt;
      ropt.servers = {files.dns_addrs[i % files.dns_addrs.size()]};
      ropt.timeout = 2.0;
      ropt.attempts = 2;
      net::StubResolver r(ropt);
      const auto res = r.send_update(std::move(update), &tsig_key);
      if (res.ok && res.response.rcode == dns::Rcode::kNoError) {
        committed.store(++i, std::memory_order_relaxed);
      }
      ::usleep(250 * 1000);
    }
  });

  std::fprintf(stderr,
               "core + %u edge(s) up; driving %.0f qps at the edges for "
               "%.1f s under update load...\n",
               edges, rate, duration);
  net::Loadgen::Report r;
  {
    net::EventLoop loop;
    net::Loadgen::Options lopt;
    lopt.servers = files.edge_addrs;
    lopt.name = dns::Name::parse("www.example.com.");
    lopt.rate = rate;
    lopt.duration = duration;
    net::Loadgen loadgen(loop, lopt);
    loadgen.start();
    loop.run();
    r = loadgen.report();
  }
  stop_updates.store(true, std::memory_order_relaxed);
  updater.join();

  // No-stale probe: after the propagation window (NOTIFY -> ack -> IXFR ->
  // verify -> swap, with the 2 s SOA poll as the lost-datagram backstop),
  // every edge must serve the last committed write.
  const unsigned updates = committed.load(std::memory_order_relaxed);
  double worst_propagation = 0;
  bool all_fresh = updates > 0;
  if (updates > 0) {
    const std::string last = "u" + std::to_string(updates - 1) + ".example.com.";
    for (const net::SockAddr& addr : files.edge_addrs) {
      const double start = now_s();
      const double deadline = start + 10.0;
      bool fresh = false;
      while (now_s() < deadline) {
        net::StubResolver::Options ropt;
        ropt.servers = {addr};
        ropt.timeout = 0.5;
        ropt.attempts = 1;
        net::StubResolver probe(ropt);
        const auto res = probe.query(dns::Name::parse(last), dns::RRType::kA);
        if (res.ok && res.response.rcode == dns::Rcode::kNoError &&
            !res.response.answers.empty()) {
          fresh = true;
          break;
        }
        ::usleep(100 * 1000);
      }
      worst_propagation = std::max(worst_propagation, now_s() - start);
      if (!fresh) {
        std::fprintf(stderr, "edge at %s is STALE: never served %s\n",
                     addr.to_string().c_str(), last.c_str());
        all_fresh = false;
      }
    }
  }

  // Scrape the edges while they are alive: the refresh path must have been
  // NOTIFY-driven IXFR, the verify gate must never have fired, and the read
  // load must have been served out of the packet cache.
  bool verify_clean = true;
  std::uint64_t edge_cache_hits = 0, edge_ixfr = 0;
  std::ostringstream edges_json;
  for (std::size_t k = 0; k < files.edge_addrs.size(); ++k) {
    const auto c = net::scrape_stats(files.edge_addrs[k]);
    auto get = [&c](const char* key) -> std::string {
      auto it = c.find(key);
      return it == c.end() ? "0" : it->second;
    };
    if (c.empty() || get("edge.verify_failures") != "0") verify_clean = false;
    edge_cache_hits += to_u64(get("net.cache.hits"));
    edge_ixfr += to_u64(get("edge.ixfr_applied"));
    edges_json << "    {\n"
               << "      \"edge\": " << k << ",\n"
               << "      \"scraped\": " << (c.empty() ? "false" : "true") << ",\n"
               << "      \"udp_queries\": " << get("net.udp.queries") << ",\n"
               << "      \"cache_hits\": " << get("net.cache.hits") << ",\n"
               << "      \"axfr_bootstraps\": " << get("edge.axfr_bootstraps")
               << ",\n"
               << "      \"notifies_received\": "
               << get("edge.notifies_received") << ",\n"
               << "      \"ixfr_applied\": " << get("edge.ixfr_applied") << ",\n"
               << "      \"refresh_up_to_date\": "
               << get("edge.refresh_up_to_date") << ",\n"
               << "      \"verify_failures\": " << get("edge.verify_failures")
               << ",\n"
               << "      \"zone_serial\": " << get("edge.zone_serial") << "\n"
               << "    }" << (k + 1 < files.edge_addrs.size() ? "," : "") << "\n";
  }

  shutdown();

  const bool delivered = r.received >= static_cast<std::uint64_t>(0.95 * r.sent);
  const bool refreshed = edge_ixfr >= 1 && edge_cache_hits > 0;
  const bool ok =
      delivered && all_fresh && verify_clean && refreshed && updates > 0;

  char head[1280];
  std::snprintf(head, sizeof head,
                "{\n"
                "  \"benchmark\": \"net_loadgen_edges\",\n"
                "  \"topology\": \"(4,1) core + %u edges, localhost\",\n"
                "  \"edges\": %u,\n"
                "  \"offered_qps\": %.0f,\n"
                "  \"duration_s\": %.1f,\n"
                "  \"sent\": %llu,\n"
                "  \"received\": %llu,\n"
                "  \"timed_out\": %llu,\n"
                "  \"achieved_qps\": %.0f,\n"
                "  \"updates_committed\": %u,\n"
                "  \"all_edges_fresh\": %s,\n"
                "  \"worst_propagation_s\": %.2f,\n"
                "  \"latency_ms\": {\n"
                "    \"mean\": %.3f,\n"
                "    \"p50\": %.3f,\n"
                "    \"p99\": %.3f,\n"
                "    \"max\": %.3f\n"
                "  },\n"
                "  \"edge_counters\": [\n",
                edges, edges, rate, duration,
                static_cast<unsigned long long>(r.sent),
                static_cast<unsigned long long>(r.received),
                static_cast<unsigned long long>(r.timed_out), r.achieved_qps,
                updates, all_fresh ? "true" : "false", worst_propagation,
                r.mean * 1e3, r.p50 * 1e3, r.p99 * 1e3, r.max * 1e3);
  *json_out = head;
  *json_out += edges_json.str();
  *json_out += "  ]\n}\n";

  std::fprintf(stderr,
               "%s edges=%u: %llu/%llu answered at %.0f qps, %u updates, "
               "%s (worst propagation %.2f s), %llu edge cache hits, "
               "%llu IXFRs applied, %s\n",
               ok ? "PASS" : "FAIL", edges,
               static_cast<unsigned long long>(r.received),
               static_cast<unsigned long long>(r.sent), r.achieved_qps, updates,
               all_fresh ? "all edges fresh" : "STALE EDGE", worst_propagation,
               static_cast<unsigned long long>(edge_cache_hits),
               static_cast<unsigned long long>(edge_ixfr),
               verify_clean ? "verify-clean" : "VERIFY FAILURES");
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  CellSpec single;
  double duration = 5.0;
  bool fail_on_send_errors = false;
  unsigned edges = 0;
  std::string dir = "/tmp/sdns_loadgen_cluster";
  std::string json_path;
  std::vector<CellSpec> matrix;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--rate") == 0 && i + 1 < argc) {
      single.rate = std::stod(argv[++i]);
    } else if (std::strcmp(argv[i], "--edges") == 0 && i + 1 < argc) {
      edges = static_cast<unsigned>(std::stoul(argv[++i]));
    } else if (std::strcmp(argv[i], "--duration") == 0 && i + 1 < argc) {
      duration = std::stod(argv[++i]);
    } else if (std::strcmp(argv[i], "--min-qps") == 0 && i + 1 < argc) {
      single.min_qps = std::stod(argv[++i]);
    } else if (std::strcmp(argv[i], "--shards") == 0 && i + 1 < argc) {
      single.shards = static_cast<unsigned>(std::stoul(argv[++i]));
    } else if (std::strcmp(argv[i], "--sockets") == 0 && i + 1 < argc) {
      single.sockets = static_cast<unsigned>(std::stoul(argv[++i]));
    } else if (std::strcmp(argv[i], "--batch") == 0 && i + 1 < argc) {
      single.batch = static_cast<unsigned>(std::stoul(argv[++i]));
    } else if (std::strcmp(argv[i], "--matrix") == 0 && i + 1 < argc) {
      CellSpec cell;
      if (!parse_cell(argv[++i], cell)) {
        std::fprintf(stderr, "bad matrix cell '%s'\n", argv[i]);
        return 2;
      }
      matrix.push_back(cell);
    } else if (std::strcmp(argv[i], "--fail-on-send-errors") == 0) {
      fail_on_send_errors = true;
    } else if (std::strcmp(argv[i], "--dir") == 0 && i + 1 < argc) {
      dir = argv[++i];
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else {
      std::fprintf(
          stderr,
          "usage: %s [--rate QPS] [--duration S] [--dir DIR] [--json FILE]\n"
          "          [--shards N] [--sockets N] [--batch N] [--min-qps QPS]\n"
          "          [--edges N] [--matrix CxS:RATE[:MIN[:BATCH]]]... "
          "[--fail-on-send-errors]\n",
          argv[0]);
      return 2;
    }
  }
  if (single.shards < 1) single.shards = 1;

  const std::string mkdir_cmd = "rm -rf '" + dir + "' && mkdir -p '" + dir + "'";
  if (std::system(mkdir_cmd.c_str()) != 0) {
    std::fprintf(stderr, "cannot create %s\n", dir.c_str());
    return 1;
  }

  std::string full;
  bool all_ok = true;
  if (edges > 0) {
    // The replication-edge scenario: core under update load, reads at the
    // edges, no-stale probe after the propagation window.
    all_ok = run_edge_scenario(edges, single.rate, duration, dir, &full);
  } else if (matrix.empty()) {
    // Legacy single-run shape: one cell, the object printed bare.
    const CellResult cell =
        run_cell(single, dir, duration, 0, fail_on_send_errors);
    all_ok = cell.ok && !cell.skipped;
    full = cell.json + "\n";
  } else {
    const unsigned available =
        std::max(1u, std::thread::hardware_concurrency());
    std::ostringstream out;
    out << "{\n"
        << "  \"benchmark\": \"net_loadgen_matrix\",\n"
        << "  \"available_cores\": " << available << ",\n"
        << "  \"duration_s\": " << duration << ",\n"
        << "  \"cells\": [\n";
    for (std::size_t i = 0; i < matrix.size(); ++i) {
      const CellResult cell = run_cell(matrix[i], dir, duration,
                                       static_cast<unsigned>(i),
                                       fail_on_send_errors);
      all_ok = all_ok && cell.ok;
      // Re-indent the cell object two levels under "cells".
      std::istringstream lines(cell.json);
      std::string line;
      bool first = true;
      while (std::getline(lines, line)) {
        out << (first ? "    " : "\n    ") << line;
        first = false;
      }
      out << (i + 1 < matrix.size() ? "," : "") << "\n";
    }
    out << "  ]\n}\n";
    full = out.str();
  }
  std::fputs(full.c_str(), stdout);
  if (!json_path.empty()) {
    std::ofstream out(json_path);
    out << full;
  }
  return all_ok ? 0 : 1;
}
