// The system under test as the benchmark sees it from outside: a dealt
// (4,1) cluster of forked sdnsd replicas plus one sdns_edge, the processes'
// /proc accounting, and the stats.sdns. CH TXT scrape.
#pragma once

#include <sys/types.h>

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "logic.hpp"
#include "net/cluster.hpp"

namespace perfbench {

/// Seconds on the monotonic clock.
double now_s();

/// Kill every process spawned through spawn() with SIGKILL and reap it.
/// Also runs from the SIGINT/SIGTERM handler, so no process outlives the
/// benchmark on any exit path.
void kill_all_children();

/// Install SIGINT/SIGTERM handlers that kill the children, then exit 130.
void install_signal_cleanup();

/// Give the driver the first CPU it may run on and every process spawned
/// afterwards the others, so the load generator is never queued behind the
/// servers it measures. No-op with a single allowed CPU.
void split_cpus();

/// True when every port can be bound (UDP and TCP) on 127.0.0.1, i.e. no
/// stray process from an earlier run still holds one.
bool ports_free(const std::vector<std::uint16_t>& ports, std::string* busy);

/// utime + stime of a process, in seconds; -1 if it cannot be read.
double process_cpu_s(pid_t pid);
/// Peak resident set (VmHWM) of a process, in MiB; -1 if unreadable.
double process_peak_rss_mb(pid_t pid);

/// One scrape of a server's counters (name -> value). Empty when the server
/// did not answer. The scrape serializes and hashes the whole zone on the
/// replica's main loop, so callers only scrape outside timed windows.
using Counters = std::map<std::string, double>;
Counters scrape(const sdns::net::SockAddr& addr);
double counter(const Counters& c, const std::string& name);

/// Port layout of one cluster instance. Consecutive setups in one run use
/// disjoint blocks so a dying cluster's sockets never collide with the next.
struct PortBlock {
  std::uint16_t dns = 0, mesh = 0, edge = 0;
  static PortBlock for_instance(unsigned instance);
  std::vector<std::uint16_t> all() const;
};

/// A running (4,1) cluster with one edge. Stops (SIGKILL, reap) on
/// destruction.
class Cluster {
 public:
  struct Options {
    std::string bin_dir;   ///< holds the built sdnsd and sdns_edge
    std::string work_dir;  ///< dealt material, data dirs, process logs
    const ZoneSpec* zone = nullptr;
    std::uint64_t seed = 1;
    PortBlock ports;
  };

  /// Deal, boot the replicas, boot the edge, and wait until every process
  /// serves a verified answer. Throws std::runtime_error on failure.
  explicit Cluster(const Options& options);
  ~Cluster();
  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  /// Wall seconds from the start of dealing until the last process first
  /// served an answer whose SIG verified under the dealt zone key.
  double setup_s() const { return setup_s_; }
  double deal_s() const { return deal_s_; }

  const sdns::net::ClusterFiles& files() const { return files_; }
  const std::vector<pid_t>& replica_pids() const { return replicas_; }
  pid_t edge_pid() const { return edge_; }
  const std::string& dir() const { return dir_; }

  void stop();

 private:
  std::string dir_;
  sdns::net::ClusterFiles files_;
  std::vector<pid_t> replicas_;
  pid_t edge_ = -1;
  double setup_s_ = 0, deal_s_ = 0;
};

/// True when `addr` answers an A query for `fqdn` with `address` and a SIG
/// that verifies under `zone_key`.
bool serves_verified(const sdns::net::SockAddr& addr, const std::string& fqdn,
                     const std::array<std::uint8_t, 4>& address,
                     const sdns::crypto::RsaPublicKey& zone_key);

}  // namespace perfbench
