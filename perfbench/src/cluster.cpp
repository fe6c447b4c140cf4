#include "cluster.hpp"

#include <fcntl.h>
#include <netinet/in.h>
#include <sched.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "dns/dnssec.hpp"
#include "dns/edns.hpp"
#include "net/resolver.hpp"

namespace perfbench {

using sdns::net::SockAddr;

namespace {

// Fixed-size so the signal handler can walk it without allocating.
constexpr int kMaxChildren = 64;
pid_t g_children[kMaxChildren];
volatile std::sig_atomic_t g_child_count = 0;
/// CPUs for spawned servers; empty set = inherit.
cpu_set_t g_server_cpus;
bool g_split = false;

void forget_child(pid_t pid) {
  for (int i = 0; i < g_child_count; ++i) {
    if (g_children[i] == pid) g_children[i] = -1;
  }
}

pid_t spawn(const std::vector<std::string>& argv, const std::string& log_path) {
  if (g_child_count >= kMaxChildren) throw std::runtime_error("too many children");
  const pid_t pid = ::fork();
  if (pid < 0) throw std::runtime_error(std::string("fork: ") + std::strerror(errno));
  if (pid == 0) {
    // Die with the driver even if it is SIGKILLed before it can clean up.
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (g_split) ::sched_setaffinity(0, sizeof g_server_cpus, &g_server_cpus);
    const int fd = ::open(log_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd >= 0) {
      ::dup2(fd, 1);
      ::dup2(fd, 2);
      ::close(fd);
    }
    std::vector<char*> args;
    for (const std::string& a : argv) args.push_back(const_cast<char*>(a.c_str()));
    args.push_back(nullptr);
    ::execv(args[0], args.data());
    std::_Exit(127);
  }
  g_children[g_child_count] = pid;
  g_child_count = g_child_count + 1;
  return pid;
}

/// SIGTERM, a short grace period, then SIGKILL; always reaped.
void stop_process(pid_t pid) {
  if (pid <= 0) return;
  ::kill(pid, SIGTERM);
  const double deadline = now_s() + 0.3;
  while (now_s() < deadline) {
    if (::waitpid(pid, nullptr, WNOHANG) == pid) {
      forget_child(pid);
      return;
    }
    ::usleep(5000);
  }
  ::kill(pid, SIGKILL);
  ::waitpid(pid, nullptr, 0);
  forget_child(pid);
}

void on_signal(int) {
  kill_all_children();
  std::_Exit(130);
}

bool can_bind(int type, std::uint16_t port) {
  const int fd = ::socket(AF_INET, type, 0);
  if (fd < 0) return false;
  const int one = 1;
  // TCP: TIME_WAIT remnants of a finished run are harmless (the servers
  // bind with SO_REUSEADDR too); only a live listener makes the port busy.
  if (type == SOCK_STREAM) ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  const sockaddr_in sa = SockAddr::parse("127.0.0.1:" + std::to_string(port)).to_sockaddr();
  const bool ok = ::bind(fd, reinterpret_cast<const sockaddr*>(&sa), sizeof sa) == 0;
  ::close(fd);
  return ok;
}

}  // namespace

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void kill_all_children() {
  for (int i = 0; i < g_child_count; ++i) {
    if (g_children[i] > 0) ::kill(g_children[i], SIGKILL);
  }
  for (int i = 0; i < g_child_count; ++i) {
    if (g_children[i] > 0) ::waitpid(g_children[i], nullptr, 0);
    g_children[i] = -1;
  }
}

void install_signal_cleanup() {
  std::signal(SIGINT, on_signal);
  std::signal(SIGTERM, on_signal);
  std::signal(SIGPIPE, SIG_IGN);
}

void split_cpus() {
  cpu_set_t allowed;
  if (::sched_getaffinity(0, sizeof allowed, &allowed) != 0 || CPU_COUNT(&allowed) < 2) return;
  cpu_set_t driver;
  CPU_ZERO(&driver);
  CPU_ZERO(&g_server_cpus);
  bool first = true;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (!CPU_ISSET(cpu, &allowed)) continue;
    if (first) {
      CPU_SET(cpu, &driver);
      first = false;
    } else {
      CPU_SET(cpu, &g_server_cpus);
    }
  }
  if (::sched_setaffinity(0, sizeof driver, &driver) == 0) g_split = true;
}

bool ports_free(const std::vector<std::uint16_t>& ports, std::string* busy) {
  for (std::uint16_t p : ports) {
    if (!can_bind(SOCK_DGRAM, p) || !can_bind(SOCK_STREAM, p)) {
      if (busy) *busy = std::to_string(p);
      return false;
    }
  }
  return true;
}

double process_cpu_s(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
  std::string line;
  if (!std::getline(in, line)) return -1;
  // Fields after the parenthesised command name; utime and stime are the
  // 14th and 15th fields of the whole line.
  const auto close = line.rfind(')');
  if (close == std::string::npos) return -1;
  std::istringstream rest(line.substr(close + 2));
  std::string field;
  double utime = 0, stime = 0;
  for (int i = 3; i <= 15 && rest >> field; ++i) {
    if (i == 14) utime = std::stod(field);
    if (i == 15) stime = std::stod(field);
  }
  return (utime + stime) / static_cast<double>(::sysconf(_SC_CLK_TCK));
}

double process_peak_rss_mb(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  }
  return -1;
}

Counters scrape(const SockAddr& addr) {
  Counters out;
  sdns::net::StubResolver::Options ropt;
  ropt.servers = {addr};
  ropt.timeout = 2.0;
  ropt.attempts = 3;
  ropt.edns_payload = 4096;  // the counter set does not fit in 512 bytes
  sdns::net::StubResolver scraper(ropt);
  const auto r = scraper.query(sdns::dns::Name::parse("stats.sdns."),
                               sdns::dns::RRType::kTXT, sdns::dns::RRClass::kCH);
  if (!r.ok) return out;
  for (const sdns::dns::ResourceRecord& rr : r.response.answers) {
    if (rr.type != sdns::dns::RRType::kTXT || rr.rdata.empty()) continue;
    const std::size_t len = rr.rdata[0];
    if (1 + len > rr.rdata.size()) continue;
    const std::string txt(rr.rdata.begin() + 1,
                          rr.rdata.begin() + 1 + static_cast<std::ptrdiff_t>(len));
    const auto eq = txt.find('=');
    if (eq == std::string::npos) continue;
    try {
      out[txt.substr(0, eq)] = std::stod(txt.substr(eq + 1));
    } catch (const std::exception&) {
    }
  }
  return out;
}

double counter(const Counters& c, const std::string& name) {
  const auto it = c.find(name);
  return it == c.end() ? 0.0 : it->second;
}

PortBlock PortBlock::for_instance(unsigned instance) {
  // Below the usual ephemeral range (32768-60999): an outgoing connection
  // never borrows one of these as its local port, so a port found busy
  // really is held by a live process.
  const auto base = static_cast<std::uint16_t>(23100 + 40 * instance);
  return {base, static_cast<std::uint16_t>(base + 10), static_cast<std::uint16_t>(base + 20)};
}

std::vector<std::uint16_t> PortBlock::all() const {
  std::vector<std::uint16_t> out;
  for (std::uint16_t i = 0; i < 4; ++i) {
    out.push_back(static_cast<std::uint16_t>(dns + i));
    out.push_back(static_cast<std::uint16_t>(mesh + i));
  }
  out.push_back(edge);
  return out;
}

bool serves_verified(const SockAddr& addr, const std::string& fqdn,
                     const std::array<std::uint8_t, 4>& address,
                     const sdns::crypto::RsaPublicKey& zone_key) {
  namespace dns = sdns::dns;
  sdns::net::StubResolver::Options ropt;
  ropt.servers = {addr};
  ropt.timeout = 0.3;
  ropt.attempts = 1;
  ropt.edns_payload = 4096;
  sdns::net::StubResolver probe(ropt);
  const dns::Name name = dns::Name::parse(fqdn);
  const auto r = probe.query(name, dns::RRType::kA);
  if (!r.ok || r.response.rcode != dns::Rcode::kNoError) return false;
  dns::RRset rrset{name, dns::RRType::kA, 0, {}};
  std::optional<dns::SigRdata> sig;
  for (const dns::ResourceRecord& rr : r.response.answers) {
    if (rr.type == dns::RRType::kA && rr.name == name) {
      rrset.ttl = rr.ttl;
      rrset.rdatas.push_back(rr.rdata);
    } else if (rr.type == dns::RRType::kSIG) {
      const dns::SigRdata s = dns::SigRdata::decode(rr.rdata);
      if (s.type_covered == dns::RRType::kA) sig = s;
    }
  }
  const dns::ARdata want{address};
  return rrset.rdatas.size() == 1 && rrset.rdatas[0] == want.encode() && sig &&
         dns::verify_rrset_sig(rrset, *sig, zone_key);
}

Cluster::Cluster(const Options& opt) : dir_(opt.work_dir) {
  namespace net = sdns::net;
  const double t0 = now_s();
  net::ClusterOptions copt;
  copt.n = 4;
  copt.t = 1;
  copt.require_tsig = true;
  copt.durable = true;
  copt.edges = 1;
  copt.seed = opt.seed;
  copt.origin = opt.zone->origin;
  copt.zone_text = opt.zone->master_text();
  copt.dns_base_port = opt.ports.dns;
  copt.mesh_base_port = opt.ports.mesh;
  copt.edge_base_port = opt.ports.edge;
  files_ = net::generate_cluster(dir_, copt);
  deal_s_ = now_s() - t0;

  try {
    for (std::size_t i = 0; i < files_.configs.size(); ++i) {
      replicas_.push_back(spawn({opt.bin_dir + "/sdnsd", files_.configs[i], "--log", "warn"},
                                dir_ + "/replica" + std::to_string(i) + ".log"));
    }
    const std::string probe_name = opt.zone->fqdn(0);
    const auto& probe_addr = opt.zone->names[0].address;
    const auto wait_verified = [&](const SockAddr& addr, const char* what) {
      const double deadline = now_s() + 60.0;
      while (!serves_verified(addr, probe_name, probe_addr, files_.zone_key)) {
        if (now_s() > deadline) {
          throw std::runtime_error(std::string(what) + " at " + addr.to_string() +
                                   " never served a verified answer");
        }
        ::usleep(10000);
      }
    };
    for (const SockAddr& addr : files_.dns_addrs) wait_verified(addr, "replica");
    // The edge's bootstrap AXFR needs the core up, so it starts second; its
    // SOA poll stays a slow backstop so NOTIFY drives every refresh.
    edge_ = spawn({opt.bin_dir + "/sdns_edge", files_.edge_configs[0], "--log", "warn",
                   "--refresh-interval", "5"},
                  dir_ + "/edge0.log");
    wait_verified(files_.edge_addrs[0], "edge");
  } catch (...) {
    stop();
    throw;
  }
  setup_s_ = now_s() - t0;
}

Cluster::~Cluster() { stop(); }

void Cluster::stop() {
  stop_process(edge_);
  edge_ = -1;
  for (pid_t pid : replicas_) stop_process(pid);
  replicas_.clear();
}

}  // namespace perfbench
