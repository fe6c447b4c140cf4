// RFC 1996 NOTIFY fan-out — the primary half of the replication edge.
//
// A replica reports each commit point (an update batch whose signatures
// are all installed, a state reinstall); the runtime hangs a Notifier off
// that hook. Every commit sends one NOTIFY round, carrying the committed
// SOA, to the configured edge list over UDP at once. Each edge is retried
// with exponential backoff until it acknowledges (RFC 1996 §4.7: a response
// with the same id, qr set, opcode NOTIFY) or the attempt budget runs out. A
// newer round supersedes an older one's pending retries — the edge will
// IXFR to the newest serial either way. Group commit bounds the rounds to
// one per update batch, and an edge folds a burst of NOTIFYs into at most
// one pending refresh.
//
// Thread confinement: everything here runs on the owning event loop; the
// runtime posts commit signals from other threads if it has to.
#pragma once

#include <vector>

#include "dns/message.hpp"
#include "dns/rr.hpp"
#include "net/loop.hpp"
#include "net/socket.hpp"
#include "obs/metrics.hpp"

namespace sdns::net {

class Notifier {
 public:
  struct Options {
    std::vector<SockAddr> edges;
    dns::Name zone;
    obs::Registry* metrics = nullptr;
  };
  static constexpr double kRetryTimeout = 0.5;  ///< first retransmit delay; doubles per try
  static constexpr unsigned kMaxAttempts = 5;   ///< sends per edge per round

  Notifier(EventLoop& loop, Options options);
  ~Notifier();

  /// Bind the UDP socket and register with the loop.
  void start();

  /// A zone change committed at `soa` — send a NOTIFY round whose every
  /// (re)send carries it as the serial hint (RFC 1996 §3.7). Loop-thread
  /// only.
  void on_commit(const dns::ResourceRecord& soa);

  const Options& options() const { return opt_; }

 private:
  struct Pending {
    std::uint16_t id = 0;        ///< DNS id the edge's ack must echo
    unsigned attempts = 0;
    bool acked = false;
    std::uint64_t round = 0;     ///< stale-timer guard
    EventLoop::TimerId timer = 0;
  };

  void send_one(std::size_t idx);
  void on_readable();

  EventLoop& loop_;
  Options opt_;
  int fd_ = -1;
  std::uint64_t round_ = 0;
  dns::ResourceRecord soa_;  ///< the current round's commit point
  std::vector<Pending> pending_;  ///< one slot per edge
  std::uint16_t next_id_ = 0x4e46;  // "NF"

  obs::Counter* c_sent_;
  obs::Counter* c_acks_;
  obs::Counter* c_timeouts_;
};

}  // namespace sdns::net
