// RFC 1996 NOTIFY fan-out — the primary half of the replication edge.
//
// A replica reports each commit point (an update or batch whose signatures
// are all installed, a state reinstall); the runtime hangs a Notifier off
// that hook. A commit after a quiet spell sends a NOTIFY round to the
// configured edge list over UDP at once; further commits within the
// debounce interval share one later round. Each edge is retried with
// exponential backoff until it acknowledges (RFC 1996 §4.7: a response with
// the same id, qr set, opcode NOTIFY) or the attempt budget runs out. A
// newer round supersedes an older one's pending retries — the edge will
// IXFR to the newest serial either way.
//
// Thread confinement: everything here runs on the owning event loop; the
// runtime posts commit signals from other threads if it has to.
#pragma once

#include <functional>
#include <optional>
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
    double debounce = 0.05;      ///< at most one round per this many seconds
    double retry_timeout = 0.5;  ///< first retransmit delay; doubles per try
    unsigned max_attempts = 5;   ///< sends per edge per round
    obs::Registry* metrics = nullptr;
  };

  /// `current_soa` is called on the loop thread at each (re)send, so every
  /// transmission carries the freshest serial hint (RFC 1996 §3.7).
  Notifier(EventLoop& loop, Options options,
           std::function<std::optional<dns::ResourceRecord>()> current_soa);
  ~Notifier();

  /// Bind the UDP socket and register with the loop.
  void start();

  /// A zone change committed — schedule (debounced) a NOTIFY round.
  /// Loop-thread only.
  void on_commit();

  const Options& options() const { return opt_; }

 private:
  struct Pending {
    std::uint16_t id = 0;        ///< DNS id the edge's ack must echo
    unsigned attempts = 0;
    bool acked = false;
    std::uint64_t round = 0;     ///< stale-timer guard
    EventLoop::TimerId timer = 0;
  };

  void fire_round();
  void send_one(std::size_t idx);
  void on_readable();

  EventLoop& loop_;
  Options opt_;
  std::function<std::optional<dns::ResourceRecord>()> current_soa_;
  int fd_ = -1;
  bool dirty_ = false;
  EventLoop::TimerId debounce_timer_ = 0;
  std::uint64_t round_ = 0;
  double last_round_ = -1e9;  ///< loop time of the last round fired
  std::vector<Pending> pending_;  ///< one slot per edge
  std::uint16_t next_id_ = 0x4e46;  // "NF"

  obs::Counter* c_sent_;
  obs::Counter* c_acks_;
  obs::Counter* c_timeouts_;
};

}  // namespace sdns::net
