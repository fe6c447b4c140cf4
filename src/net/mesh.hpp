// Authenticated replica-to-replica TCP mesh.
//
// Every pair of replicas shares one persistent TCP connection: the
// higher-id replica initiates, the lower-id replica accepts, so the n(n-1)/2
// links are established exactly once and re-established by a single owner
// after failures (exponential backoff with jitter). A connection carries
// MAC-authenticated frames (net/frame.hpp) keyed per connection from the
// cluster mesh secret, giving the deployable form of the authenticated
// point-to-point channels the broadcast and signing protocols assume.
//
// Messages sent before a link is up — or while a peer is crashed — are
// queued up to a byte cap and flushed on (re)establishment; beyond the cap
// messages are dropped and counted. That is safe by construction: the
// protocol layer retransmits on overdue timers (abcast complaint/BVAL/AUX
// resends, signing-share resends), so the mesh only has to be fair-lossy,
// exactly like the simulator's network.
#pragma once

#include <deque>
#include <map>
#include <vector>

#include "net/frame.hpp"
#include "net/loop.hpp"
#include "net/socket.hpp"
#include "net/wirefault.hpp"
#include "obs/metrics.hpp"
#include "util/rng.hpp"

namespace sdns::net {

class Mesh {
 public:
  struct Options {
    unsigned self = 0;
    /// Mesh endpoint per replica id; peers[self] is our listen address.
    std::vector<SockAddr> peers;
    util::Bytes mesh_secret;
    double reconnect_min = 0.2;  ///< first retry delay (doubles per failure)
    double reconnect_max = 5.0;
    std::size_t write_cap = 8 * 1024 * 1024;  ///< per-peer outbound bytes
    /// Metrics sink (owned by the caller, must outlive the mesh).
    obs::Registry* metrics = nullptr;
    /// Wire-level chaos injection (net/wirefault.hpp), consulted by send()
    /// BEFORE framing — message-level faults, so the per-connection HMAC
    /// sequence stays intact. Null/unarmed = no interference. Owned by the
    /// caller, must outlive the mesh.
    FaultInjector* injector = nullptr;
  };

  using DeliverFn = std::function<void(unsigned from, util::Bytes msg)>;

  Mesh(EventLoop& loop, Options options, DeliverFn deliver, util::Rng rng);
  ~Mesh();

  /// Bind the listener and initiate connections to all lower-id peers.
  void start();

  /// Queue `msg` for replica `to`; delivered once the link is up (dropped
  /// with a count if the backlog cap is exceeded — the protocol layer's
  /// retransmission timers recover). A message whose frame alone exceeds
  /// write_cap is dropped under mesh.drops.oversize with a WARN: no retry
  /// can ever send it. With a fault injector configured, the
  /// message may instead be dropped, held in a loop timer, or duplicated.
  void send(unsigned to, util::Bytes msg);

  bool connected(unsigned to) const;
  std::uint64_t dropped() const { return dropped_; }
  std::uint64_t reconnects() const { return reconnects_; }

 private:
  struct Peer {
    unsigned id = 0;
    int fd = -1;
    bool established = false;
    bool want_write = false;
    MeshFrameDecoder decoder;
    WriteQueue wq;
    /// Raw message bodies awaiting an established link.
    std::deque<util::Bytes> backlog;
    std::size_t backlog_bytes = 0;
    util::Bytes session_key;
    util::Bytes my_nonce;
    std::uint64_t send_seq = 0;
    std::uint64_t recv_seq = 0;
    double backoff = 0;
    EventLoop::TimerId retry_timer = 0;
  };

  /// An accepted connection that has not yet proven who it is.
  struct PendingConn {
    int fd = -1;
    MeshFrameDecoder decoder;
    EventLoop::TimerId deadline = 0;
  };

  bool initiator_for(unsigned peer) const { return opt_.self > peer; }
  util::Bytes link_key(unsigned peer) const;

  /// The real send path (frame + flush or backlog), after injection.
  void send_now(unsigned to, util::Bytes msg);

  void start_connect(unsigned peer);
  void schedule_reconnect(unsigned peer);
  void on_connect_ready(unsigned peer, std::uint32_t events);
  void on_peer_io(unsigned peer, std::uint32_t events);
  void on_listener_ready();
  void on_pending_io(int fd, std::uint32_t events);
  void establish(Peer& p, const util::Bytes& peer_nonce);
  void handle_frame(Peer& p, const util::Bytes& payload);
  void drop_connection(unsigned peer, const char* why);
  void drop_pending(int fd);
  void update_interest(Peer& p);

  EventLoop& loop_;
  Options opt_;
  DeliverFn deliver_;
  util::Rng rng_;
  int listen_fd_ = -1;
  std::map<unsigned, Peer> peers_;
  std::map<int, PendingConn> pending_;
  /// Monotonic per-directed-link frame counter feeding the injector's
  /// (seed, link, seq) decisions; never reset on reconnect, so a replayed
  /// run makes the same decisions regardless of connection churn.
  std::map<unsigned, std::uint64_t> inject_seq_;
  std::uint64_t dropped_ = 0;
  std::uint64_t reconnects_ = 0;

  // Counters resolved once at construction (see Options::metrics).
  obs::Counter* c_reconnects_;
  obs::Counter* c_dropped_;
  obs::Counter* c_oversize_;
  obs::Counter* c_mac_rejects_;
  obs::Counter* c_conn_drops_;
  obs::Counter* c_established_;
};

}  // namespace sdns::net
