#include "net/mesh.hpp"

#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>

#include "util/log.hpp"

namespace sdns::net {

using util::Bytes;
using util::BytesView;

namespace {
constexpr double kHelloDeadline = 5.0;  ///< accepted conns must speak fast
}

Mesh::Mesh(EventLoop& loop, Options options, DeliverFn deliver, util::Rng rng)
    : loop_(loop), opt_(std::move(options)), deliver_(std::move(deliver)), rng_(rng) {
  obs::Registry* m = opt_.metrics;
  c_reconnects_ = m ? &m->counter("mesh.reconnects") : &obs::noop_counter();
  c_dropped_ = m ? &m->counter("mesh.drops.fair_lossy") : &obs::noop_counter();
  c_oversize_ = m ? &m->counter("mesh.drops.oversize") : &obs::noop_counter();
  c_mac_rejects_ = m ? &m->counter("mesh.rejects.mac") : &obs::noop_counter();
  c_conn_drops_ = m ? &m->counter("mesh.conn.drops") : &obs::noop_counter();
  c_established_ = m ? &m->counter("mesh.conn.established") : &obs::noop_counter();
  for (unsigned i = 0; i < opt_.peers.size(); ++i) {
    if (i == opt_.self) continue;
    Peer p;
    p.id = i;
    p.wq = WriteQueue(opt_.write_cap);
    peers_.emplace(i, std::move(p));
  }
}

Mesh::~Mesh() {
  for (auto& [id, p] : peers_) {
    if (p.fd >= 0) loop_.del_fd(p.fd);
    if (p.retry_timer) loop_.cancel_timer(p.retry_timer);
  }
  for (auto& [fd, pc] : pending_) {
    loop_.del_fd(fd);
    if (pc.deadline) loop_.cancel_timer(pc.deadline);
  }
  if (listen_fd_ >= 0) loop_.del_fd(listen_fd_);
}

Bytes Mesh::link_key(unsigned peer) const {
  return derive_link_key(opt_.mesh_secret, opt_.self, peer);
}

void Mesh::start() {
  listen_fd_ = tcp_listen(opt_.peers.at(opt_.self));
  loop_.add_fd(listen_fd_, EventLoop::kReadable, [this](std::uint32_t) {
    on_listener_ready();
  });
  for (auto& [id, p] : peers_) {
    if (initiator_for(id)) start_connect(id);
  }
}

void Mesh::start_connect(unsigned peer) {
  Peer& p = peers_.at(peer);
  p.retry_timer = 0;
  p.established = false;
  p.decoder = MeshFrameDecoder();
  p.wq.clear();
  p.send_seq = p.recv_seq = 0;
  p.my_nonce = rng_.bytes(kMeshNonceLen);
  int fd = -1;
  try {
    fd = tcp_connect(opt_.peers.at(peer));
  } catch (const NetError& e) {
    SDNS_LOG_DEBUG("mesh ", opt_.self, "->", peer, ": connect failed: ", e.what());
    schedule_reconnect(peer);
    return;
  }
  p.fd = fd;
  // The hello goes out as soon as the connect completes (first writability).
  p.wq.push(MeshFrameDecoder::frame(
      encode_hello({opt_.self, p.my_nonce}, link_key(peer))));
  p.want_write = true;
  loop_.add_fd(fd, EventLoop::kReadable | EventLoop::kWritable,
               [this, peer](std::uint32_t ev) { on_peer_io(peer, ev); });
}

void Mesh::schedule_reconnect(unsigned peer) {
  Peer& p = peers_.at(peer);
  if (p.retry_timer) return;
  p.backoff = p.backoff == 0 ? opt_.reconnect_min
                             : std::min(p.backoff * 2, opt_.reconnect_max);
  const double delay = p.backoff * (0.5 + rng_.unit());  // jittered
  ++reconnects_;
  c_reconnects_->inc();
  p.retry_timer = loop_.add_timer(delay, [this, peer] { start_connect(peer); });
}

void Mesh::update_interest(Peer& p) {
  const bool want = !p.wq.empty();
  if (want == p.want_write || p.fd < 0) return;
  p.want_write = want;
  loop_.mod_fd(p.fd, EventLoop::kReadable | (want ? EventLoop::kWritable : 0));
}

void Mesh::drop_connection(unsigned peer, const char* why) {
  Peer& p = peers_.at(peer);
  if (p.fd < 0) return;
  SDNS_LOG_DEBUG("mesh ", opt_.self, "<->", peer, ": dropping connection (", why, ")");
  c_conn_drops_->inc();
  if (opt_.metrics) {
    opt_.metrics->trace().record(loop_.now(), "mesh", why, opt_.self, peer);
  }
  loop_.del_fd(p.fd);
  p.fd = -1;
  p.established = false;
  p.want_write = false;
  p.wq.clear();
  p.decoder = MeshFrameDecoder();
  if (initiator_for(peer)) schedule_reconnect(peer);
}

void Mesh::on_peer_io(unsigned peer, std::uint32_t events) {
  Peer& p = peers_.at(peer);
  if (p.fd < 0) return;
  if (events & EventLoop::kError) {
    drop_connection(peer, "socket error");
    return;
  }
  if (events & EventLoop::kWritable) {
    if (const int err = socket_error(p.fd)) {
      (void)err;
      drop_connection(peer, "connect failed");
      return;
    }
    if (!p.wq.flush(p.fd)) {
      drop_connection(peer, "write failed");
      return;
    }
    update_interest(p);
  }
  if (!(events & EventLoop::kReadable)) return;
  std::uint8_t buf[64 * 1024];
  for (;;) {
    const ssize_t n = retry_recv(p.fd, buf, sizeof buf, 0);
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      drop_connection(peer, "read error");
      return;
    }
    if (n == 0) {
      drop_connection(peer, "peer closed");
      return;
    }
    if (!p.decoder.feed({buf, static_cast<std::size_t>(n)})) {
      drop_connection(peer, "framing violation");
      return;
    }
    while (auto payload = p.decoder.next()) {
      if (!p.established) {
        // Initiator path: this must be the acceptor's hello reply.
        auto hello = decode_hello(
            *payload, [this](unsigned from) { return link_key(from); }, peer);
        if (!hello) {
          drop_connection(peer, "bad hello reply");
          return;
        }
        establish(p, hello->nonce);
        if (p.fd < 0) return;  // flush failed during establishment
      } else {
        handle_frame(p, *payload);
        if (p.fd < 0) return;  // handle_frame dropped the connection
      }
    }
  }
}

void Mesh::establish(Peer& p, const Bytes& peer_nonce) {
  const unsigned lower = std::min(opt_.self, p.id);
  const BytesView lower_nonce = opt_.self < p.id ? BytesView(p.my_nonce)
                                                 : BytesView(peer_nonce);
  const BytesView higher_nonce = opt_.self < p.id ? BytesView(peer_nonce)
                                                  : BytesView(p.my_nonce);
  p.session_key = derive_session_key(link_key(p.id), lower, lower_nonce, higher_nonce);
  p.established = true;
  p.backoff = 0;
  c_established_->inc();
  SDNS_LOG_INFO("mesh ", opt_.self, "<->", p.id, ": link established");
  // Flush everything queued while the link was down.
  while (!p.backlog.empty()) {
    Bytes body = std::move(p.backlog.front());
    p.backlog.pop_front();
    p.backlog_bytes -= body.size();
    const Bytes framed = MeshFrameDecoder::frame(
        encode_data_frame(p.session_key, opt_.self, p.id, p.send_seq, body));
    if (!p.wq.push(framed)) {
      ++dropped_;
      c_dropped_->inc();
      continue;
    }
    ++p.send_seq;
  }
  if (!p.wq.flush(p.fd)) {
    drop_connection(p.id, "write failed");
    return;
  }
  update_interest(p);
}

void Mesh::handle_frame(Peer& p, const Bytes& payload) {
  auto body =
      decode_data_frame(p.session_key, p.id, opt_.self, p.recv_seq, payload);
  if (!body) {
    c_mac_rejects_->inc();
    drop_connection(p.id, "bad MAC or sequence");
    return;
  }
  ++p.recv_seq;
  deliver_(p.id, std::move(*body));
}

void Mesh::on_listener_ready() {
  for (;;) {
    const int fd = tcp_accept(listen_fd_);
    if (fd < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      SDNS_LOG_WARN("mesh ", opt_.self, ": accept failed");
      break;
    }
    PendingConn pc;
    pc.fd = fd;
    pc.deadline = loop_.add_timer(kHelloDeadline, [this, fd] { drop_pending(fd); });
    pending_.emplace(fd, std::move(pc));
    loop_.add_fd(fd, EventLoop::kReadable,
                 [this, fd](std::uint32_t ev) { on_pending_io(fd, ev); });
  }
}

void Mesh::drop_pending(int fd) {
  auto it = pending_.find(fd);
  if (it == pending_.end()) return;
  if (it->second.deadline) loop_.cancel_timer(it->second.deadline);
  pending_.erase(it);
  loop_.del_fd(fd);
}

void Mesh::on_pending_io(int fd, std::uint32_t events) {
  auto it = pending_.find(fd);
  if (it == pending_.end()) return;
  if (events & EventLoop::kError) {
    drop_pending(fd);
    return;
  }
  std::uint8_t buf[16 * 1024];
  for (;;) {
    const ssize_t n = retry_recv(fd, buf, sizeof buf, 0);
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      drop_pending(fd);
      return;
    }
    if (n == 0) {
      drop_pending(fd);
      return;
    }
    PendingConn& pc = it->second;
    if (!pc.decoder.feed({buf, static_cast<std::size_t>(n)})) {
      drop_pending(fd);
      return;
    }
    auto payload = pc.decoder.next();
    if (!payload) continue;
    // First frame must be a hello from a higher-id peer (they initiate).
    auto hello = decode_hello(*payload, [this](unsigned from) {
      return from < opt_.peers.size() ? link_key(from) : Bytes(kMeshMacLen, 0);
    });
    if (!hello || hello->from <= opt_.self || hello->from >= opt_.peers.size()) {
      drop_pending(fd);
      return;
    }
    const unsigned peer = hello->from;
    Peer& p = peers_.at(peer);
    if (p.fd >= 0) {
      // The peer reconnected (it crashed, or the old link is half-dead);
      // the newest connection wins.
      drop_connection(peer, "superseded by new connection");
    }
    // Adopt: move the fd (and any bytes pipelined behind the hello) from
    // the pending pool onto the peer.
    MeshFrameDecoder carried = std::move(pc.decoder);
    if (pc.deadline) loop_.cancel_timer(pc.deadline);
    pending_.erase(it);
    p.fd = fd;
    p.established = false;
    p.want_write = false;
    p.decoder = std::move(carried);
    p.wq.clear();
    p.send_seq = p.recv_seq = 0;
    p.my_nonce = rng_.bytes(kMeshNonceLen);
    loop_.set_handler(fd, [this, peer](std::uint32_t ev) { on_peer_io(peer, ev); });
    // Reply with our hello, then the link is live.
    p.wq.push(MeshFrameDecoder::frame(
        encode_hello({opt_.self, p.my_nonce}, link_key(peer))));
    establish(p, hello->nonce);
    if (p.fd < 0) return;
    // Frames pipelined behind the hello.
    while (auto frame = p.decoder.next()) {
      handle_frame(p, *frame);
      if (p.fd < 0) return;
    }
    // Remaining stream bytes now belong to on_peer_io.
    return;
  }
}

void Mesh::send(unsigned to, Bytes msg) {
  if (opt_.injector && opt_.injector->armed()) {
    const WireDecision d =
        opt_.injector->decide(opt_.self, to, inject_seq_[to]++, loop_.now());
    if (d.drop) return;
    if (d.duplicate) {
      loop_.add_timer(d.delay + d.dup_delay, [this, to, copy = msg]() mutable {
        send_now(to, std::move(copy));
      });
    }
    if (d.delay > 0) {
      loop_.add_timer(d.delay, [this, to, m = std::move(msg)]() mutable {
        send_now(to, std::move(m));
      });
      return;
    }
  }
  send_now(to, std::move(msg));
}

void Mesh::send_now(unsigned to, Bytes msg) {
  auto it = peers_.find(to);
  if (it == peers_.end()) return;
  Peer& p = it->second;
  // A message whose frame alone exceeds the write cap can never be sent,
  // established link or not; it is no fair-lossy drop that a retransmission
  // recovers, so count and log it apart. The frame is a 4-byte length
  // prefix around sequence number, body and MAC (encode_data_frame).
  const std::size_t frame_bytes = 4 + 8 + msg.size() + kMeshMacLen;
  if (frame_bytes > opt_.write_cap) {
    c_oversize_->inc();
    SDNS_LOG_WARN("mesh ", opt_.self, "->", to, ": dropping a ", frame_bytes,
                  "-byte frame over the ", opt_.write_cap, "-byte write cap");
    return;
  }
  if (p.established) {
    const Bytes framed = MeshFrameDecoder::frame(
        encode_data_frame(p.session_key, opt_.self, to, p.send_seq, msg));
    if (!p.wq.push(framed)) {
      ++dropped_;
      c_dropped_->inc();
      return;
    }
    ++p.send_seq;
    if (!p.wq.flush(p.fd)) {
      drop_connection(to, "write failed");
      return;
    }
    update_interest(p);
    return;
  }
  if (p.backlog_bytes + msg.size() > opt_.write_cap) {
    ++dropped_;
    c_dropped_->inc();
    return;
  }
  p.backlog_bytes += msg.size();
  p.backlog.push_back(std::move(msg));
}

bool Mesh::connected(unsigned to) const {
  auto it = peers_.find(to);
  return it != peers_.end() && it->second.established;
}

}  // namespace sdns::net
