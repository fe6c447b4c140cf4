#include "net/frontend.hpp"

#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>

#include "dns/message.hpp"
#include "util/log.hpp"

namespace sdns::net {

using util::Bytes;
using util::BytesView;

namespace {
constexpr std::uint64_t kTcpBit = 1ULL << 63;
constexpr std::uint64_t kUdpDoBit = 1ULL << 62;

/// Cap on the (ClientId, DNS id) -> pending request map. Entries are
/// consumed by the matching respond(); a flood of unanswered requests
/// (replica-dropped packets, spoofed sources, retries nobody answers)
/// evicts arbitrary victims at the cap and is aged out by the idle sweep,
/// so caching and latency sampling degrade under attack but never shut off.
constexpr std::size_t kMaxPending = 8192;

const char* const kRcodeNames[16] = {
    "noerror", "formerr", "servfail", "nxdomain", "notimp",  "refused",
    "yxdomain", "yxrrset", "nxrrset",  "notauth",  "notzone", "rcode11",
    "rcode12",  "rcode13", "rcode14",  "rcode15"};
}  // namespace

bool client_is_udp(ClientId id) { return (id & kTcpBit) == 0; }

SockAddr client_udp_addr(ClientId id) {
  SockAddr addr;
  addr.ip = static_cast<std::uint32_t>(id >> 16);
  addr.port = static_cast<std::uint16_t>(id);
  return addr;
}

std::uint16_t client_udp_payload(ClientId id) {
  return static_cast<std::uint16_t>(((id >> 48) & 0x3ff) << 4);
}

bool client_udp_do(ClientId id) { return (id & kUdpDoBit) != 0; }

unsigned client_udp_shard(ClientId id) {
  return static_cast<unsigned>((id >> 58) & 0x0f);
}

unsigned client_tcp_owner(ClientId id) {
  return static_cast<unsigned>((id >> 48) & 0xff);
}

unsigned client_tcp_shard(ClientId id) {
  return static_cast<unsigned>((id >> 40) & 0xff);
}

ClientId make_udp_client(const SockAddr& addr, std::uint16_t edns_payload,
                         bool dnssec_ok, unsigned shard) {
  // The payload travels as a 10-bit field of 16-byte units, floored — never
  // above the advertised size, and exact for every multiple of 16 (all the
  // sizes seen in practice: 512, 1232, 4096). Sizes beyond 16368 have no
  // practical meaning anyway. Bit 62 carries the query's DO bit; bits
  // 61..58 the shard the query arrived on, so asynchronously produced
  // responses route back to the loop holding the pending store.
  std::uint64_t payload = std::min<std::uint64_t>(edns_payload, 0x3fff);
  // RFC 6891 §6.2.5: an advertised size below 512 MUST be treated as 512 —
  // a maliciously tiny OPT must not shrink the response budget below the
  // classic limit. Zero stays zero: it is the "query had no OPT" sentinel.
  if (payload != 0 && payload < dns::kClassicUdpLimit) {
    payload = dns::kClassicUdpLimit;
  }
  return (dnssec_ok ? kUdpDoBit : 0) |
         static_cast<std::uint64_t>(shard & 0x0f) << 58 | (payload >> 4) << 48 |
         static_cast<std::uint64_t>(addr.ip) << 16 | addr.port;
}

ClientId make_tcp_client(unsigned replica, std::uint64_t serial) {
  return kTcpBit | static_cast<std::uint64_t>(replica & 0xff) << 48 |
         (serial & 0xFFFFFFFFFFFFULL);
}

DnsFrontend::DnsFrontend(EventLoop& loop, Options options, RequestFn on_request)
    : loop_(loop),
      opt_(options),
      on_request_(std::move(on_request)),
      cache_(options.cache_entries),
      recv_bufs_(kUdpBatch, std::vector<std::uint8_t>(64 * 1024)),
      recv_iovs_(kUdpBatch),
      recv_msgs_(kUdpBatch),
      recv_addrs_(kUdpBatch),
      send_bufs_(kUdpBatch),
      send_iovs_(kUdpBatch),
      send_msgs_(kUdpBatch),
      send_addrs_(kUdpBatch),
      tcp_buf_(64 * 1024) {
  for (unsigned i = 0; i < kUdpBatch; ++i) {
    recv_iovs_[i].iov_base = recv_bufs_[i].data();
    recv_iovs_[i].iov_len = recv_bufs_[i].size();
    recv_msgs_[i].msg_hdr.msg_name = &recv_addrs_[i];
    recv_msgs_[i].msg_hdr.msg_iov = &recv_iovs_[i];
    recv_msgs_[i].msg_hdr.msg_iovlen = 1;
    send_msgs_[i].msg_hdr.msg_name = &send_addrs_[i];
    send_msgs_[i].msg_hdr.msg_namelen = sizeof(sockaddr_in);
    send_msgs_[i].msg_hdr.msg_iov = &send_iovs_[i];
    send_msgs_[i].msg_hdr.msg_iovlen = 1;
  }
  obs::Registry* m = opt_.metrics;
  auto ctr = [m](const std::string& name) {
    return m ? &m->counter(name) : &obs::noop_counter();
  };
  const std::string shard = "net.shard" + std::to_string(opt_.shard) + ".";
  c_udp_queries_ = ctr("net.udp.queries");
  c_tcp_queries_ = ctr("net.tcp.queries");
  c_recvmmsg_calls_ = ctr("net.udp.recvmmsg_calls");
  c_sendmmsg_calls_ = ctr("net.udp.sendmmsg_calls");
  c_send_errors_[0] = ctr("net.udp.send_errors");
  c_send_errors_[1] = ctr(shard + "udp.send_errors");
  c_truncated_ = ctr("net.udp.truncated");
  c_tcp_accepted_ = ctr("net.tcp.accepted");
  c_tcp_closed_ = ctr("net.tcp.closed");
  c_idle_closed_ = ctr("net.tcp.idle_closed");
  c_idle_sweeps_ = ctr("net.tcp.idle_sweeps");
  c_opcode_query_ = ctr("net.query.opcode.query");
  c_opcode_update_ = ctr("net.query.opcode.update");
  c_opcode_other_ = ctr("net.query.opcode.other");
  for (int i = 0; i < 16; ++i) {
    c_rcode_[i] = ctr(std::string("net.rcode.") + kRcodeNames[i]);
  }
  h_latency_ =
      m ? &m->histogram("net.query.latency_us") : &obs::noop_histogram();
  c_shard_udp_queries_ = ctr(shard + "udp.queries");
  h_shard_latency_ =
      m ? &m->histogram(shard + "query.latency_us") : &obs::noop_histogram();
  auto pair = [&](obs::Counter* (&slot)[2], const std::string& name) {
    slot[0] = ctr("net." + name);
    slot[1] = ctr(shard + name);
  };
  pair(c_cache_hits_, "cache.hits");
  pair(c_cache_misses_, "cache.misses");
  pair(c_cache_stores_, "cache.stores");
  pair(c_cache_flushes_, "cache.flushes");
  pair(c_cache_evictions_, "cache.evictions");
  pair(c_bypass_tsig_, "cache.bypass.tsig");
  pair(c_bypass_opcode_, "cache.bypass.opcode");
  pair(c_bypass_class_, "cache.bypass.class");
  pair(c_bypass_qform_, "cache.bypass.qform");
  pair(c_bypass_xfr_, "cache.bypass.xfr");
  pair(c_bypass_notify_, "cache.bypass.notify");
}

std::uint64_t DnsFrontend::current_generation() const {
  return opt_.generation ? opt_.generation->load(std::memory_order_acquire)
                         : 0;
}

void DnsFrontend::note_request(ClientId client, BytesView wire, Pending pending) {
  if (wire.size() < 12) return;
  const std::uint8_t opcode = (wire[2] >> 3) & 0x0f;
  if (opcode == 0) {
    c_opcode_query_->inc();
  } else if (opcode == 5) {
    c_opcode_update_->inc();
  } else {
    c_opcode_other_->inc();
  }
  if (!opt_.metrics && pending.key.empty()) return;  // nothing to pair
  const auto pkey = std::make_pair(
      client, static_cast<std::uint16_t>(wire[0] << 8 | wire[1]));
  if (pending_.size() >= kMaxPending && pending_.find(pkey) == pending_.end()) {
    pending_.erase(pending_.begin());  // arbitrary victim, never refuse
  }
  // insert_or_assign, never emplace: an existing entry under this
  // (client, id) is an orphan whose query was dropped or whose response
  // is still in flight — keeping it would pair its stale key and arrival
  // time with this request's response.
  pending.registered = loop_.now();
  pending_.insert_or_assign(pkey, std::move(pending));
}

std::optional<DnsFrontend::Pending> DnsFrontend::note_response(ClientId client,
                                                               BytesView wire) {
  if (wire.size() < 12) return std::nullopt;
  c_rcode_[wire[3] & 0x0f]->inc();
  const auto id = static_cast<std::uint16_t>(wire[0] << 8 | wire[1]);
  const auto it = pending_.find(std::make_pair(client, id));
  if (it == pending_.end()) return std::nullopt;  // duplicate, or aged out
  Pending pending = std::move(it->second);
  pending_.erase(it);
  const auto us =
      static_cast<std::uint64_t>((loop_.now() - pending.registered) * 1e6);
  h_latency_->observe(us);
  h_shard_latency_->observe(us);
  return pending;
}

void DnsFrontend::note_bypass(Cacheable why) {
  obs::Counter* (*slot)[2] = nullptr;
  switch (why) {
    case Cacheable::kYes: return;
    case Cacheable::kTsig: slot = &c_bypass_tsig_; break;
    case Cacheable::kOpcode: slot = &c_bypass_opcode_; break;
    case Cacheable::kClass: slot = &c_bypass_class_; break;
    case Cacheable::kQform: slot = &c_bypass_qform_; break;
    case Cacheable::kXfr: slot = &c_bypass_xfr_; break;
    case Cacheable::kNotify: slot = &c_bypass_notify_; break;
  }
  (*slot)[0]->inc();
  (*slot)[1]->inc();
}

DnsFrontend::~DnsFrontend() {
  for (auto& [serial, conn] : conns_) loop_.del_fd(conn.fd);
  if (sweep_timer_) loop_.cancel_timer(sweep_timer_);
  if (udp_fd_ >= 0) loop_.del_fd(udp_fd_);
  if (listen_fd_ >= 0) loop_.del_fd(listen_fd_);
}

void DnsFrontend::start() {
  // TCP binds the same port the UDP socket resolved (when listen.port == 0,
  // tests let the kernel pick — both transports must share the number). The
  // kernel picks a port free for UDP only, and a TCP socket may hold that
  // number already; a port-0 listener then takes the kernel's next pick.
  for (int pick = 1;; ++pick) {
    udp_fd_ = udp_bind(opt_.listen, opt_.reuseport);
    SockAddr tcp_addr = local_addr(udp_fd_);
    tcp_addr.ip = opt_.listen.ip;
    try {
      listen_fd_ = tcp_listen(tcp_addr, opt_.reuseport);
      break;
    } catch (const NetError&) {
      ::close(udp_fd_);
      if (opt_.listen.port != 0 || pick == 8) throw;
    }
  }
  loop_.add_fd(udp_fd_, EventLoop::kReadable, [this](std::uint32_t) { on_udp_ready(); });
  loop_.add_fd(listen_fd_, EventLoop::kReadable,
               [this](std::uint32_t) { on_listener_ready(); });
  // Self-re-arming idle sweep (sweep_idle schedules the next pass).
  sweep_timer_ = loop_.add_timer(std::max(opt_.idle_timeout / 4, 0.05),
                                 [this] { sweep_idle(); });
}

SockAddr DnsFrontend::bound_addr() const { return local_addr(udp_fd_); }

void DnsFrontend::serve_cached(const PacketCache::Entry& entry,
                               BytesView query, const QueryShape& shape,
                               const sockaddr_in& from) {
  // Splice: client's id and question bytes (exact casing) in front of the
  // stored answer tail. Compression pointers in the tail target offsets
  // inside the question region; a case-only qname difference preserves
  // every offset, so the tail is byte-for-byte reusable.
  //
  // The splice lands in the next free send slot; the filled batch rides
  // out on one sendmmsg when the receive batch has been classified (or
  // sooner, if all kUdpBatch slots fill mid-batch).
  if (send_count_ == kUdpBatch) flush_udp_sends();
  const Bytes& s = entry.wire;
  const std::size_t qlen = entry.question_len;
  Bytes& out = send_bufs_[send_count_];
  out.clear();
  out.reserve(s.size());
  out.push_back(query[0]);  // client's message id
  out.push_back(query[1]);
  // Stored flags, with RD (bit 0 of byte 2) echoed from this query.
  out.push_back(static_cast<std::uint8_t>((s[2] & ~0x01) | (query[2] & 0x01)));
  out.push_back(s[3]);
  out.insert(out.end(), s.begin() + 4, s.begin() + 12);
  out.insert(out.end(), query.begin() + 12,
             query.begin() + 12 + static_cast<std::ptrdiff_t>(qlen));
  out.insert(out.end(), s.begin() + 12 + static_cast<std::ptrdiff_t>(qlen),
             s.end());
  send_addrs_[send_count_] = from;
  send_iovs_[send_count_].iov_base = out.data();
  send_iovs_[send_count_].iov_len = out.size();
  ++send_count_;
  c_opcode_query_->inc();
  c_rcode_[s[3] & 0x0f]->inc();
  // Cache hits are not observed into the latency histograms: the whole
  // exchange happens inside one epoll wakeup, and a flood of 0µs samples
  // would pin every percentile of net.query.latency_us to zero, hiding the
  // replica-path latency the histogram exists to show.
  (void)shape;
}

void DnsFrontend::flush_udp_sends() {
  unsigned off = 0;
  while (off < send_count_) {
    const int sent =
        retry_sendmmsg(udp_fd_, send_msgs_.data() + off, send_count_ - off, 0);
    c_sendmmsg_calls_->inc();
    if (sent < 0) {
      // EAGAIN/ENOBUFS: kernel buffer full. UDP semantics — drop the rest
      // of the batch, count every dropped response, let clients retry.
      c_send_errors_[0]->inc(send_count_ - off);
      c_send_errors_[1]->inc(send_count_ - off);
      break;
    }
    off += static_cast<unsigned>(sent);  // partial batch: continue from off
  }
  send_count_ = 0;
}

void DnsFrontend::on_udp_ready() {
  for (;;) {
    // msg_namelen is kernel-overwritten output; re-arm before each call.
    for (unsigned i = 0; i < kUdpBatch; ++i) {
      recv_msgs_[i].msg_hdr.msg_namelen = sizeof(sockaddr_in);
    }
    const int got = retry_recvmmsg(udp_fd_, recv_msgs_.data(), kUdpBatch, 0);
    if (got <= 0) break;  // EAGAIN: drained
    c_recvmmsg_calls_->inc();
    for (int i = 0; i < got; ++i) {
      const std::size_t len = recv_msgs_[i].msg_len;
      if (len < 12) continue;  // shorter than a DNS header: noise
      ++udp_queries_;
      c_udp_queries_->inc();
      c_shard_udp_queries_->inc();
      handle_udp_datagram(BytesView(recv_bufs_[i].data(), len),
                          recv_addrs_[i]);
    }
    flush_udp_sends();
    // A short batch means the queue drained mid-call; the loop is
    // level-triggered, so anything that arrived since will wake it again.
    if (got < static_cast<int>(kUdpBatch)) break;
  }
}

void DnsFrontend::handle_udp_datagram(BytesView wire, const sockaddr_in& sa) {
  if (opt_.injector && opt_.injector->armed()) {
    const WireDecision d = opt_.injector->decide(
        opt_.client_node, opt_.replica, inject_seq_++, loop_.now());
    if (d.drop) return;  // a dropped query, like any UDP loss
  }
  // Allocation-free fast path: one structural scan classifies the query
  // and, when cacheable, builds the key and probes the packet cache. A
  // hit is answered right here — no parse, no zone, no encode.
  std::uint16_t payload = 0;
  bool dnssec_ok = false;
  bool cacheable = false;
  QueryShape shape;
  if (scan_query(wire, shape)) {
    payload = shape.edns_payload;
    dnssec_ok = shape.dnssec_ok;
    const Cacheable why = classify_query(shape);
    if (why != Cacheable::kYes) {
      note_bypass(why);
    } else if (opt_.enable_cache) {
      cacheable = true;
      key_scratch_.clear();
      append_cache_key(key_scratch_, wire, shape);
      const std::uint64_t gen = current_generation();
      if (cache_.generation() != gen && cache_.size() > 0) {
        c_cache_flushes_[0]->inc();
        c_cache_flushes_[1]->inc();
      }
      const PacketCache::Entry* entry = cache_.lookup(key_scratch_, gen);
      if (entry && entry->question_len == shape.question_len) {
        c_cache_hits_[0]->inc();
        c_cache_hits_[1]->inc();
        serve_cached(*entry, wire, shape, sa);
        return;
      }
      c_cache_misses_[0]->inc();
      c_cache_misses_[1]->inc();
    }
  } else {
    // Not structurally walkable: the full decoder is the authority, and
    // it drops malformed noise silently like named does.
    try {
      const dns::Message query = dns::Message::decode(wire);
      if (const auto edns = dns::find_edns(query)) {
        payload = edns->udp_payload;
        dnssec_ok = edns->dnssec_ok;
      }
    } catch (const util::ParseError&) {
      return;
    }
  }
  // RFC 6891 §6.2.5 floor is applied inside make_udp_client; zero stays
  // the "no OPT" sentinel either way.
  const SockAddr from = SockAddr::from_sockaddr(sa);
  const ClientId client = make_udp_client(from, payload, dnssec_ok,
                                          opt_.shard);
  Pending pending;
  if (cacheable) {
    pending = Pending{key_scratch_, shape.question_len,
                      payload_bucket(shape.edns_payload), shape.dnssec_ok};
  }
  note_request(client, wire, std::move(pending));
  on_request_(client, wire);
}

void DnsFrontend::on_listener_ready() {
  for (;;) {
    const int fd = tcp_accept(listen_fd_);
    if (fd < 0) break;
    if (conns_.size() >= opt_.max_connections) {
      ::close(fd);
      continue;
    }
    // The 48-bit ClientId serial carries the shard in its top byte so
    // responses routed from the replica thread find the owning loop.
    const std::uint64_t serial =
        static_cast<std::uint64_t>(opt_.shard & 0xff) << 40 |
        (next_serial_++ & 0xFFFFFFFFFFULL);
    Conn conn;
    conn.fd = fd;
    conn.serial = serial;
    conn.decoder = DnsTcpDecoder(opt_.max_tcp_message);
    // The queue's hard cap admits transfer streams; the tighter query
    // backlog cap (write_cap) is enforced per-push in respond().
    conn.wq = WriteQueue(std::max(opt_.write_cap, opt_.xfr_max_inflight));
    conn.last_active = loop_.now();
    conns_.emplace(serial, std::move(conn));
    c_tcp_accepted_->inc();
    loop_.add_fd(fd, EventLoop::kReadable,
                 [this, serial](std::uint32_t ev) { on_conn_io(serial, ev); });
  }
}

void DnsFrontend::close_conn(std::uint64_t serial) {
  auto it = conns_.find(serial);
  if (it == conns_.end()) return;
  loop_.del_fd(it->second.fd);
  conns_.erase(it);
  c_tcp_closed_->inc();
}

void DnsFrontend::sweep_idle() {
  c_idle_sweeps_->inc();
  const double cutoff = loop_.now() - opt_.idle_timeout;
  std::vector<std::uint64_t> idle;
  for (const auto& [serial, conn] : conns_) {
    // A connection still draining queued output (a long zone transfer to a
    // slow reader) is active, not idle — memory is bounded by the write
    // queue cap, and every successful flush refreshes last_active.
    if (!conn.wq.empty()) continue;
    if (conn.last_active < cutoff) idle.push_back(serial);
  }
  c_idle_closed_->inc(idle.size());
  for (const std::uint64_t serial : idle) close_conn(serial);
  // Age out pending entries whose response never came, so the map can
  // neither fill up for good nor hold a stale key or arrival time for a
  // future same-(client, id) response to mispair with.
  const double pending_cutoff = loop_.now() - opt_.pending_timeout;
  for (auto it = pending_.begin(); it != pending_.end();) {
    it = it->second.registered < pending_cutoff ? pending_.erase(it)
                                                : std::next(it);
  }
  sweep_timer_ = loop_.add_timer(std::max(opt_.idle_timeout / 4, 0.05),
                                 [this] { sweep_idle(); });
}

void DnsFrontend::on_conn_io(std::uint64_t serial, std::uint32_t events) {
  auto it = conns_.find(serial);
  if (it == conns_.end()) return;
  Conn& conn = it->second;
  if (events & EventLoop::kError) {
    close_conn(serial);
    return;
  }
  if (events & EventLoop::kWritable) {
    if (!conn.wq.flush(conn.fd)) {
      close_conn(serial);
      return;
    }
    if (conn.wq.empty() && conn.want_write) {
      conn.want_write = false;
      loop_.mod_fd(conn.fd, EventLoop::kReadable);
    }
    conn.last_active = loop_.now();
  }
  if (!(events & EventLoop::kReadable)) return;
  for (;;) {
    const ssize_t n = retry_recv(conn.fd, tcp_buf_.data(), tcp_buf_.size(), 0);
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      close_conn(serial);
      return;
    }
    if (n == 0) {
      // Peer closed; a partially received message dies with the stream.
      close_conn(serial);
      return;
    }
    conn.last_active = loop_.now();
    if (!conn.decoder.feed({tcp_buf_.data(), static_cast<std::size_t>(n)})) {
      close_conn(serial);  // undersized/oversized length or backlog abuse
      return;
    }
    // Pipelining: a single read may complete several queries. The view is
    // valid until the next feed(), which cannot happen inside on_request_.
    while (auto wire = conn.decoder.next_view()) {
      ++tcp_queries_;
      c_tcp_queries_->inc();
      const ClientId client = make_tcp_client(opt_.replica, serial);
      note_request(client, *wire, {});
      on_request_(client, *wire);
      if (conns_.find(serial) == conns_.end()) return;  // closed by reentry
    }
    if (conn.decoder.broken()) {
      close_conn(serial);
      return;
    }
  }
}

void DnsFrontend::respond_udp(ClientId client, BytesView wire,
                              std::optional<std::uint64_t> generation,
                              std::optional<Pending> pending) {
  const SockAddr to = client_udp_addr(client);
  const std::uint16_t advertised = client_udp_payload(client);
  const std::size_t limit =
      advertised ? std::max<std::size_t>(advertised, dns::kClassicUdpLimit)
                 : dns::kClassicUdpLimit;
  Bytes out(wire.begin(), wire.end());
  bool truncated = false;
  if (advertised || wire.size() > limit) {
    // EDNS clients get our OPT echoed; any oversized answer is truncated to
    // a TC-bit stub that sends the client to TCP.
    try {
      dns::Message response = dns::Message::decode(wire);
      if (advertised) {
        dns::EdnsInfo info;
        info.udp_payload = opt_.edns_payload;
        dns::set_edns(response, info);
      }
      if (dns::truncate_for_udp(response, limit)) {
        truncated = true;
        ++truncated_;
        c_truncated_->inc();
      }
      out = response.encode();
    } catch (const util::ParseError&) {
      return;  // replica produced an undecodable response; drop
    }
  }
  const sockaddr_in sa = to.to_sockaddr();
  // EAGAIN/ENOBUFS: kernel buffer full — the response is dropped (UDP
  // semantics, the client retries), but the drop is counted, not silent.
  if (retry_sendto(udp_fd_, out.data(), out.size(), 0,
                   reinterpret_cast<const sockaddr*>(&sa), sizeof sa) < 0) {
    c_send_errors_[0]->inc();
    c_send_errors_[1]->inc();
  }
  // The store context registered when the query arrived is required for
  // the response to be cached.
  if (!pending || pending->key.empty() || !generation || truncated ||
      !opt_.enable_cache) {
    return;
  }
  // Store only answers every client in the bucket could have received
  // whole, and only the deterministic outcomes (NoError / NXDomain).
  const std::uint8_t rcode = out[3] & 0x0f;
  if (rcode != 0 && rcode != 3) return;
  if (out.size() > bucket_limit(pending->bucket)) return;
  // The pending entry identifies itself only by (ClientId, DNS id), which
  // collides: it may be an orphan left by an earlier query this response
  // does not answer. Re-derive the key from the response's own question
  // and store only on an exact match — a weaker (length-only) check would
  // let an equal-length qname poison the cache with a wrong answer. Key
  // equality also pins the question width the splice relies on, since the
  // folded qname bytes are part of the key.
  verify_key_.clear();
  if (!response_cache_key(verify_key_, out, pending->bucket,
                          pending->dnssec_ok) ||
      verify_key_ != pending->key) {
    return;
  }
  const std::uint64_t gen = *generation;
  if (cache_.generation() != gen && cache_.size() > 0) {
    c_cache_flushes_[0]->inc();
    c_cache_flushes_[1]->inc();
  }
  const std::uint64_t evictions_before = cache_.stats().evictions;
  cache_.store(std::move(pending->key), std::move(out), pending->question_len,
               gen);
  if (cache_.stats().evictions != evictions_before) {
    c_cache_evictions_[0]->inc();
    c_cache_evictions_[1]->inc();
  }
  c_cache_stores_[0]->inc();
  c_cache_stores_[1]->inc();
}

void DnsFrontend::respond(ClientId client, BytesView wire,
                          std::optional<std::uint64_t> generation) {
  std::optional<Pending> pending = note_response(client, wire);
  if (client_is_udp(client)) {
    respond_udp(client, wire, generation, std::move(pending));
    return;
  }
  if (client_tcp_owner(client) != opt_.replica ||
      client_tcp_shard(client) != opt_.shard) {
    return;  // another replica's or shard's connection; not ours to answer
  }
  auto it = conns_.find(client & 0xFFFFFFFFFFFFULL);
  if (it == conns_.end()) return;  // client hung up before the answer
  Conn& conn = it->second;
  // Query answers honor the tighter backlog cap even though the queue's
  // hard limit admits more (transfers use the headroom, not queries).
  Bytes framed = DnsTcpDecoder::frame(wire);
  if (conn.wq.pending() + framed.size() > opt_.write_cap ||
      !conn.wq.push(std::move(framed))) {
    close_conn(conn.serial);  // slow reader beyond the cap
    return;
  }
  if (!conn.wq.flush(conn.fd)) {
    close_conn(conn.serial);
    return;
  }
  if (!conn.wq.empty() && !conn.want_write) {
    conn.want_write = true;
    loop_.mod_fd(conn.fd, EventLoop::kReadable | EventLoop::kWritable);
  }
  conn.last_active = loop_.now();
}

void DnsFrontend::respond_xfr(ClientId client,
                              const std::vector<Bytes>& wires) {
  if (wires.empty() || client_is_udp(client)) return;
  if (client_tcp_owner(client) != opt_.replica ||
      client_tcp_shard(client) != opt_.shard) {
    return;  // another replica's or shard's connection; not ours to answer
  }
  auto it = conns_.find(client & 0xFFFFFFFFFFFFULL);
  if (it == conns_.end()) return;  // client hung up before the transfer
  Conn& conn = it->second;
  note_response(client, wires.front());
  for (const Bytes& w : wires) {
    Bytes framed = DnsTcpDecoder::frame(w);
    if (conn.wq.pending() + framed.size() > opt_.xfr_max_inflight ||
        !conn.wq.push(std::move(framed))) {
      close_conn(conn.serial);  // reader fell beyond the transfer bound
      return;
    }
  }
  if (!conn.wq.flush(conn.fd)) {
    close_conn(conn.serial);
    return;
  }
  if (!conn.wq.empty() && !conn.want_write) {
    conn.want_write = true;
    loop_.mod_fd(conn.fd, EventLoop::kReadable | EventLoop::kWritable);
  }
  conn.last_active = loop_.now();
}

}  // namespace sdns::net
