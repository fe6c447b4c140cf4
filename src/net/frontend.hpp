// UDP + TCP DNS frontend — the "port 53" face of a replica.
//
// Speaks real RFC 1035 wire format on both transports: raw datagrams on
// UDP, two-byte length-prefixed framing with partial-read/-write buffering
// and pipelining on TCP. Per-connection idle timeouts bound resource use;
// oversized or undersized TCP length prefixes drop the connection.
//
// A replica runs one DnsFrontend per shard. All shards of a replica bind
// the same address with SO_REUSEPORT, so the kernel spreads client flows
// across their event loops with no user-space hand-off. Each shard owns a
// PacketCache (net/cache.hpp): queries that hit are answered entirely on
// the shard thread — the stored wire response is spliced behind the
// client's literal question bytes (exact 0x20 casing and message id
// preserved, RFC 1035 §2.3.3) without parsing, zone lookup, or encoding.
// Misses and non-cacheable traffic (updates, TSIG-signed queries, CH
// class, zone transfers) are handed to the owner as before.
//
// Requests are handed to the owner as (ClientId, wire bytes — a view into
// the shard's receive buffer, valid only for the duration of the call). A
// ClientId is a self-contained 64-bit return address, so it can travel
// through atomic broadcast and let EVERY replica answer the client
// directly (§3.3 — voting clients need n independent responses):
//
//   UDP  [63]=0 | [62] DO bit | [61..58] shard the query arrived on
//              | [57..48] advertised EDNS payload / 16, floored (0 = no OPT
//              in query) | [47..16] IPv4 | [15..0] port
//        Any replica can sendto() that address from its own UDP socket.
//        The shard bits route a response produced asynchronously (abcast-
//        disseminated reads, update completions) back to the event loop
//        that registered the query's pending cache-store context; a
//        replica whose shard count is smaller than the encoded value sends
//        from shard 0, which is equally valid for UDP.
//   TCP  [63]=1 | [55..48] replica id that owns the connection
//              | [47..40] shard owning the connection | [39..0] serial
//        Only the owning shard of the owning replica can respond.
//
// Responses over UDP are EDNS-aware: the frontend re-attaches an OPT if the
// query carried one and truncates to the advertised payload size (classic
// 512 bytes without EDNS), setting TC so the client retries over TCP.
#pragma once

#include <sys/uio.h>

#include <atomic>
#include <map>
#include <optional>

#include "dns/edns.hpp"
#include "net/cache.hpp"
#include "net/frame.hpp"
#include "net/loop.hpp"
#include "net/socket.hpp"
#include "net/wirefault.hpp"
#include "obs/metrics.hpp"

namespace sdns::net {

using ClientId = std::uint64_t;

/// True if `id` addresses a UDP client (any replica can respond).
bool client_is_udp(ClientId id);
/// The UDP return address encoded in a UDP ClientId.
SockAddr client_udp_addr(ClientId id);
/// The advertised EDNS payload (0 = query had no OPT), floored to the
/// 16-byte granularity the ClientId encoding keeps.
std::uint16_t client_udp_payload(ClientId id);
/// The DO (DNSSEC OK) bit of the query's OPT.
bool client_udp_do(ClientId id);
/// The frontend shard a UDP query arrived on (within the minting replica).
unsigned client_udp_shard(ClientId id);
/// The replica owning a TCP ClientId's connection.
unsigned client_tcp_owner(ClientId id);
/// The frontend shard (within the owning replica) holding the connection.
unsigned client_tcp_shard(ClientId id);

ClientId make_udp_client(const SockAddr& addr, std::uint16_t edns_payload,
                         bool dnssec_ok = false, unsigned shard = 0);
ClientId make_tcp_client(unsigned replica, std::uint64_t serial);

class DnsFrontend {
 public:
  /// Datagrams moved per recvmmsg/sendmmsg syscall on the UDP hot path.
  static constexpr unsigned kUdpBatch = 32;

  struct Options {
    unsigned replica = 0;   ///< stamped into TCP ClientIds
    unsigned shard = 0;     ///< stamped into TCP ClientIds, metric names
    SockAddr listen;        ///< one address, both transports
    bool reuseport = false; ///< join an SO_REUSEPORT group (sharded mode)
    double idle_timeout = 30.0;        ///< close idle TCP connections
    std::size_t max_tcp_message = 0;   ///< 0 = u16 max (65535)
    std::size_t max_connections = 512;
    std::size_t write_cap = 1 * 1024 * 1024;  ///< per-connection query backlog
    /// Per-connection bound on queued zone-transfer output (respond_xfr).
    /// Transfers are exempt from `write_cap` — a multi-megabyte AXFR stream
    /// is normal, not a slow-reader symptom — but are still bounded: a
    /// connection whose queued transfer bytes would exceed this is closed.
    std::size_t xfr_max_inflight = 8 * 1024 * 1024;
    std::uint16_t edns_payload = 4096;  ///< our advertised receive size
    bool enable_cache = true;           ///< response packet cache (UDP)
    std::size_t cache_entries = 4096;   ///< per-shard cache capacity
    /// Age after which an unanswered pending cache-store context is swept
    /// (see PendingStore). Generous: it only needs to outlive the slowest
    /// legitimate response, including an abcast-disseminated read.
    double pending_timeout = 10.0;
    /// Zone-generation counter owned by the replica (null = generation 0
    /// forever, i.e. a never-invalidated cache — fine for unit tests).
    /// Bumped by the replica thread on every zone mutation or re-sign;
    /// read by shard threads to lazily flush stale entries.
    const std::atomic<std::uint64_t>* generation = nullptr;
    /// Metrics sink (owned by the caller, must outlive the frontend).
    /// Null components bump a shared no-op counter — no branch on the
    /// hot path either way.
    obs::Registry* metrics = nullptr;
    /// Wire-level chaos injection (net/wirefault.hpp) for the client UDP
    /// path: inbound datagrams on the client->replica link may be dropped
    /// (delay/duplicate stay mesh-only — a datagram here is a borrowed view
    /// of the receive buffer, and clients retransmit anyway). Owned by the
    /// caller, must outlive the frontend.
    FaultInjector* injector = nullptr;
    /// The schedule node id standing for "the client side" in fault
    /// schedules consulted via `injector` (sim convention: replicas are
    /// 0..n-1, the client is node n).
    unsigned client_node = 0;
  };

  /// Wire is a view into the shard's receive buffer — copy it if the
  /// request outlives the call (e.g. is posted to another thread).
  using RequestFn = std::function<void(ClientId, util::BytesView wire)>;

  DnsFrontend(EventLoop& loop, Options options, RequestFn on_request);
  ~DnsFrontend();

  void start();

  /// Deliver a response. UDP ids are answered with sendto (EDNS attach +
  /// truncation applied); TCP ids are length-framed onto the connection if
  /// it is still open and owned by this replica+shard. When `generation`
  /// is set, the answer came from the zone at that generation and — if the
  /// query was registered as cacheable on arrival — is stored in the
  /// packet cache. Responses without a generation (updates, TSIG answers,
  /// CH stats) are never stored.
  void respond(ClientId client, util::BytesView wire,
               std::optional<std::uint64_t> generation = std::nullopt);

  /// Deliver a multi-message zone transfer (RFC 5936 envelope stream) onto
  /// a TCP connection. Frames bypass the query backlog cap and are bounded
  /// by Options::xfr_max_inflight instead; a connection still draining
  /// queued transfer bytes is exempt from the idle sweep. UDP ClientIds are
  /// ignored — transfer callers answer UDP with a TC stub instead.
  void respond_xfr(ClientId client, const std::vector<util::Bytes>& wires);

  /// The bound address (resolves port 0 for tests).
  SockAddr bound_addr() const;

  std::uint64_t udp_queries() const { return udp_queries_; }
  std::uint64_t tcp_queries() const { return tcp_queries_; }
  std::uint64_t truncated() const { return truncated_; }
  const PacketCache& packet_cache() const { return cache_; }
  /// In-flight requests awaiting their respond() (tests/debug).
  std::size_t pending_entries() const { return pending_.size(); }

 private:
  struct Conn {
    int fd = -1;
    std::uint64_t serial = 0;
    DnsTcpDecoder decoder;
    WriteQueue wq;
    bool want_write = false;
    double last_active = 0;
  };

  /// A request awaiting its respond(), registered on arrival (every
  /// request when metrics are on, else only cacheable queries) and consumed
  /// by the respond() that answers it. It carries the arrival time for
  /// net.query.latency_us and, for a cacheable query, the cache-key context.
  /// A key is the store authorization: TSIG-signed or otherwise bypassed
  /// queries never get one, so their responses can never be stored. It is
  /// an authorization only, never trusted as an identification — (ClientId,
  /// DNS id) pairs collide, so respond() re-derives the key from the
  /// response's own question and stores nothing on a mismatch.
  struct Pending {
    std::string key;  ///< empty: the response may not be stored
    std::uint16_t question_len = 0;
    std::uint16_t bucket = 0;
    bool dnssec_ok = false;
    double registered = 0;  ///< arrival (loop time); aged out by the idle sweep
  };

  void on_udp_ready();
  void handle_udp_datagram(util::BytesView wire, const sockaddr_in& sa);
  void flush_udp_sends();
  void on_listener_ready();
  void on_conn_io(std::uint64_t serial, std::uint32_t events);
  void close_conn(std::uint64_t serial);
  void sweep_idle();
  void respond_udp(ClientId client, util::BytesView wire,
                   std::optional<std::uint64_t> generation,
                   std::optional<Pending> pending);
  void serve_cached(const PacketCache::Entry& entry, util::BytesView query,
                    const QueryShape& shape, const sockaddr_in& from);
  void note_request(ClientId client, util::BytesView wire, Pending pending);
  /// Counts the response and claims its request's pending entry, if any.
  std::optional<Pending> note_response(ClientId client, util::BytesView wire);
  void note_bypass(Cacheable why);
  std::uint64_t current_generation() const;

  EventLoop& loop_;
  Options opt_;
  RequestFn on_request_;
  int udp_fd_ = -1;
  int listen_fd_ = -1;
  std::map<std::uint64_t, Conn> conns_;  ///< by serial
  std::uint64_t next_serial_ = 1;
  EventLoop::TimerId sweep_timer_ = 0;
  std::uint64_t udp_queries_ = 0;
  std::uint64_t tcp_queries_ = 0;
  std::uint64_t truncated_ = 0;
  /// Per-shard arrival counter feeding the injector's (seed, link, seq)
  /// decisions for the client->replica link.
  std::uint64_t inject_seq_ = 0;

  PacketCache cache_;
  /// Bounded (ClientId, DNS id) -> pending entry for in-flight requests. A
  /// colliding arrival overwrites (the old entry is an orphan), capacity
  /// evicts an arbitrary victim, and the idle sweep ages out entries whose
  /// response never came.
  std::map<std::pair<ClientId, std::uint16_t>, Pending> pending_;

  // Per-shard scratch: reused across datagrams so the steady-state receive
  // and cache-hit paths perform no allocation. The UDP side is a kernel
  // batch: kUdpBatch receive slots filled by one recvmmsg, and kUdpBatch
  // send slots (cache-hit splices) flushed by one sendmmsg. iovec/mmsghdr
  // arrays are wired to their slots once, at construction; only msg_namelen
  // (overwritten by the kernel) is re-armed per call.
  std::vector<std::vector<std::uint8_t>> recv_bufs_;  ///< kUdpBatch × 64 KiB
  std::vector<iovec> recv_iovs_;
  std::vector<mmsghdr> recv_msgs_;
  std::vector<sockaddr_in> recv_addrs_;
  std::vector<util::Bytes> send_bufs_;    ///< cache-hit response assembly
  std::vector<iovec> send_iovs_;
  std::vector<mmsghdr> send_msgs_;
  std::vector<sockaddr_in> send_addrs_;
  unsigned send_count_ = 0;               ///< filled send slots awaiting flush
  std::vector<std::uint8_t> tcp_buf_;     ///< stream read scratch
  std::string key_scratch_;               ///< cache-key assembly
  std::string verify_key_;                ///< store-time key re-derivation

  // Counters resolved once at construction (see Options::metrics). The
  // cache/latency ones exist twice: an aggregate ("net.cache.hits") summed
  // across shards, and a per-shard name ("net.shard0.cache.hits").
  obs::Counter* c_udp_queries_;
  obs::Counter* c_tcp_queries_;
  obs::Counter* c_recvmmsg_calls_;
  obs::Counter* c_sendmmsg_calls_;
  obs::Counter* c_send_errors_[2];  ///< [0] aggregate, [1] per-shard
  obs::Counter* c_truncated_;
  obs::Counter* c_tcp_accepted_;
  obs::Counter* c_tcp_closed_;
  obs::Counter* c_idle_closed_;
  obs::Counter* c_idle_sweeps_;
  obs::Counter* c_opcode_query_;
  obs::Counter* c_opcode_update_;
  obs::Counter* c_opcode_other_;
  obs::Counter* c_rcode_[16];
  obs::Histogram* h_latency_;
  obs::Counter* c_shard_udp_queries_;
  obs::Histogram* h_shard_latency_;
  obs::Counter* c_cache_hits_[2];      ///< [0] aggregate, [1] per-shard
  obs::Counter* c_cache_misses_[2];
  obs::Counter* c_cache_stores_[2];
  obs::Counter* c_cache_flushes_[2];
  obs::Counter* c_cache_evictions_[2];
  obs::Counter* c_bypass_tsig_[2];
  obs::Counter* c_bypass_opcode_[2];
  obs::Counter* c_bypass_class_[2];
  obs::Counter* c_bypass_qform_[2];
  obs::Counter* c_bypass_xfr_[2];
  obs::Counter* c_bypass_notify_[2];
};

}  // namespace sdns::net
