// net::FrontendGroup — the serving host a replica and an edge share.
//
// Shard 0's DnsFrontend rides the owner's loop (so shards=1 is the classic
// single-threaded server); shards 1..N-1 each run an EventLoop on a thread
// of their own, bound with SO_REUSEPORT to the port shard 0 resolved. Cache
// hits complete on the shard thread; other requests are copied and posted
// to the owner's loop, and answers travel back by the ClientId's shard bits.
// On top sit the two answers every serving host gives locally: zone
// transfers out of an AuthoritativeServer, and `stats.sdns. CH TXT`.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "dns/server.hpp"
#include "net/frontend.hpp"

namespace sdns::net {

/// The client-facing settings sdnsd and sdns_edge configs share.
struct ServingConfig {
  SockAddr listen_dns;  ///< UDP + TCP client-facing endpoint
  double idle_timeout = 30.0;
  std::uint16_t edns_payload = 4096;
  /// Frontend shards, each with its own event-loop thread and SO_REUSEPORT
  /// socket pair on listen_dns. 1 = classic single-loop mode (no extra
  /// threads, no REUSEPORT). Max 16 — the shard field a UDP ClientId routes
  /// responses by is 4 bits.
  unsigned shards = 1;
  bool packet_cache = true;          ///< per-shard response packet cache
  std::size_t cache_entries = 4096;  ///< per-shard cache capacity
  /// Per-connection cap on queued AXFR/IXFR output (bytes). Transfer
  /// streams are exempt from the query write cap; this bounds them instead.
  std::size_t xfr_max_inflight = 8 * 1024 * 1024;

  /// DnsFrontend options for these settings (shard and REUSEPORT are the
  /// group's to fill in).
  DnsFrontend::Options frontend_options() const;
};

/// Read a `key = value` config file (`#` comments, blank lines skipped,
/// whitespace trimmed), handing `apply` each pair plus the raw line for
/// error messages. Throws NetError on unreadable files and lines without `=`.
void read_config(const std::string& path,
                 const std::function<void(const std::string& key,
                                          const std::string& value,
                                          const std::string& line)>& apply);
/// true/1/yes or false/0/no; throws NetError naming `line` otherwise.
bool parse_bool(const std::string& value, const std::string& line);

class FrontendGroup {
 public:
  /// Extra CH TXT names a host answers: given a TXT/ANY question's name,
  /// the one string to answer with, or nullopt for REFUSED.
  using ChaosFn = std::function<std::optional<std::string>(const dns::Name&)>;

  /// Builds shard 0 now so callers can reach it before start(). `on_request`
  /// always runs on `loop`. The registry (required) and generation counter
  /// `base` points at must outlive the group.
  FrontendGroup(EventLoop& loop, unsigned shards, DnsFrontend::Options base,
                DnsFrontend::RequestFn on_request);
  /// Stops and joins the shard threads.
  ~FrontendGroup();
  FrontendGroup(const FrontendGroup&) = delete;
  FrontendGroup& operator=(const FrontendGroup&) = delete;

  /// Bind shard 0 (resolving port 0), then the other shards on that port.
  void start();

  DnsFrontend& frontend(unsigned shard = 0) { return *shards_.at(shard).frontend; }
  unsigned size() const { return static_cast<unsigned>(shards_.size()); }

  /// Deliver to the shard owning `client`, so even asynchronous answers
  /// (disseminated reads, update completions) reach the shard holding the
  /// pending cache-store context. A UDP id naming a shard this group lacks
  /// goes out of shard 0; such a TCP id is dropped.
  void respond(ClientId client, util::Bytes wire,
               std::optional<std::uint64_t> generation = std::nullopt);
  void respond_xfr(ClientId client, std::vector<util::Bytes> wires);

  /// AXFR/IXFR out of `server`: a TC stub over UDP, envelopes chunked to
  /// the 64 KiB frame over TCP, REFUSED over TCP while `server` is null.
  /// True when a transfer was streamed; `used_axfr` as answer_xfr reports.
  bool answer_xfr(ClientId client, const dns::Message& request,
                  const dns::AuthoritativeServer* server,
                  bool* used_axfr = nullptr);

  /// A CHAOS-class query: `stats.sdns.` TXT renders the registry (after
  /// `refresh_gauges`), one `name=value` string per sample; names `extra`
  /// accepts get its string; anything else is REFUSED.
  void answer_chaos(ClientId client, const dns::Message& request,
                    const std::function<void()>& refresh_gauges,
                    const ChaosFn& extra = nullptr);

 private:
  struct Shard {
    std::unique_ptr<EventLoop> loop;  ///< null for shard 0 (owner's loop)
    std::unique_ptr<DnsFrontend> frontend;
    std::thread thread;
  };

  DnsFrontend::Options options_for(unsigned shard) const;

  EventLoop& loop_;
  DnsFrontend::Options base_;
  DnsFrontend::RequestFn on_request_;
  std::vector<Shard> shards_;
};

}  // namespace sdns::net
