// StubResolver — a blocking dig/nsupdate stand-in for tests and tools.
//
// Speaks to a running cluster over real sockets: UDP first with a receive
// timeout, rotating through the configured servers on timeout, and falling
// back to TCP against the same server when a response comes back with the
// TC bit set (RFC 1035 §4.2.2) — exactly what a stock resolver does. An
// EDNS payload size can be advertised to lift the 512-byte UDP ceiling.
//
// This is deliberately synchronous (one exchange at a time, own sockets per
// call): the integration test forks sdnsd processes and drives them from the
// test body, and nothing here may depend on the replicas' event loop.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "dns/message.hpp"
#include "dns/tsig.hpp"
#include "net/socket.hpp"

namespace sdns::net {

class StubResolver {
 public:
  struct Options {
    std::vector<SockAddr> servers;
    double timeout = 2.0;     ///< per-attempt receive timeout
    unsigned attempts = 6;    ///< total send attempts across servers
    std::uint16_t edns_payload = 0;  ///< 0 = no OPT record in queries
    bool tcp_only = false;    ///< skip UDP entirely (nsupdate -v style)
  };

  struct Result {
    bool ok = false;
    bool used_tcp = false;
    unsigned tries = 0;
    dns::Message response;
    std::string error;
  };

  explicit StubResolver(Options options);

  /// Passed as `timestamp` to sign with the wall clock at send time — the
  /// only value that survives a server-side TSIG fudge-window check.
  static constexpr std::uint64_t kTimestampNow = ~0ULL;

  /// dig: query (name, type) and return the first response whose id and
  /// question match, following TC to TCP. `klass` defaults to IN; pass
  /// dns::RRClass::kCH to scrape a replica's stats.sdns. introspection TXT.
  Result query(const dns::Name& name, dns::RRType type,
               dns::RRClass klass = dns::RRClass::kIN);

  /// nsupdate: send a dynamic update (TSIG applied if `key` is non-null,
  /// stamped with the wall clock unless an explicit timestamp is given).
  Result send_update(dns::Message update, const dns::TsigKey* key = nullptr,
                     std::uint64_t timestamp = kTimestampNow);

  /// Raw exchange of an arbitrary request.
  Result exchange(dns::Message request);

  /// Zone transfer: send an AXFR or IXFR query over TCP and reassemble the
  /// RFC 5936 multi-message envelope stream. On success, Result.response is
  /// the single combined logical transfer, ready for apply_xfr_response.
  /// Rotates through the configured servers like exchange().
  Result xfr(dns::Message request);

 private:
  Result exchange_udp(const dns::Message& request, const SockAddr& server);
  Result exchange_tcp(const dns::Message& request, const SockAddr& server);
  Result xfr_tcp(const dns::Message& request, const SockAddr& server);

  Options opt_;
  std::uint16_t next_id_ = 0x517;
};

/// Scrape a replica's or edge's `stats.sdns. CH TXT` introspection into
/// sample name -> value string (histogram values are decimal floats; integer
/// callers convert). EDNS 4096 fits the sample set in one datagram, and a
/// truncated answer is retried over TCP. Empty when the server is unreachable.
std::map<std::string, std::string> scrape_stats(const SockAddr& server,
                                                double timeout = 1.0,
                                                unsigned attempts = 3);

/// scrape_stats read as signed integers: histogram floats keep their
/// integer part, and a negative gauge (abcast.digest_floor = -1 for an
/// empty delivery log) reads back negative. Empty when unreachable.
std::map<std::string, std::int64_t> scrape_counters(const SockAddr& server,
                                                    double timeout = 1.0,
                                                    unsigned attempts = 3);

}  // namespace sdns::net
