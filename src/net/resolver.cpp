#include "net/resolver.hpp"

#include <sys/socket.h>
#include <sys/time.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <functional>

#include "dns/edns.hpp"
#include "dns/xfr.hpp"
#include "net/frame.hpp"
#include "util/bytes.hpp"

namespace sdns::net {

using util::Bytes;
using util::BytesView;

namespace {

/// RAII fd for the blocking sockets used here.
struct Fd {
  int fd = -1;
  explicit Fd(int f) : fd(f) {}
  ~Fd() {
    if (fd >= 0) ::close(fd);
  }
  Fd(const Fd&) = delete;
  Fd& operator=(const Fd&) = delete;
};

void set_rcv_timeout(int fd, double seconds) {
  timeval tv{};
  tv.tv_sec = static_cast<time_t>(seconds);
  tv.tv_usec = static_cast<suseconds_t>((seconds - static_cast<double>(tv.tv_sec)) * 1e6);
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
}

bool matches(const dns::Message& request, const dns::Message& response) {
  return response.id == request.id && response.qr &&
         (response.opcode == dns::Opcode::kUpdate ||
          response.questions == request.questions);
}

/// One TCP exchange: connect to `server`, send `request` behind its RFC 1035
/// length prefix, then feed each matching response to `on_message` until it
/// returns true. Transport failures land in `out.error`.
void tcp_exchange(const dns::Message& request, const SockAddr& server, double timeout,
                  StubResolver::Result& out,
                  const std::function<bool(dns::Message)>& on_message) {
  out.used_tcp = true;
  Fd sock(::socket(AF_INET, SOCK_STREAM, 0));
  if (sock.fd < 0) {
    out.error = "socket: " + std::string(std::strerror(errno));
    return;
  }
  set_rcv_timeout(sock.fd, timeout);
  const sockaddr_in sa = server.to_sockaddr();
  for (;;) {
    if (::connect(sock.fd, reinterpret_cast<const sockaddr*>(&sa), sizeof sa) == 0) {
      break;
    }
    // A signal can interrupt a blocking connect while the handshake keeps
    // running in the kernel; re-issuing it reports EALREADY until it lands
    // and EISCONN afterwards (POSIX connect §ERRORS).
    if (errno == EINTR || errno == EALREADY) continue;
    if (errno == EISCONN) break;
    out.error = "connect: " + std::string(std::strerror(errno));
    return;
  }
  const Bytes framed = DnsTcpDecoder::frame(request.encode());
  for (std::size_t sent = 0; sent < framed.size();) {
    const ssize_t n = retry_send(sock.fd, framed.data() + sent,
                                 framed.size() - sent, MSG_NOSIGNAL);
    if (n < 0) {
      out.error = "send: " + std::string(std::strerror(errno));
      return;
    }
    sent += static_cast<std::size_t>(n);
  }
  DnsTcpDecoder decoder;
  std::uint8_t buf[64 * 1024];
  for (;;) {
    const ssize_t n = retry_recv(sock.fd, buf, sizeof buf, 0);
    if (n <= 0) {
      out.error = n < 0 ? "timeout" : "connection closed";
      return;
    }
    if (!decoder.feed({buf, static_cast<std::size_t>(n)})) {
      out.error = "bad framing";
      return;
    }
    while (auto wire = decoder.next()) {
      dns::Message response;
      try {
        response = dns::Message::decode(*wire);
      } catch (const util::ParseError&) {
        out.error = "undecodable response";
        return;
      }
      if (!matches(request, response)) continue;  // stray message
      if (on_message(std::move(response))) return;
    }
  }
}

}  // namespace

StubResolver::StubResolver(Options options) : opt_(std::move(options)) {}

StubResolver::Result StubResolver::exchange_udp(const dns::Message& request,
                                                const SockAddr& server) {
  Result out;
  Fd sock(::socket(AF_INET, SOCK_DGRAM, 0));
  if (sock.fd < 0) {
    out.error = "socket: " + std::string(std::strerror(errno));
    return out;
  }
  set_rcv_timeout(sock.fd, opt_.timeout);
  const Bytes wire = request.encode();
  const sockaddr_in sa = server.to_sockaddr();
  if (retry_sendto(sock.fd, wire.data(), wire.size(), 0,
                   reinterpret_cast<const sockaddr*>(&sa), sizeof sa) < 0) {
    out.error = "sendto: " + std::string(std::strerror(errno));
    return out;
  }
  std::uint8_t buf[64 * 1024];
  for (;;) {
    const ssize_t n = retry_recv(sock.fd, buf, sizeof buf, 0);
    if (n < 0) {
      out.error = "timeout";
      return out;
    }
    try {
      dns::Message response = dns::Message::decode({buf, static_cast<std::size_t>(n)});
      if (!matches(request, response)) continue;  // stray datagram
      out.ok = true;
      out.response = std::move(response);
      return out;
    } catch (const util::ParseError&) {
      continue;
    }
  }
}

StubResolver::Result StubResolver::exchange_tcp(const dns::Message& request,
                                                const SockAddr& server) {
  Result out;
  tcp_exchange(request, server, opt_.timeout, out, [&](dns::Message response) {
    out.ok = true;
    out.response = std::move(response);
    return true;
  });
  return out;
}

StubResolver::Result StubResolver::xfr_tcp(const dns::Message& request,
                                           const SockAddr& server) {
  Result out;
  // Read envelopes until the assembler sees the transfer close (trailing
  // SOA / diff walk complete / lone up-to-date SOA).
  dns::XfrAssembler assembler;
  tcp_exchange(request, server, opt_.timeout, out, [&](dns::Message envelope) {
    switch (assembler.feed(envelope)) {
      case dns::XfrAssembler::State::kContinue:
        return false;
      case dns::XfrAssembler::State::kDone:
        out.ok = true;
        out.response = assembler.combined();
        return true;
      case dns::XfrAssembler::State::kMalformed:
        break;
    }
    out.error = "malformed transfer stream";
    return true;
  });
  return out;
}

StubResolver::Result StubResolver::xfr(dns::Message request) {
  if (request.id == 0) request.id = next_id_++;
  if (next_id_ == 0) next_id_ = 1;
  Result last;
  for (unsigned attempt = 0; attempt < opt_.attempts; ++attempt) {
    const SockAddr& server = opt_.servers[attempt % opt_.servers.size()];
    Result r = xfr_tcp(request, server);
    r.tries = attempt + 1;
    if (r.ok) return r;
    last = std::move(r);
  }
  return last;
}

StubResolver::Result StubResolver::exchange(dns::Message request) {
  if (request.id == 0) request.id = next_id_++;
  if (next_id_ == 0) next_id_ = 1;
  // Only plain queries get an OPT: updates may carry a TSIG whose MAC
  // already covers the message — appending after signing would break it.
  if (opt_.edns_payload && request.opcode == dns::Opcode::kQuery &&
      !dns::find_edns(request)) {
    dns::EdnsInfo info;
    info.udp_payload = opt_.edns_payload;
    dns::set_edns(request, info);
  }
  Result last;
  for (unsigned attempt = 0; attempt < opt_.attempts; ++attempt) {
    const SockAddr& server = opt_.servers[attempt % opt_.servers.size()];
    Result r = opt_.tcp_only ? exchange_tcp(request, server)
                             : exchange_udp(request, server);
    r.tries = attempt + 1;
    if (r.ok && r.response.tc && !opt_.tcp_only) {
      // Truncated: retry over TCP against the same server (RFC 1035 §4.2.2).
      Result tcp = exchange_tcp(request, server);
      tcp.tries = r.tries;
      if (tcp.ok) return tcp;
      last = std::move(tcp);
      continue;
    }
    if (r.ok) return r;
    last = std::move(r);
  }
  return last;
}

StubResolver::Result StubResolver::query(const dns::Name& name, dns::RRType type,
                                         dns::RRClass klass) {
  dns::Message request = dns::Message::make_query(0, name, type);
  request.questions.front().klass = klass;
  return exchange(std::move(request));
}

StubResolver::Result StubResolver::send_update(dns::Message update,
                                               const dns::TsigKey* key,
                                               std::uint64_t timestamp) {
  update.id = next_id_++;
  if (next_id_ == 0) next_id_ = 1;
  if (timestamp == kTimestampNow) {
    timestamp = static_cast<std::uint64_t>(::time(nullptr));
  }
  if (key) dns::tsig_sign(update, *key, timestamp);
  return exchange(std::move(update));
}

std::map<std::string, std::string> scrape_stats(const SockAddr& server,
                                                double timeout, unsigned attempts) {
  StubResolver::Options opt;
  opt.servers = {server};
  opt.timeout = timeout;
  opt.attempts = attempts;
  opt.edns_payload = 4096;
  StubResolver resolver(std::move(opt));
  const auto res = resolver.query(dns::Name::parse("stats.sdns."), dns::RRType::kTXT,
                                  dns::RRClass::kCH);
  std::map<std::string, std::string> out;
  if (!res.ok) return out;
  for (const dns::ResourceRecord& rr : res.response.answers) {
    if (rr.type != dns::RRType::kTXT || rr.rdata.empty()) continue;
    const std::size_t len = std::min<std::size_t>(rr.rdata[0], rr.rdata.size() - 1);
    const std::string txt(rr.rdata.begin() + 1, rr.rdata.begin() + 1 + len);
    const auto eq = txt.find('=');
    if (eq != std::string::npos) out[txt.substr(0, eq)] = txt.substr(eq + 1);
  }
  return out;
}

std::map<std::string, std::int64_t> scrape_counters(const SockAddr& server,
                                                    double timeout, unsigned attempts) {
  std::map<std::string, std::int64_t> out;
  for (const auto& [name, value] : scrape_stats(server, timeout, attempts)) {
    out[name] = std::strtoll(value.c_str(), nullptr, 10);
  }
  return out;
}

}  // namespace sdns::net
