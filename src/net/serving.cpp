#include "net/serving.hpp"

#include <sstream>

#include "net/runtime.hpp"

namespace sdns::net {

using util::Bytes;
using util::BytesView;

namespace {
std::string trim(const std::string& s) {
  const auto first = s.find_first_not_of(" \t\r");
  if (first == std::string::npos) return "";
  const auto last = s.find_last_not_of(" \t\r");
  return s.substr(first, last - first + 1);
}
}  // namespace

DnsFrontend::Options ServingConfig::frontend_options() const {
  DnsFrontend::Options fopt;
  fopt.listen = listen_dns;
  fopt.idle_timeout = idle_timeout;
  fopt.edns_payload = edns_payload;
  fopt.enable_cache = packet_cache;
  fopt.cache_entries = cache_entries;
  fopt.xfr_max_inflight = xfr_max_inflight;
  return fopt;
}

void read_config(const std::string& path,
                 const std::function<void(const std::string& key,
                                          const std::string& value,
                                          const std::string& line)>& apply) {
  const Bytes raw = read_file(path);
  std::istringstream in(std::string(raw.begin(), raw.end()));
  std::string line;
  while (std::getline(in, line)) {
    const std::string stripped = trim(line.substr(0, line.find('#')));
    if (stripped.empty()) continue;
    const auto eq = stripped.find('=');
    if (eq == std::string::npos) throw NetError("config line wants key = value: " + line);
    apply(trim(stripped.substr(0, eq)), trim(stripped.substr(eq + 1)), line);
  }
}

bool parse_bool(const std::string& value, const std::string& line) {
  if (value == "true" || value == "1" || value == "yes") return true;
  if (value == "false" || value == "0" || value == "no") return false;
  throw NetError("bad boolean in config line: " + line);
}

FrontendGroup::FrontendGroup(EventLoop& loop, unsigned shards,
                             DnsFrontend::Options base,
                             DnsFrontend::RequestFn on_request)
    : loop_(loop), base_(std::move(base)), on_request_(std::move(on_request)) {
  // Each frontend resolves its counters (shared registry) in its
  // constructor: shard 0's here, the others in start(), before their
  // threads exist.
  shards_.resize(shards);
  shards_[0].frontend = std::make_unique<DnsFrontend>(loop_, options_for(0), on_request_);
}

FrontendGroup::~FrontendGroup() {
  for (Shard& shard : shards_) {
    if (!shard.thread.joinable()) continue;
    // post() rather than stop(): a stop() issued before the thread enters
    // run() would be overwritten by run()'s own running_ = true.
    EventLoop* l = shard.loop.get();
    l->post([l] { l->stop(); });
    shard.thread.join();
  }
}

DnsFrontend::Options FrontendGroup::options_for(unsigned shard) const {
  DnsFrontend::Options fopt = base_;
  fopt.shard = shard;
  fopt.reuseport = shards_.size() > 1;
  return fopt;
}

void FrontendGroup::start() {
  // Shard 0 binds first: with port 0 (tests) the kernel picks a port, and
  // every other member of the REUSEPORT group must bind exactly that number.
  shards_[0].frontend->start();
  SockAddr resolved = shards_[0].frontend->bound_addr();
  resolved.ip = base_.listen.ip;
  for (unsigned k = 1; k < shards_.size(); ++k) {
    Shard& shard = shards_[k];
    shard.loop = std::make_unique<EventLoop>();
    DnsFrontend::Options fopt = options_for(k);
    fopt.listen = resolved;
    shard.frontend = std::make_unique<DnsFrontend>(
        *shard.loop, fopt, [this](ClientId client, BytesView wire) {
          // Crossing to the main loop: the view dies with this callback, so
          // the request bytes are copied into the posted closure.
          loop_.post([this, client, w = Bytes(wire.begin(), wire.end())] {
            on_request_(client, w);
          });
        });
    // Bind and register on this thread — safe, the shard's loop is not
    // running yet — then hand the loop to its thread.
    shard.frontend->start();
    shard.thread = std::thread([l = shard.loop.get()] { l->run(); });
  }
}

void FrontendGroup::respond(ClientId client, Bytes wire,
                            std::optional<std::uint64_t> generation) {
  unsigned shard;
  if (client_is_udp(client)) {
    // Any UDP socket of the group can answer, and a foreign shard's pending
    // store lives on another machine anyway.
    shard = client_udp_shard(client);
    if (shard >= shards_.size()) shard = 0;
  } else {
    shard = client_tcp_shard(client);
    if (shard >= shards_.size()) return;  // stale id from an old config
  }
  if (!shards_[shard].loop) {
    shards_[shard].frontend->respond(client, wire, generation);
    return;
  }
  shards_[shard].loop->post([this, shard, client, w = std::move(wire), generation] {
    shards_[shard].frontend->respond(client, w, generation);
  });
}

void FrontendGroup::respond_xfr(ClientId client, std::vector<Bytes> wires) {
  const unsigned shard = client_tcp_shard(client);
  if (shard >= shards_.size()) return;  // stale id from an old config
  if (!shards_[shard].loop) {
    shards_[shard].frontend->respond_xfr(client, wires);
    return;
  }
  shards_[shard].loop->post([this, shard, client, ws = std::move(wires)] {
    shards_[shard].frontend->respond_xfr(client, ws);
  });
}

bool FrontendGroup::answer_xfr(ClientId client, const dns::Message& request,
                               const dns::AuthoritativeServer* server,
                               bool* used_axfr) {
  if (client_is_udp(client) || !server) {
    // RFC 5936 §4.2: AXFR is TCP-only, and a full IXFR may not fit a
    // datagram either, so UDP gets a truncated stub pushing the resolver to
    // TCP. A TCP transfer with no zone to serve yet is refused.
    dns::Message reply = dns::Message::make_response(request);
    if (client_is_udp(client)) {
      reply.tc = true;
    } else {
      reply.rcode = dns::Rcode::kRefused;
    }
    respond(client, reply.encode());
    return false;
  }
  // Leave ~1.5 KiB of the 64 KiB TCP frame for the compressed header,
  // question, and the pessimism gap of canonical-size budgeting.
  constexpr std::size_t kXfrChunkWire = 60000;
  std::vector<Bytes> wires;
  for (const dns::Message& m : server->answer_xfr(request, kXfrChunkWire, used_axfr)) {
    wires.push_back(m.encode());
  }
  respond_xfr(client, std::move(wires));
  return true;
}

void FrontendGroup::answer_chaos(ClientId client, const dns::Message& request,
                                 const std::function<void()>& refresh_gauges,
                                 const ChaosFn& extra) {
  const dns::Question& q = request.questions.front();
  dns::Message response = dns::Message::make_response(request);
  const auto append_txt = [&](std::string txt) {
    if (txt.size() > 255) txt.resize(255);  // single character-string cap
    dns::ResourceRecord rr;
    rr.name = q.name;
    rr.type = dns::RRType::kTXT;
    rr.klass = dns::RRClass::kCH;
    rr.ttl = 0;
    rr.rdata.push_back(static_cast<std::uint8_t>(txt.size()));
    rr.rdata.insert(rr.rdata.end(), txt.begin(), txt.end());
    response.answers.push_back(std::move(rr));
  };
  static const dns::Name kStatsName = dns::Name::parse("stats.sdns.");
  if (q.type != dns::RRType::kTXT && q.type != dns::RRType::kANY) {
    response.rcode = dns::Rcode::kRefused;
  } else if (q.name.canonical() == kStatsName) {
    refresh_gauges();
    for (const obs::Registry::Sample& s : base_.metrics->export_samples()) {
      append_txt(s.name + "=" + s.value);
    }
  } else if (std::optional<std::string> txt = extra ? extra(q.name) : std::nullopt) {
    append_txt(std::move(*txt));
  } else {
    response.rcode = dns::Rcode::kRefused;
  }
  respond(client, response.encode());
}

}  // namespace sdns::net
