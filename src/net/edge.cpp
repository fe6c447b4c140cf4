#include "net/edge.hpp"

#include <algorithm>
#include <chrono>

#include "dns/dnssec.hpp"
#include "dns/xfr.hpp"
#include "net/runtime.hpp"
#include "threshold/shoup.hpp"
#include "util/log.hpp"

namespace sdns::net {

using util::Bytes;
using util::BytesView;

EdgeConfig EdgeConfig::load(const std::string& path) {
  EdgeConfig cfg;
  read_config(path, [&](const std::string& key, const std::string& value,
                        const std::string& line) {
    if (key == "origin") cfg.origin = value;
    else if (key == "zone_public") cfg.zone_public = value;
    else if (key == "listen_dns") cfg.listen_dns = SockAddr::parse(value);
    else if (key == "core") cfg.core.push_back(SockAddr::parse(value));
    else if (key == "refresh_interval") cfg.refresh_interval = std::stod(value);
    else if (key == "retry_interval") cfg.retry_interval = std::stod(value);
    else if (key == "transfer_timeout") cfg.transfer_timeout = std::stod(value);
    else if (key == "idle_timeout") cfg.idle_timeout = std::stod(value);
    else if (key == "edns_payload")
      cfg.edns_payload = static_cast<std::uint16_t>(std::stoul(value));
    else if (key == "shards") cfg.shards = static_cast<unsigned>(std::stoul(value));
    else if (key == "packet_cache") cfg.packet_cache = parse_bool(value, line);
    else if (key == "cache_entries") cfg.cache_entries = std::stoul(value);
    else if (key == "xfr_max_inflight") cfg.xfr_max_inflight = std::stoul(value);
    else if (key == "seed") cfg.seed = std::stoull(value);
    else throw NetError("unknown config key: " + key);
  });
  if (cfg.zone_public.empty()) throw NetError("edge config needs zone_public in " + path);
  if (cfg.core.empty()) throw NetError("edge config needs at least one core = line in " + path);
  if (cfg.shards == 0 || cfg.shards > 16) {
    throw NetError("shards must be in [1, 16] in " + path);
  }
  return cfg;
}

EdgeRuntime::EdgeRuntime(EventLoop& loop, EdgeConfig config)
    : loop_(loop), cfg_(std::move(config)) {
  dealt_ = threshold::ThresholdPublicKey::decode(read_file(cfg_.zone_public)).rsa();

  c_notifies_ = &registry_.counter("edge.notifies_received");
  c_axfr_bootstraps_ = &registry_.counter("edge.axfr_bootstraps");
  c_ixfr_applied_ = &registry_.counter("edge.ixfr_applied");
  c_up_to_date_ = &registry_.counter("edge.refresh_up_to_date");
  c_refreshes_ = &registry_.counter("edge.refreshes");
  c_transfer_failures_ = &registry_.counter("edge.transfer_failures");
  c_verify_failures_ = &registry_.counter("edge.verify_failures");
  c_queries_preboot_ = &registry_.counter("edge.queries_before_bootstrap");

  DnsFrontend::Options fopt = cfg_.frontend_options();
  fopt.generation = &generation_;
  fopt.metrics = &registry_;
  frontends_ = std::make_unique<FrontendGroup>(
      loop_, cfg_.shards, std::move(fopt),
      [this](ClientId client, BytesView wire) { handle_request(client, wire); });
}

EdgeRuntime::~EdgeRuntime() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    stop_ = true;
  }
  cv_.notify_one();
  if (worker_.joinable()) worker_.join();
}

void EdgeRuntime::start() {
  frontends_->start();
  {
    std::lock_guard<std::mutex> lk(mu_);
    refresh_wanted_ = true;  // bootstrap immediately
  }
  worker_ = std::thread([this] { transfer_worker(); });
  SDNS_LOG_INFO("sdns_edge: serving ", cfg_.listen_dns.to_string(), " with ",
                cfg_.shards, " shard(s), ", cfg_.core.size(), " core replica(s)");
}

void EdgeRuntime::handle_request(ClientId client, BytesView wire) {
  dns::Message request;
  try {
    request = dns::Message::decode(wire);
  } catch (const util::ParseError&) {
    return;
  }
  if (request.qr) return;

  // RFC 1996: a NOTIFY is acked by echoing it with qr set (§4.7), and tells
  // us the core committed something — pull it via IXFR now instead of
  // waiting for the SOA-refresh backstop.
  if (request.opcode == dns::Opcode::kNotify) {
    c_notifies_->inc();
    dns::Message ack = dns::Message::make_response(request);
    ack.aa = true;
    frontends_->respond(client, ack.encode());
    request_refresh();
    return;
  }
  if (request.opcode != dns::Opcode::kQuery || request.questions.size() != 1) {
    dns::Message err = dns::Message::make_response(request);
    err.rcode = dns::Rcode::kNotImp;
    frontends_->respond(client, err.encode());
    return;
  }
  const dns::Question& q = request.questions.front();
  if (q.klass == dns::RRClass::kCH) {
    frontends_->answer_chaos(client, request, [this] { refresh_gauges(); });
    return;
  }
  if (q.type == dns::RRType::kAXFR || q.type == dns::RRType::kIXFR) {
    // An edge can feed other edges (its copy is verified, and the threshold
    // signatures travel with it). Its journal is empty — the swap-in model
    // has no per-update diffs — so IXFR degrades to AXFR format.
    frontends_->answer_xfr(client, request, server_.get());
    return;
  }

  if (!server_) {
    // Not bootstrapped yet: fail closed. No generation, so never cached.
    c_queries_preboot_->inc();
    dns::Message fail = dns::Message::make_response(request);
    fail.rcode = dns::Rcode::kServFail;
    frontends_->respond(client, fail.encode());
    return;
  }
  const dns::Message response = server_->answer_query(request);
  frontends_->respond(client, response.encode(), generation());
}

// Derived state, snapshotted into the registry just before each export.
void EdgeRuntime::refresh_gauges() {
  registry_.gauge("edge.zone_generation")
      .set(static_cast<std::int64_t>(generation()));
  if (server_) {
    if (const auto soa = server_->zone().soa()) {
      registry_.gauge("edge.zone_serial").set(static_cast<std::int64_t>(soa->serial));
    }
  }
}

void EdgeRuntime::request_refresh() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    refresh_wanted_ = true;
  }
  cv_.notify_one();
}

void EdgeRuntime::transfer_worker() {
  StubResolver::Options ropt;
  ropt.servers = cfg_.core;
  ropt.timeout = cfg_.transfer_timeout;
  ropt.attempts = std::max<unsigned>(3, static_cast<unsigned>(cfg_.core.size()));
  StubResolver resolver(std::move(ropt));
  std::unique_lock<std::mutex> lk(mu_);
  while (!stop_) {
    // Failed or pending bootstrap retries fast; a healthy edge falls back to
    // the SOA-refresh poll. A NOTIFY cuts either wait short.
    const double wait =
        shadow_.has_value() ? cfg_.refresh_interval : cfg_.retry_interval;
    cv_.wait_for(lk, std::chrono::duration<double>(wait),
                 [this] { return stop_ || refresh_wanted_; });
    if (stop_) break;
    refresh_wanted_ = false;
    lk.unlock();
    try {
      refresh_once(resolver);
    } catch (const std::exception& e) {
      c_transfer_failures_->inc();
      SDNS_LOG_WARN("sdns_edge: refresh failed: ", e.what());
    }
    lk.lock();
  }
}

void EdgeRuntime::refresh_once(StubResolver& resolver) {
  c_refreshes_->inc();
  const dns::Name origin = dns::Name::parse(cfg_.origin);
  const bool bootstrap = !shadow_.has_value();
  dns::Message req;
  if (bootstrap) {
    req.questions.push_back({origin, dns::RRType::kAXFR, dns::RRClass::kIN});
  } else {
    const auto soa = shadow_->soa();
    if (!soa) {  // unreachable once verified zones are the only installs
      shadow_.reset();
      c_transfer_failures_->inc();
      return;
    }
    req = dns::make_ixfr_query(0, origin, *soa);
  }
  StubResolver::Result res = resolver.xfr(std::move(req));
  if (!res.ok || res.response.rcode != dns::Rcode::kNoError) {
    c_transfer_failures_->inc();
    SDNS_LOG_WARN("sdns_edge: transfer failed: ",
                  res.ok ? dns::to_string(res.response.rcode) : res.error);
    return;
  }
  dns::Zone candidate = bootstrap ? dns::Zone(origin) : *shadow_;
  const dns::XfrOutcome outcome = dns::apply_xfr_response(candidate, res.response);
  if (outcome == dns::XfrOutcome::kUpToDate) {
    c_up_to_date_->inc();
    return;
  }
  if (outcome == dns::XfrOutcome::kMalformed) {
    c_transfer_failures_->inc();
    return;
  }
  // The trust gate: nothing unverified ever reaches the serving path. The
  // transfer channel is plain TCP to a possibly-Byzantine replica; the
  // threshold signatures inside the zone are what we actually believe.
  if (!dns::verify_zone(candidate, dealt_).ok) {
    c_verify_failures_->inc();
    SDNS_LOG_WARN("sdns_edge: transfer rejected: zone failed verification",
                  " against the dealt zone key");
    return;
  }
  if (outcome == dns::XfrOutcome::kReplacedAxfr) {
    c_axfr_bootstraps_->inc();
  } else {
    c_ixfr_applied_->inc();
  }
  shadow_ = candidate;
  loop_.post([this, z = std::move(candidate)]() mutable {
    server_ = std::make_unique<dns::AuthoritativeServer>(std::move(z));
    generation_.fetch_add(1, std::memory_order_release);
  });
}

}  // namespace sdns::net
