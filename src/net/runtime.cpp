#include "net/runtime.hpp"

#include <time.h>
#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "dns/message.hpp"

#include "abcast/group.hpp"
#include "util/log.hpp"

namespace sdns::net {

using util::Bytes;
using util::BytesView;

Bytes read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw NetError("cannot read " + path);
  std::ostringstream os;
  os << in.rdbuf();
  const std::string s = os.str();
  return Bytes(s.begin(), s.end());
}

void write_file(const std::string& path, BytesView data) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) throw NetError("cannot write " + path);
  out.write(reinterpret_cast<const char*>(data.data()),
            static_cast<std::streamsize>(data.size()));
  if (!out) throw NetError("short write to " + path);
}

namespace {
threshold::SigProtocol parse_protocol(const std::string& v, const std::string& line) {
  if (v == "basic") return threshold::SigProtocol::kBasic;
  if (v == "optproof") return threshold::SigProtocol::kOptProof;
  if (v == "optte") return threshold::SigProtocol::kOptTE;
  throw NetError("bad sig_protocol in config line: " + line);
}

core::CorruptionMode parse_corruption(const std::string& v, const std::string& line) {
  for (const core::CorruptionMode m :
       {core::CorruptionMode::kHonest, core::CorruptionMode::kFlipShares,
        core::CorruptionMode::kMute, core::CorruptionMode::kStaleReplay,
        core::CorruptionMode::kEquivocate, core::CorruptionMode::kGarbagePayload,
        core::CorruptionMode::kGarbageShares}) {
    if (v == core::to_string(m)) return m;
  }
  throw NetError("bad corruption in config line: " + line);
}

}  // namespace

RuntimeConfig RuntimeConfig::load(const std::string& path) {
  RuntimeConfig cfg;
  std::map<unsigned, SockAddr> peers;
  read_config(path, [&](const std::string& key, const std::string& value,
                        const std::string& line) {
    if (key == "id") cfg.id = static_cast<unsigned>(std::stoul(value));
    else if (key == "n") cfg.n = static_cast<unsigned>(std::stoul(value));
    else if (key == "t") cfg.t = static_cast<unsigned>(std::stoul(value));
    else if (key == "sig_protocol") cfg.sig_protocol = parse_protocol(value, line);
    else if (key == "disseminate_reads") cfg.disseminate_reads = parse_bool(value, line);
    else if (key == "require_tsig") cfg.require_tsig = parse_bool(value, line);
    else if (key == "tsig_name") cfg.tsig_name = value;
    else if (key == "tsig_secret") cfg.tsig_secret_hex = value;
    else if (key == "origin") cfg.origin = value;
    else if (key == "zone_file") cfg.zone_file = value;
    else if (key == "group_public") cfg.group_public = value;
    else if (key == "node_secret") cfg.node_secret = value;
    else if (key == "zone_public") cfg.zone_public = value;
    else if (key == "zone_share") cfg.zone_share = value;
    else if (key == "mesh_secret") cfg.mesh_secret = value;
    else if (key == "listen_dns") cfg.listen_dns = SockAddr::parse(value);
    else if (key == "data_dir") cfg.data_dir = value;
    else if (key == "snapshot_log_bytes") cfg.snapshot_log_bytes = std::stoull(value);
    else if (key == "parse_threads") cfg.parse_threads = static_cast<unsigned>(std::stoul(value));
    else if (key == "recover") cfg.recover = parse_bool(value, line);
    else if (key == "recover_delay") cfg.recover_delay = std::stod(value);
    else if (key == "complaint_timeout") cfg.complaint_timeout = std::stod(value);
    else if (key == "idle_timeout") cfg.idle_timeout = std::stod(value);
    else if (key == "edns_payload")
      cfg.edns_payload = static_cast<std::uint16_t>(std::stoul(value));
    else if (key == "shards") cfg.shards = static_cast<unsigned>(std::stoul(value));
    else if (key == "packet_cache") cfg.packet_cache = parse_bool(value, line);
    else if (key == "cache_entries") cfg.cache_entries = std::stoul(value);
    else if (key == "notify") cfg.notify_edges.push_back(SockAddr::parse(value));
    else if (key == "journal_limit") cfg.journal_limit = std::stoul(value);
    else if (key == "xfr_max_inflight") cfg.xfr_max_inflight = std::stoul(value);
    else if (key == "seed") cfg.seed = std::stoull(value);
    else if (key == "stats_interval") cfg.stats_interval = std::stod(value);
    else if (key == "tsig_fudge") cfg.tsig_fudge = std::stoull(value);
    else if (key == "fault_schedule") cfg.fault_schedule = value;
    else if (key == "fault_seed") cfg.fault_seed = std::stoull(value);
    else if (key == "fault_time_scale") cfg.fault_time_scale = std::stod(value);
    else if (key == "fault_start") cfg.fault_start = std::stod(value);
    else if (key == "fault_wan") cfg.fault_wan = value;
    else if (key == "corruption") cfg.corruption = parse_corruption(value, line);
    else if (key.rfind("peer", 0) == 0) {
      const unsigned peer_id = static_cast<unsigned>(std::stoul(key.substr(4)));
      peers[peer_id] = SockAddr::parse(value);
    } else {
      throw NetError("unknown config key: " + key);
    }
  });
  cfg.mesh_peers.assign(cfg.n, SockAddr{});
  for (const auto& [id, addr] : peers) {
    if (id >= cfg.n) throw NetError("peer id out of range in " + path);
    cfg.mesh_peers[id] = addr;
  }
  // 16 is the ceiling the 4-bit shard field of a UDP ClientId can route.
  if (cfg.shards == 0 || cfg.shards > 16) {
    throw NetError("shards must be in [1, 16] in " + path);
  }
  return cfg;
}

ReplicaRuntime::ReplicaRuntime(EventLoop& loop, RuntimeConfig config)
    : loop_(loop), cfg_(std::move(config)) {
  // ---- key material from the trusted dealer (§4.3) ----
  auto group = std::make_shared<abcast::GroupPublic>(
      abcast::decode_group_public(read_file(cfg_.group_public)));
  abcast::NodeSecret secret = abcast::decode_node_secret(read_file(cfg_.node_secret));
  if (secret.id != cfg_.id) {
    throw NetError("node_secret belongs to replica " + std::to_string(secret.id));
  }
  auto zone_pub = std::make_shared<threshold::ThresholdPublicKey>(
      threshold::ThresholdPublicKey::decode(read_file(cfg_.zone_public)));
  threshold::KeyShare share = threshold::KeyShare::decode(read_file(cfg_.zone_share));
  dns::Zone zone = dns::Zone::from_wire(read_file(cfg_.zone_file), cfg_.parse_threads);

  core::ReplicaConfig rc;
  rc.n = cfg_.n;
  rc.t = cfg_.t;
  rc.sig_protocol = cfg_.sig_protocol;
  rc.disseminate_reads = cfg_.disseminate_reads;
  rc.complaint_timeout = cfg_.complaint_timeout;
  rc.journal_limit = cfg_.journal_limit;
  if (cfg_.require_tsig) {
    rc.update_policy.require_tsig = true;
    rc.update_policy.keys.push_back(
        {cfg_.tsig_name, util::hex_decode(cfg_.tsig_secret_hex)});
    // Deployed replicas enforce the RFC 2845 freshness window against the
    // wall clock; the simulator leaves tsig_clock empty (logical timestamps).
    rc.update_policy.tsig_clock = [] {
      return static_cast<std::uint64_t>(::time(nullptr));
    };
    rc.update_policy.tsig_fudge = cfg_.tsig_fudge;
  }

  const std::uint64_t seed =
      cfg_.seed ? cfg_.seed
                : (static_cast<std::uint64_t>(::getpid()) << 32) ^
                      static_cast<std::uint64_t>(loop_.now() * 1e6);

  // ---- wire-level chaos injector (before the transports that hook it) ----
  if (!cfg_.fault_schedule.empty() || !cfg_.fault_wan.empty()) {
    FaultInjector::Options iopt;
    iopt.seed = cfg_.fault_seed;
    if (!cfg_.fault_schedule.empty()) {
      const Bytes raw = read_file(cfg_.fault_schedule);
      iopt.schedule =
          sim::parse_schedule(std::string(raw.begin(), raw.end()));
    }
    iopt.time_scale = cfg_.fault_time_scale;
    if (!cfg_.fault_wan.empty()) {
      iopt.wan = sim::parse_topology(cfg_.fault_wan);
    }
    iopt.metrics = &registry_;
    injector_ = std::make_unique<FaultInjector>(std::move(iopt));
  }

  // ---- durable zone store (WAL + signed snapshots) ----
  if (!cfg_.data_dir.empty()) {
    store::DurableZoneStore::Options sopt;
    sopt.dir = cfg_.data_dir;
    sopt.snapshot_log_bytes = cfg_.snapshot_log_bytes;
    sopt.metrics = &registry_;
    // A snapshot is self-certifying when the zone is threshold-signed: the
    // embedded zone must carry the dealt zone key at its apex and verify in
    // full under it. A snapshot that fails is treated as absent and
    // recovery falls back to the network transfer.
    const bool zone_signed =
        zone.find(zone.origin(), dns::RRType::kKEY) != nullptr;
    sopt.verify = store::make_zone_verifier(
        zone_signed ? std::optional(zone_pub->rsa()) : std::nullopt,
        cfg_.parse_threads);
    store_ = std::make_unique<store::DurableZoneStore>(std::move(sopt));
  }

  // ---- the untouched protocol stack, bound to the main loop ----
  // Constructed before the frontends: they stamp cache entries with the
  // replica's zone-generation counter. All replica callbacks run on the
  // main loop thread only.
  core::ReplicaNode::Callbacks cb;
  cb.send_replica = [this](unsigned to, const Bytes& m) { mesh_->send(to, m); };
  cb.send_client = [this](core::ClientId client, const Bytes& m) {
    // Captured on the replica thread — the sole zone mutator — so the stamp
    // can never be newer than the zone state this answer reflects; none
    // while an update batch is signing. The pending-store gate in the
    // frontend decides whether it is cached.
    frontends_->respond(client, m, replica_->cache_generation());
  };
  cb.now = [this] { return loop_.now(); };
  // Every commit point (signed update batch, recovery install, share
  // refresh) schedules a NOTIFY round. Null-checked because the replica is
  // constructed — and may bump during disk restore — before the notifier.
  cb.zone_committed = [this](std::uint64_t) {
    if (notifier_) notifier_->on_commit();
  };
  cb.set_timer = [this](double delay, std::function<void()> fn) {
    loop_.add_timer(delay, std::move(fn));
  };
  cb.metrics = &registry_;
  cb.store = store_.get();
  replica_ = std::make_unique<core::ReplicaNode>(
      rc, group, std::move(secret), zone_pub, std::move(share), std::move(zone), cb,
      util::Rng(seed, cfg_.id), cfg_.corruption);

  // ---- transports ----
  DnsFrontend::Options fopt = cfg_.frontend_options();
  fopt.replica = cfg_.id;
  fopt.generation = &replica_->zone_generation();
  fopt.metrics = &registry_;
  fopt.injector = injector_.get();
  fopt.client_node = cfg_.n;  // sim convention: the client is node n
  frontends_ = std::make_unique<FrontendGroup>(
      loop_, cfg_.shards, std::move(fopt),
      [this](ClientId client, BytesView wire) { handle_request(client, wire); });

  Mesh::Options mopt;
  mopt.self = cfg_.id;
  mopt.peers = cfg_.mesh_peers;
  mopt.mesh_secret = read_file(cfg_.mesh_secret);
  mopt.metrics = &registry_;
  mopt.injector = injector_.get();
  mesh_ = std::make_unique<Mesh>(
      loop_, mopt,
      [this](unsigned from, Bytes msg) { replica_->on_replica_message(from, msg); },
      util::Rng(seed, 0xFFFF'0000'0000'00AAULL));

  // ---- disk-first recovery ----
  // After the mesh exists (boot replay re-runs signing sessions, which
  // broadcast shares; the mesh backlogs them until links come up) but
  // before any client traffic. A subsequent --recover pass then only asks
  // the peers whether the disk is behind — they ack "current" instead of
  // shipping the zone when it is not.
  if (store_ && store_->recovered().usable()) {
    replica_->restore_from_store(store_->recovered());
    registry_.counter("store.recoveries_from_disk").inc();
    SDNS_LOG_INFO("sdnsd replica ", cfg_.id, ": state restored from ",
                  cfg_.data_dir);
  }

  // ---- RFC 1996 NOTIFY fan-out to configured edges ----
  if (!cfg_.notify_edges.empty()) {
    Notifier::Options nopt;
    nopt.edges = cfg_.notify_edges;
    nopt.zone = replica_->server().zone().origin();
    nopt.metrics = &registry_;
    notifier_ = std::make_unique<Notifier>(
        loop_, std::move(nopt), [this]() -> std::optional<dns::ResourceRecord> {
          const dns::Zone& zone = replica_->server().zone();
          const dns::RRset* soa = zone.find(zone.origin(), dns::RRType::kSOA);
          if (!soa || soa->rdatas.empty()) return std::nullopt;
          return soa->to_records().front();
        });
  }
}

void ReplicaRuntime::handle_request(ClientId client, BytesView wire) {
  dns::Message request;
  try {
    request = dns::Message::decode(wire);
  } catch (const util::ParseError&) {
    replica_->on_client_request(client, wire);
    return;
  }
  if (request.opcode == dns::Opcode::kQuery && request.questions.size() == 1) {
    const dns::Question& q = request.questions.front();
    if (q.klass == dns::RRClass::kCH) {
      frontends_->answer_chaos(
          client, request, [this] { refresh_gauges(); },
          [this](const dns::Name& name) -> std::optional<std::string> {
            // The wire-chaos harness's recovery nudge: the same state
            // transfer a `--recover` boot schedules, triggered remotely for
            // a replica that a healed partition left behind. Serving-plane
            // deployments would gate CH-class traffic at the edge, like
            // BIND's chaos zone ACLs.
            static const dns::Name kRecoverName = dns::Name::parse("recover.sdns.");
            if (!(name.canonical() == kRecoverName)) return std::nullopt;
            replica_->start_recovery();
            return "recovering";
          });
      return;
    }
    if (!request.qr && (q.type == dns::RRType::kAXFR || q.type == dns::RRType::kIXFR)) {
      bool used_axfr = false;
      if (frontends_->answer_xfr(client, request, &replica_->server(), &used_axfr)) {
        if (q.type == dns::RRType::kAXFR) {
          registry_.counter("replica.axfr_out").inc();
        } else {
          registry_.counter("replica.ixfr_out").inc();
          if (used_axfr) registry_.counter("replica.ixfr_fallback_axfr").inc();
        }
      }
      return;
    }
  }
  replica_->on_client_request(client, wire);
}

// refresh_gauges and observation_from_counters are inverses, name for name;
// fallbacks ride the abcast.fallback counter, which counts the same event.
void ReplicaRuntime::refresh_gauges() {
  const core::ReplicaObservation o = replica_->observe();
  registry_.gauge("abcast.delivered").set(static_cast<std::int64_t>(o.delivered));
  registry_.gauge("replica.recovering").set(o.recovering ? 1 : 0);
  registry_.gauge("abcast.digest_floor").set(o.digest_floor);
  registry_.gauge("abcast.delivery_digest").set(static_cast<std::int64_t>(o.delivery_digest));
  registry_.gauge("replica.zone_digest").set(static_cast<std::int64_t>(o.zone_digest));
  registry_.gauge("dns.zone.malformed_sigs_dropped")
      .set(static_cast<std::int64_t>(o.malformed_sigs));
}

core::ReplicaObservation observation_from_counters(
    const std::map<std::string, std::int64_t>& counters) {
  const auto get = [&counters](const char* name) {
    const auto it = counters.find(name);
    return it == counters.end() ? std::int64_t{0} : it->second;
  };
  core::ReplicaObservation o;
  o.delivered = static_cast<std::uint64_t>(get("abcast.delivered"));
  o.recovering = get("replica.recovering") != 0;
  o.fallbacks = static_cast<std::uint64_t>(get("abcast.fallback"));
  o.malformed_sigs = static_cast<std::uint64_t>(get("dns.zone.malformed_sigs_dropped"));
  o.digest_floor = get("abcast.digest_floor");
  o.delivery_digest = static_cast<std::uint64_t>(get("abcast.delivery_digest"));
  o.zone_digest = static_cast<std::uint64_t>(get("replica.zone_digest"));
  return o;
}

void ReplicaRuntime::log_stats_line() {
  refresh_gauges();
  std::ostringstream os;
  os << "stats replica=" << cfg_.id;
  for (const obs::Registry::Sample& s : registry_.export_samples()) {
    os << " " << s.name << "=" << s.value;
  }
  SDNS_LOG_INFO(os.str());
}

void ReplicaRuntime::start() {
  frontends_->start();
  mesh_->start();
  if (notifier_) notifier_->start();
  if (injector_) {
    // fault_start aligns schedule time 0 across the whole forked cluster
    // (CLOCK_MONOTONIC is machine-wide); 0 means "the schedule starts now".
    injector_->arm(cfg_.fault_start > 0 ? cfg_.fault_start : loop_.now());
    SDNS_LOG_INFO("sdnsd replica ", cfg_.id, ": fault injector armed (",
                  injector_->schedule().faults.size(), " faults, scale ",
                  cfg_.fault_time_scale, cfg_.fault_wan.empty() ? "" : ", wan ",
                  cfg_.fault_wan, ")");
  }
  // Seed the protocol trace with a boot marker so a --trace-dump is never
  // empty: an operator can tell "ring was dumped, nothing happened" apart
  // from "dump path never ran".
  registry_.trace().record(loop_.now(), "runtime", "start", cfg_.id,
                           cfg_.recover ? 1 : 0);
  SDNS_LOG_INFO("sdnsd replica ", cfg_.id, ": serving ", cfg_.listen_dns.to_string(),
                " with ", cfg_.shards, " shard(s), mesh ",
                cfg_.mesh_peers[cfg_.id].to_string());
  if (cfg_.recover) {
    loop_.add_timer(cfg_.recover_delay, [this] {
      SDNS_LOG_INFO("sdnsd replica ", cfg_.id, ": starting snapshot recovery");
      replica_->start_recovery();
    });
  }
  if (cfg_.stats_interval > 0) {
    // Self-re-arming periodic timer; the loop owns the closure chain.
    struct Rearm {
      ReplicaRuntime* rt;
      void operator()() const {
        rt->log_stats_line();
        rt->loop_.add_timer(rt->cfg_.stats_interval, *this);
      }
    };
    loop_.add_timer(cfg_.stats_interval, Rearm{this});
  }
}

}  // namespace sdns::net
