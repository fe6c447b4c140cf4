#include "core/service.hpp"

#include <stdexcept>

#include "dns/dnssec.hpp"
#include "threshold/fixtures.hpp"

namespace sdns::core {

using util::Bytes;
using util::Rng;

namespace {
// Rng stream ids for the non-replica actors. Replica i uses stream i, so
// these live far above any realistic node count; per-node streams mean
// adding a node to a scenario never perturbs the others' randomness.
constexpr std::uint64_t kNetworkStream = 0xFFFF'0000'0000'0001ULL;
constexpr std::uint64_t kClientStream = 0xFFFF'0000'0000'0002ULL;
constexpr std::uint64_t kSignerStream = 0xFFFF'0000'0000'0003ULL;
constexpr std::uint64_t kRefreshStream = 0xFFFF'0000'0001'0000ULL;
}  // namespace

ReplicatedService::ReplicatedService(ServiceOptions options, const dns::Name& origin,
                                     std::string_view zone_text)
    : opt_(std::move(options)), origin_(origin) {
  bed_ = sim::make_testbed(opt_.topology);
  n_ = static_cast<unsigned>(bed_.replica_count());
  t_ = (n_ - 1) / 3;  // the paper's t = (n-1)/3
  Rng rng(opt_.seed);

  net_ = std::make_unique<sim::Network>(sim_, Rng(opt_.seed, kNetworkStream),
                                        bed_.machines.size(), 0.0005);
  sim::apply_testbed(bed_, *net_);

  tsig_key_ = {"update-key", util::to_bytes("sdns shared update secret")};

  const bool base = n_ == 1;

  // ---- trusted setup (§4.3) ----
  abcast::Group group;
  if (!base) group = abcast::generate_group(rng, n_, t_, opt_.key_bits);

  // Zone key: threshold for the replicated service, plain RSA for the base
  // case's unmodified named.
  zone_pub_ = std::make_shared<threshold::ThresholdPublicKey>();
  auto zone_pub = zone_pub_;
  std::vector<threshold::KeyShare> zone_shares(n_);
  std::shared_ptr<crypto::RsaPrivateKey> local_key;
  dns::SignFn initial_signer;
  dns::Zone zone = dns::Zone::from_text(origin, zone_text);
  if (opt_.zone_signed) {
    if (base) {
      local_key = std::make_shared<crypto::RsaPrivateKey>(
          crypto::rsa_generate(rng, opt_.key_bits));
      zone_pub_rsa_ = local_key->pub;
      initial_signer = [key = local_key](util::BytesView data) {
        return crypto::rsa_sign_sha1(*key, data);
      };
    } else {
      threshold::DealtKey dealt;
      if (opt_.key_bits == 512) {
        dealt = threshold::deal_with_primes(rng, n_, t_,
                                            threshold::fixtures::safe_prime_256_a(),
                                            threshold::fixtures::safe_prime_256_b());
      } else if (opt_.key_bits == 1024) {
        dealt = threshold::deal_with_primes(rng, n_, t_,
                                            threshold::fixtures::safe_prime_512_a(),
                                            threshold::fixtures::safe_prime_512_b());
      } else {
        dealt = threshold::deal(rng, n_, t_, opt_.key_bits);
      }
      *zone_pub = dealt.pub;
      zone_shares = dealt.shares;
      zone_pub_rsa_ = dealt.pub.rsa();
      // The initial zone signing (the §4.3 "special command"): the dealer
      // assembles t+1 shares directly; the private exponent never exists.
      initial_signer = [zone_pub, zone_shares,
                        seed = Rng(opt_.seed, kSignerStream).next()](
                           util::BytesView data) mutable {
        Rng srng(seed++);
        const bn::BigInt x = threshold::hash_to_element(*zone_pub, data);
        std::vector<threshold::SignatureShare> shares;
        for (unsigned i = 1; i <= zone_pub->t + 1; ++i) {
          shares.push_back(
              threshold::generate_share(*zone_pub, zone_shares[i - 1], x, false, srng));
        }
        auto y = threshold::assemble(*zone_pub, x, shares);
        if (!y) throw std::logic_error("initial zone signing failed");
        return threshold::signature_bytes(*zone_pub, *y);
      };
    }
    dns::sign_zone(zone, zone_pub_rsa_, /*inception=*/999'000,
                   /*expiration=*/999'000 + 365 * 24 * 3600, initial_signer);
  }

  // ---- replicas ----
  const sim::NodeId client_node = bed_.client;
  const sim::CostModel& cost = opt_.cost_model;
  for (unsigned i = 0; i < n_; ++i) {
    ReplicaConfig config;
    config.n = n_;
    config.t = t_;
    config.sig_protocol = opt_.sig_protocol;
    config.disseminate_reads = opt_.disseminate_reads;
    config.base_case = base;
    config.complaint_timeout = opt_.complaint_timeout;
    if (opt_.require_tsig) {
      config.update_policy.require_tsig = true;
      config.update_policy.keys.push_back(tsig_key_);
    }
    ReplicaNode::Callbacks cb;
    cb.send_replica = [this, i](unsigned to, const Bytes& m) { net_->send(i, to, m); };
    cb.send_client = [this, i](ClientId client, const Bytes& m) {
      net_->send(i, static_cast<sim::NodeId>(client), m);
    };
    cb.now = [this] { return sim_.now(); };
    cb.set_timer = [this, i](double delay, std::function<void()> fn) {
      sim_.schedule(delay, [this, i, fn = std::move(fn)] {
        net_->cpu(i).enqueue(sim_.now(), fn);
      });
    };
    cb.charge_crypto = [this, i, &cost](threshold::CryptoOp op) {
      net_->cpu(i).charge(cost.cost(op));
    };
    cb.charge_message = [this, i, &cost] { net_->cpu(i).charge(cost.message_handle); };
    cb.charge_auth_sign = [this, i, &cost] { net_->cpu(i).charge(cost.auth_sign); };
    cb.charge_auth_verify = [this, i, &cost] { net_->cpu(i).charge(cost.auth_verify); };
    cb.charge_dns_query = [this, i, &cost] { net_->cpu(i).charge(cost.dns_query); };
    cb.charge_dns_update = [this, i, &cost] { net_->cpu(i).charge(cost.dns_update); };
    cb.charge_local_sign = [this, i, &cost] { net_->cpu(i).charge(cost.local_sign); };
    const bool corrupted =
        std::find(opt_.corrupted.begin(), opt_.corrupted.end(), i) != opt_.corrupted.end();
    CorruptionMode mode = corrupted ? opt_.corruption_mode : CorruptionMode::kHonest;
    if (auto it = opt_.corruption_by_replica.find(i);
        it != opt_.corruption_by_replica.end()) {
      mode = it->second;
    }
    // Durable zone store: WAL + signed snapshots in data_dirs[i]. The same
    // verifier the deployed runtime installs — the snapshot's embedded zone
    // must carry the dealt key at its apex and verify in full under it.
    std::unique_ptr<store::DurableZoneStore> dstore;
    if (!base && i < opt_.data_dirs.size() && !opt_.data_dirs[i].empty()) {
      store::DurableZoneStore::Options sopt;
      sopt.dir = opt_.data_dirs[i];
      sopt.snapshot_log_bytes = opt_.snapshot_log_bytes;
      if (opt_.zone_signed) sopt.verify = store::make_zone_verifier(zone_pub_rsa_);
      dstore = std::make_unique<store::DurableZoneStore>(std::move(sopt));
      cb.store = dstore.get();
    }
    replicas_.push_back(std::make_unique<ReplicaNode>(
        config, group.pub, base ? abcast::NodeSecret{} : group.secrets[i], zone_pub,
        zone_shares[i], zone, cb, Rng(opt_.seed, i), mode, local_key));
    if (dstore && dstore->recovered().usable()) {
      // Disk-first boot: install the recovered state before any traffic.
      // The replayed operations' signing shares queue as simulator events
      // and complete once the run starts (each replica replays the same
      // deterministic sessions, so they re-sign cooperatively).
      replicas_.back()->restore_from_store(dstore->recovered());
    }
    stores_.push_back(std::move(dstore));
  }

  // ---- network handlers ----
  for (unsigned i = 0; i < n_; ++i) {
    net_->set_handler(i, [this, i, client_node](sim::NodeId from, Bytes msg) {
      if (from == client_node) {
        replicas_[i]->on_client_request(static_cast<ClientId>(from), msg);
      } else {
        replicas_[i]->on_replica_message(static_cast<unsigned>(from), msg);
      }
    });
  }

  // ---- client ----
  Client::Options copt;
  copt.mode = opt_.client_mode;
  copt.n = n_;
  copt.t = t_;
  copt.first_server = base ? 0 : std::min(opt_.gateway, n_ - 1);
  copt.timeout = opt_.client_timeout;
  if (opt_.zone_signed && opt_.verify_responses) copt.zone_key = zone_pub_rsa_;
  Client::Callbacks ccb;
  ccb.send = [this, client_node](unsigned replica, const Bytes& m) {
    net_->send(client_node, replica, m);
  };
  ccb.now = [this] { return sim_.now(); };
  ccb.set_timer = [this, client_node](double delay, std::function<void()> fn) {
    sim_.schedule(delay, [this, client_node, fn = std::move(fn)] {
      net_->cpu(client_node).enqueue(sim_.now(), fn);
    });
  };
  client_ = std::make_unique<Client>(copt, ccb, Rng(opt_.seed, kClientStream));
  net_->set_handler(client_node, [this](sim::NodeId from, Bytes msg) {
    client_->on_response(static_cast<unsigned>(from), msg);
  });
}

void ReplicatedService::refresh_zone_shares(const std::vector<unsigned>& skip) {
  if (n_ == 1 || !opt_.zone_signed) {
    throw std::logic_error("refresh_zone_shares: needs a threshold-signed zone");
  }
  const bn::BigInt* p = nullptr;
  const bn::BigInt* q = nullptr;
  if (opt_.key_bits == 512) {
    p = &threshold::fixtures::safe_prime_256_a();
    q = &threshold::fixtures::safe_prime_256_b();
  } else if (opt_.key_bits == 1024) {
    p = &threshold::fixtures::safe_prime_512_a();
    q = &threshold::fixtures::safe_prime_512_b();
  } else {
    throw std::logic_error("refresh_zone_shares: dealer primes only known for fixtures");
  }
  Rng rng(opt_.seed, kRefreshStream + refresh_count_);
  ++refresh_count_;
  last_refresh_ = threshold::refresh_shares(rng, *zone_pub_, *p, *q);
  auto pub = std::make_shared<threshold::ThresholdPublicKey>(last_refresh_->pub);
  zone_pub_ = pub;
  for (unsigned i = 0; i < n_; ++i) {
    if (std::find(skip.begin(), skip.end(), i) != skip.end()) continue;
    replicas_[i]->install_zone_share(pub, last_refresh_->shares[i]);
  }
}

void ReplicatedService::install_refreshed_share(unsigned i) {
  if (!last_refresh_) throw std::logic_error("install_refreshed_share: no refresh yet");
  replicas_[i]->install_zone_share(
      std::make_shared<threshold::ThresholdPublicKey>(last_refresh_->pub),
      last_refresh_->shares[i]);
}

void ReplicatedService::drive(const bool& done) {
  while (!done && sim_.step()) {
  }
}

ReplicatedService::OpResult ReplicatedService::run_query_op(const dns::Name& name,
                                                            dns::RRType type) {
  OpResult out;
  bool done = false;
  client_->query(name, type, [&](Client::Result r) {
    out.ok = r.ok;
    out.response = std::move(r.response);
    out.latency = r.latency;
    out.tries = r.tries;
    done = true;
  });
  drive(done);
  return out;
}

ReplicatedService::OpResult ReplicatedService::query(const dns::Name& name,
                                                     dns::RRType type) {
  return run_query_op(name, type);
}

ReplicatedService::OpResult ReplicatedService::run_update_op(dns::Message update) {
  if (opt_.require_tsig) {
    dns::tsig_sign(update, tsig_key_, static_cast<std::uint64_t>(sim_.now() * 1000) + 1);
  }
  OpResult out;
  bool done = false;
  client_->send_update(std::move(update), [&](Client::Result r) {
    out.ok = r.ok;
    out.response = std::move(r.response);
    out.latency = r.latency;
    out.tries = r.tries;
    done = true;
  });
  drive(done);
  return out;
}

ReplicatedService::OpResult ReplicatedService::send_update(dns::Message update) {
  return run_update_op(std::move(update));
}

ReplicatedService::OpResult ReplicatedService::add_record(const dns::Name& name,
                                                          const std::string& address) {
  // nsupdate precedes every change with a read (§5.2); the paper's numbers
  // include it, so ours do too.
  OpResult read = run_query_op(name, dns::RRType::kA);
  dns::Message update;
  update.opcode = dns::Opcode::kUpdate;
  update.questions.push_back({origin_, dns::RRType::kSOA, dns::RRClass::kIN});
  dns::ResourceRecord rr;
  rr.name = name;
  rr.type = dns::RRType::kA;
  rr.ttl = 300;
  rr.rdata = dns::ARdata::from_text(address).encode();
  update.updates().push_back(rr);
  OpResult result = run_update_op(std::move(update));
  result.latency += read.latency;
  result.tries += read.tries - 1;
  return result;
}

ReplicatedService::OpResult ReplicatedService::delete_record(const dns::Name& name) {
  OpResult read = run_query_op(name, dns::RRType::kA);
  dns::Message update;
  update.opcode = dns::Opcode::kUpdate;
  update.questions.push_back({origin_, dns::RRType::kSOA, dns::RRClass::kIN});
  dns::ResourceRecord rr;
  rr.name = name;
  rr.type = dns::RRType::kA;
  rr.klass = dns::RRClass::kANY;  // delete the whole RRset
  rr.ttl = 0;
  update.updates().push_back(rr);
  OpResult result = run_update_op(std::move(update));
  result.latency += read.latency;
  result.tries += read.tries - 1;
  return result;
}

}  // namespace sdns::core
