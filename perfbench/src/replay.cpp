#include "replay.hpp"

#include <ctime>
#include <filesystem>

#include "abcast/group.hpp"
#include "cluster.hpp"
#include "dns/server.hpp"
#include "dns/xfr.hpp"
#include "net/runtime.hpp"
#include "store/durable.hpp"
#include "threshold/context.hpp"

namespace perfbench {

namespace dns = sdns::dns;
namespace th = sdns::threshold;

namespace {

constexpr std::size_t kMaxReplayedUpdates = 60;
constexpr int kCryptoSamples = 50;
constexpr int kEdgeRefreshSamples = 3;
/// The abcast fast path per delivery, as each replica waits on it: sign its
/// echo and its commit, and check n - t - 1 = 2 peer signatures of each.
constexpr int kNodeSignsPerDelivery = 2;
constexpr int kNodeVerifiesPerDelivery = 4;

template <typename Fn>
double time_us(Fn&& fn) {
  const double t = now_s();
  fn();
  return (now_s() - t) * 1e6;
}

double median0(const std::vector<double>& v) { return v.empty() ? 0 : median(v); }

double mean(const std::vector<double>& v) {
  double s = 0;
  for (double x : v) s += x;
  return v.empty() ? 0 : s / static_cast<double>(v.size());
}

/// One threshold signature the way a replica produces it under OptTE: its
/// own share, a peer's share (made in parallel elsewhere, so untimed), the
/// assembly, and the final y^e == x check.
struct SignTimes {
  double generate_us = 0, assemble_us = 0, final_us = 0;
  sdns::util::Bytes signature;
};

SignTimes sign(const th::CryptoContext& ctx, const th::KeyShare& own, const th::KeyShare& peer,
               sdns::util::BytesView data, sdns::util::Rng& rng) {
  SignTimes t;
  const sdns::bn::BigInt x = th::hash_to_element(ctx.pk(), data);
  std::vector<th::SignatureShare> shares(2);
  t.generate_us = time_us([&] { shares[0] = th::generate_share(ctx, own, x, false, rng); });
  shares[1] = th::generate_share(ctx, peer, x, false, rng);
  std::optional<sdns::bn::BigInt> y;
  t.assemble_us = time_us([&] { y = th::assemble(ctx, x, shares); });
  bool valid = false;
  t.final_us = time_us([&] { valid = y && th::verify_signature(ctx, x, *y); });
  if (!valid) throw std::runtime_error("replayed threshold signature did not verify");
  t.signature = th::signature_bytes(ctx.pk(), *y);
  return t;
}

}  // namespace

ReplayResult replay(const ReplayInputs& in, Traffic& traffic) {
  using sdns::net::read_file;
  ReplayResult out;
  auto& m = out.metrics;
  const std::string& dir = in.cluster_dir;
  const sdns::util::Bytes wire = read_file(dir + "/zone.wire");

  // dns: the boot-time parse of the dealt zone.
  std::vector<double> parse_ms;
  std::optional<dns::Zone> zone;
  for (int k = 0; k < 3; ++k) {
    parse_ms.push_back(time_us([&] { zone = dns::Zone::from_wire(wire); }) / 1e3);
  }
  m["dns.zone_from_wire_ms"] = median0(parse_ms);

  // dns: the read path over this run's own read inputs.
  {
    const dns::AuthoritativeServer server(*zone);
    std::vector<double> us;
    for (const ReadQuery& q : in.reads) {
      const dns::Message query = dns::Message::decode(traffic.read_wire(q));
      us.push_back(time_us([&] { (void)server.answer_query(query, q.udp_payload); }));
    }
    m["dns.answer_query_us_p50"] = us.empty() ? 0 : percentile(us, 50);
    m["dns.answer_query_us_p99"] = us.empty() ? 0 : percentile(us, 99);
  }

  // crypto: abcast node keys (the dealt size).
  const auto secret = sdns::abcast::decode_node_secret(read_file(dir + "/node0.secret"));
  const auto group = sdns::abcast::decode_group_public(read_file(dir + "/group.pub"));
  {
    const sdns::util::Bytes statement(48, 0x5a);
    std::vector<double> sign_us, verify_us;
    sdns::util::Bytes sig;
    for (int i = 0; i < kCryptoSamples; ++i) {
      sign_us.push_back(time_us([&] { sig = sdns::abcast::node_sign(secret, statement); }));
      verify_us.push_back(
          time_us([&] { (void)sdns::abcast::node_verify(group, 0, statement, sig); }));
    }
    m["crypto.rsa_sign_us"] = median0(sign_us);
    m["crypto.rsa_verify_us"] = median0(verify_us);
  }
  const double crypto_per_update = kNodeSignsPerDelivery * m["crypto.rsa_sign_us"] +
                                   kNodeVerifiesPerDelivery * m["crypto.rsa_verify_us"];

  // threshold: the dealt zone key and two replicas' shares.
  const th::ThresholdPublicKey pub = th::ThresholdPublicKey::decode(read_file(dir + "/zone.pub"));
  const th::KeyShare own = th::KeyShare::decode(read_file(dir + "/zone0.share"));
  const th::KeyShare peer = th::KeyShare::decode(read_file(dir + "/zone1.share"));
  const auto ctx = th::CryptoContext::get(pub);
  sdns::util::Rng rng(7);
  {
    std::vector<double> us;
    const sdns::bn::BigInt x = th::hash_to_element(pub, sdns::util::Bytes(64, 0x33));
    for (int i = 0; i < 20; ++i) {
      const th::SignatureShare s = th::generate_share(*ctx, own, x, true, rng);
      us.push_back(time_us([&] { (void)th::verify_share(*ctx, x, s); }));
    }
    m["threshold.verify_share_us"] = median0(us);
  }

  // store: WAL append + fsync per update, in a private directory.
  std::filesystem::remove_all(in.scratch_dir);
  sdns::store::DurableZoneStore::Options sopt;
  sopt.dir = in.scratch_dir;
  sopt.snapshot_log_bytes = 0;
  sopt.fatal_io_errors = false;
  sdns::store::DurableZoneStore store(sopt);

  // dns + threshold + store: this run's updates, in order.
  dns::AuthoritativeServer server(*zone);
  const auto now = static_cast<std::uint32_t>(std::time(nullptr));
  std::vector<double> apply, finalize, nxt, gen, asmb, fin, store_us, sigs_add, sigs_del;
  std::uint64_t seq = 1;
  for (const OpSpan& op : in.updates) {
    if (out.updates.size() >= kMaxReplayedUpdates) break;
    UpdateStages st;
    const dns::Message msg = traffic.update_message(op.kind == 'a', op.name, 0, false);
    dns::UpdateResult res;
    st.apply_us = time_us([&] { res = server.apply_update(msg, now); });
    if (res.rcode != dns::Rcode::kNoError) {
      throw std::runtime_error("replayed update failed: " + dns::to_string(res.rcode));
    }
    for (const dns::SigTask& task : res.sig_tasks) {
      const SignTimes t = sign(*ctx, own, peer, task.data, rng);
      gen.push_back(t.generate_us);
      asmb.push_back(t.assemble_us);
      fin.push_back(t.final_us);
      st.threshold_us += t.generate_us + t.assemble_us + t.final_us;
      st.apply_us += time_us([&] { server.install_signature(task, t.signature); });
    }
    st.sigs = res.sig_tasks.size();
    st.finalize_us = time_us([&] { server.finalize_journal(); });
    // apply_update already rebuilt the chain; this times the walk alone.
    nxt.push_back(time_us([&] { (void)server.zone().rebuild_nxt_chain(); }));
    const sdns::util::Bytes payload = msg.encode();
    st.store_us = time_us([&] {
      store.append(seq++, payload, false);
      store.sync();
    });
    st.crypto_us = crypto_per_update;
    apply.push_back(st.apply_us);
    finalize.push_back(st.finalize_us);
    store_us.push_back(st.store_us);
    (op.kind == 'a' ? sigs_add : sigs_del).push_back(static_cast<double>(st.sigs));
    out.updates.push_back(st);
  }
  m["dns.apply_update_us"] = median0(apply);
  m["dns.finalize_journal_us"] = median0(finalize);
  m["dns.rebuild_nxt_us"] = median0(nxt);
  m["threshold.generate_share_us"] = median0(gen);
  m["threshold.assemble_us"] = median0(asmb);
  m["threshold.final_verify_us"] = median0(fin);
  m["threshold.sigs_per_add"] = mean(sigs_add);
  m["threshold.sigs_per_del"] = mean(sigs_del);
  m["store.append_sync_us"] = median0(store_us);

  // dns at the edge: one NOTIFY-driven refresh = copy the shadow zone,
  // apply the IXFR diff, verify the whole candidate.
  std::vector<double> copy_ms, xfr_us, verify_ms;
  for (int k = 0; k < kEdgeRefreshSamples; ++k) {
    const dns::Zone shadow = server.zone();
    const auto soa = shadow.soa();
    const auto name = static_cast<std::uint32_t>(0xFFFF0000u + static_cast<unsigned>(k));
    const dns::UpdateResult res =
        server.apply_update(traffic.update_message(true, name, 0, false), now);
    for (const dns::SigTask& task : res.sig_tasks) {
      server.install_signature(task, sign(*ctx, own, peer, task.data, rng).signature);
    }
    server.finalize_journal();
    const auto xfr = server.answer_xfr(dns::make_ixfr_query(1, shadow.origin(), *soa), 0);
    std::optional<dns::Zone> candidate;
    copy_ms.push_back(time_us([&] { candidate = shadow; }) / 1e3);
    dns::XfrOutcome outcome{};
    xfr_us.push_back(time_us([&] { outcome = dns::apply_xfr_response(*candidate, xfr.at(0)); }));
    if (outcome != dns::XfrOutcome::kAppliedIxfr) {
      throw std::runtime_error("replayed IXFR was not applied incrementally");
    }
    bool ok = false;
    verify_ms.push_back(time_us([&] { ok = dns::verify_zone(*candidate).ok; }) / 1e3);
    if (!ok) throw std::runtime_error("replayed edge candidate failed verification");
  }
  m["dns.zone_copy_ms"] = median0(copy_ms);
  m["dns.apply_xfr_us"] = median0(xfr_us);
  m["dns.verify_zone_ms"] = median0(verify_ms);
  return out;
}

}  // namespace perfbench
