#include "abcast/broadcast.hpp"

#include <algorithm>

#include "crypto/sha256.hpp"
#include "util/log.hpp"

namespace sdns::abcast {

using util::Bytes;
using util::BytesView;
using util::Reader;
using util::Writer;

namespace {

const Digest kNullDigest{};

Digest read_digest(Reader& r) {
  Digest d;
  auto raw = r.raw(d.size());
  std::copy(raw.begin(), raw.end(), d.begin());
  return d;
}

void write_digest(Writer& w, const Digest& d) { w.raw(d.data(), d.size()); }

Bytes commit_statement(unsigned epoch, std::uint64_t seq, const Digest& d) {
  Writer w;
  w.str("commit");
  w.u32(epoch);
  w.u64(seq);
  write_digest(w, d);
  return std::move(w).take();
}

Bytes complain_statement(unsigned epoch, std::uint32_t attempt) {
  Writer w;
  w.str("complain");
  w.u32(epoch);
  w.u32(attempt);
  return std::move(w).take();
}

}  // namespace

Digest AtomicBroadcast::digest_of(BytesView payload) {
  Digest d;
  const Bytes h = crypto::Sha256::digest(payload);
  std::copy(h.begin(), h.end(), d.begin());
  return d;
}

Bytes AtomicBroadcast::echo_statement(unsigned epoch, std::uint64_t seq, const Digest& d) {
  Writer w;
  w.str("echo");
  w.u32(epoch);
  w.u64(seq);
  write_digest(w, d);
  return std::move(w).take();
}

Bytes AtomicBroadcast::encode_submit(BytesView payload) {
  Writer w;
  w.u8(kSubmit);
  w.lp32(payload);
  return std::move(w).take();
}

Bytes AtomicBroadcast::encode_order(unsigned epoch, std::uint64_t seq, const Digest& d) {
  Writer w;
  w.u8(kOrder);
  w.u32(epoch);
  w.u64(seq);
  write_digest(w, d);
  return std::move(w).take();
}

Bytes AtomicBroadcast::encode_echo(unsigned epoch, std::uint64_t seq, const Digest& d,
                                   const NodeSecret& signer) {
  Writer w;
  w.u8(kEcho);
  w.u32(epoch);
  w.u64(seq);
  write_digest(w, d);
  w.lp16(node_sign(signer, echo_statement(epoch, seq, d)));
  return std::move(w).take();
}

AtomicBroadcast::AtomicBroadcast(std::shared_ptr<const GroupPublic> pub, NodeSecret secret,
                                 Callbacks callbacks, Options options, util::Rng rng)
    : pub_(std::move(pub)),
      secret_(std::move(secret)),
      cb_(std::move(callbacks)),
      opt_(options),
      rng_(rng),
      coin_(pub_, secret_,
            ThresholdCoin::Callbacks{
                [this](const Bytes& m) { broadcast(m); },
                cb_.charge,
                [this] { c_coin_flips_->inc(); }},
            rng_.fork()) {
  obs::Registry* m = cb_.metrics;
  c_deliver_ = m ? &m->counter("abcast.deliver") : &obs::noop_counter();
  c_commit_fast_ = m ? &m->counter("abcast.commit.fast") : &obs::noop_counter();
  c_commit_fallback_ =
      m ? &m->counter("abcast.commit.fallback") : &obs::noop_counter();
  c_fallback_ = m ? &m->counter("abcast.fallback") : &obs::noop_counter();
  c_epoch_adopted_ =
      m ? &m->counter("abcast.epoch_change") : &obs::noop_counter();
  c_complaints_ = m ? &m->counter("abcast.complaints") : &obs::noop_counter();
  c_bba_rounds_ = m ? &m->counter("abcast.bba.rounds") : &obs::noop_counter();
  c_coin_flips_ = m ? &m->counter("abcast.coin.flips") : &obs::noop_counter();
}

void AtomicBroadcast::broadcast(const Bytes& msg) {
  if (!cb_.send) return;
  for (unsigned i = 0; i < pub_->n; ++i) {
    if (i != secret_.id) cb_.send(i, msg);
  }
}

void AtomicBroadcast::submit(Bytes payload) {
  broadcast(encode_submit(payload));
  note_payload(std::move(payload));
}

void AtomicBroadcast::fast_forward(std::uint64_t next_deliver) {
  if (next_deliver <= next_deliver_) return;
  next_deliver_ = next_deliver;
  if (next_order_seq_ < next_deliver) next_order_seq_ = next_deliver;
  // State transfer supersedes in-flight submissions: a pending payload was
  // either delivered inside the skipped prefix (its effect is in the
  // snapshot, but this node will never see its sequence number, so it would
  // pend — and feed the complaint timer — forever) or is still held pending
  // by the peers that saw its SUBMIT. Clients re-drive genuinely lost
  // requests; that is their role even without state transfer.
  pending_.clear();
  try_deliver();
}

void AtomicBroadcast::note_payload(Bytes payload) {
  const Digest d = digest_of(payload);
  // A delivered payload is never stored twice: inside the window it is still
  // held, and past it it stays released.
  const bool fresh =
      !delivered_.count(d) && payloads_.emplace(d, std::move(payload)).second;
  if (!delivered_.count(d) && !pending_.count(d)) {
    pending_.emplace(d, cb_.now ? cb_.now() : 0.0);
    arm_timer();
  }
  if (fresh) {
    // Echoes we withheld pending this payload (data-availability gate).
    // Snapshot first: echoing can commit/deliver synchronously, and the
    // deliver callback may re-enter and grow slots_.
    std::vector<std::uint64_t> waiting;
    for (const auto& [key, sl] : slots_) {
      if (key.second == epoch_ && sl.digest && *sl.digest == d && !sl.echo_sent) {
        waiting.push_back(key.first);
      }
    }
    for (std::uint64_t s : waiting) maybe_echo(epoch_, s);
    try_deliver();
  }
  if (is_leader() && !in_epoch_change_) leader_order_pending();
}

void AtomicBroadcast::leader_order_pending() {
  // Snapshot first: ordering can commit and deliver synchronously (n = 1 or
  // zero-latency loops), which erases from pending_ mid-iteration.
  std::vector<Digest> todo;
  for (const auto& [d, since] : pending_) {
    if (!ordered_.count(d) && !delivered_.count(d)) todo.push_back(d);
  }
  for (const Digest& d : todo) {
    if (ordered_.count(d) || delivered_.count(d)) continue;
    const std::uint64_t s = next_order_seq_++;
    ordered_.insert(d);
    Slot& sl = slot(epoch_, s);
    sl.digest = d;
    if (opt_.equivocate_as_leader && pub_->n > 1) {
      // Byzantine leader: half the peers see a phantom binding. The phantom
      // digest has no payload anywhere, so honest nodes must refuse to vote
      // for it (the availability gate in maybe_echo) or the slot could
      // commit a payload nobody can ever deliver.
      Digest alt = d;
      alt[0] = static_cast<std::uint8_t>(~alt[0]);
      const Bytes real_order = encode_order(epoch_, s, d);
      const Bytes fake_order = encode_order(epoch_, s, alt);
      bool fake = true;
      for (unsigned i = 0; i < pub_->n; ++i) {
        if (i == secret_.id) continue;
        if (cb_.send) cb_.send(i, fake ? fake_order : real_order);
        fake = !fake;
      }
    } else {
      broadcast(encode_order(epoch_, s, d));
    }
    maybe_echo(epoch_, s);
  }
}

void AtomicBroadcast::maybe_echo(unsigned epoch, std::uint64_t seq) {
  // Below the window the slot is released; an echo there would recreate it.
  if (epoch != epoch_ || in_epoch_change_ || seq < retain_floor()) return;
  Slot& sl = slot(epoch, seq);
  if (!sl.digest || sl.echo_sent) return;
  auto committed = committed_.find(seq);
  if (committed != committed_.end() && committed->second != *sl.digest) return;
  // Data-availability gate: never vote for a binding whose payload we do not
  // hold — an equivocating leader could otherwise gather a quorum on a
  // phantom digest and wedge delivery at this sequence number forever. Ask
  // for the payload instead; note_payload() re-runs this echo when it lands.
  // (The null digest is the epoch-change no-op and carries no payload; a
  // delivered digest is skipped at delivery, so its released body is moot.)
  if (*sl.digest != kNullDigest && !payloads_.count(*sl.digest) &&
      !delivered_.count(*sl.digest)) {
    if (requested_payloads_.insert(*sl.digest).second) {
      Writer w;
      w.u8(kGetPayload);
      write_digest(w, *sl.digest);
      broadcast(std::move(w).take());
    }
    return;
  }
  sl.echo_sent = true;
  charge(threshold::CostEvent::kAuthSign);
  Bytes sig = node_sign(secret_, echo_statement(epoch, seq, *sl.digest));
  sl.echoes[secret_.id] = {*sl.digest, sig};
  Writer w;
  w.u8(kEcho);
  w.u32(epoch);
  w.u64(seq);
  write_digest(w, *sl.digest);
  w.lp16(sig);
  broadcast(std::move(w).take());
  check_prepared(epoch, seq);
}

void AtomicBroadcast::on_message(unsigned from, BytesView msg) {
  if (msg.empty() || from >= pub_->n) return;
  charge(threshold::CostEvent::kMessage);
  if (ThresholdCoin::is_coin_message(msg)) {
    coin_.on_message(msg);
    return;
  }
  if (BinaryAgreement::is_bba_message(msg)) {
    const auto instance = BinaryAgreement::peek_instance(msg);
    if (!instance) return;
    auto session = bbas_.find(*instance);
    if (session == bbas_.end()) {
      if (*instance != bba_instance()) return;
      // A peer started the abandonment vote; join with our own evidence.
      const auto it = complaints_.find({vote_epoch(), attempt_});
      const bool input =
          it != complaints_.end() && it->second.size() >= pub_->quorum();
      start_fallback_vote(input);
      session = bbas_.find(*instance);
      if (session == bbas_.end()) return;
    }
    session->second->on_message(from, msg);
    return;
  }
  try {
    Reader r(msg);
    const auto type = static_cast<MsgType>(r.u8());
    switch (type) {
      case kSubmit: handle_submit(from, r); break;
      case kOrder: handle_order(from, r); break;
      case kEcho: handle_echo(from, r); break;
      case kCommit: handle_commit(from, r); break;
      case kCommitted: handle_committed(from, r); break;
      case kGetPayload: handle_get_payload(from, r); break;
      case kPayload: handle_payload(from, r); break;
      case kComplain: handle_complain(from, r); break;
      case kEpochChange: handle_epoch_change(from, msg, r); break;
      case kNewEpoch: handle_new_epoch(from, r); break;
      default: break;
    }
  } catch (const util::ParseError&) {
    SDNS_LOG_DEBUG("abcast ", secret_.id, ": malformed message from ", from);
  }
}

void AtomicBroadcast::handle_submit(unsigned, Reader& r) {
  note_payload(r.lp32());
}

void AtomicBroadcast::handle_order(unsigned from, Reader& r) {
  const unsigned epoch = r.u32();
  const std::uint64_t seq = r.u64();
  const Digest d = read_digest(r);
  // Accept bindings for the current AND future epochs: a freshly elected
  // leader starts ordering the moment it adopts the new epoch, which can be
  // before this node has processed the NEWEPOCH. The echo itself is gated
  // on having entered the epoch (maybe_echo); adopt_new_epoch replays it.
  if (from != leader_of(epoch) || epoch < epoch_ || seq < retain_floor()) return;
  Slot& sl = slot(epoch, seq);
  if (sl.digest) return;  // first binding wins; equivocation cannot re-bind
  sl.digest = d;
  maybe_echo(epoch, seq);
}

void AtomicBroadcast::handle_echo(unsigned from, Reader& r) {
  const unsigned epoch = r.u32();
  const std::uint64_t seq = r.u64();
  const Digest d = read_digest(r);
  const Bytes sig = r.lp16();
  if (seq < retain_floor()) return;
  Slot& sl = slot(epoch, seq);
  if (sl.echoes.count(from)) return;
  charge(threshold::CostEvent::kAuthVerify);
  if (!node_verify(*pub_, from, echo_statement(epoch, seq, d), sig)) return;
  sl.echoes[from] = {d, sig};
  check_prepared(epoch, seq);
}

void AtomicBroadcast::check_prepared(unsigned epoch, std::uint64_t seq) {
  Slot& sl = slot(epoch, seq);
  if (sl.commit_sent) return;
  // Count echo votes per digest.
  std::map<Digest, std::vector<std::pair<unsigned, Bytes>>> votes;
  for (const auto& [node, vote] : sl.echoes) {
    votes[vote.first].push_back({node, vote.second});
  }
  for (auto& [d, sigs] : votes) {
    if (sigs.size() < pub_->quorum()) continue;
    // Prepared. Remember the certificate (best per seq = highest epoch).
    Cert cert{epoch, seq, d, sigs};
    auto it = prepared_certs_.find(seq);
    if (it == prepared_certs_.end() || it->second.epoch < epoch) {
      prepared_certs_[seq] = cert;
    }
    sl.commit_sent = true;
    charge(threshold::CostEvent::kAuthSign);
    Bytes sig = node_sign(secret_, commit_statement(epoch, seq, d));
    sl.commits[secret_.id] = {d, sig};
    Writer w;
    w.u8(kCommit);
    w.u32(epoch);
    w.u64(seq);
    write_digest(w, d);
    w.lp16(sig);
    broadcast(std::move(w).take());
    check_committed_quorum(epoch, seq);
    return;
  }
}

void AtomicBroadcast::handle_commit(unsigned from, Reader& r) {
  const unsigned epoch = r.u32();
  const std::uint64_t seq = r.u64();
  const Digest d = read_digest(r);
  const Bytes sig = r.lp16();
  if (seq < retain_floor()) return;
  Slot& sl = slot(epoch, seq);
  if (sl.commits.count(from)) return;
  charge(threshold::CostEvent::kAuthVerify);
  if (!node_verify(*pub_, from, commit_statement(epoch, seq, d), sig)) return;
  sl.commits[from] = {d, sig};
  check_committed_quorum(epoch, seq);
}

void AtomicBroadcast::check_committed_quorum(unsigned epoch, std::uint64_t seq) {
  if (committed_.count(seq)) return;
  Slot& sl = slot(epoch, seq);
  std::map<Digest, std::vector<std::pair<unsigned, Bytes>>> votes;
  for (const auto& [node, vote] : sl.commits) {
    votes[vote.first].push_back({node, vote.second});
  }
  for (auto& [d, sigs] : votes) {
    if (sigs.size() < pub_->quorum()) continue;
    Cert cert{epoch, seq, d, sigs};
    commit(seq, d, &cert);
    return;
  }
}

namespace {
void encode_cert(Writer& w, const AtomicBroadcast* /*self*/, unsigned epoch,
                 std::uint64_t seq, const Digest& d,
                 const std::vector<std::pair<unsigned, Bytes>>& sigs) {
  w.u32(epoch);
  w.u64(seq);
  w.raw(d.data(), d.size());
  w.u16(static_cast<std::uint16_t>(sigs.size()));
  for (const auto& [node, sig] : sigs) {
    w.u32(node);
    w.lp16(sig);
  }
}
}  // namespace

void AtomicBroadcast::commit(std::uint64_t seq, const Digest& d, const Cert* cert,
                             bool via_epoch_change) {
  auto it = committed_.find(seq);
  if (it != committed_.end()) {
    if (it->second != d) {
      SDNS_LOG_ERROR("abcast ", secret_.id, ": conflicting commit for seq ", seq);
    }
    return;
  }
  committed_[seq] = d;
  (via_epoch_change ? c_commit_fallback_ : c_commit_fast_)->inc();
  if (cert) {
    commit_certs_[seq] = *cert;
    Writer w;
    w.u8(kCommitted);
    encode_cert(w, this, cert->epoch, seq, d, cert->sigs);
    broadcast(std::move(w).take());
  }
  try_deliver();
  // Still a full window short of this binding: whatever this node lacks
  // below it may already be released everywhere, so no vote or GETPAYLOAD
  // will fill the gap. Only state transfer can.
  if (seq >= next_deliver_ + kRetainWindow && seq >= fell_behind_at_ + kRetainWindow) {
    fell_behind_at_ = seq;
    if (cb_.fell_behind) cb_.fell_behind();
  }
}

void AtomicBroadcast::handle_committed(unsigned, Reader& r) {
  const unsigned epoch = r.u32();
  const std::uint64_t seq = r.u64();
  const Digest d = read_digest(r);
  if (seq < retain_floor() || committed_.count(seq)) return;
  const std::uint16_t count = r.u16();
  std::set<unsigned> seen;
  std::vector<std::pair<unsigned, Bytes>> sigs;
  const Bytes statement = commit_statement(epoch, seq, d);
  for (std::uint16_t i = 0; i < count; ++i) {
    const unsigned node = r.u32();
    Bytes sig = r.lp16();
    if (!seen.insert(node).second) continue;
    charge(threshold::CostEvent::kAuthVerify);
    if (!node_verify(*pub_, node, statement, sig)) continue;
    sigs.push_back({node, std::move(sig)});
  }
  if (sigs.size() < pub_->quorum()) return;
  Cert cert{epoch, seq, d, std::move(sigs)};
  commit_certs_.emplace(seq, cert);
  commit(seq, d, nullptr);
}

void AtomicBroadcast::handle_get_payload(unsigned from, Reader& r) {
  const Digest d = read_digest(r);
  auto it = payloads_.find(d);
  if (it == payloads_.end() || !cb_.send) return;
  Writer w;
  w.u8(kPayload);
  w.lp32(it->second);
  cb_.send(from, std::move(w).take());
}

void AtomicBroadcast::handle_payload(unsigned, Reader& r) {
  note_payload(r.lp32());
}

void AtomicBroadcast::try_deliver() {
  for (;;) {
    auto it = committed_.find(next_deliver_);
    if (it == committed_.end()) break;
    const Digest& d = it->second;
    // The null digest is a no-op; a digest bound twice is delivered once.
    if (d != kNullDigest && !delivered_.count(d)) {
      auto payload = payloads_.find(d);
      if (payload == payloads_.end()) {
        if (requested_payloads_.insert(d).second) {
          Writer w;
          w.u8(kGetPayload);
          write_digest(w, d);
          broadcast(std::move(w).take());
        }
        break;  // stalled until the payload arrives
      }
      delivered_.insert(d);
      pending_.erase(d);
      c_deliver_->inc();
      ++delivering_;
      if (cb_.deliver) cb_.deliver(payload->second);
      --delivering_;
    }
    ++next_deliver_;
  }
  if (delivering_ == 0) release_below_window();
}

void AtomicBroadcast::release_below_window() {
  const std::uint64_t floor = retain_floor();
  // committed_ names the digest of every sequence number the cursor passed
  // here (state transfer skips some; their payloads are not released).
  const auto end = committed_.lower_bound(floor);
  for (auto it = committed_.begin(); it != end; ++it) {
    payloads_.erase(it->second);
    ordered_.erase(it->second);
    requested_payloads_.erase(it->second);
  }
  committed_.erase(committed_.begin(), end);
  commit_certs_.erase(commit_certs_.begin(), commit_certs_.lower_bound(floor));
  prepared_certs_.erase(prepared_certs_.begin(), prepared_certs_.lower_bound(floor));
  slots_.erase(slots_.begin(), slots_.lower_bound({floor, 0}));
}

std::size_t AtomicBroadcast::retained_seqs() const {
  std::set<std::uint64_t> seqs;
  for (const auto& entry : slots_) seqs.insert(entry.first.first);
  for (const auto& entry : committed_) seqs.insert(entry.first);
  for (const auto& entry : commit_certs_) seqs.insert(entry.first);
  for (const auto& entry : prepared_certs_) seqs.insert(entry.first);
  return seqs.size();
}

// ---- fall-back path ---------------------------------------------------------

void AtomicBroadcast::arm_timer() {
  if (timer_armed_ || !cb_.set_timer) return;
  timer_armed_ = true;
  cb_.set_timer(opt_.complaint_timeout / 2, [this] {
    timer_armed_ = false;
    on_timer();
  });
}

void AtomicBroadcast::on_timer() {
  if (pending_.empty() && !in_epoch_change_) return;
  const double now = cb_.now ? cb_.now() : 0.0;
  bool overdue = false;
  if (in_epoch_change_) {
    // Waiting on the incoming leader's NEWEPOCH; if it never arrives the
    // leader of the pending epoch is faulty too — complain to skip it.
    const double waited = now - epoch_change_started_;
    overdue = waited > 2 * opt_.complaint_timeout;
    if (waited > opt_.complaint_timeout) {
      // Re-broadcast our EPOCHCHANGE: the incoming leader may have missed
      // the one-shot original (crash, partition) and be short of its quorum.
      auto& msgs = epoch_change_msgs_[pending_new_epoch_];
      auto own = msgs.find(secret_.id);
      if (own != msgs.end()) broadcast(own->second);
    }
  } else {
    for (const auto& [d, since] : pending_) {
      if (now - since > opt_.complaint_timeout) {
        overdue = true;
        break;
      }
    }
    if (overdue) {
      // Re-announce overdue payloads: the original SUBMIT broadcast may have
      // been lost to a crashed or partitioned peer — in particular to the
      // node that is leader now. Peers that already delivered them ignore
      // the duplicate (delivered_ check in note_payload).
      for (const auto& [d, since] : pending_) {
        if (now - since > opt_.complaint_timeout && !ordered_.count(d)) {
          auto payload = payloads_.find(d);
          if (payload != payloads_.end()) broadcast(encode_submit(payload->second));
        }
      }
    }
  }
  if (overdue && !complained_) {
    const unsigned target = vote_epoch();
    complained_ = true;
    c_complaints_->inc();
    charge(threshold::CostEvent::kAuthSign);
    Bytes sig = node_sign(secret_, complain_statement(target, attempt_));
    complaints_[{target, attempt_}][secret_.id] = sig;
    Writer w;
    w.u8(kComplain);
    w.u32(target);
    w.u32(attempt_);
    w.lp16(sig);
    broadcast(std::move(w).take());
    const auto& set = complaints_[{target, attempt_}];
    if (set.size() >= pub_->quorum()) start_fallback_vote(true);
  } else if (overdue && complained_) {
    // Still stuck on a later tick: retransmit the fall-back machinery. The
    // complaint, the agreement votes and the coin share all went out exactly
    // once; peers that were crashed or partitioned at that moment never saw
    // them, and with only n-t live nodes every one of those messages is
    // needed to close a quorum. Receivers de-duplicate, so this is safe.
    const auto& set = complaints_[{vote_epoch(), attempt_}];
    auto own = set.find(secret_.id);
    if (own != set.end()) {
      Writer w;
      w.u8(kComplain);
      w.u32(vote_epoch());
      w.u32(attempt_);
      w.lp16(own->second);
      broadcast(std::move(w).take());
    }
    auto bba = bbas_.find(bba_instance());
    if (bba != bbas_.end()) bba->second->rebroadcast();
  }
  arm_timer();
}

void AtomicBroadcast::handle_complain(unsigned from, Reader& r) {
  const unsigned epoch = r.u32();
  const std::uint32_t attempt = r.u32();
  const Bytes sig = r.lp16();
  auto& set = complaints_[{epoch, attempt}];
  if (set.count(from)) return;
  charge(threshold::CostEvent::kAuthVerify);
  if (!node_verify(*pub_, from, complain_statement(epoch, attempt), sig)) return;
  set[from] = sig;
  if (epoch != vote_epoch()) return;
  if (attempt > attempt_ &&
      set.size() >= static_cast<std::size_t>(pub_->t) + 1) {
    // t+1 complaints for a later attempt include an honest node's: the group
    // ran an abandonment vote we missed (crash, partition) and decided to
    // keep the epoch. Adopt the attempt so our complaint and votes rejoin
    // the quorum — stuck at the old attempt we could never participate
    // again, and the group may now need us to reach n-t.
    attempt_ = attempt;
    complained_ = false;
  }
  if (attempt != attempt_) return;
  if (set.size() >= static_cast<std::size_t>(pub_->t) + 1 && !complained_) {
    // Join the complaint: at least one honest node is stuck.
    complained_ = true;
    c_complaints_->inc();
    charge(threshold::CostEvent::kAuthSign);
    Bytes my_sig = node_sign(secret_, complain_statement(epoch, attempt_));
    set[secret_.id] = my_sig;
    Writer w;
    w.u8(kComplain);
    w.u32(epoch);
    w.u32(attempt_);
    w.lp16(my_sig);
    broadcast(std::move(w).take());
  }
  if (set.size() >= pub_->quorum()) start_fallback_vote(true);
}

void AtomicBroadcast::start_fallback_vote(bool my_input) {
  const std::uint64_t instance = bba_instance();
  auto it = bbas_.find(instance);
  if (it == bbas_.end()) {
    auto session = std::make_unique<BinaryAgreement>(
        pub_, secret_.id, instance, coin_,
        BinaryAgreement::Callbacks{
            [this](const Bytes& m) { broadcast(m); },
            [this, instance](bool abandon) { on_fallback_decision(instance, abandon); },
            cb_.charge});
    it = bbas_.emplace(instance, std::move(session)).first;
  }
  if (!it->second->started()) it->second->start(my_input);
}

void AtomicBroadcast::on_fallback_decision(std::uint64_t instance, bool abandon) {
  // Stale sessions (older epoch or attempt) may still decide; ignore them.
  if (instance != bba_instance()) return;
  auto bba_it = bbas_.find(instance);
  if (bba_it != bbas_.end()) {
    c_bba_rounds_->inc(bba_it->second->rounds_used() + 1);
  }
  if (abandon) {
    begin_epoch_change(vote_epoch() + 1);
  } else {
    ++attempt_;
    complained_ = false;
    opt_.complaint_timeout *= 2;
    arm_timer();
  }
}

util::Bytes AtomicBroadcast::build_epoch_change_body() const {
  Writer w;
  w.u32(pending_new_epoch_);
  w.u64(next_deliver_);
  // Commit certificates for undelivered sequence numbers.
  std::vector<const Cert*> commits;
  for (const auto& [seq, cert] : commit_certs_) {
    if (seq >= next_deliver_) commits.push_back(&cert);
  }
  w.u16(static_cast<std::uint16_t>(commits.size()));
  for (const Cert* c : commits) encode_cert(w, this, c->epoch, c->seq, c->digest, c->sigs);
  // Prepared certificates.
  std::vector<const Cert*> prepared;
  for (const auto& [seq, cert] : prepared_certs_) {
    if (seq >= next_deliver_ && !commit_certs_.count(seq)) prepared.push_back(&cert);
  }
  w.u16(static_cast<std::uint16_t>(prepared.size()));
  for (const Cert* c : prepared) encode_cert(w, this, c->epoch, c->seq, c->digest, c->sigs);
  return std::move(w).take();
}

void AtomicBroadcast::begin_epoch_change(unsigned new_epoch) {
  if (new_epoch <= epoch_) return;
  if (in_epoch_change_ && pending_new_epoch_ >= new_epoch) return;
  in_epoch_change_ = true;
  pending_new_epoch_ = new_epoch;
  epoch_change_started_ = cb_.now ? cb_.now() : 0.0;
  complained_ = false;  // escalation complaints target the pending epoch
  ++epoch_change_count_;
  c_fallback_->inc();
  if (cb_.metrics) {
    cb_.metrics->trace().record(cb_.now ? cb_.now() : 0.0, "abcast",
                                "epoch-change", new_epoch, next_deliver_);
  }
  const Bytes body = build_epoch_change_body();
  charge(threshold::CostEvent::kAuthSign);
  const Bytes sig = node_sign(secret_, body);
  Writer w;
  w.u8(kEpochChange);
  w.u32(new_epoch);
  w.u32(secret_.id);
  w.lp32(body);
  w.lp16(sig);
  Bytes msg = std::move(w).take();
  epoch_change_msgs_[new_epoch][secret_.id] = msg;
  broadcast(msg);
  maybe_send_new_epoch();
}

void AtomicBroadcast::handle_epoch_change(unsigned from, BytesView whole, Reader& r) {
  const unsigned new_epoch = r.u32();
  const unsigned sender = r.u32();
  const Bytes body = r.lp32();
  const Bytes sig = r.lp16();
  if (sender != from || new_epoch <= epoch_) return;
  auto& msgs = epoch_change_msgs_[new_epoch];
  if (msgs.count(from)) return;
  charge(threshold::CostEvent::kAuthVerify);
  if (!node_verify(*pub_, from, body, sig)) return;
  // Sanity: the body must name the same target epoch.
  try {
    Reader br(body);
    if (br.u32() != new_epoch) return;
  } catch (const util::ParseError&) {
    return;
  }
  msgs[from] = Bytes(whole.begin(), whole.end());
  // Evidence that an honest node abandoned the epoch: join the change.
  if (msgs.size() >= static_cast<std::size_t>(pub_->t) + 1 &&
      (!in_epoch_change_ || pending_new_epoch_ < new_epoch)) {
    begin_epoch_change(new_epoch);
  }
  maybe_send_new_epoch();
}

void AtomicBroadcast::maybe_send_new_epoch() {
  if (!in_epoch_change_) return;
  const unsigned target = pending_new_epoch_;
  if (leader_of(target) != secret_.id || new_epoch_sent_for_ >= target) return;
  auto& msgs = epoch_change_msgs_[target];
  if (msgs.size() < pub_->quorum()) return;
  new_epoch_sent_for_ = target;
  Writer w;
  w.u8(kNewEpoch);
  w.u32(target);
  w.u16(static_cast<std::uint16_t>(pub_->quorum()));
  std::size_t included = 0;
  std::vector<Bytes> selected;
  for (const auto& [node, raw] : msgs) {
    if (included == pub_->quorum()) break;
    w.lp32(raw);
    selected.push_back(raw);
    ++included;
  }
  broadcast(w.bytes());
  adopt_new_epoch(target, selected);
}

void AtomicBroadcast::handle_new_epoch(unsigned from, Reader& r) {
  const unsigned target = r.u32();
  if (from != leader_of(target) || target <= epoch_) return;
  const std::uint16_t count = r.u16();
  std::vector<Bytes> msgs;
  for (std::uint16_t i = 0; i < count; ++i) msgs.push_back(r.lp32());
  adopt_new_epoch(target, msgs);
}

bool AtomicBroadcast::adopt_new_epoch(unsigned target,
                                      const std::vector<Bytes>& change_messages) {
  if (target <= epoch_) return false;
  // Validate the bundle: quorum of distinct, correctly signed EPOCHCHANGE
  // messages for this target epoch.
  struct Parsed {
    unsigned sender;
    std::uint64_t watermark;
    std::vector<Cert> commits;
    std::vector<Cert> prepared;
  };
  std::vector<Parsed> parsed;
  std::set<unsigned> senders;
  for (const Bytes& raw : change_messages) {
    try {
      Reader r(raw);
      if (r.u8() != kEpochChange) return false;
      if (r.u32() != target) return false;
      const unsigned sender = r.u32();
      const Bytes body = r.lp32();
      const Bytes sig = r.lp16();
      if (!senders.insert(sender).second) return false;
      charge(threshold::CostEvent::kAuthVerify);
      if (!node_verify(*pub_, sender, body, sig)) return false;
      Reader br(body);
      Parsed p;
      p.sender = sender;
      if (br.u32() != target) return false;
      p.watermark = br.u64();
      auto read_cert = [&br]() {
        Cert c;
        c.epoch = br.u32();
        c.seq = br.u64();
        c.digest = read_digest(br);
        const std::uint16_t nsigs = br.u16();
        for (std::uint16_t i = 0; i < nsigs; ++i) {
          const unsigned node = br.u32();
          c.sigs.push_back({node, br.lp16()});
        }
        return c;
      };
      const std::uint16_t ncommits = br.u16();
      for (std::uint16_t i = 0; i < ncommits; ++i) p.commits.push_back(read_cert());
      const std::uint16_t nprepared = br.u16();
      for (std::uint16_t i = 0; i < nprepared; ++i) p.prepared.push_back(read_cert());
      parsed.push_back(std::move(p));
    } catch (const util::ParseError&) {
      return false;
    }
  }
  if (parsed.size() < pub_->quorum()) return false;

  // Verify and install certificates from the union.
  auto cert_valid = [this](const Cert& c, bool is_commit) {
    const Bytes statement = is_commit ? commit_statement(c.epoch, c.seq, c.digest)
                                      : echo_statement(c.epoch, c.seq, c.digest);
    std::set<unsigned> nodes;
    std::size_t valid = 0;
    for (const auto& [node, sig] : c.sigs) {
      if (!nodes.insert(node).second) continue;
      charge(threshold::CostEvent::kAuthVerify);
      if (node_verify(*pub_, node, statement, sig)) ++valid;
    }
    return valid >= pub_->quorum();
  };
  std::map<std::uint64_t, Cert> best_prepared;
  std::uint64_t hi = next_deliver_ == 0 ? 0 : next_deliver_ - 1;
  bool any = next_deliver_ > 0;
  for (const auto& p : parsed) {
    for (const auto& c : p.commits) {
      if (c.seq < next_deliver_ || committed_.count(c.seq)) continue;
      if (!cert_valid(c, /*is_commit=*/true)) continue;
      commit_certs_.emplace(c.seq, c);
      commit(c.seq, c.digest, nullptr, /*via_epoch_change=*/true);
      hi = std::max(hi, c.seq);
      any = true;
    }
    for (const auto& c : p.prepared) {
      if (c.seq < next_deliver_ || committed_.count(c.seq)) continue;
      if (!cert_valid(c, /*is_commit=*/false)) continue;
      auto it = best_prepared.find(c.seq);
      if (it == best_prepared.end() || it->second.epoch < c.epoch) {
        best_prepared[c.seq] = c;
      }
      hi = std::max(hi, c.seq);
      any = true;
    }
  }

  // Enter the new epoch.
  epoch_ = target;
  attempt_ = 0;
  in_epoch_change_ = false;
  complained_ = false;

  ordered_.clear();
  const std::uint64_t fresh_base = any ? hi + 1 : next_deliver_;
  next_order_seq_ = fresh_base;

  // Re-run agreement in the new epoch for every sequence number that might
  // have committed somewhere: the best prepared binding, or a no-op.
  // (Echoing can deliver, so the cursor may pass s mid-loop.)
  for (std::uint64_t s = next_deliver_; s < fresh_base; ++s) {
    if (s < next_deliver_ || committed_.count(s)) continue;
    Slot& sl = slot(epoch_, s);
    auto it = best_prepared.find(s);
    sl.digest = it != best_prepared.end() ? it->second.digest : kNullDigest;
    maybe_echo(epoch_, s);
  }
  // Replay bindings the new leader ordered before we finished adopting.
  // Snapshot first: echoing can deliver, which releases slots below the
  // window.
  std::vector<std::uint64_t> unechoed;
  for (const auto& [key, sl] : slots_) {
    if (key.second == epoch_ && sl.digest && !sl.echo_sent) unechoed.push_back(key.first);
  }
  for (std::uint64_t s : unechoed) maybe_echo(epoch_, s);
  if (is_leader()) leader_order_pending();
  arm_timer();
  c_epoch_adopted_->inc();
  if (cb_.metrics) {
    cb_.metrics->trace().record(cb_.now ? cb_.now() : 0.0, "abcast",
                                "epoch-adopted", epoch_, next_deliver_);
  }
  SDNS_LOG_INFO("abcast ", secret_.id, ": entered epoch ", epoch_);
  return true;
}

}  // namespace sdns::abcast
