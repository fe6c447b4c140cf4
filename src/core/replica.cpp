#include "core/replica.hpp"

#include <algorithm>
#include <memory>

#include "store/durable.hpp"
#include "util/log.hpp"

namespace sdns::core {

using util::Bytes;
using util::BytesView;
using util::Reader;
using util::Writer;

const char* to_string(ClientMode m) {
  switch (m) {
    case ClientMode::kPragmatic: return "pragmatic";
    case ClientMode::kVoting: return "voting";
  }
  return "?";
}

const char* to_string(CorruptionMode m) {
  switch (m) {
    case CorruptionMode::kHonest: return "honest";
    case CorruptionMode::kFlipShares: return "flip-shares";
    case CorruptionMode::kMute: return "mute";
    case CorruptionMode::kStaleReplay: return "stale-replay";
    case CorruptionMode::kEquivocate: return "equivocate";
    case CorruptionMode::kGarbagePayload: return "garbage-payload";
    case CorruptionMode::kGarbageShares: return "garbage-shares";
  }
  return "?";
}

namespace {
// Replica-to-replica frame tags.
constexpr std::uint8_t kAbcastFrame = 0x01;
constexpr std::uint8_t kSigningFrame = 0x02;
constexpr std::uint8_t kSnapshotRequestFrame = 0x03;
constexpr std::uint8_t kSnapshotFrame = 0x04;
constexpr std::uint8_t kSnapshotCurrentFrame = 0x05;

// Atomic-broadcast payload tags: one client request, or a group-committed
// batch of RFC 2136 updates (count, then per-entry client + wire). The
// format is produced and consumed only in this file.
constexpr std::uint8_t kPayloadSingle = 0x01;
constexpr std::uint8_t kPayloadBatch = 0x02;
/// Most updates coalesced into one abcast payload.
constexpr std::size_t kMaxBatch = 64;
/// Seconds before an unanswered batch round stops blocking the next one
/// (liveness backstop; see maybe_submit_updates). Generous: covers several
/// abcast epoch changes under churn without tripping on a healthy round.
constexpr double kBatchWatchdog = 5.0;

// A replica-to-replica frame: the tag, then the body.
Bytes frame(std::uint8_t tag, BytesView body) {
  Writer w;
  w.u8(tag);
  w.raw(body);
  return std::move(w).take();
}

// The recovery request and its "current" ack carry one delivery cursor.
Bytes cursor_frame(std::uint8_t tag, std::uint64_t cursor) {
  Writer w;
  w.u8(tag);
  w.u64(cursor);
  return std::move(w).take();
}

std::optional<std::uint64_t> decode_cursor(BytesView body) {
  try {
    Reader r(body);
    const std::uint64_t cursor = r.u64();
    r.expect_done();
    return cursor;
  } catch (const util::ParseError&) {
    return std::nullopt;
  }
}

// Whether a DNS request is an RFC 2136 update (opcode 5), read from its
// header without parsing it.
bool is_update_wire(BytesView wire) {
  return wire.size() >= 12 && ((wire[2] >> 3) & 0x0f) == 5;
}

Bytes encode_payload(ClientId client, BytesView request) {
  Writer w;
  w.u8(kPayloadSingle);
  w.u64(client);
  w.lp32(request);
  return std::move(w).take();
}

// Whether executing this abcast payload can change the zone. Batches carry
// only updates by construction; singles are classified by the DNS opcode,
// the same test on_client_request uses to route them. Undecodable payloads
// execute as no-ops, so treating them as non-mutating is exact.
bool payload_mutates(BytesView payload) {
  try {
    Reader r(payload);
    const std::uint8_t tag = r.u8();
    if (tag == kPayloadBatch) return true;
    if (tag != kPayloadSingle) return false;
    r.u64();  // client
    return is_update_wire(r.lp32());
  } catch (const util::ParseError&) {
    return false;
  }
}
}  // namespace

ReplicaNode::ReplicaNode(ReplicaConfig config,
                         std::shared_ptr<const abcast::GroupPublic> group,
                         abcast::NodeSecret group_secret,
                         std::shared_ptr<const threshold::ThresholdPublicKey> zone_key_pub,
                         threshold::KeyShare zone_share, dns::Zone zone,
                         Callbacks callbacks, util::Rng rng, CorruptionMode corruption,
                         std::shared_ptr<const crypto::RsaPrivateKey> local_key)
    : config_(config),
      secret_(std::move(group_secret)),
      zone_key_(std::move(zone_key_pub)),
      zone_share_(std::move(zone_share)),
      server_(std::move(zone), config.update_policy, config.signature_validity),
      cb_(std::move(callbacks)),
      rng_(rng),
      corruption_(corruption),
      local_key_(std::move(local_key)) {
  if (cb_.metrics) {
    metrics_ = cb_.metrics;
  } else {
    own_metrics_ = std::make_unique<obs::Registry>();
    metrics_ = own_metrics_.get();
  }
  if (cb_.store) {
    store_ = cb_.store;
  } else {
    own_store_ = std::make_unique<store::MemoryZoneStore>();
    store_ = own_store_.get();
  }
  server_.set_journal_limit(config_.journal_limit);
  c_reads_ = &metrics_->counter("replica.reads");
  c_updates_ = &metrics_->counter("replica.updates");
  c_signatures_ = &metrics_->counter("replica.signatures");
  c_recoveries_ = &metrics_->counter("replica.recoveries");
  c_recovery_standdowns_ = &metrics_->counter("replica.recovery_standdowns");
  c_update_batches_ = &metrics_->counter("replica.update_batches");
  h_update_batch_size_ = &metrics_->histogram("replica.update_batch_size");
  metrics_->gauge("replica.zone_gen")
      .set(static_cast<std::int64_t>(zone_generation_value()));
  // Threshold counters normally materialize when the first signing session
  // constructs; pre-create them so every scrape exposes the full taxonomy
  // from boot (dashboards can rely on the names existing at 0).
  metrics_->counter("threshold.share.verify_ok");
  metrics_->counter("threshold.share.verify_fail");
  metrics_->counter("threshold.optimistic.hit");
  metrics_->counter("threshold.optimistic.miss");
  metrics_->histogram("threshold.sign_us");
  if (!config_.base_case) {
    abcast::AtomicBroadcast::Callbacks acb;
    acb.send = [this](unsigned to, const Bytes& m) {
      if (cb_.send_replica) cb_.send_replica(to, frame(kAbcastFrame, m));
    };
    acb.deliver = [this](const Bytes& payload) {
      const abcast::Digest digest = abcast::AtomicBroadcast::digest_of(payload);
      const std::uint64_t seq = abcast_->delivered_count();
      delivery_log_[seq] = digest;
      // Write-ahead log: the committed payload is appended (buffered) here,
      // at delivery; the fsync happens in execute() before the first zone
      // mutation that depends on it. Non-mutating deliveries are logged as
      // cursor marks carrying only their digest, so a replayed log rebuilds
      // the same contiguous safety chain without re-running reads.
      if (payload_mutates(payload)) {
        store_->append(seq, payload, /*mark=*/false);
      } else {
        store_->append(seq, BytesView(digest.data(), digest.size()),
                       /*mark=*/true);
      }
      // Our in-flight batch came back through total order — the round is
      // over, and anything that queued behind it can ride the next one.
      // (Another gateway submitting a byte-identical payload clears the
      // flag early; harmless, it only widens the next batch.)
      if (batch_in_flight_ && in_flight_digest_ && digest == *in_flight_digest_) {
        batch_in_flight_ = false;
        in_flight_digest_.reset();
      }
      exec_queue_.push_back(payload);
      execute_next();
      // The next batch must NOT be submitted from inside the delivery
      // callback: submit() re-enters the broadcast's delivery loop, which
      // would advance its cursor under the running iteration and skip a
      // delivery. Defer to the event loop.
      if (!batch_in_flight_ && !update_queue_.empty() && cb_.set_timer) {
        cb_.set_timer(0.0, [this] { maybe_submit_updates(); });
      }
    };
    acb.now = cb_.now;
    acb.set_timer = cb_.set_timer;
    acb.charge = cb_.charge;
    // Peers only keep a window of sequence state; a replica that fell
    // further behind catches up by state transfer, without waiting for an
    // operator to ask.
    acb.fell_behind = [this] { start_recovery(); };
    acb.metrics = metrics_;
    abcast::AtomicBroadcast::Options opt;
    opt.complaint_timeout = config_.complaint_timeout;
    opt.equivocate_as_leader = corruption_ == CorruptionMode::kEquivocate;
    abcast_ = std::make_unique<abcast::AtomicBroadcast>(std::move(group), secret_,
                                                        std::move(acb), opt, rng_.fork());
  }
}

void ReplicaNode::on_client_request(ClientId client, BytesView wire) {
  charge(threshold::CostEvent::kMessage);
  if (corruption_ == CorruptionMode::kMute) return;  // ignores its clients
  if (config_.base_case) {
    execute(encode_payload(client, wire));
    return;
  }
  // Reads can bypass atomic broadcast when configured (§3.4 last paragraph).
  if (!config_.disseminate_reads) {
    try {
      dns::Message request = dns::Message::decode(wire);
      if (request.opcode == dns::Opcode::kQuery) {
        run_query(client, request);
        return;
      }
    } catch (const util::ParseError&) {
      return;
    }
  }
  if (corruption_ == CorruptionMode::kGarbagePayload) {
    abcast_->submit(encode_payload(client, rng_.bytes(32)));
    return;
  }
  // Updates go through the group-commit queue; everything else (reads in
  // disseminate mode, unclassifiable noise) is disseminated one per round
  // as before.
  if (is_update_wire(wire)) {
    update_queue_.emplace_back(client, Bytes(wire.begin(), wire.end()));
    maybe_submit_updates();
    return;
  }
  abcast_->submit(encode_payload(client, wire));
}

void ReplicaNode::maybe_submit_updates() {
  if (!abcast_) return;
  while (!update_queue_.empty() && !batch_in_flight_) {
    const std::size_t count = std::min(kMaxBatch, update_queue_.size());
    Bytes payload;
    if (count == 1) {
      payload = encode_payload(update_queue_.front().first,
                               update_queue_.front().second);
    } else {
      Writer w;
      w.u8(kPayloadBatch);
      w.u16(static_cast<std::uint16_t>(count));
      for (std::size_t i = 0; i < count; ++i) {
        w.u64(update_queue_[i].first);
        w.lp32(update_queue_[i].second);
      }
      payload = std::move(w).take();
    }
    update_queue_.erase(
        update_queue_.begin(),
        update_queue_.begin() + static_cast<std::ptrdiff_t>(count));
    const abcast::Digest digest = abcast::AtomicBroadcast::digest_of(payload);
    // Clients retry lost-response updates through successive gateways, so a
    // byte-identical payload may already have gone through total order here.
    // Atomic broadcast de-duplicates delivered payloads permanently — this
    // digest will never be delivered again, so waiting on it would wedge
    // the gateway queue forever. The round that delivered it already
    // executed the update (and every replica responded); drop the duplicate
    // and keep draining.
    if (abcast_->already_delivered(digest)) continue;
    batch_in_flight_ = true;
    in_flight_digest_ = digest;
    // Liveness backstop: a replica that skipped deliveries via snapshot
    // recovery has an incomplete delivered-set, so the check above can miss
    // and no delivery will ever clear the flag. The flag only widens
    // batches — it is not a correctness gate — so time it out; a concurrent
    // second round is harmless (abcast de-duplicates pending payloads too).
    if (cb_.set_timer) {
      cb_.set_timer(kBatchWatchdog, [this, digest] {
        if (batch_in_flight_ && in_flight_digest_ &&
            *in_flight_digest_ == digest) {
          batch_in_flight_ = false;
          in_flight_digest_.reset();
          maybe_submit_updates();
        }
      });
    }
    abcast_->submit(std::move(payload));
  }
}

void ReplicaNode::on_replica_message(unsigned from, BytesView msg) {
  if (msg.empty()) return;
  const std::uint8_t tag = msg[0];
  BytesView body = msg.subspan(1);
  if (tag == kAbcastFrame) {
    if (abcast_) abcast_->on_message(from, body);
    return;
  }
  if (tag == kSigningFrame) {
    charge(threshold::CostEvent::kMessage);
    const auto sid = threshold::SigningSession::peek_session_id(body);
    if (!sid) return;
    if (signing_ && signing_->session_id() == *sid) {
      signing_->on_message(body);
      // A session that just completed gives way to the next SIG task only
      // here, after its on_message returned; the entry may then be done.
      if (signing_->done() && sign_update()) {
        ++current_batch_->next;
        continue_batch();
      }
      return;
    }
    if (*sid > last_finished_sid_) {
      buffer_signing_message(*sid, body);
      return;
    }
    // A peer is re-sending shares for a session we already finished — it
    // missed the final-signature broadcast (crash or partition). Answer with
    // the assembled signature so it can complete.
    if (!threshold::SigningSession::is_share_message(body)) return;
    auto done = finished_sigs_.find(*sid);
    if (done != finished_sigs_.end() && cb_.send_replica &&
        corruption_ != CorruptionMode::kMute) {
      cb_.send_replica(from, frame(kSigningFrame, threshold::SigningSession::encode_final(
                                                     *sid, done->second)));
    }
    return;
  }
  if (tag == kSnapshotRequestFrame) {
    handle_snapshot_request(from, body);
    return;
  }
  if (tag == kSnapshotFrame) {
    handle_snapshot(from, body);
    return;
  }
  if (tag == kSnapshotCurrentFrame) {
    handle_snapshot_current(from, body);
    return;
  }
}

void ReplicaNode::start_recovery() {
  if (config_.base_case || !cb_.send_replica) return;
  recovering_ = true;
  recovery_candidates_.clear();
  recovery_current_acks_.clear();
  // The request carries our delivered cursor: a disk-first restart is
  // usually already current, and peers that are not ahead answer with a
  // tiny ack instead of shipping the whole zone.
  const Bytes msg = cursor_frame(kSnapshotRequestFrame, abcast_->delivered_count());
  for (unsigned i = 0; i < config_.n; ++i) {
    if (i != secret_.id) cb_.send_replica(i, msg);
  }
}

void ReplicaNode::handle_snapshot_request(unsigned from, BytesView body) {
  if (corruption_ == CorruptionMode::kMute) return;
  if (!abcast_ || !cb_.send_replica) return;
  const std::optional<std::uint64_t> hint = decode_cursor(body);
  if (!hint) return;
  // Cursor hint: when the requester is already at (or ahead of) our
  // delivered cursor there is nothing to transfer — confirm with a
  // "current" ack.
  if (abcast_->delivered_count() <= *hint) {
    cb_.send_replica(from,
                     cursor_frame(kSnapshotCurrentFrame, abcast_->delivered_count()));
    return;
  }
  // Only serve a consistent point: between operations, with the execution
  // queue drained, the zone reflects exactly `deliveries_` executed requests.
  // Mid-operation, execute_next() answers once the pipeline drains.
  snapshot_waiters_.insert(from);
  if (!executing_ && exec_queue_.empty()) serve_snapshot_waiters();
}

void ReplicaNode::serve_snapshot_waiters() {
  if (snapshot_waiters_.empty()) return;
  const Bytes msg = frame(kSnapshotFrame, store::encode_zone_state(make_store_state()));
  for (const unsigned to : snapshot_waiters_) cb_.send_replica(to, msg);
  snapshot_waiters_.clear();
}

void ReplicaNode::handle_snapshot_current(unsigned from, BytesView body) {
  if (!recovering_) return;
  const std::optional<std::uint64_t> cursor = decode_cursor(body);
  if (!cursor) return;
  recovery_current_acks_[from] = *cursor;
  try_finish_recovery();
}

void ReplicaNode::handle_snapshot(unsigned from, BytesView body) {
  if (!recovering_) return;
  // Decode and verify once, on arrival, with the disk path's codec and
  // verifier; a candidate that fails never counts toward the quorum. A
  // signed zone must verify under the dealt zone key — a zone self-signed
  // under a key a Byzantine peer made up verifies against its own apex
  // KEY. An unsigned zone only has to parse; its freshness comes from t+1
  // identical candidates instead.
  store::ZoneState state;
  try {
    state = store::decode_zone_state(body);
  } catch (const util::ParseError&) {
    return;
  }
  std::optional<crypto::RsaPublicKey> trusted;
  if (server_.zone_is_signed()) trusted = zone_key_->rsa();
  if (!store::make_zone_verifier(std::move(trusted))(state)) return;
  recovery_candidates_[from] = std::move(state);
  try_finish_recovery();
}

void ReplicaNode::try_finish_recovery() {
  // A "current" ack counts toward the response quorum: the acking peer
  // compared its cursor against ours and found nothing to transfer. With at
  // most t faulty replicas, t+1 responses contain an honest one.
  const std::size_t quorum = static_cast<std::size_t>(config_.t) + 1;
  if (recovery_candidates_.size() + recovery_current_acks_.size() < quorum) return;
  store::ZoneState* best = nullptr;
  if (server_.zone_is_signed()) {
    // Signed zone: any verified candidate is authentic; take the freshest.
    for (auto& [from, state] : recovery_candidates_) {
      if (!best || state.abcast_cursor > best->abcast_cursor) best = &state;
    }
  } else {
    // Unsigned zone: require t+1 identical candidates (majority evidence).
    std::map<std::string, unsigned> votes;
    for (auto& [from, state] : recovery_candidates_) {
      Writer key;
      key.u64(state.abcast_cursor);
      key.lp32(state.zone_wire);
      if (++votes[util::to_string(key.bytes())] >= config_.t + 1) best = &state;
    }
  }
  if (!best) {
    // No adoptable snapshot yet. If a quorum of peers confirmed we are
    // current, there is nothing to fetch — the disk-first restore already
    // holds everything the cluster committed.
    if (recovery_current_acks_.size() >= quorum) {
      stand_down_recovery("quorum of peers confirmed local state is current");
    }
    return;
  }
  if (best->abcast_cursor <= abcast_->delivered_count()) {
    // The peers' freshest snapshot is at or behind what we already
    // delivered — adopting it would transfer state for nothing (equal) or
    // roll us back (behind). We are not behind; stand down.
    stand_down_recovery("freshest peer snapshot is not ahead of local state");
    return;
  }
  const std::uint64_t cursor = best->abcast_cursor;
  if (!install_state(*best)) return;
  // Whatever was mid-execution was computed against the pre-snapshot state;
  // the snapshot already contains those operations' effects. Drop the
  // execution pipeline and any in-flight signing work.
  exec_queue_.clear();
  executing_ = false;
  current_batch_.reset();
  // fast_forward may have skipped the delivery that would have cleared the
  // in-flight flag; leave it set and queued updates would wait forever.
  batch_in_flight_ = false;
  in_flight_digest_.reset();
  signing_.reset();
  ++signing_timer_gen_;
  pending_signing_.clear();
  recovering_ = false;
  recovery_candidates_.clear();
  recovery_current_acks_.clear();
  // Adoption abandoned any boot replay in progress; nothing left to mute.
  suppress_responses_below_ = 0;
  // The WAL's history no longer leads to this state — re-anchor the disk
  // with an unconditional snapshot so the next restart recovers to here.
  store_->checkpoint([this] { return make_store_state(); });
  c_recoveries_->inc();
  SDNS_LOG_INFO("replica ", secret_.id, ": recovered to delivery cursor ", cursor);
  maybe_submit_updates();
}

void ReplicaNode::stand_down_recovery(const char* why) {
  recovering_ = false;
  recovery_candidates_.clear();
  recovery_current_acks_.clear();
  c_recovery_standdowns_->inc();
  SDNS_LOG_INFO("replica ", secret_.id, ": recovery stand-down at cursor ",
                abcast_ ? abcast_->delivered_count() : 0, ": ", why);
}

ReplicaObservation ReplicaNode::observe() const {
  ReplicaObservation o;
  o.id = id();
  o.recovering = recovering_;
  o.delivered = abcast_ ? abcast_->delivered_count() : deliveries_;
  o.fallbacks = abcast_ ? abcast_->epoch_changes() : 0;
  o.malformed_sigs = server_.zone().malformed_sigs_dropped();
  // Chain digest over the contiguous run of the delivery log that ends at
  // the cursor: equal cursor, floor and digest pin agreement and order over
  // that span. State transfer leaves holes (a respawn's log starts at its
  // snapshot, a nudged replica's skips its partition), so the chain starts
  // after the last one; an adoption with no delivery since has floor ==
  // cursor and an empty chain.
  std::uint64_t first = o.delivered;
  for (auto it = delivery_log_.rbegin(); it != delivery_log_.rend() && it->first + 1 == first;
       ++it) {
    first = it->first;
  }
  if (!delivery_log_.empty()) o.digest_floor = static_cast<std::int64_t>(first);
  std::uint64_t h = util::fnv1a({});
  for (auto it = delivery_log_.lower_bound(first); it != delivery_log_.end(); ++it) {
    std::uint8_t seq[8];
    for (int i = 0; i < 8; ++i) seq[i] = static_cast<std::uint8_t>(it->first >> (8 * i));
    h = util::fnv1a(it->second, util::fnv1a(seq, h));
  }
  o.delivery_digest = h >> 1;
  o.zone_digest = util::fnv1a(server_.zone().to_wire()) >> 1;
  return o;
}

store::ZoneState ReplicaNode::make_store_state() const {
  store::ZoneState state;
  state.abcast_cursor = abcast_ ? abcast_->delivered_count() : deliveries_;
  state.deliveries = deliveries_;
  state.update_counter = update_counter_;
  state.zone_generation = zone_generation_value();
  state.zone_wire = server_.zone().to_wire();
  return state;
}

bool ReplicaNode::install_state(const store::ZoneState& state) {
  // The verifier already parsed the zone; install its stash instead of
  // re-parsing the wire (the second parse used to dominate a 1M-RRset cold
  // restart). rrset_count() == 0 means the stash was already consumed (or
  // holds a trivial zone) — re-parse rather than install a moved-from
  // object. The parse also covers stores opened without a verifier.
  if (const auto& cached = state.verified_zone; cached && cached->rrset_count() != 0) {
    server_.zone() = std::move(*cached);
  } else {
    try {
      server_.zone() = dns::Zone::from_wire(state.zone_wire);
    } catch (const util::ParseError&) {
      SDNS_LOG_WARN("replica ", secret_.id, ": zone state does not parse, ignoring it");
      return false;
    }
  }
  bump_zone_generation();
  notify_zone_committed();
  deliveries_ = state.deliveries;
  update_counter_ = state.update_counter;
  abcast_->fast_forward(state.abcast_cursor);
  return true;
}

void ReplicaNode::restore_from_store(const store::RecoveredState& recovered) {
  if (!recovered.usable() || config_.base_case || !abcast_) return;
  std::uint64_t cursor = 0;
  if (recovered.snapshot) {
    if (!install_state(*recovered.snapshot)) return;  // treat the disk as empty
    cursor = recovered.snapshot->abcast_cursor;
  }
  std::size_t replayed = 0;
  for (const store::WalRecord& rec : recovered.tail) {
    cursor = rec.seq + 1;
    if (rec.mark) {
      // Non-mutating delivery: the record carries the payload's abcast
      // digest, so the safety chain over the delivery log is rebuilt
      // byte-identically without re-running the read.
      abcast::Digest digest{};
      if (rec.payload.size() == digest.size()) {
        std::copy(rec.payload.begin(), rec.payload.end(), digest.begin());
        delivery_log_[rec.seq] = digest;
      }
      ++deliveries_;
      continue;
    }
    delivery_log_[rec.seq] = abcast::AtomicBroadcast::digest_of(rec.payload);
    exec_queue_.push_back(rec.payload);
    ++replayed;
  }
  abcast_->fast_forward(cursor);
  // Replayed operations answered their clients in a previous life; the
  // re-execution below must stay silent (see respond()). Signing sessions
  // re-run with the same deterministic ids, and peers that already finished
  // them answer our re-sent shares with the assembled final signature.
  suppress_responses_below_ = deliveries_ + exec_queue_.size();
  SDNS_LOG_INFO("replica ", secret_.id, ": disk-first restore to cursor ",
                cursor, ", replaying ", replayed, " logged operations");
  execute_next();
}

void ReplicaNode::install_zone_share(
    std::shared_ptr<const threshold::ThresholdPublicKey> pub,
    threshold::KeyShare share) {
  if (zone_key_) old_zone_keys_.push_back(zone_key_);
  zone_key_ = std::move(pub);
  zone_share_ = std::move(share);
  // Served records don't change, but signatures produced from here on come
  // from the refreshed share; treat it as a new signature generation.
  bump_zone_generation();
  notify_zone_committed();
}

void ReplicaNode::execute_next() {
  while (!executing_ && !exec_queue_.empty()) {
    executing_ = true;
    Bytes payload = std::move(exec_queue_.front());
    exec_queue_.pop_front();
    execute(payload);
    // execute() clears executing_ for synchronous operations; updates with
    // signature work leave it set until finish_batch().
  }
  // Idle between operations: the zone reflects exactly `deliveries_`
  // executed requests, so waiting peers get their snapshot and the store
  // may take a consistent one (only when its log-bytes threshold says one
  // is due).
  if (executing_ || !exec_queue_.empty()) return;
  serve_snapshot_waiters();
  if (!recovering_) store_->maybe_snapshot([this] { return make_store_state(); });
}

void ReplicaNode::execute(const Bytes& payload) {
  ++deliveries_;
  // Write-ahead invariant: everything appended up to and including this
  // payload becomes durable before its mutation applies. Group commit —
  // one fsync covers every record buffered since the last sync, e.g. a
  // whole update batch plus any payloads that queued behind an in-flight
  // signing session. No-op for non-mutating payloads and a clean log.
  if (payload_mutates(payload)) store_->sync();
  // A single payload carries one request; one that carries an update runs
  // as a batch of one, so every update takes the same path.
  UpdateBatch batch;
  bool single = false;
  try {
    Reader r(payload);
    const std::uint8_t tag = r.u8();
    if (tag != kPayloadSingle && tag != kPayloadBatch) {
      throw util::ParseError("bad payload tag");
    }
    single = tag == kPayloadSingle;
    const std::uint16_t count = single ? 1 : r.u16();
    batch.entries.reserve(count);
    for (std::uint16_t i = 0; i < count; ++i) {
      const ClientId client = r.u64();
      const Bytes wire = r.lp32();
      batch.entries.emplace_back(client, dns::Message::decode(wire));
    }
    r.expect_done();
  } catch (const util::ParseError&) {
    SDNS_LOG_DEBUG("replica ", secret_.id, ": undecodable request payload");
    executing_ = false;
    return;
  }
  if (single && batch.entries.front().second.opcode != dns::Opcode::kUpdate) {
    run_query(batch.entries.front().first, batch.entries.front().second);
    executing_ = false;
    return;
  }
  if (batch.entries.empty()) {
    executing_ = false;
    return;
  }
  current_batch_ = std::move(batch);
  continue_batch();
}

void ReplicaNode::continue_batch() {
  // Drive the batch's entries in order. An entry whose signing waits for
  // peer shares returns here with `next` unchanged; the arrival that
  // completes its last SIG (on_replica_message) advances it and calls back.
  UpdateBatch& batch = *current_batch_;
  while (batch.next < batch.entries.size()) {
    const auto& [client, request] = batch.entries[batch.next];
    if (request.opcode != dns::Opcode::kUpdate) {
      // A batch payload should only carry updates; execute anything else
      // deterministically anyway (a corrupt gateway controls the content).
      run_query(client, request);
    } else if (!run_update(client, request)) {
      return;  // suspended
    }
    ++batch.next;
  }
  finish_batch();
}

void ReplicaNode::finish_batch() {
  UpdateBatch batch = std::move(*current_batch_);
  current_batch_.reset();
  if (batch.dirty) notify_zone_committed();
  c_update_batches_->inc();
  h_update_batch_size_->observe(batch.entries.size());
  for (const auto& [client, response] : batch.responses) {
    respond(client, response);
  }
  executing_ = false;
  execute_next();
}

void ReplicaNode::run_query(ClientId client, const dns::Message& request) {
  c_reads_->inc();
  charge(threshold::CostEvent::kDnsQuery);
  respond(client, server_.answer_query(request));
}

bool ReplicaNode::run_update(ClientId client, const dns::Message& request) {
  c_updates_->inc();
  charge(threshold::CostEvent::kDnsUpdate);
  // Deterministic logical inception time shared by all replicas.
  const std::uint32_t inception =
      1'000'000 + static_cast<std::uint32_t>(update_counter_);
  ++update_counter_;
  dns::UpdateResult result = server_.apply_update(request, inception);
  UpdateBatch& batch = *current_batch_;
  // One generation bump per batch, at its first change: every cache entry
  // from before the batch is flushed before any replica can acknowledge
  // it, and cache_generation() keeps the answers given mid-batch uncached.
  if (result.rcode == dns::Rcode::kNoError && !batch.dirty) {
    batch.dirty = true;
    bump_zone_generation();
  }
  if (result.rcode != dns::Rcode::kNoError || result.sig_tasks.empty()) {
    batch.responses.emplace_back(
        client, dns::AuthoritativeServer::update_response(request, result.rcode));
    return true;
  }
  if (config_.base_case) {
    // Unmodified named: sign locally with the zone's private key.
    for (const auto& task : result.sig_tasks) {
      charge(threshold::CostEvent::kLocalSign);
      server_.install_signature(task, crypto::rsa_sign_sha1(*local_key_, task.data));
      c_signatures_->inc();
    }
    server_.finalize_journal();
    batch.responses.emplace_back(
        client, dns::AuthoritativeServer::update_response(request, dns::Rcode::kNoError));
    return true;
  }
  batch.tasks = std::move(result.sig_tasks);
  batch.next_task = 0;
  return sign_update();
}

bool ReplicaNode::sign_update() {
  UpdateBatch& batch = *current_batch_;
  // named computes SIG records sequentially (§5.2): one threshold session
  // per task. A session may complete inside start() (its shares were
  // buffered); its on_complete advances next_task and the loop goes on.
  while (batch.next_task < batch.tasks.size()) {
    start_signature(batch.next_task);
    if (!signing_->done()) return false;
  }
  signing_.reset();
  server_.finalize_journal();  // the diff now includes the fresh signatures
  batch.tasks.clear();
  const auto& [client, request] = batch.entries[batch.next];
  batch.responses.emplace_back(
      client, dns::AuthoritativeServer::update_response(request, dns::Rcode::kNoError));
  return true;
}

void ReplicaNode::start_signature(std::size_t index) {
  const dns::SigTask& task = current_batch_->tasks[index];
  const std::uint64_t sid = session_id(update_counter_, index);
  const bn::BigInt x = threshold::hash_to_element(*zone_key_, task.data);
  threshold::SessionCallbacks scb;
  scb.send_to_all = [this](const Bytes& m) {
    if (!cb_.send_replica) return;
    const Bytes framed = frame(kSigningFrame, m);
    for (unsigned i = 0; i < config_.n; ++i) {
      if (i != secret_.id) cb_.send_replica(i, framed);
    }
  };
  scb.charge = cb_.charge;
  scb.metrics = metrics_;
  scb.now = cb_.now;
  scb.on_complete = [this, index, sid](const bn::BigInt& y) {
    UpdateBatch& batch = *current_batch_;
    server_.install_signature(batch.tasks[index], threshold::signature_bytes(*zone_key_, y));
    c_signatures_->inc();
    last_finished_sid_ = sid;
    pending_signing_.erase(pending_signing_.begin(), pending_signing_.upper_bound(sid));
    finished_sigs_[sid] = y;
    while (finished_sigs_.size() > 128) finished_sigs_.erase(finished_sigs_.begin());
    batch.next_task = index + 1;
  };
  const threshold::ShareCorruption share_corruption =
      corruption_ == CorruptionMode::kFlipShares    ? threshold::ShareCorruption::kFlipShare
      : corruption_ == CorruptionMode::kMute        ? threshold::ShareCorruption::kMute
      : corruption_ == CorruptionMode::kGarbageShares
          ? threshold::ShareCorruption::kGarbage
          : threshold::ShareCorruption::kNone;
  signing_ = std::make_unique<threshold::SigningSession>(
      *zone_key_, zone_share_, config_.sig_protocol, sid, x, std::move(scb), rng_.fork(),
      share_corruption);
  signing_->start();
  // Shares are broadcast exactly once; a peer that was crashed or cut off at
  // that moment would wedge the session forever. Re-send this server's
  // contribution periodically until the session completes.
  if (cb_.set_timer) schedule_signing_resend(++signing_timer_gen_, sid);
  // Replay any shares that arrived before we reached this session.
  auto it = pending_signing_.find(sid);
  if (it != pending_signing_.end()) {
    auto buffered = std::move(it->second);
    pending_signing_.erase(it);
    for (const Bytes& m : buffered) {
      if (!signing_->done()) signing_->on_message(m);
    }
  }
}

void ReplicaNode::buffer_signing_message(std::uint64_t sid, BytesView body) {
  // Replicas run signatures sequentially and at different speeds, so shares
  // for a session this replica has not reached yet are kept for it — within
  // bounds, since any peer can name any sid. Only the next kRetainWindow
  // updates' sessions qualify (a replica further behind moves to state
  // transfer); past kMaxBufferedSessions the farthest session makes room;
  // each holds kBufferedPerPeer × n messages. Dropping is safe: peers
  // re-send shares on their resend timer and answer a share for a session
  // they finished with its final signature.
  if ((sid >> kSessionIndexBits) > update_counter_ + abcast::AtomicBroadcast::kRetainWindow) {
    return;
  }
  auto it = pending_signing_.find(sid);
  if (it == pending_signing_.end()) {
    if (pending_signing_.size() >= kMaxBufferedSessions) {
      const auto farthest = std::prev(pending_signing_.end());
      if (farthest->first < sid) return;
      pending_signing_.erase(farthest);
    }
    it = pending_signing_.try_emplace(sid).first;
  }
  if (it->second.size() < kBufferedPerPeer * config_.n) {
    it->second.emplace_back(body.begin(), body.end());
  }
}

std::size_t ReplicaNode::buffered_signing_messages() const {
  std::size_t total = 0;
  for (const auto& [sid, messages] : pending_signing_) total += messages.size();
  return total;
}

void ReplicaNode::schedule_signing_resend(std::uint64_t gen, std::uint64_t sid,
                                          unsigned attempts) {
  // Bounded so a session that can never complete (more than t corrupt or
  // crashed peers) does not keep the event queue alive forever.
  if (attempts >= 64) return;
  cb_.set_timer(config_.complaint_timeout, [this, gen, sid, attempts] {
    if (gen != signing_timer_gen_ || !signing_ || signing_->session_id() != sid) return;
    signing_->resend();
    if (!signing_->done()) schedule_signing_resend(gen, sid, attempts + 1);
  });
}

void ReplicaNode::bump_zone_generation() {
  // Release pairs with the acquire load in the frontend shards: by the time
  // a shard observes the new generation, the mutation that caused it has
  // already happened-before on this (the only mutating) thread.
  const auto next =
      zone_generation_.fetch_add(1, std::memory_order_release) + 1;
  metrics_->gauge("replica.zone_gen").set(static_cast<std::int64_t>(next));
}

void ReplicaNode::notify_zone_committed() {
  if (cb_.zone_committed) cb_.zone_committed(zone_generation_value());
}

void ReplicaNode::respond(ClientId client, const dns::Message& response) {
  // Boot replay after a disk-first restore: these operations' clients were
  // answered before the crash; re-executing must not answer again. Direct
  // reads arrive outside the execution pipeline (executing_ == false) and
  // are served normally throughout.
  if (executing_ && deliveries_ <= suppress_responses_below_) return;
  if (!cb_.send_client || corruption_ == CorruptionMode::kMute) return;
  Bytes wire = response.encode();
  if (corruption_ == CorruptionMode::kStaleReplay && !response.questions.empty() &&
      response.opcode == dns::Opcode::kQuery) {
    const std::string key = response.questions.front().name.canonical().to_string() +
                            "/" + dns::to_string(response.questions.front().type);
    auto [it, inserted] = stale_cache_.emplace(key, wire);
    if (!inserted) {
      // Replay the first response ever given, patched to the current id so
      // the client matches it to its request.
      try {
        dns::Message stale = dns::Message::decode(it->second);
        stale.id = response.id;
        wire = stale.encode();
      } catch (const util::ParseError&) {
      }
    }
  }
  cb_.send_client(client, wire);
}

}  // namespace sdns::core
