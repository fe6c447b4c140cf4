#include "core/replica.hpp"

#include <algorithm>
#include <memory>

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
/// Seconds before an unanswered batch round stops blocking the next one
/// (liveness backstop; see maybe_submit_updates). Generous: covers several
/// abcast epoch changes under churn without tripping on a healthy round.
constexpr double kBatchWatchdog = 5.0;

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
    const Bytes wire = r.lp32();
    return wire.size() >= 12 && ((wire[2] >> 3) & 0x0f) == 5;
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
      if (!cb_.send_replica) return;
      Writer w;
      w.u8(kAbcastFrame);
      w.raw(m);
      cb_.send_replica(to, std::move(w).take());
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
        cb_.set_timer(0.0, [this] { maybe_submit_updates(false); });
      }
    };
    acb.now = cb_.now;
    acb.set_timer = cb_.set_timer;
    acb.charge_message = cb_.charge_message;
    acb.charge_auth_sign = cb_.charge_auth_sign;
    acb.charge_auth_verify = cb_.charge_auth_verify;
    acb.charge_coin = cb_.charge_crypto;
    acb.metrics = metrics_;
    abcast::AtomicBroadcast::Options opt;
    opt.complaint_timeout = config_.complaint_timeout;
    opt.equivocate_as_leader = corruption_ == CorruptionMode::kEquivocate;
    abcast_ = std::make_unique<abcast::AtomicBroadcast>(std::move(group), secret_,
                                                        std::move(acb), opt, rng_.fork());
  }
}

void ReplicaNode::on_client_request(ClientId client, BytesView wire) {
  if (cb_.charge_message) cb_.charge_message();
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
  const bool is_update = wire.size() >= 12 && ((wire[2] >> 3) & 0x0f) == 5;
  if (is_update) {
    update_queue_.emplace_back(client, Bytes(wire.begin(), wire.end()));
    maybe_submit_updates(false);
    return;
  }
  abcast_->submit(encode_payload(client, wire));
}

void ReplicaNode::maybe_submit_updates(bool window_elapsed) {
  if (!abcast_) return;
  while (!update_queue_.empty() && !batch_in_flight_) {
    const std::size_t cap = std::max<std::size_t>(1, config_.update_batch_max);
    // A positive window delays the first submit so a burst can gather; an
    // update that queued behind an in-flight round never waits again (the
    // round itself was the window).
    if (!window_elapsed && config_.update_batch_window > 0 && cb_.set_timer &&
        update_queue_.size() < cap) {
      if (!batch_timer_armed_) {
        batch_timer_armed_ = true;
        cb_.set_timer(config_.update_batch_window, [this] {
          batch_timer_armed_ = false;
          maybe_submit_updates(true);
        });
      }
      return;
    }
    const std::size_t count = std::min(cap, update_queue_.size());
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
          maybe_submit_updates(false);
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
    if (cb_.charge_message) cb_.charge_message();
    const auto sid = threshold::SigningSession::peek_session_id(body);
    if (!sid) return;
    if (signing_ && signing_->session_id() == *sid) {
      signing_->on_message(body);
      return;
    }
    // Session not (yet) active here: replicas run signatures sequentially
    // and at different speeds, so buffer messages for future sessions.
    if (*sid > last_finished_sid_) {
      auto& queue = pending_signing_[*sid];
      if (queue.size() < 4096) queue.emplace_back(body.begin(), body.end());
      return;
    }
    // A peer is re-sending shares for a session we already finished — it
    // missed the final-signature broadcast (crash or partition). Answer with
    // the assembled signature so it can complete.
    if (!threshold::SigningSession::is_share_message(body)) return;
    auto done = finished_sigs_.find(*sid);
    if (done != finished_sigs_.end() && cb_.send_replica &&
        corruption_ != CorruptionMode::kMute) {
      Writer w;
      w.u8(kSigningFrame);
      w.raw(threshold::SigningSession::encode_final(*sid, done->second));
      cb_.send_replica(from, std::move(w).take());
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
  recovery_snapshots_.clear();
  recovery_current_acks_.clear();
  // The request carries our delivered cursor: a disk-first restart is
  // usually already current, and peers that are not ahead answer with a
  // tiny ack instead of shipping the whole zone.
  Writer w;
  w.u8(kSnapshotRequestFrame);
  w.u64(abcast_->delivered_count());
  const Bytes msg = std::move(w).take();
  for (unsigned i = 0; i < config_.n; ++i) {
    if (i != secret_.id) cb_.send_replica(i, msg);
  }
}

void ReplicaNode::handle_snapshot_request(unsigned from, BytesView body) {
  if (corruption_ == CorruptionMode::kMute) return;
  if (!abcast_ || !cb_.send_replica) return;
  // Cursor hint: when the requester is already at (or ahead of) our
  // delivered cursor there is nothing to transfer — confirm with a
  // "current" ack. Pre-hint requests (empty body) always get a snapshot.
  if (!body.empty()) {
    std::uint64_t hint = 0;
    try {
      Reader r(body);
      hint = r.u64();
      r.expect_done();
    } catch (const util::ParseError&) {
      return;
    }
    if (abcast_->delivered_count() <= hint) {
      Writer w;
      w.u8(kSnapshotCurrentFrame);
      w.u64(abcast_->delivered_count());
      cb_.send_replica(from, std::move(w).take());
      return;
    }
  }
  // Only serve a consistent point: between operations, with the execution
  // queue drained, the zone reflects exactly `deliveries_` executed requests.
  if (executing_ || !exec_queue_.empty()) return;
  Writer w;
  w.u8(kSnapshotFrame);
  w.u64(abcast_->delivered_count());
  w.u64(deliveries_);
  w.u64(update_counter_);
  w.lp32(server_.zone().to_wire());
  cb_.send_replica(from, std::move(w).take());
}

void ReplicaNode::handle_snapshot_current(unsigned from, BytesView body) {
  if (!recovering_) return;
  std::uint64_t cursor = 0;
  try {
    Reader r(body);
    cursor = r.u64();
    r.expect_done();
  } catch (const util::ParseError&) {
    return;
  }
  recovery_current_acks_[from] = cursor;
  try_finish_recovery();
}

void ReplicaNode::handle_snapshot(unsigned from, BytesView body) {
  if (!recovering_) return;
  try {
    Reader r(body);
    Snapshot snap;
    snap.abcast_cursor = r.u64();
    snap.deliveries = r.u64();
    snap.update_counter = r.u64();
    snap.zone_wire = r.lp32();
    r.expect_done();
    recovery_snapshots_[from] = std::move(snap);
  } catch (const util::ParseError&) {
    return;
  }
  try_finish_recovery();
}

void ReplicaNode::try_finish_recovery() {
  // Verify candidates; a snapshot counts once it passes full DNSSEC zone
  // verification under the dealt zone key (signed zones) or at face value
  // for unsigned ones, where freshness is established by t+1 agreeing on
  // (cursor, zone) instead. Pinning the key matters: a zone self-signed
  // under a key a Byzantine peer made up verifies against its own apex KEY.
  std::vector<std::pair<unsigned, const Snapshot*>> valid;
  // Keep each candidate's parsed zone so the adopted one installs by move
  // instead of being parsed a second time (candidate count is at most n).
  std::map<const Snapshot*, dns::Zone> parsed;
  const bool zone_signed = server_.zone_is_signed();
  const crypto::RsaPublicKey trusted =
      zone_signed ? zone_key_->rsa() : crypto::RsaPublicKey{};
  for (const auto& [from, snap] : recovery_snapshots_) {
    try {
      dns::Zone zone = dns::Zone::from_wire(snap.zone_wire);
      if (zone_signed && !dns::verify_zone(zone, trusted).ok) continue;
      valid.push_back({from, &snap});
      parsed.emplace(&snap, std::move(zone));
    } catch (const util::ParseError&) {
    }
  }
  // A "current" ack counts toward the response quorum: the acking peer
  // compared its cursor against ours and found nothing to transfer. With at
  // most t faulty replicas, t+1 responses contain an honest one.
  const std::size_t quorum = static_cast<std::size_t>(config_.t) + 1;
  if (valid.size() + recovery_current_acks_.size() < quorum) return;
  const Snapshot* best = nullptr;
  if (zone_signed) {
    // Signed zone: any verified snapshot is authentic; take the freshest.
    for (const auto& [from, snap] : valid) {
      if (!best || snap->abcast_cursor > best->abcast_cursor) best = snap;
    }
  } else {
    // Unsigned zone: require t+1 identical snapshots (majority evidence).
    std::map<std::string, std::pair<unsigned, const Snapshot*>> votes;
    for (const auto& [from, snap] : valid) {
      Writer key;
      key.u64(snap->abcast_cursor);
      key.lp32(snap->zone_wire);
      auto& entry = votes[util::to_string(key.bytes())];
      entry.first += 1;
      entry.second = snap;
      if (entry.first >= config_.t + 1) best = snap;
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
  if (const auto it = parsed.find(best); it != parsed.end()) {
    server_.zone() = std::move(it->second);
  } else {
    server_.zone() = dns::Zone::from_wire(best->zone_wire);
  }
  bump_zone_generation();
  deliveries_ = best->deliveries;
  update_counter_ = best->update_counter;
  abcast_->fast_forward(best->abcast_cursor);
  // Whatever was mid-execution was computed against the pre-snapshot state;
  // the snapshot already contains those operations' effects. Drop the
  // execution pipeline and any in-flight signing work.
  exec_queue_.clear();
  executing_ = false;
  current_update_.reset();
  current_batch_.reset();
  // fast_forward may have skipped the delivery that would have cleared the
  // in-flight flag; leave it set and queued updates would wait forever.
  batch_in_flight_ = false;
  in_flight_digest_.reset();
  retired_session_ = std::move(signing_);
  ++signing_timer_gen_;
  pending_signing_.clear();
  recovering_ = false;
  recovery_snapshots_.clear();
  recovery_current_acks_.clear();
  // Adoption abandoned any boot replay in progress; nothing left to mute.
  suppress_responses_below_ = 0;
  // The WAL's history no longer leads to this state — re-anchor the disk
  // with an unconditional snapshot so the next restart recovers to here.
  store_->checkpoint([this] { return make_store_state(); });
  ++recoveries_completed_;
  c_recoveries_->inc();
  SDNS_LOG_INFO("replica ", secret_.id, ": recovered to delivery cursor ",
                best->abcast_cursor);
  maybe_submit_updates(false);
}

void ReplicaNode::stand_down_recovery(const char* why) {
  recovering_ = false;
  recovery_snapshots_.clear();
  recovery_current_acks_.clear();
  c_recovery_standdowns_->inc();
  SDNS_LOG_INFO("replica ", secret_.id, ": recovery stand-down at cursor ",
                abcast_ ? abcast_->delivered_count() : 0, ": ", why);
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

void ReplicaNode::restore_from_store(const store::RecoveredState& recovered) {
  if (!recovered.usable() || config_.base_case || !abcast_) return;
  std::uint64_t cursor = 0;
  if (recovered.snapshot) {
    const store::ZoneState& snap = *recovered.snapshot;
    // The snapshot verifier already parsed the zone; install its stash
    // instead of re-parsing the wire (the second parse used to dominate a
    // 1M-RRset cold restart). The fallback parse covers stores opened with
    // a null or stash-less verifier.
    const std::shared_ptr<dns::Zone>& cached = snap.verified_zone;
    if (cached && cached->rrset_count() != 0) {
      // rrset_count() == 0 means the stash was already consumed (or holds a
      // trivial zone) — re-parse rather than install a moved-from object.
      server_.zone() = std::move(*cached);
    } else {
      try {
        server_.zone() = dns::Zone::from_wire(snap.zone_wire);
      } catch (const util::ParseError&) {
        // The store verified the snapshot already; an unparseable zone here
        // means the verifier was disabled. Treat the disk as empty.
        SDNS_LOG_WARN("replica ", secret_.id,
                      ": recovered snapshot zone does not parse, ignoring disk");
        return;
      }
    }
    deliveries_ = snap.deliveries;
    update_counter_ = snap.update_counter;
    cursor = snap.abcast_cursor;
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
  bump_zone_generation();
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
}

void ReplicaNode::execute_next() {
  while (!executing_ && !exec_queue_.empty()) {
    executing_ = true;
    Bytes payload = std::move(exec_queue_.front());
    exec_queue_.pop_front();
    execute(payload);
    // execute() clears executing_ for synchronous operations; updates with
    // signature work leave it set until finish_update().
  }
  // Idle between operations: the zone reflects exactly `deliveries_`
  // executed requests, so the store may take a consistent snapshot (it
  // does only when its log-bytes threshold says one is due).
  if (!executing_ && exec_queue_.empty() && !recovering_) {
    store_->maybe_snapshot([this] { return make_store_state(); });
  }
}

void ReplicaNode::execute(const Bytes& payload) {
  ++deliveries_;
  // Write-ahead invariant: everything appended up to and including this
  // payload becomes durable before its mutation applies. Group commit —
  // one fsync covers every record buffered since the last sync, e.g. a
  // whole update batch plus any payloads that queued behind an in-flight
  // signing session. No-op for non-mutating payloads and a clean log.
  if (payload_mutates(payload)) store_->sync();
  ClientId client = 0;
  dns::Message request;
  try {
    Reader r(payload);
    const std::uint8_t tag = r.u8();
    if (tag == kPayloadBatch) {
      UpdateBatch batch;
      const std::uint16_t count = r.u16();
      batch.entries.reserve(count);
      for (std::uint16_t i = 0; i < count; ++i) {
        const ClientId entry_client = r.u64();
        const Bytes wire = r.lp32();
        batch.entries.emplace_back(entry_client, dns::Message::decode(wire));
      }
      r.expect_done();
      if (batch.entries.empty()) {
        executing_ = false;
        return;
      }
      current_batch_ = std::move(batch);
      continue_batch();
      return;
    }
    if (tag != kPayloadSingle) throw util::ParseError("bad payload tag");
    client = r.u64();
    const Bytes wire = r.lp32();
    r.expect_done();
    request = dns::Message::decode(wire);
  } catch (const util::ParseError&) {
    SDNS_LOG_DEBUG("replica ", secret_.id, ": undecodable request payload");
    executing_ = false;
    return;
  }
  if (request.opcode == dns::Opcode::kUpdate) {
    run_update(client, request);
  } else {
    run_query(client, request);
    executing_ = false;
  }
}

void ReplicaNode::continue_batch() {
  // Drive the batch's entries in order. An entry whose signing work is
  // asynchronous leaves `next` unchanged until finish_update() advances it
  // (via complete_update), which re-enters this loop.
  while (current_batch_ && current_batch_->next < current_batch_->entries.size()) {
    const std::size_t before = current_batch_->next;
    const auto& entry = current_batch_->entries[before];
    batch_stepping_ = true;
    if (entry.second.opcode == dns::Opcode::kUpdate) {
      run_update(entry.first, entry.second);
    } else {
      // A batch payload should only carry updates; execute anything else
      // deterministically anyway (a corrupt gateway controls the content).
      run_query(entry.first, entry.second);
      ++current_batch_->next;
    }
    batch_stepping_ = false;
    if (current_batch_ && current_batch_->next == before) return;  // suspended
  }
  if (current_batch_) finish_batch();
}

void ReplicaNode::finish_batch() {
  UpdateBatch batch = std::move(*current_batch_);
  current_batch_.reset();
  // One generation bump covers every mutation in the batch. Mid-batch
  // reads were answered with new content under the old generation — those
  // cache entries flush right here, before any update response below can
  // tell a client its write is done, so the no-stale invariant holds.
  if (batch.dirty) bump_zone_generation();
  c_update_batches_->inc();
  h_update_batch_size_->observe(batch.entries.size());
  for (const auto& [client, response] : batch.responses) {
    respond(client, response);
  }
  executing_ = false;
  execute_next();
}

void ReplicaNode::complete_update() {
  if (current_batch_) {
    ++current_batch_->next;
    // Inside the continue_batch loop the step counter is enough; from an
    // asynchronous finish_update the loop must be re-entered.
    if (!batch_stepping_) continue_batch();
    return;
  }
  executing_ = false;
  execute_next();
}

void ReplicaNode::note_zone_mutated() {
  if (current_batch_) {
    current_batch_->dirty = true;
    return;
  }
  bump_zone_generation();
}

void ReplicaNode::respond_update(ClientId client, const dns::Message& response) {
  if (current_batch_) {
    current_batch_->responses.emplace_back(client, response);
    return;
  }
  respond(client, response);
}

void ReplicaNode::run_query(ClientId client, const dns::Message& request) {
  ++executed_reads_;
  c_reads_->inc();
  if (cb_.charge_dns_query) cb_.charge_dns_query();
  respond(client, server_.answer_query(request));
}

void ReplicaNode::run_update(ClientId client, const dns::Message& request) {
  ++executed_updates_;
  c_updates_->inc();
  if (cb_.charge_dns_update) cb_.charge_dns_update();
  // Deterministic logical inception time shared by all replicas.
  const std::uint32_t inception =
      1'000'000 + static_cast<std::uint32_t>(update_counter_);
  ++update_counter_;
  dns::UpdateResult result = server_.apply_update(request, inception);
  // The generation must be ahead of any response computed against the new
  // zone, so bump before responding — a frontend shard can then never stamp
  // a fresh answer with a stale generation. Inside a batch both the bump
  // and the responses are deferred to finish_batch(), which preserves the
  // same ordering at batch granularity.
  if (result.rcode == dns::Rcode::kNoError) note_zone_mutated();
  if (result.rcode != dns::Rcode::kNoError || result.sig_tasks.empty()) {
    respond_update(client,
                   dns::AuthoritativeServer::update_response(request, result.rcode));
    complete_update();
    return;
  }
  if (config_.base_case) {
    // Unmodified named: sign locally with the zone's private key.
    for (const auto& task : result.sig_tasks) {
      if (cb_.charge_local_sign) cb_.charge_local_sign();
      server_.install_signature(task, crypto::rsa_sign_sha1(*local_key_, task.data));
      ++signatures_computed_;
      c_signatures_->inc();
    }
    server_.finalize_journal();
    note_zone_mutated();
    respond_update(client, dns::AuthoritativeServer::update_response(
                               request, dns::Rcode::kNoError));
    complete_update();
    return;
  }
  current_update_ = PendingUpdate{client, request, std::move(result.sig_tasks), 0};
  start_next_signature();
}

void ReplicaNode::start_next_signature() {
  PendingUpdate& update = *current_update_;
  const std::size_t index = update.next_task;
  const dns::SigTask& task = update.tasks[index];
  // Session ids are derived from the deterministic execution sequence, so
  // every replica runs the same session for the same SIG record.
  const std::uint64_t sid = (update_counter_ << 8) | index;
  const bn::BigInt x = threshold::hash_to_element(*zone_key_, task.data);
  threshold::SessionCallbacks scb;
  scb.send_to_all = [this](const Bytes& m) {
    if (!cb_.send_replica) return;
    Writer w;
    w.u8(kSigningFrame);
    w.raw(m);
    const Bytes framed = std::move(w).take();
    for (unsigned i = 0; i < config_.n; ++i) {
      if (i != secret_.id) cb_.send_replica(i, framed);
    }
  };
  scb.charge = cb_.charge_crypto;
  scb.metrics = metrics_;
  scb.now = cb_.now;
  scb.on_complete = [this, index](const bn::BigInt& y) {
    PendingUpdate& u = *current_update_;
    server_.install_signature(u.tasks[index], threshold::signature_bytes(*zone_key_, y));
    note_zone_mutated();
    ++signatures_computed_;
    c_signatures_->inc();
    last_finished_sid_ = signing_->session_id();
    pending_signing_.erase(last_finished_sid_);
    finished_sigs_[last_finished_sid_] = y;
    while (finished_sigs_.size() > 128) finished_sigs_.erase(finished_sigs_.begin());
    ++u.next_task;
    if (u.next_task < u.tasks.size()) {
      // named computes SIG records sequentially (§5.2).
      start_next_signature();
    } else {
      finish_update();
    }
  };
  const threshold::ShareCorruption share_corruption =
      corruption_ == CorruptionMode::kFlipShares    ? threshold::ShareCorruption::kFlipShare
      : corruption_ == CorruptionMode::kMute        ? threshold::ShareCorruption::kMute
      : corruption_ == CorruptionMode::kGarbageShares
          ? threshold::ShareCorruption::kGarbage
          : threshold::ShareCorruption::kNone;
  // The transition runs inside the previous session's completion callback;
  // retire it instead of destroying it out from under itself.
  retired_session_ = std::move(signing_);
  signing_ = std::make_unique<threshold::SigningSession>(
      *zone_key_, zone_share_, config_.sig_protocol, sid, x, std::move(scb), rng_.fork(),
      share_corruption);
  signing_->start();
  arm_signing_timer();
  // Replay any shares that arrived before we reached this session.
  auto it = pending_signing_.find(sid);
  if (it != pending_signing_.end()) {
    auto buffered = std::move(it->second);
    pending_signing_.erase(it);
    for (const Bytes& m : buffered) {
      if (signing_ && signing_->session_id() == sid && !signing_->done()) {
        signing_->on_message(m);
      }
    }
  }
}

void ReplicaNode::arm_signing_timer() {
  if (!cb_.set_timer || !signing_) return;
  // Shares are broadcast exactly once; a peer that was crashed or cut off at
  // that moment would wedge the session forever. Re-send this server's
  // contribution periodically until the session completes (then once more,
  // as the final signature, for stragglers).
  schedule_signing_resend(++signing_timer_gen_, signing_->session_id());
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

void ReplicaNode::finish_update() {
  server_.finalize_journal();  // the diff now includes the fresh signatures
  PendingUpdate update = std::move(*current_update_);
  current_update_.reset();
  retired_session_ = std::move(signing_);
  respond_update(update.client,
                 dns::AuthoritativeServer::update_response(update.request,
                                                           dns::Rcode::kNoError));
  complete_update();
}

void ReplicaNode::bump_zone_generation() {
  // Release pairs with the acquire load in the frontend shards: by the time
  // a shard observes the new generation, the mutation that caused it has
  // already happened-before on this (the only mutating) thread.
  const auto next =
      zone_generation_.fetch_add(1, std::memory_order_release) + 1;
  metrics_->gauge("replica.zone_gen").set(static_cast<std::int64_t>(next));
  if (cb_.zone_committed) cb_.zone_committed(next);
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
