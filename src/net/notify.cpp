#include "net/notify.hpp"

#include <unistd.h>

#include <algorithm>

#include "dns/xfr.hpp"
#include "util/log.hpp"

namespace sdns::net {

using util::Bytes;

Notifier::Notifier(EventLoop& loop, Options options,
                   std::function<std::optional<dns::ResourceRecord>()> current_soa)
    : loop_(loop), opt_(std::move(options)), current_soa_(std::move(current_soa)) {
  auto ctr = [this](const std::string& name) {
    return opt_.metrics ? &opt_.metrics->counter(name) : &obs::noop_counter();
  };
  c_sent_ = ctr("replica.notifies_sent");
  c_acks_ = ctr("replica.notify_acks");
  c_timeouts_ = ctr("replica.notify_timeouts");
  pending_.resize(opt_.edges.size());
}

Notifier::~Notifier() {
  if (debounce_timer_) loop_.cancel_timer(debounce_timer_);
  for (auto& p : pending_) {
    if (p.timer) loop_.cancel_timer(p.timer);
  }
  if (fd_ >= 0) loop_.del_fd(fd_);
}

void Notifier::start() {
  if (opt_.edges.empty()) return;
  fd_ = udp_bind(SockAddr{});  // ephemeral port; acks come back here
  loop_.add_fd(fd_, EventLoop::kReadable, [this](std::uint32_t) { on_readable(); });
}

void Notifier::on_commit() {
  if (opt_.edges.empty()) return;
  dirty_ = true;
  if (debounce_timer_) return;  // a round is already scheduled
  // The first commit after a quiet spell goes out at once; commits that
  // follow within `debounce` of a round share the next one.
  const double wait = last_round_ + opt_.debounce - loop_.now();
  if (wait <= 0) {
    fire_round();
    return;
  }
  debounce_timer_ = loop_.add_timer(wait, [this] {
    debounce_timer_ = 0;
    fire_round();
  });
}

void Notifier::fire_round() {
  if (!dirty_) return;
  dirty_ = false;
  last_round_ = loop_.now();
  ++round_;
  for (std::size_t i = 0; i < pending_.size(); ++i) {
    Pending& p = pending_[i];
    if (p.timer) {
      loop_.cancel_timer(p.timer);
      p.timer = 0;
    }
    p.id = next_id_++;
    if (next_id_ == 0) next_id_ = 1;
    p.attempts = 0;
    p.acked = false;
    p.round = round_;
    send_one(i);
  }
}

void Notifier::send_one(std::size_t idx) {
  Pending& p = pending_[idx];
  if (p.acked || p.round != round_) return;
  if (p.attempts >= opt_.max_attempts) {
    c_timeouts_->inc();
    return;
  }
  ++p.attempts;
  // A fresh SOA per (re)send: commits during the retry window mean the hint
  // should advertise the serial the edge will actually fetch.
  dns::ResourceRecord soa_rr;
  const dns::ResourceRecord* soa_ptr = nullptr;
  if (current_soa_) {
    if (auto soa = current_soa_()) {
      soa_rr = std::move(*soa);
      soa_ptr = &soa_rr;
    }
  }
  const Bytes wire = dns::make_notify(p.id, opt_.zone, soa_ptr).encode();
  const sockaddr_in sa = opt_.edges[idx].to_sockaddr();
  if (retry_sendto(fd_, wire.data(), wire.size(), 0,
                   reinterpret_cast<const sockaddr*>(&sa), sizeof sa) >= 0) {
    c_sent_->inc();
  }
  const double delay =
      opt_.retry_timeout * static_cast<double>(1u << std::min(p.attempts - 1, 6u));
  const std::uint64_t round = p.round;
  p.timer = loop_.add_timer(delay, [this, idx, round] {
    Pending& q = pending_[idx];
    q.timer = 0;
    if (q.round != round || q.acked) return;  // superseded or answered
    send_one(idx);
  });
}

void Notifier::on_readable() {
  std::uint8_t buf[4096];
  for (;;) {
    const ssize_t n = retry_recv(fd_, buf, sizeof buf, 0);
    if (n < 0) break;  // EAGAIN: drained
    if (n < 12) continue;
    dns::Message response;
    try {
      response = dns::Message::decode({buf, static_cast<std::size_t>(n)});
    } catch (const util::ParseError&) {
      continue;
    }
    // RFC 1996 §4.7: the ack is the NOTIFY echoed with qr set.
    if (!response.qr || response.opcode != dns::Opcode::kNotify) continue;
    for (auto& p : pending_) {
      if (p.acked || p.round != round_ || p.id != response.id) continue;
      p.acked = true;
      if (p.timer) {
        loop_.cancel_timer(p.timer);
        p.timer = 0;
      }
      c_acks_->inc();
      break;
    }
  }
}

}  // namespace sdns::net
