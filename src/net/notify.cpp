#include "net/notify.hpp"

#include <unistd.h>

#include <algorithm>

#include "dns/xfr.hpp"
#include "util/log.hpp"

namespace sdns::net {

using util::Bytes;

Notifier::Notifier(EventLoop& loop, Options options)
    : loop_(loop), opt_(std::move(options)) {
  auto ctr = [this](const std::string& name) {
    return opt_.metrics ? &opt_.metrics->counter(name) : &obs::noop_counter();
  };
  c_sent_ = ctr("replica.notifies_sent");
  c_acks_ = ctr("replica.notify_acks");
  c_timeouts_ = ctr("replica.notify_timeouts");
  pending_.resize(opt_.edges.size());
}

Notifier::~Notifier() {
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

void Notifier::on_commit(const dns::ResourceRecord& soa) {
  if (opt_.edges.empty()) return;
  soa_ = soa;
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
  if (p.attempts >= kMaxAttempts) {
    c_timeouts_->inc();
    return;
  }
  ++p.attempts;
  const Bytes wire = dns::make_notify(p.id, opt_.zone, &soa_).encode();
  const sockaddr_in sa = opt_.edges[idx].to_sockaddr();
  if (retry_sendto(fd_, wire.data(), wire.size(), 0,
                   reinterpret_cast<const sockaddr*>(&sa), sizeof sa) >= 0) {
    c_sent_->inc();
  }
  const double delay =
      kRetryTimeout * static_cast<double>(1u << std::min(p.attempts - 1, 6u));
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
