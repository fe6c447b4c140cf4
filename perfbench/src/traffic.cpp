#include "traffic.hpp"

#include <poll.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <ctime>
#include <deque>
#include <unordered_map>

#include "cluster.hpp"
#include "dns/dnssec.hpp"
#include "dns/edns.hpp"
#include "net/resolver.hpp"

namespace perfbench {

namespace dns = sdns::dns;
using sdns::net::SockAddr;
using sdns::util::Bytes;

namespace {

constexpr unsigned kBatch = 64;
constexpr std::size_t kMaxRecordedReads = 20000;
constexpr std::size_t kMaxWrongExamples = 5;
/// Every n-th checked DO-bit or NXDOMAIN answer also has its SIG verified.
constexpr std::uint64_t kSigVerifyEvery = 16;
/// Without check_all, every n-th answer is decoded in full.
constexpr std::uint64_t kSampleEvery = 8;
constexpr double kPollInterval = 0.003;
constexpr double kPollTimeout = 0.2;
/// After the send window, stragglers get this long before they fail.
constexpr double kDrainCap = kUpdateFailMs / 1000.0 + 1.0;

double ms(double s) { return s * 1e3; }

int open_udp() {
  const int fd = sdns::net::udp_bind(SockAddr::parse("127.0.0.1:0"));
  const int size = 8 << 20;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &size, sizeof size);
  ::setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &size, sizeof size);
  return fd;
}

std::uint16_t wire_id(const std::uint8_t* p) {
  return static_cast<std::uint16_t>(p[0] << 8 | p[1]);
}

void set_wire_id(Bytes& wire, std::uint16_t id) {
  wire[0] = static_cast<std::uint8_t>(id >> 8);
  wire[1] = static_cast<std::uint8_t>(id);
}

bool send_to(int fd, const Bytes& wire, const SockAddr& to) {
  const sockaddr_in sa = to.to_sockaddr();
  return sdns::net::retry_sendto(fd, wire.data(), wire.size(), 0,
                                 reinterpret_cast<const sockaddr*>(&sa),
                                 sizeof sa) == static_cast<ssize_t>(wire.size());
}

/// The RRset of `type` at `owner` in `section` plus the SIG covering it.
bool find_signed(const std::vector<dns::ResourceRecord>& section, const dns::Name& owner,
                 dns::RRType type, dns::RRset* rrset, std::optional<dns::SigRdata>* sig) {
  *rrset = dns::RRset{owner, type, 0, {}};
  for (const dns::ResourceRecord& rr : section) {
    if (!(rr.name == owner)) continue;
    if (rr.type == type) {
      rrset->ttl = rr.ttl;
      rrset->rdatas.push_back(rr.rdata);
    } else if (rr.type == dns::RRType::kSIG) {
      const dns::SigRdata s = dns::SigRdata::decode(rr.rdata);
      if (s.type_covered == type) *sig = s;
    }
  }
  return !rrset->rdatas.empty() && sig->has_value();
}

}  // namespace

Traffic::Traffic(const TrafficContext& ctx)
    : ctx_(ctx), origin_(dns::Name::parse(ctx.zone->origin)) {
  // Precise pacing: the default 50 us timer slack would smear every
  // scheduled send.
  ::prctl(PR_SET_TIMERSLACK, 1UL);
  for (std::size_t i = 0; i < ctx.zone->names.size(); ++i) {
    names_.push_back(dns::Name::parse(ctx.zone->fqdn(i)));
  }
  name_wires_.resize(names_.size() * 4 + 8);
  read_fd_ = open_udp();
  ctl_fd_ = open_udp();
}

Traffic::~Traffic() {
  if (read_fd_ >= 0) ::close(read_fd_);
  if (ctl_fd_ >= 0) ::close(ctl_fd_);
}

dns::Name Traffic::read_name(const ReadQuery& q) const {
  switch (q.kind) {
    case QueryKind::kName: return names_[q.index];
    case QueryKind::kNx: return dns::Name::parse(nx_label(ctx_.seed, q.index) + "." + ctx_.zone->origin);
    case QueryKind::kMx:
    case QueryKind::kNs: return origin_;
  }
  return origin_;
}

Bytes Traffic::read_wire(const ReadQuery& q) {
  const auto build = [&] {
    const dns::RRType type = q.kind == QueryKind::kMx   ? dns::RRType::kMX
                             : q.kind == QueryKind::kNs ? dns::RRType::kNS
                                                        : dns::RRType::kA;
    dns::Message m = dns::Message::make_query(0, read_name(q), type);
    dns::EdnsInfo edns;
    edns.udp_payload = q.udp_payload;
    edns.dnssec_ok = q.dnssec_ok;
    dns::set_edns(m, edns);
    return m.encode();
  };
  // Four wires per name: {4096, 1232} x {no DO, DO}.
  const std::size_t variant = (q.udp_payload == 4096 ? 0 : 2) + (q.dnssec_ok ? 1 : 0);
  const std::size_t tail = names_.size() * 4;
  std::size_t slot = 0;
  switch (q.kind) {
    case QueryKind::kNx: return build();  // fresh every time
    case QueryKind::kName: slot = q.index * 4 + variant; break;
    case QueryKind::kMx: slot = tail + variant; break;
    case QueryKind::kNs: slot = tail + 4 + variant; break;
  }
  if (name_wires_[slot].empty()) name_wires_[slot] = build();
  return name_wires_[slot];
}

dns::Name Traffic::update_name(std::uint32_t name) const {
  return dns::Name::parse(update_label(ctx_.seed, name) + "." + ctx_.zone->origin);
}

dns::Message Traffic::update_message(bool add, std::uint32_t name, std::uint16_t id,
                                     bool sign) const {
  dns::Message m;
  m.id = id;
  m.opcode = dns::Opcode::kUpdate;
  m.questions.push_back({origin_, dns::RRType::kSOA, dns::RRClass::kIN});
  dns::ResourceRecord rr;
  rr.name = update_name(name);
  rr.type = dns::RRType::kA;
  if (add) {
    rr.klass = dns::RRClass::kIN;
    rr.ttl = 300;
    rr.rdata = dns::ARdata{{10, 200, static_cast<std::uint8_t>(name / 250 % 250),
                            static_cast<std::uint8_t>(name % 250 + 1)}}
                   .encode();
  } else {
    rr.klass = dns::RRClass::kANY;  // RFC 2136 §2.5.2: delete the RRset
    rr.ttl = 0;
  }
  m.updates().push_back(rr);
  if (sign) dns::tsig_sign(m, ctx_.tsig, static_cast<std::uint64_t>(std::time(nullptr)));
  return m;
}

bool Traffic::check_answer(const ReadQuery& q, const dns::Message& r, bool verify_sig,
                           std::string* why) const {
  const auto fail = [&](const std::string& w) {
    if (why) *why = w;
    return false;
  };
  const dns::Name qname = read_name(q);
  if (!r.qr || r.questions.size() != 1 || !(r.questions[0].name == qname)) {
    return fail("question mismatch for " + qname.to_string());
  }
  try {
    dns::RRset rrset;
    std::optional<dns::SigRdata> sig;
    switch (q.kind) {
      case QueryKind::kName: {
        if (r.rcode != dns::Rcode::kNoError) {
          return fail(qname.to_string() + ": rcode " + dns::to_string(r.rcode));
        }
        if (!find_signed(r.answers, qname, dns::RRType::kA, &rrset, &sig)) {
          return fail(qname.to_string() + ": no signed A answer");
        }
        const Bytes want = dns::ARdata{ctx_.zone->names[q.index].address}.encode();
        if (rrset.rdatas.size() != 1 || rrset.rdatas[0] != want) {
          return fail(qname.to_string() + ": wrong address");
        }
        break;
      }
      case QueryKind::kNx: {
        if (r.rcode != dns::Rcode::kNxDomain) {
          return fail(qname.to_string() + ": rcode " + dns::to_string(r.rcode));
        }
        // The denial: an NXT whose owner sorts before qname and whose next
        // name sorts after it (or wraps to the apex).
        bool covered = false;
        for (const dns::ResourceRecord& rr : r.authority) {
          if (rr.type != dns::RRType::kNXT) continue;
          const dns::NxtRdata nxt = dns::NxtRdata::decode(rr.rdata);
          const bool after_owner = dns::Name::canonical_compare(rr.name, qname) < 0;
          const bool before_next = nxt.next == origin_ ||
                                   dns::Name::canonical_compare(qname, nxt.next) < 0;
          if (after_owner && before_next &&
              find_signed(r.authority, rr.name, dns::RRType::kNXT, &rrset, &sig)) {
            covered = true;
            break;
          }
        }
        if (!covered) return fail(qname.to_string() + ": no covering signed NXT");
        break;
      }
      case QueryKind::kMx: {
        if (r.rcode != dns::Rcode::kNoError ||
            !find_signed(r.answers, origin_, dns::RRType::kMX, &rrset, &sig)) {
          return fail("apex MX missing");
        }
        const dns::MxRdata mx = dns::MxRdata::decode(rrset.rdatas.at(0));
        if (rrset.rdatas.size() != 1 || mx.preference != 10 ||
            !(mx.exchange == dns::Name::parse("mail." + ctx_.zone->origin))) {
          return fail("apex MX wrong");
        }
        break;
      }
      case QueryKind::kNs:
        if (r.rcode != dns::Rcode::kNoError ||
            !find_signed(r.answers, origin_, dns::RRType::kNS, &rrset, &sig) ||
            rrset.rdatas.size() != 2) {
          return fail("apex NS wrong");
        }
        break;
    }
    if (verify_sig && !dns::verify_rrset_sig(rrset, *sig, ctx_.zone_key)) {
      return fail(qname.to_string() + ": SIG does not verify under the zone key");
    }
  } catch (const std::exception& e) {
    return fail(qname.to_string() + ": malformed answer: " + e.what());
  }
  return true;
}

PhaseResult Traffic::run(const PhasePlan& plan) {
  PhaseResult out;
  const double t0 = now_s();
  const double end = t0 + plan.seconds;
  out.window_s = plan.seconds;

  // ---- read state: one slot per DNS id on the read socket ----
  struct ReadSlot {
    double due = 0, sent = 0;
    ReadQuery q;
    std::uint32_t target = 0;
    std::uint64_t span = 0;
    std::uint32_t gen = 0;
    bool busy = false;
    bool full = false;
  };
  std::vector<ReadSlot> slots(65536);
  std::deque<std::pair<std::uint16_t, std::uint32_t>> fifo;  // (id, gen), send order
  std::uint64_t reads_due = 0;
  std::uint64_t checked = 0, sig_checks = 0;
  std::size_t busy_reads = 0;
  std::uint64_t events = 0;  ///< sends and answers handled, for busy_s

  const auto finish_read = [&](ReadSlot& s, double now, bool ok) {
    ++events;
    s.busy = false;
    --busy_reads;
    if (ok) {
      out.reads.ok(ms(now - s.due));
      ++out.reads_answered;
      out.reads_active_s = now - t0;
    } else {
      out.reads.failed();
    }
    if (plan.keep_spans) {
      out.spans.push_back({s.span, 'r', static_cast<int>(s.target), 0, s.due, s.sent, now, ok});
    }
  };

  // ---- update state ----
  struct UpdateOp {
    OpSpan span;
    bool closed_loop = false;  ///< the closed-loop client's, not a chained update
    bool in_flight = false;
    bool track = false;   ///< waiting for the edge to serve the change
    double next_poll = 0;
    bool poll_in_flight = false;
    double poll_sent = 0;
  };
  std::vector<UpdateOp> ops;
  std::unordered_map<std::uint16_t, std::pair<char, std::size_t>> ctl_inflight;
  std::size_t updates_in_flight = 0, tracking = 0;
  std::uint64_t gateway_rr = 0;
  bool client_busy = false;  ///< the closed-loop client has an update in flight
  std::optional<std::uint32_t> chain_delete;  ///< chained: the added name to delete next

  const auto start_update = [&](bool add, std::uint32_t name, double due, bool closed_loop) {
    ++events;
    UpdateOp op;
    op.closed_loop = closed_loop;
    op.span.id = next_span_++;
    op.span.kind = add ? 'a' : 'd';
    op.span.name = name;
    // Shift the rotation every round so adds and deletes, which alternate,
    // both visit every gateway.
    const std::size_t g = plan.gateways.size();
    op.span.target = static_cast<int>((gateway_rr + gateway_rr / g) % g);
    ++gateway_rr;
    op.span.due = due;
    const std::uint16_t id = next_ctl_id_++;
    const Bytes wire = update_message(add, name, id, true).encode();
    op.span.sent = now_s();
    op.in_flight = true;
    if (!send_to(ctl_fd_, wire, plan.gateways[static_cast<std::size_t>(op.span.target)])) {
      ++out.send_errors;
    }
    ctl_inflight[id] = {'u', ops.size()};
    ++updates_in_flight;
    if (closed_loop) client_busy = true;
    ops.push_back(op);
  };

  const auto finish_update = [&](std::size_t i, double now, bool ok) {
    ++events;
    UpdateOp& op = ops[i];
    op.in_flight = false;
    --updates_in_flight;
    op.span.done = now;
    op.span.ok = ok;
    const bool add = op.span.kind == 'a';
    LatencySet& set = add ? out.adds : out.dels;
    if (ok) {
      set.ok(ms(now - op.span.due));
      ++out.committed;
      last_write_ = LastWrite{add, op.span.name};
      if (add) {
        live_names_.insert(op.span.name);
      } else {
        live_names_.erase(op.span.name);
      }
      if (plan.edge) {
        op.track = true;
        op.next_poll = now + kPollInterval;
        ++tracking;
      }
      if (add && plan.chained_updates) chain_delete = op.span.name;
    } else {
      set.failed();
    }
    if (op.closed_loop) {
      client_busy = false;
      // Closed loop: a committed add is followed by its delete.
      if (add && ok && now < end) start_update(false, op.span.name, now, true);
    }
  };

  const auto finish_tracking = [&](UpdateOp& op, double now, bool seen) {
    op.track = false;
    --tracking;
    if (seen) {
      out.edge_lag.ok(ms(now - op.span.done));
    } else {
      out.edge_lag.failed();
    }
  };

  // ---- batched read sends ----
  std::vector<Bytes> batch_bufs(kBatch);
  std::vector<iovec> iovs(kBatch);
  std::vector<sockaddr_in> addrs(kBatch);
  std::vector<mmsghdr> msgs(kBatch);
  std::vector<sockaddr_in> target_addrs;
  for (const SockAddr& a : plan.read_targets) target_addrs.push_back(a.to_sockaddr());
  unsigned batched = 0;
  const auto flush_reads = [&] {
    unsigned done = 0;
    while (done < batched) {
      const int n = sdns::net::retry_sendmmsg(read_fd_, msgs.data() + done, batched - done, 0);
      if (n <= 0) break;
      done += static_cast<unsigned>(n);
    }
    // A refused datagram is an unanswered read: it fails at its timeout.
    out.send_errors += batched - done;
    batched = 0;
  };

  // ---- receive ----
  std::vector<std::array<std::uint8_t, 4096>> rbufs(kBatch);
  std::vector<iovec> riovs(kBatch);
  std::vector<mmsghdr> rmsgs(kBatch);
  for (unsigned i = 0; i < kBatch; ++i) {
    riovs[i] = {rbufs[i].data(), rbufs[i].size()};
    rmsgs[i] = {};
    rmsgs[i].msg_hdr.msg_iov = &riovs[i];
    rmsgs[i].msg_hdr.msg_iovlen = 1;
  }

  const auto on_read_answer = [&](const std::uint8_t* p, std::size_t len, double now) {
    if (len < 12) return;
    ReadSlot& s = slots[wire_id(p)];
    if (!s.busy) return;  // a straggler from a slot that already timed out
    bool ok = true;
    std::string why;
    if (s.full) {
      try {
        const dns::Message m = dns::Message::decode({p, len});
        const bool want_sig = (s.q.dnssec_ok || s.q.kind == QueryKind::kNx) &&
                              sig_checks++ % kSigVerifyEvery == 0;
        ok = check_answer(s.q, m, want_sig, &why);
      } catch (const std::exception& e) {
        ok = false;
        why = std::string("undecodable answer: ") + e.what();
      }
    } else {
      // Header only: QR set, the expected rcode, and an answer when one is due.
      const unsigned rcode = p[3] & 0x0F;
      const unsigned ancount = static_cast<unsigned>(p[6] << 8 | p[7]);
      const bool nx = s.q.kind == QueryKind::kNx;
      ok = (p[2] & 0x80) && rcode == (nx ? 3u : 0u) && (nx || ancount > 0);
      if (!ok) why = "bad header for " + read_name(s.q).to_string();
    }
    if (!ok) {
      ++out.wrong;
      if (out.wrong_examples.size() < kMaxWrongExamples) out.wrong_examples.push_back(why);
    }
    finish_read(s, now, ok);
  };

  const auto on_ctl_answer = [&](const std::uint8_t* p, std::size_t len, double now) {
    if (len < 12) return;
    ++events;
    const auto it = ctl_inflight.find(wire_id(p));
    if (it == ctl_inflight.end()) return;
    const auto [type, index] = it->second;
    ctl_inflight.erase(it);
    UpdateOp& op = ops[index];
    dns::Message m;
    try {
      m = dns::Message::decode({p, len});
    } catch (const std::exception&) {
      if (type != 'u') {
        op.poll_in_flight = false;
      } else if (op.in_flight) {
        finish_update(index, now, false);
      }
      return;
    }
    if (type == 'u') {
      // An answer after the update's timeout stays a failure.
      if (op.in_flight) {
        finish_update(index, now, m.opcode == dns::Opcode::kUpdate &&
                                      m.rcode == dns::Rcode::kNoError);
      }
      return;
    }
    op.poll_in_flight = false;
    if (!op.track) return;
    bool served = false;
    if (op.span.kind == 'a') {
      const dns::Name name = update_name(op.span.name);
      served = m.rcode == dns::Rcode::kNoError &&
               std::any_of(m.answers.begin(), m.answers.end(), [&](const auto& rr) {
                 return rr.type == dns::RRType::kA && rr.name == name;
               });
    } else {
      served = m.rcode == dns::Rcode::kNxDomain;
    }
    if (served) {
      finish_tracking(op, now, true);
    } else {
      op.next_poll = now + kPollInterval;
    }
  };

  const auto drain = [&](int fd, double now) {
    for (;;) {
      const int n = sdns::net::retry_recvmmsg(fd, rmsgs.data(), kBatch, MSG_DONTWAIT);
      if (n <= 0) return;
      for (int i = 0; i < n; ++i) {
        const std::uint8_t* p = rbufs[static_cast<std::size_t>(i)].data();
        const std::size_t len = rmsgs[static_cast<std::size_t>(i)].msg_len;
        if (fd == read_fd_) {
          on_read_answer(p, len, now);
        } else {
          on_ctl_answer(p, len, now);
        }
      }
      if (n < static_cast<int>(kBatch)) return;
    }
  };

  for (;;) {
    double now = now_s();
    const double iter_start = now;
    const std::uint64_t events_before = events;
    const bool window = now < end;

    // Open-loop reads, each stamped with the time it was due.
    if (plan.read_rate > 0 && window) {
      for (;;) {
        const double due = t0 + static_cast<double>(reads_due) / plan.read_rate;
        if (due > now || due >= end) break;
        ++reads_due;
        ++events;
        ReadQuery q = plan.reads->next();
        const std::uint16_t id = next_read_id_++;
        ReadSlot& s = slots[id];
        if (s.busy) finish_read(s, now, false);  // id reused while pending
        s.busy = true;
        ++busy_reads;
        s.gen++;
        s.q = q;
        s.due = due;
        s.target = static_cast<std::uint32_t>(reads_due % plan.read_targets.size());
        s.full = plan.check_all || checked++ % kSampleEvery == 0;
        s.span = plan.keep_spans ? next_span_++ : 0;
        fifo.emplace_back(id, s.gen);
        if (plan.record_reads && out.read_inputs.size() < kMaxRecordedReads) {
          out.read_inputs.push_back(q);
        }
        Bytes& buf = batch_bufs[batched];
        buf = read_wire(q);
        set_wire_id(buf, id);
        iovs[batched] = {buf.data(), buf.size()};
        addrs[batched] = target_addrs[s.target];
        msgs[batched] = {};
        msgs[batched].msg_hdr.msg_name = &addrs[batched];
        msgs[batched].msg_hdr.msg_namelen = sizeof(sockaddr_in);
        msgs[batched].msg_hdr.msg_iov = &iovs[batched];
        msgs[batched].msg_hdr.msg_iovlen = 1;
        ++out.reads_sent;
        s.sent = now;
        out.late_ms.push_back(ms(now - due));
        if (++batched == kBatch) flush_reads();
      }
      flush_reads();
    }

    // The closed-loop update client, when idle, starts its next add.
    if (plan.closed_loop_updates && window && !client_busy) {
      start_update(true, next_update_name_++, now_s(), true);
    }

    // Chained updates: the next leaves once the edge served the previous.
    if (plan.chained_updates && window && updates_in_flight == 0 && tracking == 0) {
      if (chain_delete) {
        start_update(false, *chain_delete, now_s(), false);
        chain_delete.reset();
      } else {
        start_update(true, next_update_name_++, now_s(), false);
      }
    }

    // Edge polls for committed updates the edge has not served yet.
    now = now_s();
    double next_event = window ? end : now + 0.001;
    for (UpdateOp& op : ops) {
      if (!op.track) continue;
      if (now - op.span.done > kUpdateFailMs / 1000.0) {
        finish_tracking(op, now, false);
        continue;
      }
      if (op.poll_in_flight && now - op.poll_sent > kPollTimeout) op.poll_in_flight = false;
      if (!op.poll_in_flight && now >= op.next_poll) {
        const std::uint16_t id = next_ctl_id_++;
        dns::Message q =
            dns::Message::make_query(id, update_name(op.span.name), dns::RRType::kA);
        dns::EdnsInfo edns;
        edns.udp_payload = 4096;
        dns::set_edns(q, edns);
        if (!send_to(ctl_fd_, q.encode(), *plan.edge)) ++out.send_errors;
        ++events;
        op.poll_in_flight = true;
        op.poll_sent = now;
        ctl_inflight[id] = {'p', static_cast<std::size_t>(&op - ops.data())};
      }
      next_event = std::min(next_event, op.next_poll);
    }

    // Timeouts.
    while (!fifo.empty()) {
      const auto [id, gen] = fifo.front();
      ReadSlot& s = slots[id];
      if (s.gen != gen || !s.busy) {
        fifo.pop_front();
        continue;
      }
      if (now - s.sent < plan.read_timeout_s) break;
      fifo.pop_front();
      finish_read(s, now, false);
    }
    if (updates_in_flight > 0) {
      for (std::size_t i = 0; i < ops.size(); ++i) {
        if (ops[i].in_flight && now - ops[i].span.sent > kUpdateFailMs / 1000.0) {
          finish_update(i, now, false);
        }
      }
    }

    if (!window && ((busy_reads == 0 && updates_in_flight == 0 && tracking == 0) ||
                    now > end + kDrainCap)) {
      break;
    }

    // Sleep until the next scheduled send or an answer arrives — except
    // while reads flow: then the driver spins on its own CPU, so a read's
    // latency never includes the driver waking up to receive it.
    const bool spin = plan.read_rate > 0 && window;
    const double wait = spin ? 0.0 : std::clamp(next_event - now, 0.0, 0.001);
    // An iteration that handled nothing was idle: it does not count as busy.
    if (events != events_before) out.busy_s += now_s() - iter_start;
    pollfd fds[2] = {{read_fd_, POLLIN, 0}, {ctl_fd_, POLLIN, 0}};
    const timespec ts{0, static_cast<long>(wait * 1e9)};
    ::ppoll(fds, 2, &ts, nullptr);
    now = now_s();
    const std::uint64_t events_polled = events;
    if (fds[0].revents & POLLIN) drain(read_fd_, now);
    if (fds[1].revents & POLLIN) drain(ctl_fd_, now);
    if (events != events_polled) out.busy_s += now_s() - now;
  }

  // Whatever is still pending after the drain cap failed.
  const double now = now_s();
  for (ReadSlot& s : slots) {
    if (s.busy) finish_read(s, now, false);
  }
  for (std::size_t i = 0; i < ops.size(); ++i) {
    if (ops[i].in_flight) finish_update(i, now, false);
    if (ops[i].track) finish_tracking(ops[i], now, false);
  }
  for (const UpdateOp& op : ops) {
    out.updates.push_back(op.span);
    if (plan.keep_spans) out.spans.push_back(op.span);
  }
  return out;
}

bool Traffic::quiesce(const std::vector<SockAddr>& servers, double timeout_s) const {
  const double deadline = now_s() + timeout_s;
  for (;;) {
    std::optional<std::uint32_t> serial;
    bool settled = true;
    for (const SockAddr& addr : servers) {
      sdns::net::StubResolver::Options ropt;
      ropt.servers = {addr};
      ropt.timeout = 0.5;
      ropt.attempts = 1;
      ropt.edns_payload = 4096;
      sdns::net::StubResolver resolver(ropt);
      const auto r = resolver.query(origin_, dns::RRType::kSOA);
      dns::RRset soa;
      std::optional<dns::SigRdata> sig;
      try {
        settled = r.ok && r.response.rcode == dns::Rcode::kNoError &&
                  find_signed(r.response.answers, origin_, dns::RRType::kSOA, &soa, &sig) &&
                  dns::verify_rrset_sig(soa, *sig, ctx_.zone_key);
      } catch (const std::exception&) {
        settled = false;
      }
      if (!settled) break;
      const std::uint32_t s = dns::SoaRdata::decode(soa.rdatas.at(0)).serial;
      if (serial && *serial != s) {
        settled = false;
        break;
      }
      serial = s;
    }
    if (settled) return true;
    if (now_s() > deadline) return false;
    ::usleep(20000);
  }
}

bool Traffic::commit(bool add, std::uint32_t name, const SockAddr& gateway) {
  const std::uint16_t id = next_ctl_id_++;
  if (!send_to(ctl_fd_, update_message(add, name, id, true).encode(), gateway)) return false;
  const double deadline = now_s() + kUpdateFailMs / 1000.0;
  while (now_s() < deadline) {
    pollfd fd{ctl_fd_, POLLIN, 0};
    if (::poll(&fd, 1, 50) <= 0) continue;
    std::array<std::uint8_t, 4096> buf;
    const ssize_t n = ::recv(ctl_fd_, buf.data(), buf.size(), MSG_DONTWAIT);
    if (n < 12 || wire_id(buf.data()) != id) continue;
    const dns::Message m = dns::Message::decode({buf.data(), static_cast<std::size_t>(n)});
    if (m.rcode != dns::Rcode::kNoError) return false;
    if (add) {
      live_names_.insert(name);
    } else {
      live_names_.erase(name);
    }
    last_write_ = LastWrite{add, name};
    return true;
  }
  return false;
}

bool Traffic::cleanup(const std::vector<SockAddr>& gateways) {
  bool ok = true;
  const std::set<std::uint32_t> left = live_names_;
  std::size_t g = 0;
  for (std::uint32_t name : left) {
    ok = commit(false, name, gateways[g++ % gateways.size()]) && ok;
  }
  return ok;
}

bool Traffic::flush_caches(const SockAddr& gateway) {
  if (flush_name_) {
    const std::uint32_t name = *flush_name_;
    flush_name_.reset();
    return commit(false, name, gateway);
  }
  flush_name_ = next_update_name_++;
  return commit(true, *flush_name_, gateway);
}

}  // namespace perfbench
