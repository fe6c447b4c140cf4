#include "net/frame.hpp"

#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>

#include "crypto/hmac.hpp"
#include "net/socket.hpp"

namespace sdns::net {

using util::Bytes;
using util::BytesView;
using util::Writer;

namespace {
/// Minimum meaningful DNS message: the 12-byte header.
constexpr std::size_t kDnsHeaderLen = 12;

/// Compact the consumed prefix away once it dominates the buffer.
void compact(Bytes& buf, std::size_t& consumed) {
  if (consumed > 4096 && consumed * 2 > buf.size()) {
    buf.erase(buf.begin(), buf.begin() + static_cast<std::ptrdiff_t>(consumed));
    consumed = 0;
  }
}
}  // namespace

// ---- DnsTcpDecoder --------------------------------------------------------

DnsTcpDecoder::DnsTcpDecoder(std::size_t max_message, std::size_t max_buffered)
    : max_message_(max_message ? max_message : 0xffff), max_buffered_(max_buffered) {}

bool DnsTcpDecoder::feed(BytesView data) {
  if (broken_) return false;
  if (buf_.size() - consumed_ + data.size() > max_buffered_) {
    broken_ = true;
    return false;
  }
  // Compact here rather than in next_view(): views handed out by
  // next_view() must survive until the following feed().
  compact(buf_, consumed_);
  buf_.insert(buf_.end(), data.begin(), data.end());
  // Validate the visible length prefix eagerly so an abusive length is
  // rejected before its payload is ever awaited.
  if (buf_.size() - consumed_ >= 2) {
    const std::size_t len =
        static_cast<std::size_t>(buf_[consumed_]) << 8 | buf_[consumed_ + 1];
    if (len < kDnsHeaderLen || len > max_message_) {
      broken_ = true;
      return false;
    }
  }
  return true;
}

std::optional<Bytes> DnsTcpDecoder::next() {
  const std::optional<BytesView> msg = next_view();
  if (!msg) return std::nullopt;
  return Bytes(msg->begin(), msg->end());
}

std::optional<BytesView> DnsTcpDecoder::next_view() {
  if (broken_) return std::nullopt;
  const std::size_t avail = buf_.size() - consumed_;
  if (avail < 2) return std::nullopt;
  const std::size_t len =
      static_cast<std::size_t>(buf_[consumed_]) << 8 | buf_[consumed_ + 1];
  if (len < kDnsHeaderLen || len > max_message_) {
    broken_ = true;
    return std::nullopt;
  }
  if (avail < 2 + len) return std::nullopt;
  BytesView msg(buf_.data() + consumed_ + 2, len);
  consumed_ += 2 + len;
  // A following frame's length prefix may now be visible and bogus; the
  // caller sees it via broken() on the next feed/next cycle.
  return msg;
}

Bytes DnsTcpDecoder::frame(BytesView msg) {
  Writer w(msg.size() + 2);
  w.lp16(msg);
  return std::move(w).take();
}

// ---- mesh crypto ----------------------------------------------------------

Bytes derive_link_key(BytesView mesh_secret, unsigned a, unsigned b) {
  Writer w;
  w.raw("link", 4);
  w.u16(static_cast<std::uint16_t>(std::min(a, b)));
  w.u16(static_cast<std::uint16_t>(std::max(a, b)));
  return crypto::hmac_sha256(mesh_secret, w.bytes());
}

Bytes derive_session_key(BytesView link_key, unsigned lower_id, BytesView lower_nonce,
                         BytesView higher_nonce) {
  Writer w;
  w.raw("sess", 4);
  w.u16(static_cast<std::uint16_t>(lower_id));
  w.raw(lower_nonce);
  w.raw(higher_nonce);
  return crypto::hmac_sha256(link_key, w.bytes());
}

namespace {
Bytes hello_mac_input(unsigned from, BytesView nonce) {
  Writer w;
  w.raw("hello", 5);
  w.u16(static_cast<std::uint16_t>(from));
  w.raw(nonce);
  return std::move(w).take();
}
}  // namespace

Bytes encode_hello(const MeshHello& hello, BytesView link_key) {
  Writer w;
  w.raw(kMeshMagic, sizeof kMeshMagic);
  w.u8(kMeshVersion);
  w.u16(static_cast<std::uint16_t>(hello.from));
  w.raw(hello.nonce);
  w.raw(crypto::hmac_sha256(link_key, hello_mac_input(hello.from, hello.nonce)));
  return std::move(w).take();
}

std::optional<MeshHello> decode_hello(
    BytesView payload, const std::function<Bytes(unsigned)>& link_key_for,
    std::optional<unsigned> expect_from) {
  constexpr std::size_t kLen = sizeof kMeshMagic + 1 + 2 + kMeshNonceLen + kMeshMacLen;
  if (payload.size() != kLen) return std::nullopt;
  util::Reader r(payload);
  const auto magic = r.raw(sizeof kMeshMagic);
  if (!std::equal(magic.begin(), magic.end(), kMeshMagic)) return std::nullopt;
  if (r.u8() != kMeshVersion) return std::nullopt;
  MeshHello hello;
  hello.from = r.u16();
  hello.nonce = r.raw_copy(kMeshNonceLen);
  const Bytes mac = r.raw_copy(kMeshMacLen);
  if (expect_from && hello.from != *expect_from) return std::nullopt;
  const Bytes want =
      crypto::hmac_sha256(link_key_for(hello.from),
                          hello_mac_input(hello.from, hello.nonce));
  if (!util::constant_time_equal(mac, want)) return std::nullopt;
  return hello;
}

namespace {
Bytes data_mac(BytesView session_key, unsigned from, unsigned to, std::uint64_t seq,
               BytesView body) {
  Writer w;
  w.u16(static_cast<std::uint16_t>(from));
  w.u16(static_cast<std::uint16_t>(to));
  w.u64(seq);
  w.raw(body);
  return crypto::hmac_sha256(session_key, w.bytes());
}
}  // namespace

Bytes encode_data_frame(BytesView session_key, unsigned from, unsigned to,
                        std::uint64_t seq, BytesView body) {
  Writer w(8 + body.size() + kMeshMacLen);
  w.u64(seq);
  w.raw(body);
  w.raw(data_mac(session_key, from, to, seq, body));
  return std::move(w).take();
}

std::optional<Bytes> decode_data_frame(BytesView session_key, unsigned from, unsigned to,
                                       std::uint64_t expected_seq, BytesView payload) {
  if (payload.size() < 8 + kMeshMacLen) return std::nullopt;
  util::Reader r(payload);
  const std::uint64_t seq = r.u64();
  if (seq != expected_seq) return std::nullopt;
  Bytes body = r.raw_copy(payload.size() - 8 - kMeshMacLen);
  const Bytes mac = r.raw_copy(kMeshMacLen);
  if (!util::constant_time_equal(mac, data_mac(session_key, from, to, seq, body))) {
    return std::nullopt;
  }
  return body;
}

// ---- MeshFrameDecoder -----------------------------------------------------

MeshFrameDecoder::MeshFrameDecoder(std::size_t max_frame) : max_frame_(max_frame) {}

bool MeshFrameDecoder::feed(BytesView data) {
  if (broken_) return false;
  buf_.insert(buf_.end(), data.begin(), data.end());
  if (buf_.size() - consumed_ >= 4) {
    std::size_t len = 0;
    for (int i = 0; i < 4; ++i) len = len << 8 | buf_[consumed_ + i];
    if (len > max_frame_) {
      broken_ = true;
      return false;
    }
  }
  return true;
}

std::optional<Bytes> MeshFrameDecoder::next() {
  if (broken_) return std::nullopt;
  const std::size_t avail = buf_.size() - consumed_;
  if (avail < 4) return std::nullopt;
  std::size_t len = 0;
  for (int i = 0; i < 4; ++i) len = len << 8 | buf_[consumed_ + i];
  if (len > max_frame_) {
    broken_ = true;
    return std::nullopt;
  }
  if (avail < 4 + len) return std::nullopt;
  Bytes payload(buf_.begin() + static_cast<std::ptrdiff_t>(consumed_ + 4),
                buf_.begin() + static_cast<std::ptrdiff_t>(consumed_ + 4 + len));
  consumed_ += 4 + len;
  compact(buf_, consumed_);
  return payload;
}

Bytes MeshFrameDecoder::frame(BytesView payload) {
  Writer w(payload.size() + 4);
  w.lp32(payload);
  return std::move(w).take();
}

// ---- WriteQueue -----------------------------------------------------------

bool WriteQueue::push(Bytes data) {
  if (data.empty()) return true;
  if (pending_ + data.size() > cap_) return false;
  pending_ += data.size();
  chunks_.push_back(std::move(data));
  return true;
}

bool WriteQueue::flush(int fd) {
  while (!chunks_.empty()) {
    const Bytes& front = chunks_.front();
    const std::size_t left = front.size() - head_offset_;
    const ssize_t n =
        retry_send(fd, front.data() + head_offset_, left, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return true;
      return false;
    }
    pending_ -= static_cast<std::size_t>(n);
    head_offset_ += static_cast<std::size_t>(n);
    if (head_offset_ == front.size()) {
      chunks_.pop_front();
      head_offset_ = 0;
    }
  }
  return true;
}

void WriteQueue::clear() {
  chunks_.clear();
  pending_ = 0;
  head_offset_ = 0;
}

}  // namespace sdns::net
