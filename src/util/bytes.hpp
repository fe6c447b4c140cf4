// Byte-buffer serialization primitives used by every wire format in the
// project (DNS messages, broadcast protocol messages, crypto encodings).
//
// Writer appends big-endian integers and raw bytes to a growable buffer.
// Reader consumes the same encodings and reports malformed input by throwing
// ParseError, which protocol code catches at the message boundary.
#pragma once

#include <cstdint>
#include <cstring>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace sdns::util {

using Bytes = std::vector<std::uint8_t>;
using BytesView = std::span<const std::uint8_t>;

/// Thrown by Reader (and by higher-level decoders) on malformed input.
class ParseError : public std::runtime_error {
 public:
  explicit ParseError(const std::string& what) : std::runtime_error(what) {}
};

/// 64-bit FNV-1a over `data`, continuing from `h` so several runs chain.
inline std::uint64_t fnv1a(BytesView data, std::uint64_t h = 1469598103934665603ULL) {
  for (const std::uint8_t b : data) {
    h ^= b;
    h *= 1099511628211ULL;
  }
  return h;
}

/// Append-only big-endian serializer.
class Writer {
 public:
  Writer() = default;
  explicit Writer(std::size_t reserve) { buf_.reserve(reserve); }

  void u8(std::uint8_t v) { buf_.push_back(v); }
  void u16(std::uint16_t v) {
    buf_.push_back(static_cast<std::uint8_t>(v >> 8));
    buf_.push_back(static_cast<std::uint8_t>(v));
  }
  void u32(std::uint32_t v) {
    for (int s = 24; s >= 0; s -= 8) buf_.push_back(static_cast<std::uint8_t>(v >> s));
  }
  void u64(std::uint64_t v) {
    for (int s = 56; s >= 0; s -= 8) buf_.push_back(static_cast<std::uint8_t>(v >> s));
  }
  void raw(BytesView b) { buf_.insert(buf_.end(), b.begin(), b.end()); }
  void raw(const void* p, std::size_t n) {
    const auto* c = static_cast<const std::uint8_t*>(p);
    buf_.insert(buf_.end(), c, c + n);
  }
  /// Length-prefixed (u16) byte string; throws if b is too long.
  void lp16(BytesView b) {
    if (b.size() > 0xffff) throw std::length_error("lp16: value too long");
    u16(static_cast<std::uint16_t>(b.size()));
    raw(b);
  }
  /// Length-prefixed (u32) byte string.
  void lp32(BytesView b) {
    if (b.size() > 0xffffffffULL) throw std::length_error("lp32: value too long");
    u32(static_cast<std::uint32_t>(b.size()));
    raw(b);
  }
  void str(std::string_view s) {
    lp32({reinterpret_cast<const std::uint8_t*>(s.data()), s.size()});
  }

  /// Patch a previously written u16 at absolute offset `at`.
  void patch_u16(std::size_t at, std::uint16_t v) {
    if (at + 2 > buf_.size()) throw std::out_of_range("patch_u16 out of range");
    buf_[at] = static_cast<std::uint8_t>(v >> 8);
    buf_[at + 1] = static_cast<std::uint8_t>(v);
  }

  std::size_t size() const { return buf_.size(); }
  const Bytes& bytes() const& { return buf_; }
  Bytes take() && { return std::move(buf_); }

 private:
  Bytes buf_;
};

/// Consuming big-endian deserializer over a non-owning view.
class Reader {
 public:
  explicit Reader(BytesView b) : data_(b) {}

  std::uint8_t u8() {
    need(1);
    return data_[pos_++];
  }
  std::uint16_t u16() {
    need(2);
    std::uint16_t v = static_cast<std::uint16_t>(data_[pos_] << 8 | data_[pos_ + 1]);
    pos_ += 2;
    return v;
  }
  std::uint32_t u32() {
    need(4);
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) v = v << 8 | data_[pos_ + i];
    pos_ += 4;
    return v;
  }
  std::uint64_t u64() {
    need(8);
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) v = v << 8 | data_[pos_ + i];
    pos_ += 8;
    return v;
  }
  BytesView raw(std::size_t n) {
    need(n);
    BytesView v = data_.subspan(pos_, n);
    pos_ += n;
    return v;
  }
  Bytes raw_copy(std::size_t n) {
    BytesView v = raw(n);
    return Bytes(v.begin(), v.end());
  }
  Bytes lp16() { return raw_copy(u16()); }
  Bytes lp32() { return raw_copy(u32()); }
  std::string str() {
    Bytes b = lp32();
    return std::string(b.begin(), b.end());
  }

  std::size_t pos() const { return pos_; }
  void seek(std::size_t p) {
    if (p > data_.size()) throw ParseError("seek past end");
    pos_ = p;
  }
  std::size_t remaining() const { return data_.size() - pos_; }
  bool done() const { return pos_ == data_.size(); }
  void expect_done() const {
    if (!done()) throw ParseError("trailing bytes after message");
  }
  BytesView whole() const { return data_; }

 private:
  void need(std::size_t n) const {
    if (pos_ + n > data_.size()) throw ParseError("truncated input");
  }
  BytesView data_;
  std::size_t pos_ = 0;
};

inline Bytes to_bytes(std::string_view s) {
  return Bytes(s.begin(), s.end());
}

inline std::string to_string(BytesView b) {
  return std::string(b.begin(), b.end());
}

bool constant_time_equal(BytesView a, BytesView b);

std::string hex_encode(BytesView b);
Bytes hex_decode(std::string_view hex);  // throws ParseError on bad input

}  // namespace sdns::util
