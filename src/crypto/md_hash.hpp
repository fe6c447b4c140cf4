// The Merkle–Damgård skeleton SHA-1 and SHA-256 share (FIPS 180): 64-byte
// blocks of big-endian 32-bit words, 0x80 padding, a big-endian 64-bit
// bit-length trailer, and the state words emitted big-endian as the digest.
// `Derived` supplies its initial state `kInit` and the compression function
// `process_block`, which folds one block into `h_`.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstring>

#include "util/bytes.hpp"

namespace sdns::crypto {

template <typename Derived, std::size_t kWords>
class MdHash {
 public:
  static constexpr std::size_t kDigestSize = kWords * 4;
  static constexpr std::size_t kBlockSize = 64;

  MdHash() { reset(); }

  void reset() {
    std::copy(std::begin(Derived::kInit), std::end(Derived::kInit), h_);
    buf_len_ = 0;
    total_len_ = 0;
  }

  void update(util::BytesView data) {
    total_len_ += data.size();
    std::size_t pos = 0;
    if (buf_len_ > 0) {
      const std::size_t take = std::min(kBlockSize - buf_len_, data.size());
      std::memcpy(buf_ + buf_len_, data.data(), take);
      buf_len_ += take;
      pos = take;
      if (buf_len_ == kBlockSize) {
        self().process_block(buf_);
        buf_len_ = 0;
      }
    }
    while (pos + kBlockSize <= data.size()) {
      self().process_block(data.data() + pos);
      pos += kBlockSize;
    }
    if (pos < data.size()) {
      std::memcpy(buf_, data.data() + pos, data.size() - pos);
      buf_len_ = data.size() - pos;
    }
  }

  std::array<std::uint8_t, kDigestSize> finish() {
    const std::uint64_t bit_len = total_len_ * 8;
    const std::uint8_t pad = 0x80;
    update({&pad, 1});
    const std::uint8_t zero = 0;
    while (buf_len_ != 56) update({&zero, 1});
    std::uint8_t len_be[8];
    for (int i = 0; i < 8; ++i) len_be[i] = static_cast<std::uint8_t>(bit_len >> (56 - 8 * i));
    update({len_be, 8});
    std::array<std::uint8_t, kDigestSize> out;
    for (std::size_t i = 0; i < kWords; ++i) {
      out[i * 4] = static_cast<std::uint8_t>(h_[i] >> 24);
      out[i * 4 + 1] = static_cast<std::uint8_t>(h_[i] >> 16);
      out[i * 4 + 2] = static_cast<std::uint8_t>(h_[i] >> 8);
      out[i * 4 + 3] = static_cast<std::uint8_t>(h_[i]);
    }
    reset();
    return out;
  }

  static util::Bytes digest(util::BytesView data) {
    Derived h;
    h.update(data);
    const auto d = h.finish();
    return util::Bytes(d.begin(), d.end());
  }

 protected:
  /// The first 16 message-schedule words: the block as big-endian words.
  static void load_words(const std::uint8_t* block, std::uint32_t* w) {
    for (int i = 0; i < 16; ++i) {
      w[i] = static_cast<std::uint32_t>(block[i * 4]) << 24 |
             static_cast<std::uint32_t>(block[i * 4 + 1]) << 16 |
             static_cast<std::uint32_t>(block[i * 4 + 2]) << 8 |
             static_cast<std::uint32_t>(block[i * 4 + 3]);
    }
  }

  std::uint32_t h_[kWords];

 private:
  Derived& self() { return static_cast<Derived&>(*this); }

  std::uint8_t buf_[kBlockSize];
  std::size_t buf_len_ = 0;
  std::uint64_t total_len_ = 0;
};

}  // namespace sdns::crypto
