#include "common/sha1.h"

#include <bit>
#include <cstring>

namespace defrag {

namespace {
inline std::uint32_t load_be32(const std::uint8_t* p) {
  return (std::uint32_t{p[0]} << 24) | (std::uint32_t{p[1]} << 16) |
         (std::uint32_t{p[2]} << 8) | std::uint32_t{p[3]};
}

inline void store_be32(std::uint8_t* p, std::uint32_t v) {
  p[0] = static_cast<std::uint8_t>(v >> 24);
  p[1] = static_cast<std::uint8_t>(v >> 16);
  p[2] = static_cast<std::uint8_t>(v >> 8);
  p[3] = static_cast<std::uint8_t>(v);
}
}  // namespace

void Sha1::reset() {
  state_ = {0x67452301u, 0xEFCDAB89u, 0x98BADCFEu, 0x10325476u, 0xC3D2E1F0u};
  total_bytes_ = 0;
  buffered_ = 0;
}

void Sha1::process_block(const std::uint8_t* block) {
  std::uint32_t w[80];
  for (int i = 0; i < 16; ++i) w[i] = load_be32(block + 4 * i);
  for (int i = 16; i < 80; ++i) {
    w[i] = std::rotl(w[i - 3] ^ w[i - 8] ^ w[i - 14] ^ w[i - 16], 1);
  }

  std::uint32_t a = state_[0], b = state_[1], c = state_[2], d = state_[3],
                e = state_[4];

  for (int i = 0; i < 80; ++i) {
    std::uint32_t f, k;
    if (i < 20) {
      f = (b & c) | (~b & d);
      k = 0x5A827999u;
    } else if (i < 40) {
      f = b ^ c ^ d;
      k = 0x6ED9EBA1u;
    } else if (i < 60) {
      f = (b & c) | (b & d) | (c & d);
      k = 0x8F1BBCDCu;
    } else {
      f = b ^ c ^ d;
      k = 0xCA62C1D6u;
    }
    const std::uint32_t tmp = std::rotl(a, 5) + f + e + k + w[i];
    e = d;
    d = c;
    c = std::rotl(b, 30);
    b = a;
    a = tmp;
  }

  state_[0] += a;
  state_[1] += b;
  state_[2] += c;
  state_[3] += d;
  state_[4] += e;
}

void Sha1::update(ByteView data) {
  total_bytes_ += data.size();
  const std::uint8_t* p = data.data();
  std::size_t n = data.size();

  if (buffered_ > 0) {
    const std::size_t take = std::min(n, buffer_.size() - buffered_);
    std::memcpy(buffer_.data() + buffered_, p, take);
    buffered_ += take;
    p += take;
    n -= take;
    if (buffered_ == buffer_.size()) {
      process_block(buffer_.data());
      buffered_ = 0;
    }
  }
  while (n >= 64) {
    process_block(p);
    p += 64;
    n -= 64;
  }
  if (n > 0) {
    std::memcpy(buffer_.data(), p, n);
    buffered_ = n;
  }
}

Sha1::Digest Sha1::finish() {
  const std::uint64_t bit_len = total_bytes_ * 8;

  // Padding: 0x80, zeros, then the 64-bit big-endian bit length.
  std::uint8_t pad[72] = {0x80};
  const std::size_t rem = static_cast<std::size_t>(total_bytes_ % 64);
  const std::size_t pad_len = (rem < 56) ? (56 - rem) : (120 - rem);
  std::uint8_t len_be[8];
  for (int i = 0; i < 8; ++i) {
    len_be[i] = static_cast<std::uint8_t>(bit_len >> (56 - 8 * i));
  }
  update({pad, pad_len});
  update({len_be, 8});

  Digest out;
  for (std::size_t i = 0; i < 5; ++i) {
    store_be32(out.data() + 4 * i, state_[i]);
  }
  return out;
}

}  // namespace defrag
