// Shared helpers for test data generation.
#pragma once

#include <cstddef>
#include <cstdint>

#include "common/bytes.h"
#include "common/rng.h"

namespace defrag::testing {

inline Bytes random_bytes(std::size_t n, std::uint64_t seed) {
  Bytes b(n);
  Xoshiro256 rng(seed);
  rng.fill(b);
  return b;
}

/// A stream whose duplicates are deliberately scattered: 8 KiB slivers of
/// `old_stream` (stored long ago, in many containers), each followed by
/// 24 KiB of new data — every incoming segment then shares only a sliver
/// with any one stored segment, which is exactly the low-SPL regime.
inline Bytes fragmented_followup(const Bytes& old_stream, std::uint64_t seed) {
  Bytes out;
  out.reserve(old_stream.size());
  Xoshiro256 rng(seed);
  std::size_t old_pos = 0;
  while (old_pos + 8192 <= old_stream.size()) {
    const auto sliver =
        old_stream.begin() + static_cast<std::ptrdiff_t>(old_pos);
    out.insert(out.end(), sliver, sliver + 8192);
    old_pos += 8192 + 24576;  // skip far ahead in the old stream
    const std::size_t base = out.size();
    out.resize(base + 24576);
    rng.fill(MutableByteView{out.data() + base, 24576});
  }
  return out;
}

}  // namespace defrag::testing
