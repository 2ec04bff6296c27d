// Differential tests for the SIMD gear-scan kernel: AVX-512, the one wide
// kernel, must be bit-identical to the scalar reference at any region
// length, alignment and mask — boundary index AND rolling-hash state.
#include "chunking/gear_simd.h"

#include <gtest/gtest.h>

#include <vector>

#include "chunking/gear.h"
#include "common/cpu.h"
#include "testing/data.h"

namespace defrag {
namespace {

using simd::GearScanFn;
using simd::kNoBoundary;

/// The wide gear levels this host can run: AVX-512 or nothing.
std::vector<cpu::IsaLevel> wide_levels() {
  if (cpu::detected_isa_level() < cpu::IsaLevel::kAvx512) return {};
  return {cpu::IsaLevel::kAvx512};
}

/// Masks spanning the interesting regimes: hit-everywhere, realistic FastCDC
/// strict/avg/loose masks, and hit-never on bounded regions.
const std::vector<std::uint64_t> kMasks = {
    0x0,                  // every byte is a boundary
    0x1,                  // ~every 2nd byte
    0xFF,                 // ~every 256th byte
    0x0000d90003530000,   // realistic spread masks (avg 8 KiB family)
    0x0000d90103530000, 0x0000d90303530000,
    0xFFFFFFFFFFFFFFFF,   // effectively never hits
};

void expect_identical(const Bytes& data, std::size_t pos, std::size_t end,
                      std::uint64_t mask, std::uint64_t h0) {
  const std::uint64_t* table = GearChunker::table().data();
  std::uint64_t h_ref = h0;
  const std::size_t b_ref =
      simd::gear_scan_scalar(data.data(), pos, end, mask, h_ref, table);
  for (cpu::IsaLevel level : wide_levels()) {
    const GearScanFn fn = simd::gear_scan_for(level);
    std::uint64_t h = h0;
    const std::size_t b = fn(data.data(), pos, end, mask, h, table);
    ASSERT_EQ(b, b_ref) << "level=" << cpu::isa_level_name(level)
                        << " pos=" << pos << " end=" << end << " mask=" << mask;
    ASSERT_EQ(h, h_ref) << "level=" << cpu::isa_level_name(level)
                        << " pos=" << pos << " end=" << end << " mask=" << mask;
  }
}

TEST(GearSimdTest, MatchesScalarOnRandomData) {
  const Bytes data = testing::random_bytes(1 << 16, 42);
  for (const std::uint64_t mask : kMasks) {
    // Sweep the region start across all phases relative to the 32-byte
    // SIMD blocks, with region lengths crossing 0, sub-block, one-block and
    // many-block sizes.
    for (std::size_t pos = 0; pos < 70; ++pos) {
      for (const std::size_t len :
           {std::size_t{0}, std::size_t{1}, std::size_t{7}, std::size_t{15},
            std::size_t{16}, std::size_t{17}, std::size_t{31}, std::size_t{32},
            std::size_t{33}, std::size_t{63}, std::size_t{64}, std::size_t{65},
            std::size_t{257}, std::size_t{4096}}) {
        expect_identical(data, pos, pos + len, mask, 0);
        expect_identical(data, pos, pos + len, mask, 0xDEADBEEFCAFEF00D);
      }
    }
  }
}

TEST(GearSimdTest, MatchesScalarOnAdversarialData) {
  // All-zeros and all-ones: every byte folds the same table entry, which
  // exercises hit-every-byte and hit-never paths depending on the mask.
  for (const std::uint8_t fill : {std::uint8_t{0x00}, std::uint8_t{0xFF}}) {
    const Bytes data(4096, fill);
    for (const std::uint64_t mask : kMasks) {
      for (std::size_t pos = 0; pos < 40; ++pos) {
        expect_identical(data, pos, data.size(), mask, 0);
      }
    }
  }
}

TEST(GearSimdTest, BoundaryAtBlockEdges) {
  // Place the (deterministic) first boundary at every offset in [0, 96) from
  // the region start, covering hits at the first/last byte of each 32-byte
  // SIMD block, including the very last byte of the region.
  const Bytes data = testing::random_bytes(1 << 14, 7);
  const std::uint64_t* table = GearChunker::table().data();
  const std::uint64_t mask = 0xFF;
  for (std::size_t pos = 0; pos < 96; ++pos) {
    std::uint64_t h = 0;
    const std::size_t b =
        simd::gear_scan_scalar(data.data(), pos, data.size(), mask, h, table);
    ASSERT_NE(b, kNoBoundary);
    // Region ending exactly at the hit byte: boundary == end.
    expect_identical(data, pos, b, mask, 0);
    // Region ending one byte short of the hit: no boundary.
    expect_identical(data, pos, b - 1, mask, 0);
    // Region extending past the hit: same boundary regardless of tail.
    expect_identical(data, pos, b + 37, mask, 0);
  }
}

TEST(GearSimdTest, ChunkerIdenticalAcrossLevels) {
  // End-to-end: GearChunker::split through the production dispatch must cut
  // identical chunks at every forced level, normalized and plain, for data
  // lengths straddling 0, min, avg and multiples of max.
  const ChunkerParams p{.min_size = 512, .avg_size = 2048, .max_size = 8192};
  std::vector<std::size_t> lengths = {0,    1,    511,  512,  513,
                                      2047, 2048, 2049, 8191, 8192,
                                      8193, 16384, 32768 + 17};
  for (const bool normalized : {true, false}) {
    GearChunker chunker(p, normalized);
    for (const std::size_t len : lengths) {
      for (const std::uint64_t seed : {1ULL, 2ULL}) {
        const Bytes data = testing::random_bytes(len, seed);
        cpu::force_isa_for_testing(cpu::IsaLevel::kScalar);
        const auto ref = chunker.split(data);
        for (cpu::IsaLevel level : wide_levels()) {
          cpu::force_isa_for_testing(level);
          const auto got = chunker.split(data);
          ASSERT_EQ(got.size(), ref.size())
              << "level=" << cpu::isa_level_name(level) << " len=" << len;
          for (std::size_t i = 0; i < ref.size(); ++i) {
            ASSERT_EQ(got[i].offset, ref[i].offset);
            ASSERT_EQ(got[i].size, ref[i].size);
          }
        }
        cpu::clear_isa_override_for_testing();
      }
    }
  }
}

TEST(GearSimdTest, ForceOverrideClampsToDetected) {
  cpu::force_isa_for_testing(cpu::IsaLevel::kAvx512);
  EXPECT_LE(cpu::active_isa_level(), cpu::detected_isa_level());
  cpu::clear_isa_override_for_testing();
}

TEST(GearSimdTest, LevelNamesAreStable) {
  EXPECT_STREQ(cpu::isa_level_name(cpu::IsaLevel::kScalar), "scalar");
  EXPECT_STREQ(cpu::isa_level_name(cpu::IsaLevel::kSse41), "sse41");
  EXPECT_STREQ(cpu::isa_level_name(cpu::IsaLevel::kAvx2), "avx2");
  EXPECT_STREQ(cpu::isa_level_name(cpu::IsaLevel::kAvx512), "avx512");
}

}  // namespace
}  // namespace defrag
