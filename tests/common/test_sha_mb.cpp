// Differential tests for multi-buffer SHA: every digest out of the 4-, 8- and
// 16-lane kernels must be byte-identical to the scalar hashers, independent
// of batch composition, message order or ISA level.
#include "common/sha_mb.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/cpu.h"
#include "common/fingerprint.h"
#include "common/rng.h"
#include "testing/data.h"

namespace defrag {
namespace {

const std::vector<cpu::IsaLevel>& all_levels() {
  static const std::vector<cpu::IsaLevel> levels = [] {
    std::vector<cpu::IsaLevel> out = {cpu::IsaLevel::kScalar};
    for (cpu::IsaLevel level : {cpu::IsaLevel::kSse41, cpu::IsaLevel::kAvx2,
                                cpu::IsaLevel::kAvx512}) {
      if (level <= cpu::detected_isa_level()) out.push_back(level);
    }
    return out;
  }();
  return levels;
}

/// Lengths crossing every padding regime: empty, sub-block, the 55/56 one-vs-
/// two tail-block split, exact block multiples, and multi-block messages.
std::vector<Bytes> padding_edge_messages() {
  std::vector<Bytes> msgs;
  std::uint64_t seed = 1;
  for (const std::size_t len :
       {std::size_t{0}, std::size_t{1}, std::size_t{3}, std::size_t{54},
        std::size_t{55}, std::size_t{56}, std::size_t{57}, std::size_t{63},
        std::size_t{64}, std::size_t{65}, std::size_t{119}, std::size_t{120},
        std::size_t{127}, std::size_t{128}, std::size_t{129},
        std::size_t{1000}, std::size_t{4096}, std::size_t{10007}}) {
    msgs.push_back(testing::random_bytes(len, seed++));
  }
  return msgs;
}

std::vector<ByteView> views_of(const std::vector<Bytes>& msgs) {
  std::vector<ByteView> v;
  v.reserve(msgs.size());
  for (const Bytes& m : msgs) v.push_back(ByteView{m.data(), m.size()});
  return v;
}

TEST(ShaMbTest, Sha1MatchesScalarAtEveryLevel) {
  const std::vector<Bytes> msgs = padding_edge_messages();
  const std::vector<ByteView> views = views_of(msgs);
  for (cpu::IsaLevel level : all_levels()) {
    std::vector<Sha1::Digest> out(views.size());
    simd::sha1_many_at(level, views.data(), views.size(), out.data());
    for (std::size_t i = 0; i < views.size(); ++i) {
      ASSERT_EQ(out[i], Sha1::hash(views[i]))
          << "level=" << cpu::isa_level_name(level) << " len=" << msgs[i].size();
    }
  }
}

TEST(ShaMbTest, Sha256MatchesScalarAtEveryLevel) {
  const std::vector<Bytes> msgs = padding_edge_messages();
  const std::vector<ByteView> views = views_of(msgs);
  for (cpu::IsaLevel level : all_levels()) {
    std::vector<Sha256::Digest> out(views.size());
    simd::sha256_many_at(level, views.data(), views.size(), out.data());
    for (std::size_t i = 0; i < views.size(); ++i) {
      ASSERT_EQ(out[i], Sha256::hash(views[i]))
          << "level=" << cpu::isa_level_name(level) << " len=" << msgs[i].size();
    }
  }
}

TEST(ShaMbTest, ChunkShapedBatchesMatchScalarAtEveryLevel) {
  // Gear-chunk-like lengths (min 2 KiB, mean ~8 KiB, max 64 KiB, plus the
  // odd short tail) in batches that leave 16-lane groups full, one short
  // and one over, so idle lanes churn zero blocks next to long messages.
  Xoshiro256 rng(17);
  for (const std::size_t n : {std::size_t{2}, std::size_t{15}, std::size_t{16},
                              std::size_t{17}, std::size_t{33},
                              std::size_t{64}}) {
    std::vector<Bytes> msgs;
    for (std::size_t i = 0; i < n; ++i) {
      std::size_t len = 2048 + rng.below(12 * 1024);
      if (i % 7 == 3) len = 64 * 1024;
      if (i % 11 == 5) len = rng.below(200);
      msgs.push_back(testing::random_bytes(len, 500 + 100 * n + i));
    }
    const std::vector<ByteView> views = views_of(msgs);
    for (cpu::IsaLevel level : all_levels()) {
      std::vector<Sha1::Digest> out1(n);
      std::vector<Sha256::Digest> out256(n);
      simd::sha1_many_at(level, views.data(), n, out1.data());
      simd::sha256_many_at(level, views.data(), n, out256.data());
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(out1[i], Sha1::hash(views[i]))
            << "level=" << cpu::isa_level_name(level) << " n=" << n
            << " i=" << i << " len=" << msgs[i].size();
        ASSERT_EQ(out256[i], Sha256::hash(views[i]))
            << "level=" << cpu::isa_level_name(level) << " n=" << n
            << " i=" << i << " len=" << msgs[i].size();
      }
    }
  }
}

TEST(ShaMbTest, Avx512LevelRequiresAvx512Bw) {
  // The 16-lane kernels byte-swap with a zmm vpshufb (AVX-512BW), so
  // detection reports kAvx512 only when BW is present, not on F alone.
#if defined(__x86_64__) || defined(__i386__)
  if (cpu::detected_isa_level() >= cpu::IsaLevel::kAvx512) {
    EXPECT_TRUE(__builtin_cpu_supports("avx512bw"));
    EXPECT_TRUE(__builtin_cpu_supports("avx512f"));
  } else if (__builtin_cpu_supports("avx512f") &&
             __builtin_cpu_supports("avx512bw") &&
             __builtin_cpu_supports("avx2")) {
    ADD_FAILURE() << "AVX-512 F+BW host not detected as kAvx512";
  }
#else
  EXPECT_LT(cpu::detected_isa_level(), cpu::IsaLevel::kAvx512);
#endif
}

TEST(ShaMbTest, DigestsIndependentOfBatchComposition) {
  // The same message must hash to the same digest whatever its neighbours,
  // position or batch size — lanes never interact.
  std::vector<Bytes> msgs = padding_edge_messages();
  std::vector<ByteView> views = views_of(msgs);
  std::vector<Sha1::Digest> ref(views.size());
  for (std::size_t i = 0; i < views.size(); ++i) ref[i] = Sha1::hash(views[i]);

  // Reverse order, then rotate by a non-lane-multiple.
  for (int variant = 0; variant < 2; ++variant) {
    std::vector<std::size_t> order(views.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    if (variant == 0) {
      std::reverse(order.begin(), order.end());
    } else {
      std::rotate(order.begin(), order.begin() + 3, order.end());
    }
    std::vector<ByteView> shuffled;
    for (const std::size_t i : order) shuffled.push_back(views[i]);
    std::vector<Sha1::Digest> out(shuffled.size());
    simd::sha1_many(shuffled.data(), shuffled.size(), out.data());
    for (std::size_t k = 0; k < order.size(); ++k) {
      ASSERT_EQ(out[k], ref[order[k]]) << "variant=" << variant << " k=" << k;
    }
  }
}

TEST(ShaMbTest, SingleMessageAndNullInputs) {
  // n < 2 falls back to the scalar hashers; n == 0 and empty views are no-ops.
  const Bytes msg = testing::random_bytes(100, 99);
  const ByteView view{msg.data(), msg.size()};
  Sha1::Digest d1;
  simd::sha1_many(&view, 1, &d1);
  EXPECT_EQ(d1, Sha1::hash(view));
  simd::sha1_many(nullptr, 0, nullptr);  // must not crash

  const ByteView empty{};
  Sha256::Digest d2;
  simd::sha256_many_at(cpu::detected_isa_level(), &empty, 1, &d2);
  EXPECT_EQ(d2, Sha256::hash(empty));
}

TEST(ShaMbTest, FingerprintBatchMatchesFingerprintOf) {
  const std::vector<Bytes> msgs = padding_edge_messages();
  std::vector<Fingerprint> got(msgs.size());
  {
    simd::FingerprintBatch batch(5);  // force several automatic flushes
    for (std::size_t i = 0; i < msgs.size(); ++i) {
      batch.add(ByteView{msgs[i].data(), msgs[i].size()}, &got[i]);
    }
    batch.flush();
    // Every automatic flush covered exactly `capacity` messages; the final
    // explicit flush the remainder.
    std::size_t covered = 0;
    for (const std::uint32_t s : batch.flush_sizes()) {
      EXPECT_LE(s, 5u);
      covered += s;
    }
    EXPECT_EQ(covered, msgs.size());
    EXPECT_EQ(batch.pending(), 0u);
  }
  for (std::size_t i = 0; i < msgs.size(); ++i) {
    EXPECT_EQ(got[i], Fingerprint::of(ByteView{msgs[i].data(), msgs[i].size()}))
        << "i=" << i;
  }
}

TEST(ShaMbTest, FingerprintBatchDestructorFlushes) {
  const Bytes msg = testing::random_bytes(333, 5);
  Fingerprint fp;
  {
    simd::FingerprintBatch batch;
    batch.add(ByteView{msg.data(), msg.size()}, &fp);
    EXPECT_EQ(batch.pending(), 1u);
  }  // destructor flushes
  EXPECT_EQ(fp, Fingerprint::of(ByteView{msg.data(), msg.size()}));
}

TEST(ShaMbTest, LargeUniformBatch) {
  // 1000 equal-size messages: the group scheduler runs full lanes with no
  // zero-block churn; verify a sample against the scalar hasher.
  std::vector<Bytes> msgs;
  msgs.reserve(1000);
  for (std::uint64_t i = 0; i < 1000; ++i) {
    msgs.push_back(testing::random_bytes(512, 1000 + i));
  }
  const std::vector<ByteView> views = views_of(msgs);
  std::vector<Sha1::Digest> out(views.size());
  simd::sha1_many(views.data(), views.size(), out.data());
  for (std::size_t i = 0; i < views.size(); i += 97) {
    ASSERT_EQ(out[i], Sha1::hash(views[i])) << "i=" << i;
  }
}

}  // namespace
}  // namespace defrag
