// Property sweep for the LZSS codec: round-trip exactness over a grid of
// sizes, seeds, and content classes. These are the fuzz-adjacent cases a
// release must survive.
#include <gtest/gtest.h>

#include <tuple>

#include "compress/lzss.h"
#include "testing/data.h"
#include "workload/content.h"

namespace defrag {
namespace {

enum class Content { kNoise, kText, kZero, kAlternating };

Bytes make_content(Content kind, std::size_t size, std::uint64_t seed) {
  switch (kind) {
    case Content::kNoise:
      return testing::random_bytes(size, seed);
    case Content::kText:
      return workload::materialize(std::vector<workload::Extent>{
          workload::Extent{seed, static_cast<std::uint32_t>(size),
                           workload::ExtentKind::kText}});
    case Content::kZero:
      return Bytes(size, 0);
    case Content::kAlternating: {
      Bytes b(size);
      for (std::size_t i = 0; i < size; ++i) {
        b[i] = static_cast<std::uint8_t>(i % 7);
      }
      return b;
    }
  }
  return {};
}

std::string content_name(Content c) {
  switch (c) {
    case Content::kNoise: return "noise";
    case Content::kText: return "text";
    case Content::kZero: return "zero";
    case Content::kAlternating: return "alternating";
  }
  return "?";
}

using Param = std::tuple<Content, std::size_t, std::uint64_t>;

class CodecPropertyTest : public ::testing::TestWithParam<Param> {
 protected:
  Bytes data() const {
    return make_content(std::get<0>(GetParam()), std::get<1>(GetParam()),
                        std::get<2>(GetParam()));
  }
};

TEST_P(CodecPropertyTest, LzssRoundTrips) {
  const Bytes input = data();
  EXPECT_EQ(Lzss::decompress(Lzss::compress(input)), input);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, CodecPropertyTest,
    ::testing::Combine(::testing::Values(Content::kNoise, Content::kText,
                                         Content::kZero,
                                         Content::kAlternating),
                       ::testing::Values(std::size_t{0}, std::size_t{1},
                                         std::size_t{63}, std::size_t{4096},
                                         std::size_t{100000}),
                       ::testing::Values(std::uint64_t{1})),
    [](const ::testing::TestParamInfo<Param>& tpi) {
      return content_name(std::get<0>(tpi.param)) + "_" +
             std::to_string(std::get<1>(tpi.param)) + "b";
    });

}  // namespace
}  // namespace defrag
