// Fuzz harness: chunker properties over arbitrary bytes.
//
// Byte 0 selects the ChunkerParams triple (all valid: the params are our
// configuration, not attacker data — what is untrusted is the STREAM);
// the rest is the stream. For Rabin and Gear (FastCDC-normalized) the
// harness checks the boundary contract on arbitrary input:
//
//   - chunks tile the stream exactly (contiguous, full coverage) — the
//     "reassembled output is bit-identical to the input" property, stated
//     on boundaries;
//   - every chunk respects max_size, and every non-final chunk min_size;
//   - split() is deterministic and identical to incremental split_to();
//   - chunk_and_fingerprint(), the routine every ingest path runs, yields
//     the same boundaries with each chunk's exact fingerprint, and
//     hold_back_last drops only the final chunk;
//   - so does its sliced form on slice starts derived from the input: the
//     stitch of independently chunked slices is bit-identical to one
//     sequential pass, however the cuts fall;
//   - the SIMD gear-scan dispatch is a pure performance knob: splitting
//     with the ISA level pinned to scalar and to AVX-512 (when this host
//     has it) yields bit-identical boundaries on arbitrary content.
#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "chunking/chunker.h"
#include "chunking/segmenter.h"
#include "common/bytes.h"
#include "common/cpu.h"
#include "common/fingerprint.h"
#include "common/rng.h"
#include "dedup/chunk_prep.h"
#include "fuzz/fuzz_util.h"

using defrag::ByteView;
using defrag::Chunker;
using defrag::ChunkerKind;
using defrag::ChunkerParams;
using defrag::chunk_and_fingerprint;
using defrag::ChunkRef;
using defrag::Fingerprint;
using defrag::make_chunker;
using defrag::StreamChunk;
using defrag::chunk_prep_detail::chunk_and_fingerprint_sliced;

namespace {

/// Small min/avg/max so even short fuzz inputs span several chunks.
constexpr struct {
  std::uint32_t min, avg, max;
} kParamTable[] = {
    {64, 256, 1024},
    {16, 64, 256},
    {256, 1024, 4096},
    {64, 64, 64},  // degenerate: min == avg == max
};

void check_chunker(const Chunker& chunker, const ChunkerParams& params,
                   ByteView stream) {
  const std::vector<ChunkRef> chunks = chunker.split(stream);
  if (stream.empty()) {
    FUZZ_ASSERT(chunks.empty());
    return;
  }
  std::uint64_t pos = 0;
  for (std::size_t i = 0; i < chunks.size(); ++i) {
    FUZZ_ASSERT(chunks[i].offset == pos);
    FUZZ_ASSERT(chunks[i].size >= 1);
    FUZZ_ASSERT(chunks[i].size <= params.max_size);
    if (i + 1 < chunks.size()) {
      FUZZ_ASSERT(chunks[i].size >= params.min_size);
    }
    pos += chunks[i].size;
  }
  FUZZ_ASSERT(pos == stream.size());

  // Incremental split_to must emit the identical sequence, in order.
  std::vector<ChunkRef> incremental;
  chunker.split_to(stream,
                   [&](const ChunkRef& c) { incremental.push_back(c); });
  FUZZ_ASSERT(incremental.size() == chunks.size());
  for (std::size_t i = 0; i < chunks.size(); ++i) {
    FUZZ_ASSERT(incremental[i] == chunks[i]);
  }

  // The shared chunk+fingerprint routine against split() + Fingerprint::of.
  const std::vector<StreamChunk> prepared =
      chunk_and_fingerprint(chunker, stream, /*hold_back_last=*/false);
  FUZZ_ASSERT(prepared.size() == chunks.size());
  for (std::size_t i = 0; i < chunks.size(); ++i) {
    FUZZ_ASSERT(prepared[i].stream_offset == chunks[i].offset);
    FUZZ_ASSERT(prepared[i].size == chunks[i].size);
    const ByteView body = stream.subspan(chunks[i].offset, chunks[i].size);
    FUZZ_ASSERT(prepared[i].fp == Fingerprint::of(body));
  }
  FUZZ_ASSERT(chunk_and_fingerprint(chunker, stream, /*hold_back_last=*/true)
                  .size() == chunks.size() - 1);

  // Up to 7 slice starts drawn from the input itself.
  std::uint64_t seed = 0;
  for (std::size_t i = 0; i < stream.size() && i < 8; ++i) {
    seed = (seed << 8) | stream[i];
  }
  defrag::SplitMix64 rng(seed);
  std::vector<std::uint64_t> starts{0};
  for (std::uint64_t k = rng.next() % 8; k > 0; --k) {
    starts.push_back(rng.next() % stream.size());
  }
  std::sort(starts.begin(), starts.end());
  starts.erase(std::unique(starts.begin(), starts.end()), starts.end());
  for (const bool hold : {false, true}) {
    const std::vector<StreamChunk> sliced =
        chunk_and_fingerprint_sliced(chunker, stream, hold, starts);
    FUZZ_ASSERT(sliced.size() == chunks.size() - (hold ? 1 : 0));
    for (std::size_t i = 0; i < sliced.size(); ++i) {
      FUZZ_ASSERT(sliced[i].stream_offset == prepared[i].stream_offset);
      FUZZ_ASSERT(sliced[i].size == prepared[i].size);
      FUZZ_ASSERT(sliced[i].fp == prepared[i].fp);
    }
  }
}

/// SIMD-vs-scalar oracle: boundaries must not depend on the dispatched ISA
/// level. Runs the same split with the level pinned to scalar and, when the
/// host has it, to AVX-512 (the only wide gear kernel).
void check_simd_oracle(const Chunker& chunker, ByteView stream) {
  using defrag::cpu::IsaLevel;
  defrag::cpu::force_isa_for_testing(IsaLevel::kScalar);
  const std::vector<ChunkRef> ref = chunker.split(stream);
  if (defrag::cpu::detected_isa_level() >= IsaLevel::kAvx512) {
    defrag::cpu::force_isa_for_testing(IsaLevel::kAvx512);
    const std::vector<ChunkRef> got = chunker.split(stream);
    FUZZ_ASSERT(got.size() == ref.size());
    for (std::size_t i = 0; i < ref.size(); ++i) {
      FUZZ_ASSERT(got[i] == ref[i]);
    }
  }
  defrag::cpu::clear_isa_override_for_testing();
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  if (size == 0) return 0;
  const auto& p = kParamTable[data[0] % (sizeof(kParamTable) /
                                         sizeof(kParamTable[0]))];
  ChunkerParams params;
  params.min_size = p.min;
  params.avg_size = p.avg;
  params.max_size = p.max;
  const ByteView stream(data + 1, size - 1);

  for (const ChunkerKind kind : {ChunkerKind::kRabin, ChunkerKind::kGear}) {
    const std::unique_ptr<Chunker> chunker = make_chunker(kind, params);
    check_chunker(*chunker, params, stream);
    if (kind == ChunkerKind::kGear) check_simd_oracle(*chunker, stream);
  }
  return 0;
}
