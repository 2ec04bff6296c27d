// Multi-buffer SHA-1 / SHA-256: N independent messages hashed in parallel,
// one 32-bit SIMD lane per message.
//
// The scalar SHA round function is a serial dependency chain — wider vectors
// cannot speed up ONE hash, but fingerprinting workloads hash thousands of
// independent chunks, so the classic multi-buffer trick applies: interleave
// N message schedules across the lanes of a vector register and run the
// round function once per N blocks. The SSE4.1 kernel carries 4 lanes, the
// AVX2 kernel 8 and the AVX-512 kernel 16 (AVX-512F + BW, with one-
// instruction rotates and ternary-logic round functions). Fingerprinting
// sits on the backup's critical path next to chunking, so every lane
// counts.
//
// Digests are BYTE-IDENTICAL to Sha1::hash / Sha256::hash for every message
// independently of batch composition, lane assignment or ISA level — the
// lanes never mix, only the instruction encoding changes. Differential
// tests and the fuzz_sha_mb oracle enforce this.
//
// Scheduling: messages are grouped by descending block count so lanes in a
// group run out of work at similar times; a lane whose message is done
// churns a zero block until the group's longest message finishes (its
// digest was captured at its own final block). Batches under 2 messages
// fall back to the scalar hashers.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/bytes.h"
#include "common/cpu.h"
#include "common/fingerprint.h"
#include "common/sha1.h"
#include "common/sha256.h"

namespace defrag::simd {

/// Hash `n` messages; out[i] == Sha1::hash(data[i]). Dispatches on
/// cpu::active_isa_level().
void sha1_many(const ByteView* data, std::size_t n, Sha1::Digest* out);

/// Hash `n` messages; out[i] == Sha256::hash(data[i]).
void sha256_many(const ByteView* data, std::size_t n, Sha256::Digest* out);

/// Level-pinned variants for differential tests and benches. `level` is
/// clamped to what this build/host supports; kScalar runs the plain
/// one-message hashers.
void sha1_many_at(cpu::IsaLevel level, const ByteView* data, std::size_t n,
                  Sha1::Digest* out);
void sha256_many_at(cpu::IsaLevel level, const ByteView* data, std::size_t n,
                    Sha256::Digest* out);

/// Batching front-end for the fingerprint path: collect chunk views, hash
/// them lanes-in-parallel on flush, and write each digest through the
/// caller's pointer. Views and output pointers must stay valid until the
/// flush that covers them (the destructor flushes any remainder).
///
/// Not thread-safe; each ingest thread owns its batch.
class FingerprintBatch {
 public:
  /// Default capacity: big enough to fill 16 lanes several times over (the
  /// group scheduler sorts within the batch, so larger batches give it
  /// more evenly-sized groups), small enough to stay cache-resident.
  static constexpr std::size_t kDefaultCapacity = 64;

  explicit FingerprintBatch(std::size_t capacity = kDefaultCapacity);
  ~FingerprintBatch() noexcept;
  FingerprintBatch(const FingerprintBatch&) = delete;
  FingerprintBatch& operator=(const FingerprintBatch&) = delete;

  /// Enqueue one chunk; flushes automatically when the batch is full.
  void add(ByteView data, Fingerprint* out);

  /// Hash everything pending and write the digests out.
  void flush();

  std::size_t pending() const { return views_.size(); }

  /// Sizes of every flush so far (including automatic ones) — the caller
  /// drains this into the `fingerprint.batch_size` histogram. Bounded by
  /// the batch's lifetime (one chunk_and_fingerprint call).
  const std::vector<std::uint32_t>& flush_sizes() const {
    return flush_sizes_;
  }

 private:
  std::size_t capacity_;
  std::vector<ByteView> views_;
  std::vector<Fingerprint*> outs_;
  std::vector<std::uint32_t> flush_sizes_;
};

}  // namespace defrag::simd
