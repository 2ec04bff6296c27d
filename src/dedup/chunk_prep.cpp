#include "dedup/chunk_prep.h"

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <fstream>
#include <functional>
#include <future>
#include <memory>
#include <optional>
#include <thread>

#include "chunking/chunker.h"
#include "chunking/segmenter.h"
#include "common/check.h"
#include "common/fingerprint.h"
#include "common/sha_mb.h"
#include "common/thread_pool.h"
#include "obs/metrics.h"

namespace defrag {

namespace {

/// Shortest slice worth a thread: a 4 MiB BACKUP_DATA frame gives at most
/// four slices, and buffers under two slices run sequentially.
constexpr std::uint64_t kSliceBytes = std::uint64_t{1} << 20;

/// One slice's share of the chain, fingerprinted, with its batch's flushes.
struct SliceResult {
  std::vector<StreamChunk> chunks;
  std::vector<std::uint32_t> flush_sizes;
};

/// Chunk [lo, hi) of `data` from lo, keep the chunks that start before
/// `cut` and fingerprint them, all but the last one when `!hash_last`.
/// With lo = 0 and cut = hi = data.size() this is the sequential loop.
SliceResult prepare_slice(const Chunker& chunker, ByteView data,
                          std::uint64_t lo, std::uint64_t cut,
                          std::uint64_t hi, bool hash_last) {
  SliceResult out;
  chunker.split_to(data.subspan(lo, hi - lo), [&](const ChunkRef& r) {
    if (lo + r.offset < cut) {
      out.chunks.push_back(StreamChunk{Fingerprint{}, lo + r.offset, r.size});
    }
  });
  std::size_t hashed = out.chunks.size();
  if (!hash_last && hashed > 0) --hashed;
  simd::FingerprintBatch batch;
  for (std::size_t i = 0; i < hashed; ++i) {
    StreamChunk& c = out.chunks[i];
    batch.add(data.subspan(c.stream_offset, c.size), &c.fp);
  }
  batch.flush();
  out.flush_sizes = batch.flush_sizes();
  return out;
}

/// The chunk the true chain places at `t`: it depends only on t and the
/// bytes [t, t + L), so chunking that window and keeping its first chunk
/// is exact.
ChunkRef chunk_at(const Chunker& chunker, ByteView data, std::uint64_t t) {
  const std::uint64_t end =
      std::min<std::uint64_t>(data.size(), t + chunker.max_chunk_size());
  std::optional<ChunkRef> first;
  chunker.split_to(data.subspan(t, end - t), [&](const ChunkRef& r) {
    if (!first) first = r;
  });
  DEFRAG_CHECK(first.has_value());
  return ChunkRef{t, first->size};
}

unsigned hardware_threads() {
  static const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  return hw;
}

/// hardware_threads() - 1 helpers, created on the first sliced call. Never
/// destroyed: a caller on another thread may still be slicing when static
/// teardown begins. nullptr on a one-thread machine.
ThreadPool* helper_pool() {
  static ThreadPool* const pool =
      hardware_threads() > 1
          ? std::make_unique<ThreadPool>(hardware_threads() - 1).release()
          : nullptr;
  return pool;
}

/// Slices worth running now: the caller plus one per hardware thread that
/// nothing else is running on. The runnable count (the 4th field's
/// numerator in /proc/loadavg) covers the whole machine, client threads
/// and the caller included; 1 when it cannot be read.
std::uint64_t spare_width() {
  std::ifstream loadavg("/proc/loadavg");
  double avg1 = 0, avg5 = 0, avg15 = 0;
  std::uint64_t runnable = 0;
  char slash = 0;
  if (!(loadavg >> avg1 >> avg5 >> avg15 >> runnable >> slash) ||
      slash != '/') {
    return 1;
  }
  const std::uint64_t hw = hardware_threads();
  return 1 + (hw > runnable ? hw - runnable : 0);
}

/// Slice indices claimable by the caller and the helpers. Shared-owned: a
/// helper task may start only after the caller returned (it queued behind
/// another caller's work), and then it only reads `next`.
struct SliceRun {
  explicit SliceRun(std::size_t count) : tasks(count) {}

  void claim_until_empty() {
    for (;;) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= tasks.size()) return;
      tasks[i]();  // a throw lands in the slice's future
    }
  }

  std::atomic<std::size_t> next{0};
  std::vector<std::packaged_task<void()>> tasks;
};

/// Run fn(k) for k in [0, count) on the caller and up to count - 1 helpers.
/// Every slice is joined before the lowest failed slice's exception is
/// rethrown unchanged. The caller waits only on slices some thread is
/// already running, so a busy pool cannot stall it.
void run_slices(std::size_t count, const std::function<void(std::size_t)>& fn) {
  const auto run = std::make_shared<SliceRun>(count);
  std::vector<std::future<void>> joins;
  joins.reserve(count);
  for (std::size_t k = 0; k < count; ++k) {
    run->tasks[k] = std::packaged_task<void()>([&fn, k] { fn(k); });
    joins.push_back(run->tasks[k].get_future());
  }
  if (ThreadPool* pool = helper_pool()) {
    const std::size_t helpers = std::min(count - 1, pool->thread_count());
    for (std::size_t h = 0; h < helpers; ++h) {
      // The returned future is dropped: slices are joined through `joins`.
      (void)pool->submit([run] { run->claim_until_empty(); });
    }
  }
  run->claim_until_empty();
  for (auto& j : joins) j.wait();
  for (auto& j : joins) j.get();
}

/// Fold one call's samples into the global registry. Histogram::observe()
/// is single-threaded by contract: record into a local shard and merge,
/// which serializes under the registry's lock.
void record(const std::vector<SliceResult>& slices,
            const std::vector<std::uint32_t>& stitch_flushes,
            std::uint64_t slice_count, std::uint64_t resync_bytes) {
  obs::MetricsRegistry shard;
  auto& hist = shard.histogram("fingerprint.batch_size");
  for (const SliceResult& slice : slices) {
    for (const std::uint32_t n : slice.flush_sizes) hist.observe(n);
  }
  for (const std::uint32_t n : stitch_flushes) hist.observe(n);
  shard.counter("chunking.slices").add(slice_count);
  shard.counter("chunking.resync_bytes").add(resync_bytes);
  obs::MetricsRegistry::global().merge_from(shard);
}

}  // namespace

namespace chunk_prep_detail {

std::vector<StreamChunk> chunk_and_fingerprint_sliced(
    const Chunker& chunker, ByteView data, bool hold_back_last,
    std::span<const std::uint64_t> slice_starts) {
  const std::uint64_t n = data.size();
  const std::size_t count = slice_starts.size();
  DEFRAG_CHECK(count >= 1 && slice_starts[0] == 0);
  for (std::size_t k = 1; k < count; ++k) {
    DEFRAG_CHECK(slice_starts[k - 1] < slice_starts[k] && slice_starts[k] < n);
  }
  const std::uint64_t max_len = chunker.max_chunk_size();
  const auto cut_of = [&](std::size_t k) {
    return k + 1 < count ? slice_starts[k + 1] : n;
  };

  if (count == 1) {
    std::vector<SliceResult> whole(1);
    whole[0] = prepare_slice(chunker, data, 0, n, n, !hold_back_last);
    if (hold_back_last && !whole[0].chunks.empty()) whole[0].chunks.pop_back();
    record(whole, {}, 0, 0);
    return std::move(whole[0].chunks);
  }

  // Slice k runs its own chain from its start, over enough bytes past its
  // cut that every chunk starting before the cut sees its full window.
  std::vector<SliceResult> slices(count);
  run_slices(count, [&](std::size_t k) {
    const std::uint64_t cut = cut_of(k);
    slices[k] = prepare_slice(chunker, data, slice_starts[k], cut,
                              std::min(n, cut + max_len),
                              !(hold_back_last && k + 1 == count));
  });

  // Stitch: walk the true chain. From the first boundary a slice's chain
  // shares with it, adopt the rest of that slice; before it, chunk here.
  std::size_t total = 0;
  for (const SliceResult& s : slices) total += s.chunks.size();
  std::vector<StreamChunk> out;
  out.reserve(total + count);
  std::vector<std::size_t> resynced;  // indices into `out` chunked here
  std::uint64_t resync_bytes = 0;
  std::uint64_t t = 0;
  for (std::size_t k = 0; k < count; ++k) {
    const std::vector<StreamChunk>& own = slices[k].chunks;
    auto it = own.begin();
    while (t < cut_of(k)) {
      while (it != own.end() && it->stream_offset < t) ++it;
      if (it != own.end() && it->stream_offset == t) {
        out.insert(out.end(), it, own.end());
        t = own.back().stream_offset + own.back().size;
        break;
      }
      const ChunkRef r = chunk_at(chunker, data, t);
      resynced.push_back(out.size());
      out.push_back(StreamChunk{Fingerprint{}, r.offset, r.size});
      resync_bytes += r.size;
      t += r.size;
    }
  }
  DEFRAG_CHECK(t == n);
  if (hold_back_last) out.pop_back();

  // `out` no longer grows: hash what the stitch chunked itself.
  simd::FingerprintBatch batch;
  for (const std::size_t i : resynced) {
    if (i < out.size()) {
      batch.add(data.subspan(out[i].stream_offset, out[i].size), &out[i].fp);
    }
  }
  batch.flush();
  record(slices, batch.flush_sizes(), count, resync_bytes);
  return out;
}

}  // namespace chunk_prep_detail

std::vector<StreamChunk> chunk_and_fingerprint(const Chunker& chunker,
                                               ByteView data,
                                               bool hold_back_last) {
  const std::uint64_t n = data.size();
  const std::uint64_t max_slices =
      hardware_threads() > 1 ? n / kSliceBytes : 0;
  const std::uint64_t width =
      max_slices >= 2 ? std::min(max_slices, spare_width()) : 1;
  // Starts round down to a multiple of the longest chunk, so fixed-size
  // chains merge at once.
  std::vector<std::uint64_t> starts{0};
  const std::uint64_t max_len = chunker.max_chunk_size();
  for (std::uint64_t k = 1; k < width; ++k) {
    const std::uint64_t a = k * n / width / max_len * max_len;
    if (a > starts.back()) starts.push_back(a);
  }
  return chunk_prep_detail::chunk_and_fingerprint_sliced(
      chunker, data, hold_back_last, starts);
}

}  // namespace defrag
