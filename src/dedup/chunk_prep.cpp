#include "dedup/chunk_prep.h"

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <future>
#include <memory>
#include <thread>

#include "chunking/chunker.h"
#include "chunking/segmenter.h"
#include "common/check.h"
#include "common/fingerprint.h"
#include "common/sha_mb.h"
#include "common/thread_pool.h"
#include "obs/metrics.h"

#if defined(__linux__)
#include <sys/resource.h>
#include <unistd.h>
#endif

namespace defrag {

namespace {

/// hardware_threads() - 1 helpers, created on the first posted piece.
/// Never destroyed: a caller on another thread may still be posting when
/// static teardown begins. nullptr on a one-thread machine.
ThreadPool* helper_pool() {
  static ThreadPool* const pool =
      hardware_threads() > 1
          ? std::make_unique<ThreadPool>(hardware_threads() - 1).release()
          : nullptr;
  return pool;
}

/// Drops the calling thread to the lowest CFS weight (nice 19), once per
/// thread; on Linux PRIO_PROCESS with a thread id acts on that thread
/// alone. A no-op elsewhere. Helpers then take only the cores that
/// session, client and restore threads leave idle.
void lower_helper_priority() {
#if defined(__linux__)
  thread_local const bool lowered =
      ::setpriority(PRIO_PROCESS, static_cast<id_t>(::gettid()), 19) == 0;
  (void)lowered;
#endif
}

/// Settles every job still out when a whole-buffer call unwinds, so a
/// failure is rethrown only after every piece joined.
class SettleOnUnwind {
 public:
  explicit SettleOnUnwind(std::span<const std::shared_ptr<PieceJob>> jobs)
      : jobs_(jobs) {}
  ~SettleOnUnwind() noexcept {
    for (std::size_t k = taken_; k < jobs_.size(); ++k) jobs_[k]->settle(true);
  }
  SettleOnUnwind(const SettleOnUnwind&) = delete;
  SettleOnUnwind& operator=(const SettleOnUnwind&) = delete;
  void taken(std::size_t k) { taken_ = k + 1; }

 private:
  std::span<const std::shared_ptr<PieceJob>> jobs_;
  std::size_t taken_ = 0;
};

}  // namespace

unsigned hardware_threads() {
  static const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  return hw;
}

std::vector<std::uint64_t> piece_starts(std::uint64_t from, std::uint64_t end,
                                        std::uint64_t origin,
                                        std::uint64_t width,
                                        std::uint64_t grid) {
  // Stream offset `o` lies at from + o - origin.
  const std::uint64_t first = (origin + grid - 1) / grid * grid;
  std::vector<std::uint64_t> starts{std::min(end, from + first - origin)};
  for (std::uint64_t k = 1; k < width; ++k) {
    const std::uint64_t cut =
        (origin + k * (end - from) / width) / grid * grid;
    if (cut > origin && from + cut - origin > starts.back()) {
      starts.push_back(from + cut - origin);
    }
  }
  return starts;
}

PieceJob::PieceJob(const Chunker& chunker, ByteView base, std::uint64_t from,
                   std::uint64_t end, bool hash_last)
    : from_(from),
      end_(end),
      task_([&chunker, base, from, end, hash_last] {
        Chunks out;
        if (from >= end) return out;
        chunker.split_to(base.subspan(from, end - from),
                         [&](const ChunkRef& r) {
                           out.chunks.push_back(StreamChunk{
                               Fingerprint{}, from + r.offset, r.size});
                         });
        std::size_t hashed = out.chunks.size();
        if (!hash_last && hashed > 0) --hashed;
        simd::FingerprintBatch batch;
        for (std::size_t i = 0; i < hashed; ++i) {
          StreamChunk& c = out.chunks[i];
          batch.add(base.subspan(c.stream_offset, c.size), &c.fp);
        }
        batch.flush();
        out.flush_sizes = batch.flush_sizes();
        return out;
      }),
      result_(task_.get_future()) {
  DEFRAG_CHECK(from <= end && end <= base.size());
}

void PieceJob::post(const std::shared_ptr<PieceJob>& job) {
  job->posted_ = true;
  if (ThreadPool* pool = helper_pool()) {
    // The pool's future is dropped: the job reports through its own.
    (void)pool->submit([job] {
      lower_helper_priority();
      if (job->claim()) job->task_();
    });
  }
}

bool PieceJob::running() const {
  return claimed_.load(std::memory_order_acquire) && !done();
}

bool PieceJob::done() const {
  return result_.wait_for(std::chrono::seconds(0)) ==
         std::future_status::ready;
}

PieceJob::Chunks PieceJob::take() {
  if (claim()) {
    ran_here_ = true;
    task_();  // a throw lands in result_
  }
  return result_.get();
}

void PieceJob::settle(bool run) noexcept {
  if (claim()) {
    if (!run) return;
    task_();
  }
  result_.wait();
}

std::vector<StreamChunk> finish_piece(const Chunker& chunker, ByteView base,
                                      std::uint64_t t, PieceJob& job,
                                      bool final) {
  const std::uint64_t from = job.from();
  const std::uint64_t end = job.end();
  DEFRAG_CHECK(t <= from);
  const auto wait_start = std::chrono::steady_clock::now();
  const PieceJob::Chunks own = job.take();
  obs::MetricsRegistry shard;
  if (job.posted()) {
    shard.histogram("ingest.piece_wait_us")
        .observe(std::chrono::duration<double, std::micro>(
                     std::chrono::steady_clock::now() - wait_start)
                     .count());
  }
  shard.counter("chunking.slices").add(job.posted() ? 1 : 0);
  shard.counter("chunking.caller_jobs")
      .add(job.posted() && job.ran_here() ? 1 : 0);

  // Walk the true chain from t. From the first boundary the piece's own
  // chain shares with it, adopt the rest of that chain; before it, chunk
  // here, one window of the longest chunk at a time: every chunker
  // restarts at each chunk start, so each chunk of a window that starts
  // on the true chain is exact, but the last, whose end may be only the
  // window's. Chunks that start before the piece's own start are the seam
  // every piece pays; the rest count as resync.
  const std::uint64_t max_len = chunker.max_chunk_size();
  std::vector<StreamChunk> out;
  out.reserve(own.chunks.size() + 8);
  std::vector<std::size_t> resynced;  // indices into `out` chunked here
  std::vector<ChunkRef> window;
  std::size_t next = 0;  // window[next] starts at t
  std::uint64_t resync_bytes = 0;
  auto it = own.chunks.begin();
  while (t < end) {
    while (it != own.chunks.end() && it->stream_offset < t) ++it;
    if (it != own.chunks.end() && it->stream_offset == t) {
      out.insert(out.end(), it, own.chunks.end());
      break;
    }
    if (next == window.size()) {
      const std::uint64_t stop = std::min(end, t + max_len);
      window.clear();
      next = 0;
      chunker.split_to(base.subspan(t, stop - t), [&](const ChunkRef& r) {
        window.push_back(ChunkRef{t + r.offset, r.size});
      });
      DEFRAG_CHECK(!window.empty());
      // A lone chunk is a whole longest chunk, or ends at the piece end.
      if (stop < end && window.size() > 1) window.pop_back();
    }
    const ChunkRef r = window[next++];
    resynced.push_back(out.size());
    out.push_back(StreamChunk{Fingerprint{}, r.offset, r.size});
    if (r.offset >= from) resync_bytes += r.size;
    t += r.size;
  }
  if (!final && !out.empty()) out.pop_back();

  // `out` no longer grows: hash what the stitch chunked itself.
  simd::FingerprintBatch batch;
  for (const std::size_t i : resynced) {
    if (i < out.size()) {
      batch.add(base.subspan(out[i].stream_offset, out[i].size), &out[i].fp);
    }
  }
  batch.flush();

  // Histogram::observe() is single-threaded by contract: the shard is
  // merged under the registry's lock.
  auto& hist = shard.histogram("fingerprint.batch_size");
  for (const std::uint32_t n : own.flush_sizes) hist.observe(n);
  for (const std::uint32_t n : batch.flush_sizes()) hist.observe(n);
  shard.counter("chunking.resync_bytes").add(resync_bytes);
  obs::MetricsRegistry::global().merge_from(shard);
  return out;
}

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
  if (n == 0) return {};

  std::vector<std::shared_ptr<PieceJob>> jobs;
  jobs.reserve(count);
  for (std::size_t k = 0; k < count; ++k) {
    jobs.push_back(std::make_shared<PieceJob>(
        chunker, data, slice_starts[k],
        k + 1 < count ? slice_starts[k + 1] : n,
        !hold_back_last && k + 1 == count));
  }
  // The first piece goes last: the caller takes it at once, while the
  // helpers start on the others.
  if (count >= 2) {
    for (std::size_t k = 1; k <= count; ++k) PieceJob::post(jobs[k % count]);
  }

  SettleOnUnwind settle(jobs);
  std::vector<StreamChunk> out;
  std::uint64_t t = 0;  // where the held-back chunk starts
  for (std::size_t k = 0; k < count; ++k) {
    const bool final = !hold_back_last && k + 1 == count;
    settle.taken(k);
    std::vector<StreamChunk> piece =
        finish_piece(chunker, data, t, *jobs[k], final);
    t = piece.empty() ? t : piece.back().stream_offset + piece.back().size;
    out.insert(out.end(), piece.begin(), piece.end());
  }
  return out;
}

}  // namespace chunk_prep_detail

std::vector<StreamChunk> chunk_and_fingerprint(const Chunker& chunker,
                                               ByteView data,
                                               bool hold_back_last) {
  const std::uint64_t n = data.size();
  const std::uint64_t width = std::clamp<std::uint64_t>(
      n / kPieceBytes, 1, hardware_threads());
  return chunk_prep_detail::chunk_and_fingerprint_sliced(
      chunker, data, hold_back_last,
      piece_starts(0, n, 0, width, chunker.max_chunk_size()));
}

}  // namespace defrag
