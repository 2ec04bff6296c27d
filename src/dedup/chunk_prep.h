// Chunk preparation: the one chunk-then-fingerprint routine every ingest
// path runs (the serial engines through DedupEngine::prepare_chunks, and
// every ParallelIngestor::Stream, whose piece pipeline drives the same
// pieces and stitch directly).
//
// Boundaries are collected first and fingerprinted as one multi-buffer
// batch: the SHA lanes want many independent messages at once, and the
// batch writes through pointers into the result vector, so that vector must
// not grow between enqueue and flush.
//
// Pieces. A stream is chunked as contiguous pieces, each by a PieceJob that
// chunks and fingerprints the piece from its own start. Every piece is
// posted to a process-wide helper pool of hardware_threads() - 1 threads,
// which run at the lowest CPU priority (nice 19, set once per helper
// thread on Linux), so they only soak the cores that session, client and
// restore threads leave idle. Whichever claims a job first runs it, a
// helper or the caller: the caller runs a job no helper has started, so
// progress never depends on a free worker. The caller then finishes the
// pieces strictly in stream order (finish_piece): every chunker restarts
// its state at each chunk start, so a piece chunked from its own start is
// exact from the first boundary it shares with the true chain. The stitch
// starts at the previous piece's held-back last chunk, which must lie just
// before the piece in memory, walks the true chain, adopts the piece's own
// chunks from the shared boundary on, and chunks and hashes only the few
// chunks before it itself. Only the piece's last chunk is unknown (it ends
// at the piece end, not at a boundary): it is held back for the next
// piece's stitch, or kept when the piece is final.
//
// A whole buffer (chunk_and_fingerprint) is cut into
// min(size / kPieceBytes, hardware_threads()) pieces, at least one; a
// lone piece runs on the caller. The pieces are subspans of the buffer,
// so the held-back chunk already lies before the next piece and nothing
// is copied. A Stream cuts its pieces where the bytes arrive and copies the
// held-back chunk in front of the next one. `chunking.slices`,
// `chunking.caller_jobs`, `chunking.resync_bytes` and
// `ingest.piece_wait_us` count the pieces posted, those of them the caller
// ran itself, the bytes the stitch redid and how long the caller waited
// for a posted piece.
//
// Thread safety: reentrant. The chunker is only read, and the metric
// samples go through a local metrics shard merged into the global
// registry, so concurrent streams may call it at once, from any thread,
// the helper pool's own workers included.
#pragma once

#include <atomic>
#include <cstdint>
#include <future>
#include <memory>
#include <span>
#include <vector>

#include "chunking/chunker.h"
#include "chunking/segmenter.h"
#include "common/bytes.h"

namespace defrag {

/// Shortest piece worth a job of its own.
inline constexpr std::uint64_t kPieceBytes = std::uint64_t{1} << 20;

/// Hardware threads of this machine, at least 1.
unsigned hardware_threads();

/// Chunk `data` and fingerprint every chunk, in stream order. With
/// `hold_back_last` the final chunk is dropped unhashed: its end is only a
/// buffer end, not yet a boundary, when more bytes of the stream follow.
/// A failure on any piece is rethrown unchanged, after every piece joined.
std::vector<StreamChunk> chunk_and_fingerprint(const Chunker& chunker,
                                               ByteView data,
                                               bool hold_back_last);

/// Where `width` pieces of [from, end) start, `origin` being the stream
/// offset of `from`: the first at the next multiple of `grid` (the longest
/// chunk), the others at even shares rounded down to one, so fixed-size
/// chains merge at once. Strictly increasing; fewer than `width` when the
/// shares are shorter than `grid`; {end} when no multiple lies below end.
std::vector<std::uint64_t> piece_starts(std::uint64_t from, std::uint64_t end,
                                        std::uint64_t origin,
                                        std::uint64_t width,
                                        std::uint64_t grid);

/// One piece's chunking and fingerprinting: base[from, end) chunked from
/// `from`, every chunk but the last fingerprinted (all of them when
/// `hash_last`). Offsets are into `base`, which must stay valid and
/// unchanged in [from, end) until the job is settled. Run by the helper
/// pool (post()) or by the caller (take()), whichever claims it first.
class PieceJob {
 public:
  PieceJob(const Chunker& chunker, ByteView base, std::uint64_t from,
           std::uint64_t end, bool hash_last);
  PieceJob(const PieceJob&) = delete;
  PieceJob& operator=(const PieceJob&) = delete;

  /// Queue `job` on the helper pool (a no-op on a one-thread machine; the
  /// caller then runs it in take()). Counted in `chunking.slices`. A
  /// helper lowers its own priority to nice 19 before its first job.
  static void post(const std::shared_ptr<PieceJob>& job);

  bool posted() const { return posted_; }
  /// take() ran the job itself: no helper had claimed it. Counted, for a
  /// posted job, in `chunking.caller_jobs`.
  bool ran_here() const { return ran_here_; }
  /// A helper is running it now.
  bool running() const;
  /// It has run; take() will not block.
  bool done() const;

  /// Run the job here unless a thread claimed it, then wait until it is
  /// done. Rethrows the job's failure unchanged. Call once.
  struct Chunks {
    std::vector<StreamChunk> chunks;
    std::vector<std::uint32_t> flush_sizes;
  };
  Chunks take();

  /// Return once no thread runs the job. An unstarted job is run here when
  /// `run`, else dropped; a failure stays unreported. Never throws.
  void settle(bool run) noexcept;

  std::uint64_t from() const { return from_; }
  std::uint64_t end() const { return end_; }

 private:
  bool claim() { return !claimed_.exchange(true, std::memory_order_acq_rel); }

  std::uint64_t from_;
  std::uint64_t end_;
  bool posted_ = false;
  bool ran_here_ = false;
  std::atomic<bool> claimed_{false};
  std::packaged_task<Chunks()> task_;
  std::future<Chunks> result_;
};

/// Finish the oldest piece: take `job`'s chunks and stitch them onto the
/// true chain. `t` is a true boundary in `base`, at or before job.from(),
/// and base[t, job.end()) holds the stream's bytes from it. Returns the
/// true chain's chunks of base[t, job.end()), offsets into `base`, all
/// fingerprinted; unless `final` the last one is held back (left out).
std::vector<StreamChunk> finish_piece(const Chunker& chunker, ByteView base,
                                      std::uint64_t t, PieceJob& job,
                                      bool final);

namespace chunk_prep_detail {

/// chunk_and_fingerprint() with explicit piece starts: strictly
/// increasing, the first 0, every one below data.size(). With two or more
/// pieces every piece is handed to the helper pool. chunk_and_fingerprint()
/// computes the starts and calls it; tests call it to pin the stitch on
/// arbitrary cuts. The result does not depend on the starts.
std::vector<StreamChunk> chunk_and_fingerprint_sliced(
    const Chunker& chunker, ByteView data, bool hold_back_last,
    std::span<const std::uint64_t> slice_starts);

}  // namespace chunk_prep_detail

}  // namespace defrag
