// Parallel ingest fast path: N backup streams deduplicated concurrently
// against one shared store.
//
// Each stream runs with its own DiskSim (streams model independent backup
// clients; simulated time is per-stream, wall-clock speedup is what
// multi-streaming buys). The shared metadata path is the lock-striped
// ShardedPagedIndex; the shared data path is the ContainerStore's
// StreamAppender, which gives every stream a private open container so
// placement stays sequential *per stream*.
//
// Dedup across concurrent streams uses the index's claim/publish protocol:
// a chunk's first claimant appends and publishes it; every other stream
// sees kExisting or kPending and counts the chunk as a duplicate. Exactly
// one stream wins any fingerprint, so total unique bytes is deterministic
// under any interleaving. A kPending duplicate cannot pay the published-
// location lookup inline (the claimant has not published yet, and blocking
// on it would serialize the streams), so its fingerprint is queued; at the
// end of each feed the stream waits for each queued claim's publish
// (claims are published chunk-by-chunk, microseconds after they are
// observed pending) and then pays the published-location lookup it
// skipped — so recipe-grade location metadata is available for every
// duplicate and the charged lookup count exactly equals the
// resolved-duplicate count (checked). If a claimant unwinds without
// publishing, its claim is abandoned and exactly one waiter re-claims and
// stores the chunk itself, so waiters never hang on a dead claim.
//
// One ingest core, two entry points:
//  - Stream: the incremental form. Construct it at the start of a backup,
//    feed() each piece of the byte stream as it arrives, finish() at the
//    end. A caller that reads the bytes itself (a defrag-serve session
//    receiving a BACKUP_DATA frame) uses prepare()/commit() instead of
//    feed(): it reads straight into one of the stream's piece buffers, so
//    the bytes are never copied before they are chunked.
//    The stream is a bounded pipeline of pieces (dedup/chunk_prep.h). Once
//    a piece buffer holds at least kPieceBytes, commit() posts the piece
//    to the idle-priority helper pool as PieceJobs of at least kPieceBytes
//    each (one per kPieceBytes, at most hardware_threads()), which chunk
//    and fingerprint their bytes from their own start, places the pieces
//    already done and returns, so the session goes back to receiving.
//    flush() and finish() post the last, shorter piece the same way. A job
//    no helper has claimed when the caller needs it runs on the caller,
//    so a busy machine degrades to inline chunking. Pieces are
//    finished strictly in stream order on the caller's thread: the
//    previous piece's held-back last chunk (at most max_size) is copied
//    into the max_size prefix every piece buffer reserves, the stitch
//    (finish_piece) joins the piece's own chain from the first boundary it
//    shares with the true chain, and place() claims, appends, publishes
//    and records the piece's chunks. Every chunker restarts its state at
//    each chunk start, so the boundaries are bit-identical to chunking the
//    whole stream at once, for any framing. A finished piece's buffer is
//    reused; at most hardware_threads() buffers exist, and only when they
//    are all in flight does prepare() wait for the oldest piece, running
//    its job itself if no helper has started it. Each place() resolves its
//    own pending duplicates before returning, while the stream still
//    holds their bytes, so no claim outlives a call. Between calls the
//    stream's open container is parked (ContainerStore::StreamAppender::
//    park), so a reader never waits on the feeder's pace.
//  - ingest_stream(stream, recipe): one Stream, one feed(), finish(). The
//    first feed() of a stream chunks the caller's buffer in place through
//    chunk_and_fingerprint (the same pieces and stitch, over subspans of
//    that buffer) and copies only the held-back tail. Safe to call from
//    many threads concurrently, like Stream itself. With a non-null
//    `recipe` it records one entry per chunk in stream order with a
//    published location for every duplicate, making the stream
//    restore-grade via dedup/restore_strategies.h.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <vector>

#include "chunking/chunker.h"
#include "chunking/segmenter.h"
#include "common/bytes.h"
#include "common/fingerprint.h"
#include "dedup/chunk_prep.h"
#include "index/paged_index.h"
#include "index/sharded_index.h"
#include "storage/container_store.h"
#include "storage/disk_model.h"
#include "storage/recipe.h"

namespace defrag {

struct ParallelIngestParams {
  ChunkerKind chunker_kind = ChunkerKind::kGear;
  ChunkerParams chunker;
  std::uint64_t container_bytes = 4ull << 20;
  bool compress_containers = false;
  PagedIndexParams index;
  /// Lock stripes in the shared index (power of two).
  std::size_t index_shards = ShardedPagedIndex::kDefaultShards;
  DiskModel disk;
  /// Combined chunking+fingerprinting rate used to charge simulated CPU.
  double cpu_mb_per_s = 220.0;
};

/// Per-stream outcome of one ingest_stream() call or Stream.
struct StreamIngestStats {
  std::uint64_t logical_bytes = 0;
  std::uint64_t chunk_count = 0;
  std::uint64_t unique_chunks = 0;
  std::uint64_t unique_bytes = 0;
  std::uint64_t dup_chunks = 0;
  std::uint64_t dup_bytes = 0;
  /// Duplicates resolved against another stream's in-flight claim
  /// (kPending) rather than a published entry. Their published-location
  /// lookups are charged to this stream's sim at the end of each feed, so
  /// `io` and `sim_seconds` include them.
  std::uint64_t pending_dup_chunks = 0;
  IoStats io;
  double sim_seconds = 0.0;
};

class ParallelIngestor {
 public:
  explicit ParallelIngestor(const ParallelIngestParams& params = {});

  /// One backup stream ingested piece by piece (see file comment). Used
  /// from one thread at a time; any number of Streams may run concurrently
  /// on the same ingestor. Destroying an unfinished Stream waits for its
  /// in-flight piece jobs, seals its containers and leaves no claim
  /// behind, so a failed backup commits nothing and blocks no one.
  class Stream {
   public:
    /// Open a stream into `ingestor`. When `recipe` is non-null every
    /// placed piece appends its chunks' entries (stream order, published
    /// locations); `recipe` must outlive the stream.
    explicit Stream(ParallelIngestor& ingestor, Recipe* recipe = nullptr);
    ~Stream() noexcept;
    Stream(const Stream&) = delete;
    Stream& operator=(const Stream&) = delete;

    /// Ingest the next `data` bytes of the stream.
    void feed(ByteView data);

    /// Room for the next `n` bytes of the stream in a piece buffer (not
    /// zeroed). Valid until the next call on the stream; bytes written
    /// there are ingested only by commit(). Waits for the oldest piece
    /// when every buffer is in flight.
    std::uint8_t* prepare(std::size_t n);

    /// Ingest the first `n` bytes written to the last prepare()'s room,
    /// exactly as feed() would ingest them. `n` is at most what that
    /// prepare() asked for.
    void commit(std::size_t n);

    /// Ingest every committed byte but the held-back tail now, waiting for
    /// the pieces in flight. After a call on the stream threw, the stream
    /// may only be destroyed.
    void flush();

    /// Ingest what is still in flight or held back, seal the stream's
    /// containers and return its stats. Call once; no feed() or prepare()
    /// afterwards.
    StreamIngestStats finish();

    /// Bytes of piece buffers the stream allocated, which only grows until
    /// finish(): at most hardware_threads() x (max_size + the largest
    /// piece), where a piece holds under kPieceBytes plus the last
    /// commit's bytes.
    std::uint64_t buffer_high_water() const { return high_water_; }

   private:
    /// A piece buffer: a max_size prefix for the held-back tail in front
    /// of `size` bytes of the stream. Not zeroed: every byte read was
    /// written first.
    struct Slot {
      std::unique_ptr<std::uint8_t[]> buf;
      std::size_t capacity = 0;
      std::size_t size = 0;
      /// The piece's jobs in stream order, each cleared once taken.
      std::vector<std::shared_ptr<PieceJob>> jobs;
      bool final = false;
    };

    /// Count `n` logical bytes and charge their chunking CPU.
    void charge(std::size_t n);
    /// Make open_ a buffer with room for `n` more bytes, waiting for the
    /// oldest piece when every buffer is in flight.
    void open(std::size_t n);
    /// Commit open_ as the next piece: its bytes are cut into up to
    /// hardware_threads() jobs of at least kPieceBytes each (one when
    /// shorter), posted to the helper pool.
    void enqueue(bool final);
    /// Finish the oldest piece: stitch, place, and move its held-back tail
    /// in front of the next piece.
    void finish_front();
    /// Finish the oldest pieces whose jobs are done.
    void finish_ready();
    /// Claim, append and publish `chunks` (offsets into `buf`) in order,
    /// and resolve the pending duplicates among them.
    void place(ByteView buf, const std::vector<StreamChunk>& chunks);

    ParallelIngestor& ingestor_;
    Recipe* recipe_;
    DiskSim sim_;
    StreamIngestStats st_;
    /// Published-location lookups charged for pending duplicates.
    std::uint64_t charged_ = 0;
    ContainerStore::StreamAppender appender_;
    /// Prefix of every piece buffer: the longest chunk.
    const std::size_t seam_;
    std::vector<std::unique_ptr<Slot>> slots_;
    std::vector<Slot*> free_;
    /// Committed pieces not yet placed, in stream order.
    std::deque<Slot*> queued_;
    /// The piece prepare() writes into.
    Slot* open_ = nullptr;
    /// Bytes held back in front of the next piece (queued_.front(), else
    /// open_), in its prefix.
    std::size_t tail_ = 0;
    /// Stream offset of open_'s first byte.
    std::uint64_t committed_ = 0;
    /// Room handed out by the last prepare(), not yet committed.
    std::size_t prepared_ = 0;
    std::uint64_t high_water_ = 0;
    bool finished_ = false;
  };

  /// Ingest one whole stream on the calling thread: a Stream fed once.
  /// Thread-safe: any number of threads may run ingest_stream()
  /// concurrently on the same ingestor. When `recipe` is
  /// non-null it receives one entry per chunk (stream order, published
  /// locations), so the caller can restore the stream bit-identically with
  /// restore_with_strategy(); the stream's own containers are sealed
  /// before the call returns.
  StreamIngestStats ingest_stream(ByteView stream, Recipe* recipe = nullptr);

  const ShardedPagedIndex& index() const { return index_; }
  const ContainerStore& store() const { return store_; }
  const ParallelIngestParams& params() const { return params_; }

 private:
  ParallelIngestParams params_;
  std::unique_ptr<Chunker> chunker_;
  ShardedPagedIndex index_;
  ContainerStore store_;
};

}  // namespace defrag
