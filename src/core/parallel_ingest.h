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
//    feed(): it reads straight into the stream's buffer, behind the
//    carried tail, so the piece is never copied before it is chunked.
//    Each piece is chunked and fingerprinted with the carried tail
//    (chunk_and_fingerprint, as the serial engines do, sliced across idle
//    cores for large buffers), and its last chunk, which may still grow,
//    is held back; every chunker restarts its state at each chunk start,
//    so the boundaries are bit-identical to chunking the whole stream at
//    once and the carry never exceeds max_size. Pieces that leave the
//    buffer within max_size are only carried, so tiny pieces cost no
//    rescans. Each feed() or commit() resolves its own pending duplicates
//    before returning, while the stream still holds their bytes, so no
//    claim outlives a call. Between calls the stream's open container is
//    parked (ContainerStore::StreamAppender::park), so a reader never
//    waits on the feeder's pace.
//  - ingest_stream(stream, recipe): one Stream, one feed(), finish(). Safe
//    to call from many threads concurrently, like Stream itself. With a
//    non-null `recipe` it records one entry per chunk in stream order with
//    a published location for every duplicate, making the stream
//    restore-grade via dedup/restore_strategies.h.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>

#include "chunking/chunker.h"
#include "common/bytes.h"
#include "common/fingerprint.h"
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
  /// on the same ingestor. Destroying an unfinished Stream seals its
  /// containers and leaves no claim behind, so a failed backup commits
  /// nothing and blocks no one.
  class Stream {
   public:
    /// Open a stream into `ingestor`. When `recipe` is non-null every
    /// feed() appends its chunks' entries (stream order, published
    /// locations); `recipe` must outlive the stream.
    explicit Stream(ParallelIngestor& ingestor, Recipe* recipe = nullptr);
    Stream(const Stream&) = delete;
    Stream& operator=(const Stream&) = delete;

    /// Ingest the next `data` bytes of the stream.
    void feed(ByteView data);

    /// Room for the next `n` bytes of the stream, behind the carried tail
    /// in the stream's own buffer (not zeroed). Valid until the next call
    /// on the stream; bytes written there are ingested only by commit().
    std::uint8_t* prepare(std::size_t n);

    /// Ingest the first `n` bytes written to the last prepare()'s room,
    /// exactly as feed() would ingest them. `n` is at most what that
    /// prepare() asked for.
    void commit(std::size_t n);

    /// Ingest the held-back tail, seal the stream's containers and return
    /// its stats. Call once; no feed() or prepare() afterwards.
    StreamIngestStats finish();

    /// Capacity of the stream's buffer, which only grows until finish():
    /// at most the largest piece plus the chunker's max_size.
    std::uint64_t buffer_high_water() const { return capacity_; }

   private:
    /// Count `n` logical bytes and charge their chunking CPU.
    void charge(std::size_t n);
    /// Grow the buffer so `n` bytes fit behind the carry; returns where.
    std::uint8_t* room(std::size_t n);
    /// The `n` bytes behind the carry join it; once the carry exceeds
    /// max_size, ingest it and move the held-back tail to the front.
    void consume(std::size_t n);
    /// Chunk, fingerprint, claim and append `buf`; unless `final`, hold
    /// back its last chunk. Returns the bytes consumed.
    std::uint64_t ingest(ByteView buf, bool final);

    ParallelIngestor& ingestor_;
    Recipe* recipe_;
    DiskSim sim_;
    StreamIngestStats st_;
    /// Published-location lookups charged for pending duplicates.
    std::uint64_t charged_ = 0;
    ContainerStore::StreamAppender appender_;
    /// buf_[0, carried_) holds the bytes after the last consumed chunk
    /// boundary, at most max_size between calls; prepare() hands out the
    /// room behind them. Not zeroed: every byte read was written first.
    std::unique_ptr<std::uint8_t[]> buf_;
    std::size_t capacity_ = 0;
    std::size_t carried_ = 0;
    /// Room handed out by the last prepare(), not yet committed.
    std::size_t prepared_ = 0;
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
