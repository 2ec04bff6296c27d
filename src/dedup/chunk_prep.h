// Chunk preparation: the one chunk-then-fingerprint routine every ingest
// path runs (the serial engines through DedupEngine::prepare_chunks, and
// each concurrent ParallelIngestor::Stream feed).
//
// Boundaries are collected first and fingerprinted as one multi-buffer
// batch: the SHA lanes want many independent messages at once, and the
// batch writes through pointers into the result vector, so that vector must
// not grow between enqueue and flush.
//
// Slicing. A buffer of at least two 1 MiB slices is cut into contiguous
// slices that are chunked and hashed at once, by the caller and by a
// process-wide helper pool of hardware_concurrency() - 1 threads. The
// width is observed at each call: 1 + the hardware threads nothing else is
// running on (the runnable count of /proc/loadavg, which counts the
// caller); width 1, or an unreadable count, runs the plain sequential loop.
// The result is bit-identical to the sequential loop. Every chunker
// restarts its state at each chunk start, so a slice chunked from its own
// start is exact from the first boundary it shares with the true chain; a
// sequential stitch walks the true chain, adopts each slice's chunks from
// that shared boundary on, and chunks and hashes only the few chunks
// before it itself. The caller claims slices like any helper and never
// waits on a helper task still queued behind other work, so progress never
// depends on a free worker. `chunking.slices` and `chunking.resync_bytes`
// count the slices run and the bytes the stitch had to redo.
//
// Thread safety: reentrant. The chunker is only read, and the metric
// samples go through a local metrics shard merged into the global
// registry, so concurrent streams may call it at once, from any thread,
// the helper pool's own workers included.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "chunking/chunker.h"
#include "chunking/segmenter.h"
#include "common/bytes.h"

namespace defrag {

/// Chunk `data` and fingerprint every chunk, in stream order. With
/// `hold_back_last` the final chunk is dropped unhashed: its end is only a
/// buffer end, not yet a boundary, when more bytes of the stream follow.
/// A failure on any slice is rethrown unchanged, after every slice joined.
std::vector<StreamChunk> chunk_and_fingerprint(const Chunker& chunker,
                                               ByteView data,
                                               bool hold_back_last);

namespace chunk_prep_detail {

/// The sliced form with explicit slice starts: strictly increasing, the
/// first 0, every one below data.size(). chunk_and_fingerprint() computes
/// the starts and calls it; tests call it to pin the stitch on arbitrary
/// cuts. The result does not depend on the starts.
std::vector<StreamChunk> chunk_and_fingerprint_sliced(
    const Chunker& chunker, ByteView data, bool hold_back_last,
    std::span<const std::uint64_t> slice_starts);

}  // namespace chunk_prep_detail

}  // namespace defrag
