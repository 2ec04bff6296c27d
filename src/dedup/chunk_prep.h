// Chunk preparation: the one chunk-then-fingerprint routine every ingest
// path runs (the serial engines through DedupEngine::prepare_chunks, and
// each concurrent ParallelIngestor::Stream feed).
//
// Boundaries are collected first and fingerprinted as one multi-buffer
// batch: the SHA lanes want many independent messages at once, and the
// batch writes through pointers into the result vector, so that vector must
// not grow between enqueue and flush.
//
// Thread safety: reentrant. The chunker is only read, and the
// `fingerprint.batch_size` samples go through a local metrics shard merged
// into the global registry, so concurrent streams may call it at once.
#pragma once

#include <vector>

#include "chunking/chunker.h"
#include "chunking/segmenter.h"
#include "common/bytes.h"

namespace defrag {

/// Chunk `data` and fingerprint every chunk, in stream order. With
/// `hold_back_last` the final chunk is dropped unhashed: its end is only a
/// buffer end, not yet a boundary, when more bytes of the stream follow.
std::vector<StreamChunk> chunk_and_fingerprint(const Chunker& chunker,
                                               ByteView data,
                                               bool hold_back_last);

}  // namespace defrag
