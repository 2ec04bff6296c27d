// Micro-bench of the parallel ingest fast path (wall-clock, real machine).
//
// Multi-stream scaling over one synthetic stream (256 MiB, or 16 MiB under
// DEFRAG_BENCH_SCALE=tiny): the stream is sliced into W independent streams
// ingested concurrently through one ParallelIngestor (lock-striped index +
// per-stream container appenders), W in {1, 2, 4, 8}.
//
// Speedups here are *wall-clock* and bounded by the host's core count —
// `system.bench.hardware_concurrency` is recorded alongside the results so
// a committed snapshot is interpretable (on a single-core host the
// expected scaling is ~1.0x and the interesting number is the contention
// overhead). Unlike the fig*_ benches, nothing here depends on the
// simulated disk clock.
//
// DEFRAG_METRICS_JSON=<path> dumps the registry (defrag.metrics.v1) on
// exit, including the sweep results under `system.bench.*`.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "core/parallel_ingest.h"
#include "harness.h"
#include "obs/metrics.h"

namespace defrag {
namespace {

Bytes bench_stream(std::size_t n) {
  // Incompressible noise: every chunk is unique, so the index takes the
  // all-miss (claim + publish) worst case for lock contention and the
  // store appends every byte — the heaviest load on both shared paths.
  Bytes b(n);
  Xoshiro256 rng(20120701);
  rng.fill(b);
  return b;
}

int run() {
  bench::resolve_scale();  // arms the DEFRAG_METRICS_JSON exit hook
  const char* scale_env = std::getenv("DEFRAG_BENCH_SCALE");
  const bool tiny = scale_env != nullptr && std::strcmp(scale_env, "tiny") == 0;
  const std::size_t total_bytes = (tiny ? 16ull : 256ull) << 20;
  const Bytes data = bench_stream(total_bytes);
  const ByteView view(data);

  auto& reg = obs::MetricsRegistry::global();
  const unsigned cores = std::thread::hardware_concurrency();
  reg.gauge("system.bench.hardware_concurrency").set(cores);
  reg.gauge("system.bench.parallel_ingest.stream_bytes")
      .set(static_cast<double>(total_bytes));

  std::printf("micro_parallel_ingest: %zu MiB stream, %u hardware threads\n\n",
              total_bytes >> 20, cores);

  std::printf("multi-stream scaling (one ParallelIngestor, W streams):\n");
  std::printf("  %-8s %10s %10s %9s\n", "streams", "wall_s", "MB/s",
              "speedup");
  double base_mb_s = 0.0;
  for (const std::size_t w : {1u, 2u, 4u, 8u}) {
    ParallelIngestor ingestor;  // fresh store+index per W
    std::vector<ByteView> streams;
    const std::size_t slice = total_bytes / w;
    for (std::size_t i = 0; i < w; ++i) {
      streams.push_back(view.subspan(i * slice, slice));
    }
    const ParallelIngestResult res = ingestor.ingest(streams);
    const double mb_s = res.throughput_mb_s();
    if (w == 1) base_mb_s = mb_s;
    const double speedup = base_mb_s > 0.0 ? mb_s / base_mb_s : 0.0;
    std::printf("  %-8zu %10.3f %10.1f %8.2fx\n", w, res.wall_seconds, mb_s,
                speedup);
    const std::string suffix = "_w" + std::to_string(w);
    reg.gauge("system.bench.parallel_ingest.mb_s" + suffix).set(mb_s);
    reg.gauge("system.bench.parallel_ingest.speedup" + suffix).set(speedup);
  }
  return 0;
}

}  // namespace
}  // namespace defrag

int main() { return defrag::run(); }
