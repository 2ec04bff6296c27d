// Microbenchmarks (google-benchmark): chunking algorithms, fingerprinting
// and local compression. These measure real wall-clock cost of the
// substrate, independent of the simulated-disk experiments.
//
// Besides the google-benchmark series, main() ALWAYS runs a fast self-timed
// SIMD check pass (scalar vs dispatched gear scan, scalar vs multi-buffer
// SHA) and records the results as gauges:
//
//   bench.simd.check.*     boolean gates (1 = pass) compared by ctest's
//                          bench_simd_gate against the committed
//                          BENCH_simd_hotloop.json via tools/metrics_diff.py
//   bench.simd.*           informational speedup ratios
//   system.bench.simd.*    raw MB/s (machine-dependent, never gated)
//
// Regenerate the committed snapshot after an intentional change:
//
//   DEFRAG_METRICS_JSON=BENCH_simd_hotloop.json
//     ./build/bench/micro_chunking --benchmark_filter='^$'
//
// (both on one shell line).
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <vector>

#include "chunking/fixed.h"
#include "chunking/gear.h"
#include "chunking/gear_simd.h"
#include "chunking/rabin.h"
#include "common/cpu.h"
#include "common/rng.h"
#include "common/sha1.h"
#include "common/sha256.h"
#include "common/sha_mb.h"
#include "compress/lzss.h"
#include "harness.h"
#include "obs/metrics.h"
#include "workload/content.h"

namespace defrag {
namespace {

Bytes bench_data(std::size_t n) {
  Bytes b(n);
  Xoshiro256 rng(42);
  rng.fill(b);
  return b;
}

void BM_RabinChunking(benchmark::State& state) {
  const Bytes data = bench_data(8 << 20);
  RabinChunker chunker;
  for (auto _ : state) {
    benchmark::DoNotOptimize(chunker.split(data));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(data.size()));
}
BENCHMARK(BM_RabinChunking)->Unit(benchmark::kMillisecond);

void BM_GearChunking(benchmark::State& state) {
  const Bytes data = bench_data(8 << 20);
  GearChunker chunker({}, state.range(0) != 0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(chunker.split(data));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(data.size()));
  state.SetLabel(state.range(0) ? "normalized" : "plain");
}
BENCHMARK(BM_GearChunking)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

/// The full gear split with the dispatch pinned to one ISA level —
/// scalar (0) vs AVX-512 (3), the only two gear kernels, on the same data.
void BM_GearChunkingAtLevel(benchmark::State& state) {
  const auto level = static_cast<cpu::IsaLevel>(state.range(0));
  if (level > cpu::detected_isa_level()) {
    state.SkipWithError("ISA level not available on this host");
    return;
  }
  const Bytes data = bench_data(8 << 20);
  GearChunker chunker;
  cpu::force_isa_for_testing(level);
  for (auto _ : state) {
    benchmark::DoNotOptimize(chunker.split(data));
  }
  cpu::clear_isa_override_for_testing();
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(data.size()));
  state.SetLabel(cpu::isa_level_name(level));
}
BENCHMARK(BM_GearChunkingAtLevel)
    ->Arg(0)->Arg(3)
    ->Unit(benchmark::kMillisecond);

/// The raw boundary-scan kernel, scalar (0) vs AVX-512 (3), without the
/// chunker loop around it: one long no-boundary region (mask that never
/// hits), the pure hot-loop throughput number.
void BM_GearScanKernel(benchmark::State& state) {
  const auto level = static_cast<cpu::IsaLevel>(state.range(0));
  if (level > cpu::detected_isa_level()) {
    state.SkipWithError("ISA level not available on this host");
    return;
  }
  const Bytes data = bench_data(8 << 20);
  const simd::GearScanFn fn = simd::gear_scan_for(level);
  const std::uint64_t* table = GearChunker::table().data();
  for (auto _ : state) {
    std::uint64_t h = 0;
    benchmark::DoNotOptimize(
        fn(data.data(), 0, data.size(), ~0ull, h, table));
    benchmark::DoNotOptimize(h);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(data.size()));
  state.SetLabel(cpu::isa_level_name(level));
}
BENCHMARK(BM_GearScanKernel)
    ->Arg(0)->Arg(3)
    ->Unit(benchmark::kMillisecond);

/// Incremental split_to (the sink-callback path every engine actually uses;
/// split() is a wrapper that collects into a vector).
void BM_GearSplitToIncremental(benchmark::State& state) {
  const Bytes data = bench_data(8 << 20);
  GearChunker chunker;
  for (auto _ : state) {
    std::size_t count = 0;
    chunker.split_to(data, [&](const ChunkRef&) { ++count; });
    benchmark::DoNotOptimize(count);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(data.size()));
}
BENCHMARK(BM_GearSplitToIncremental)->Unit(benchmark::kMillisecond);

void BM_FixedChunking(benchmark::State& state) {
  const Bytes data = bench_data(8 << 20);
  FixedChunker chunker;
  for (auto _ : state) {
    benchmark::DoNotOptimize(chunker.split(data));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(data.size()));
}
BENCHMARK(BM_FixedChunking)->Unit(benchmark::kMillisecond);

void BM_Sha1(benchmark::State& state) {
  const Bytes data = bench_data(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(Sha1::hash(data));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_Sha1)->Arg(4096)->Arg(8192)->Arg(65536)->Arg(1 << 20);

void BM_Sha256(benchmark::State& state) {
  const Bytes data = bench_data(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(Sha256::hash(data));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_Sha256)->Arg(8192)->Arg(1 << 20);

/// A chunk-shaped batch for the multi-buffer hashers: 64 views of 8 KiB.
std::vector<ByteView> mb_batch(const Bytes& data) {
  constexpr std::size_t kChunk = 8192;
  std::vector<ByteView> views;
  for (std::size_t off = 0; off + kChunk <= data.size(); off += kChunk) {
    views.push_back(ByteView(data.data() + off, kChunk));
  }
  return views;
}

void BM_Sha1MultiBuffer(benchmark::State& state) {
  const auto level = static_cast<cpu::IsaLevel>(state.range(0));
  if (level > cpu::detected_isa_level()) {
    state.SkipWithError("ISA level not available on this host");
    return;
  }
  const Bytes data = bench_data(64 * 8192);
  const std::vector<ByteView> views = mb_batch(data);
  std::vector<Sha1::Digest> out(views.size());
  for (auto _ : state) {
    simd::sha1_many_at(level, views.data(), views.size(), out.data());
    benchmark::DoNotOptimize(out.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(data.size()));
  state.SetLabel(cpu::isa_level_name(level));
}
BENCHMARK(BM_Sha1MultiBuffer)->Arg(0)->Arg(1)->Arg(2);

void BM_Sha256MultiBuffer(benchmark::State& state) {
  const auto level = static_cast<cpu::IsaLevel>(state.range(0));
  if (level > cpu::detected_isa_level()) {
    state.SkipWithError("ISA level not available on this host");
    return;
  }
  const Bytes data = bench_data(64 * 8192);
  const std::vector<ByteView> views = mb_batch(data);
  std::vector<Sha256::Digest> out(views.size());
  for (auto _ : state) {
    simd::sha256_many_at(level, views.data(), views.size(), out.data());
    benchmark::DoNotOptimize(out.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(data.size()));
  state.SetLabel(cpu::isa_level_name(level));
}
BENCHMARK(BM_Sha256MultiBuffer)->Arg(0)->Arg(1)->Arg(2);

void BM_LzssCompress(benchmark::State& state) {
  // range(0): 0 = incompressible noise, 1 = LZ-friendly text extents.
  const bool text = state.range(0) != 0;
  Bytes data;
  if (text) {
    data = workload::materialize(std::vector<workload::Extent>{
        workload::Extent{9, 4u << 20, workload::ExtentKind::kText}});
  } else {
    data = bench_data(4 << 20);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(Lzss::compress(data));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(data.size()));
  state.SetLabel(text ? "text" : "noise");
}
BENCHMARK(BM_LzssCompress)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

void BM_LzssDecompress(benchmark::State& state) {
  const Bytes data = workload::materialize(std::vector<workload::Extent>{
      workload::Extent{10, 4u << 20, workload::ExtentKind::kText}});
  const Bytes packed = Lzss::compress(data);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Lzss::decompress(packed));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(data.size()));
}
BENCHMARK(BM_LzssDecompress)->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------------
// Self-timed SIMD checks (always run, independent of --benchmark_filter).
//
// These produce the boolean `bench.simd.check.*` gauges the ctest gate
// compares against the committed BENCH_simd_hotloop.json. The booleans are
// designed to be portable across machines of the same ISA class; the raw
// MB/s go under system.bench.* (excluded from gating by convention).
// ---------------------------------------------------------------------------

using BenchClock = std::chrono::steady_clock;

/// Best-of-3 wall time of `fn`, in seconds.
template <typename Fn>
double best_seconds(Fn&& fn) {
  double best = 1e100;
  for (int rep = 0; rep < 3; ++rep) {
    const auto t0 = BenchClock::now();
    fn();
    const double s =
        std::chrono::duration<double>(BenchClock::now() - t0).count();
    if (s < best) best = s;
  }
  return best;
}

double mb_per_s(std::size_t bytes, double seconds) {
  return seconds > 0 ? static_cast<double>(bytes) / 1e6 / seconds : 0.0;
}

void run_simd_checks() {
  auto& reg = obs::MetricsRegistry::global();
  const cpu::IsaLevel detected = cpu::detected_isa_level();
  reg.gauge("system.bench.simd.detected_isa_level")
      .set(static_cast<double>(detected));

  // --- Gear scan: scalar kernel vs whatever production dispatch picked.
  const Bytes data = bench_data(4 << 20);
  const std::uint64_t* table = GearChunker::table().data();
  const std::uint64_t mask = ~0ull;  // never hits: pure scan throughput
  bool boundaries_identical = true;

  std::uint64_t h_scalar = 0;
  std::size_t b_scalar = 0;
  const double t_gear_scalar = best_seconds([&] {
    h_scalar = 0;
    b_scalar = simd::gear_scan_scalar(data.data(), 0, data.size(), mask,
                                      h_scalar, table);
  });
  const simd::GearScanFn active = simd::active_gear_scan();
  std::uint64_t h_active = 0;
  std::size_t b_active = 0;
  const double t_gear_active = best_seconds([&] {
    h_active = 0;
    b_active = active(data.data(), 0, data.size(), mask, h_active, table);
  });
  boundaries_identical = b_active == b_scalar && h_active == h_scalar;
  // A boundary-rich mask as well (realistic ~2 KiB spacing), where the
  // kernels restart per boundary.
  {
    std::uint64_t h1 = 0, h2 = 0;
    std::size_t p1 = 0, p2 = 0;
    while (p1 < data.size() && p2 < data.size()) {
      p1 = simd::gear_scan_scalar(data.data(), p1, data.size(), 0x7FF, h1,
                                  table);
      p2 = active(data.data(), p2, data.size(), 0x7FF, h2, table);
      if (p1 != p2 || h1 != h2) {
        boundaries_identical = false;
        break;
      }
      if (p1 == simd::kNoBoundary) break;
    }
  }
  const double gear_speedup =
      t_gear_active > 0 ? t_gear_scalar / t_gear_active : 0.0;
  reg.gauge("system.bench.simd.gear_scalar_mb_s")
      .set(mb_per_s(data.size(), t_gear_scalar));
  reg.gauge("system.bench.simd.gear_active_mb_s")
      .set(mb_per_s(data.size(), t_gear_active));
  reg.gauge("bench.simd.gear_speedup").set(gear_speedup);
  // The exact gear recurrence is table-load bound: the honest gate is
  // "dispatch never ships a slower kernel", not a speedup floor
  // (see DESIGN.md "SIMD hot loops").
  reg.gauge("bench.simd.check.gear_active_not_slower_than_0_8x")
      .set(gear_speedup >= 0.8 ? 1 : 0);
  reg.gauge("bench.simd.check.boundaries_identical")
      .set(boundaries_identical ? 1 : 0);

  // --- Multi-buffer SHA: scalar one-message loop vs batched dispatch.
  const std::vector<ByteView> views = mb_batch(data);  // 512 x 8 KiB
  const std::size_t batch_bytes = views.size() * 8192;
  bool digests_identical = true;

  std::vector<Sha1::Digest> ref1(views.size()), out1(views.size());
  const double t_sha1_scalar = best_seconds([&] {
    for (std::size_t i = 0; i < views.size(); ++i) {
      ref1[i] = Sha1::hash(views[i]);
    }
  });
  const double t_sha1_mb = best_seconds([&] {
    simd::sha1_many(views.data(), views.size(), out1.data());
  });
  for (std::size_t i = 0; i < views.size(); ++i) {
    if (out1[i] != ref1[i]) digests_identical = false;
  }

  std::vector<Sha256::Digest> ref256(views.size()), out256(views.size());
  const double t_sha256_scalar = best_seconds([&] {
    for (std::size_t i = 0; i < views.size(); ++i) {
      ref256[i] = Sha256::hash(views[i]);
    }
  });
  const double t_sha256_mb = best_seconds([&] {
    simd::sha256_many(views.data(), views.size(), out256.data());
  });
  for (std::size_t i = 0; i < views.size(); ++i) {
    if (out256[i] != ref256[i]) digests_identical = false;
  }

  const double sha1_speedup = t_sha1_mb > 0 ? t_sha1_scalar / t_sha1_mb : 0.0;
  const double sha256_speedup =
      t_sha256_mb > 0 ? t_sha256_scalar / t_sha256_mb : 0.0;
  reg.gauge("system.bench.simd.sha1_scalar_mb_s")
      .set(mb_per_s(batch_bytes, t_sha1_scalar));
  reg.gauge("system.bench.simd.sha1_mb_mb_s")
      .set(mb_per_s(batch_bytes, t_sha1_mb));
  reg.gauge("system.bench.simd.sha256_scalar_mb_s")
      .set(mb_per_s(batch_bytes, t_sha256_scalar));
  reg.gauge("system.bench.simd.sha256_mb_mb_s")
      .set(mb_per_s(batch_bytes, t_sha256_mb));
  reg.gauge("bench.simd.sha1_mb_speedup").set(sha1_speedup);
  reg.gauge("bench.simd.sha256_mb_speedup").set(sha256_speedup);
  // On any host with SSE4.1+ the 4/8-lane kernels clear 1.5x with a wide
  // margin; a scalar-only host — or a run pinned down with
  // DEFRAG_FORCE_SCALAR=1 — passes vacuously (there is nothing to gate;
  // identity checks above still run).
  const bool has_simd = cpu::active_isa_level() >= cpu::IsaLevel::kSse41;
  reg.gauge("bench.simd.check.sha1_mb_ge_1_5x")
      .set(!has_simd || sha1_speedup >= 1.5 ? 1 : 0);
  reg.gauge("bench.simd.check.sha256_mb_ge_1_5x")
      .set(!has_simd || sha256_speedup >= 1.5 ? 1 : 0);
  reg.gauge("bench.simd.check.digests_identical")
      .set(digests_identical ? 1 : 0);

  std::printf("simd checks: isa=%s gear %.0f->%.0f MB/s (%.2fx)  "
              "sha1 %.0f->%.0f MB/s (%.2fx)  sha256 %.0f->%.0f MB/s (%.2fx)  "
              "identical=%d/%d\n",
              cpu::isa_level_name(detected),
              mb_per_s(data.size(), t_gear_scalar),
              mb_per_s(data.size(), t_gear_active), gear_speedup,
              mb_per_s(batch_bytes, t_sha1_scalar),
              mb_per_s(batch_bytes, t_sha1_mb), sha1_speedup,
              mb_per_s(batch_bytes, t_sha256_scalar),
              mb_per_s(batch_bytes, t_sha256_mb), sha256_speedup,
              boundaries_identical ? 1 : 0, digests_identical ? 1 : 0);
}

}  // namespace
}  // namespace defrag

int main(int argc, char** argv) {
  defrag::bench::resolve_scale();  // arms the DEFRAG_METRICS_JSON exit hook
  defrag::run_simd_checks();
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
