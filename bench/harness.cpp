#include "harness.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>

#include "obs/metrics.h"

namespace defrag::bench {

bool export_metrics_json(const std::string& path) {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "cannot open %s for writing\n", path.c_str());
    return false;
  }
  obs::write_metrics_json(obs::MetricsRegistry::global().snapshot(), out);
  return out.good();
}

Scale resolve_scale() {
  // DEFRAG_METRICS_JSON=<path>: every bench dumps the metrics registry on
  // exit, in the same schema as `defrag-cli --metrics-json`, so runs can be
  // compared with tools/metrics_diff.py without touching the bench code.
  if (const char* path = std::getenv("DEFRAG_METRICS_JSON");
      path != nullptr && *path != '\0') {
    static bool registered = false;
    if (!registered) {
      registered = true;
      std::atexit([] {
        export_metrics_json(std::getenv("DEFRAG_METRICS_JSON"));
      });
    }
  }

  Scale s;
  // ~45-70 MB per backup (~40-55 segments): enough segments that the
  // binomial noise of per-segment similarity misses averages into the
  // smooth curves the paper shows at 647 GB / 1.72 TB scale.
  s.fs.initial_files = 96;
  s.fs.mean_file_bytes = 256 * 1024;
  s.fs.mean_extent_bytes = 32 * 1024;

  const char* env = std::getenv("DEFRAG_BENCH_SCALE");
  if (env && std::strcmp(env, "tiny") == 0) {
    s.single_user_generations = 6;
    s.multi_user_generations = 12;
    s.fs.initial_files = 16;
    s.fs.mean_file_bytes = 96 * 1024;
  }
  return s;
}

EngineConfig paper_engine_config() {
  EngineConfig cfg;
  // Chunking: classic backup-dedup 8 KiB average CDC.
  cfg.chunker_kind = ChunkerKind::kGear;
  // Segments: the paper's 0.5-2 MB content-defined segments (defaults).
  // Containers: DDFS's 4 MB.
  cfg.container_bytes = 4ull << 20;
  // Disk: short-stroked enterprise drive of the paper's era.
  cfg.disk.seek_seconds = 0.001;
  cfg.disk.read_mb_per_s = 150.0;
  cfg.disk.write_mb_per_s = 140.0;
  // CPU pipeline rate: anchors generation-1 throughput near the paper's
  // 213 MB/s (the first backup is compute/write bound, not seek bound).
  cfg.cpu_mb_per_s = 240.0;
  // RAM budgets are deliberately small relative to the store, as in the
  // paper's setting where the index and metadata dwarf RAM.
  cfg.metadata_cache_containers = 8;
  cfg.restore_cache_containers = 8;
  cfg.index.page_cache_pages = 64;
  cfg.index.expected_chunks = 1 << 22;
  // SiLo: blocks of 4 segments (~4 MB) and a 4-block cache. Small relative
  // to a backup, as in the paper where RAM covers a sliver of the dataset —
  // this is what makes SiLo *near*-exact rather than exact.
  cfg.silo_segments_per_block = 4;
  cfg.silo_block_cache_blocks = 2;
  // Emulate a RAM-bounded similarity index: stale registrations resolve to
  // older blocks whose recipes lag the segment's churn (see engine.h).
  cfg.silo_index_sample_rate = 0.2;
  cfg.defrag_alpha = 0.1;  // the paper evaluates alpha = 0.1
  return cfg;
}

namespace {
SeriesRun run_series(EngineKind kind, std::uint32_t generations,
                     const std::function<workload::Backup()>& next_backup,
                     bool restore_all,
                     const std::function<void(EngineConfig&)>& mutate_cfg) {
  EngineConfig cfg = paper_engine_config();
  if (mutate_cfg) mutate_cfg(cfg);
  DedupSystem sys(kind, cfg);

  SeriesRun run;
  run.kind = kind;
  for (std::uint32_t g = 1; g <= generations; ++g) {
    const workload::Backup b = next_backup();
    run.backups.push_back(sys.ingest_as(g, b.stream));
  }
  if (restore_all) {
    for (std::uint32_t g = 1; g <= generations; ++g) {
      run.restores.push_back(sys.restore(g));
    }
  }
  run.compression_ratio = sys.compression_ratio();
  return run;
}
}  // namespace

SeriesRun run_single_user(EngineKind kind, const Scale& scale,
                          bool restore_all,
                          const std::function<void(EngineConfig&)>& mutate_cfg) {
  workload::SingleUserSeries series(scale.seed, scale.fs);
  return run_series(
      kind, scale.single_user_generations, [&] { return series.next(); },
      restore_all, mutate_cfg);
}

SeriesRun run_multi_user(EngineKind kind, const Scale& scale,
                         const std::function<void(EngineConfig&)>& mutate_cfg) {
  // Each user only backs up every 5th generation, so per-backup churn must
  // be heavier than the single-user series for the same placement decay:
  // graduate students compile, edit and reorganize between weekly backups.
  workload::FsParams fs = scale.fs;
  fs.mutation.file_modify_prob = 0.55;
  fs.mutation.extent_replace_prob = 0.16;
  fs.mutation.extent_insert_prob = 0.03;
  fs.mutation.extent_delete_prob = 0.03;
  // Fresh epochs at 41/42 reproduce the paper's high-locality generations.
  workload::MultiUserSeries series(scale.seed, fs, {41, 42});
  return run_series(
      kind, scale.multi_user_generations, [&] { return series.next(); },
      /*restore_all=*/false, mutate_cfg);
}

void print_header(const std::string& figure, const std::string& claim,
                  const Scale& scale) {
  std::printf("=== %s ===\n", figure.c_str());
  std::printf("%s\n", claim.c_str());
  std::printf("scale: %u single-user gens, %u multi-user gens, ~%u files/user\n\n",
              scale.single_user_generations, scale.multi_user_generations,
              scale.fs.initial_files);
}

void check_shape(const std::string& what, bool ok, double lhs, double rhs) {
  std::printf("[%s] %s (%.2f vs %.2f)\n", ok ? "SHAPE-OK" : "SHAPE-FAIL",
              what.c_str(), lhs, rhs);
}

}  // namespace defrag::bench
