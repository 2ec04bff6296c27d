// defrag-cli: drive the library from the command line.
//
//   defrag-cli backup   --engine defrag --generations 10 [--alpha 0.1]
//                       [--users 1] [--seed N] [--files N] [--verify]
//                       [--scrub] [--gc-keep N]
//                       [--metrics-json FILE] [--trace-out FILE]
//   defrag-cli trace    --generations 10 --out trace.dftr [--users 5]
//   defrag-cli analyze  --in trace.dftr
//   defrag-cli engines
//
// `backup` runs a synthetic backup series through one engine and prints
// per-generation metrics plus a summary; `--verify` restores and checks
// every generation, `--scrub` re-fingerprints every referenced extent, and
// `--gc-keep N` runs the re-linearizing compactor keeping the last N
// generations (N >= 1). `--metrics-json` dumps the full metrics registry
// (schema defrag.metrics.v1, see docs/OBSERVABILITY.md) and `--trace-out`
// writes a Chrome trace-event file loadable at https://ui.perfetto.dev.
// A malformed numeric option is a usage error (exit 2), as is a bad
// engine name.
// `trace` records the series' chunk sequence to a portable .dftr file;
// `analyze` reports dedup statistics of any such file.
//
// Option/command plumbing is the shared service/cli_config.h layer, the
// same one defrag-serve and defrag-client parse with.
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <optional>
#include <string>

#include "chunking/gear.h"
#include "common/sha256.h"
#include "common/table.h"
#include "common/units.h"
#include "core/dedup_system.h"
#include "dedup/integrity.h"
#include "service/cli_config.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "storage/compactor.h"
#include "workload/backup_series.h"
#include "workload/trace.h"

namespace {

using namespace defrag;
using cli::Args;

int cmd_engines() {
  std::printf("available engines (--engine <name>):\n");
  std::printf("  ddfs     exact dedup: Bloom + full index + locality cache\n");
  std::printf("  silo     similarity-locality near-exact dedup\n");
  std::printf("  sparse   sparse indexing with champion segments\n");
  std::printf("  defrag   SPL-driven selective rewriting (the paper)\n");
  std::printf("  cbr      context-based rewriting baseline\n");
  return 0;
}

int cmd_backup(const Args& args) {
  const auto kind = cli::engine_by_name(args.get("engine", "defrag"));
  if (!kind) {
    std::fprintf(stderr, "unknown engine; try `defrag-cli engines`\n");
    return 2;
  }
  const std::uint32_t generations = args.get_u32("generations", 10);
  const std::uint32_t users = args.get_u32("users", 1);
  const std::uint64_t seed = args.get_u64("seed", 42);
  const bool verify = args.flag("verify");
  const std::uint32_t keep_n = args.get_u32("gc-keep", 3);
  if (keep_n < 1) {
    std::fprintf(stderr, "--gc-keep: must keep at least one generation\n");
    return 2;
  }
  const std::string metrics_path = args.get("metrics-json", "");
  const std::string trace_path = args.get("trace-out", "");
  if (!trace_path.empty()) obs::TraceRecorder::global().enable();

  EngineConfig cfg;
  cfg.defrag_alpha = args.get_double("alpha", 0.1);
  DedupSystem sys(*kind, cfg);

  auto fs = cli::fs_from(args);
  workload::SingleUserSeries single(seed, fs);
  workload::MultiUserSeries multi(seed, fs);

  auto& registry = obs::MetricsRegistry::global();
  std::vector<Sha256::Digest> digests;
  Table t({"gen", "user", "logical", "unique", "removed", "rewritten",
           "MB_s", "seeks", "pg_flt"});
  for (std::uint32_t g = 1; g <= generations; ++g) {
    const workload::Backup b = users > 1 ? multi.next() : single.next();
    if (verify) digests.push_back(Sha256::hash(b.stream));
    // Per-generation attribution: diff the cumulative registry around the
    // ingest (the registry itself only ever accumulates).
    const obs::MetricsSnapshot before = registry.snapshot();
    const BackupResult r = sys.ingest_as(g, b.stream);
    const obs::MetricsSnapshot after = registry.snapshot();
    const std::uint64_t page_faults =
        obs::counter_delta(before, after, "index.paged.page_faults");
    t.add_row({Table::integer(g), Table::integer(b.user),
               format_bytes(r.logical_bytes), format_bytes(r.unique_bytes),
               format_bytes(r.removed_bytes), format_bytes(r.rewritten_bytes),
               Table::num(r.throughput_mb_s(), 1),
               Table::integer(static_cast<long long>(r.io.seeks)),
               Table::integer(static_cast<long long>(page_faults))});
  }
  t.print();

  std::printf("\n%s: %s logical -> %s physical (%.2fx), efficiency %.4f\n",
              sys.engine().name().c_str(),
              format_bytes(sys.logical_bytes_ingested()).c_str(),
              format_bytes(sys.stored_bytes()).c_str(),
              sys.compression_ratio(), sys.cumulative_dedup_efficiency());

  if (verify) {
    for (std::uint32_t g = 1; g <= generations; ++g) {
      const Bytes restored = sys.restore_bytes(g);
      if (Sha256::hash(restored) != digests[g - 1]) {
        std::fprintf(stderr, "VERIFY FAILED at generation %u\n", g);
        return 1;
      }
    }
    std::printf("verify: all %u generations restored bit-for-bit\n",
                generations);
  }
  const RestoreResult rr = sys.restore(generations);
  std::printf("restore of latest generation: %.1f MB/s (%llu loads)\n",
              rr.read_mb_s(), static_cast<unsigned long long>(rr.container_loads));

  const auto& base = sys.engine();
  if (args.flag("scrub")) {
    std::vector<std::uint32_t> gens;
    for (std::uint32_t g = 1; g <= generations; ++g) gens.push_back(g);
    const IntegrityReport report =
        scrub(base.container_store(), base.recipe_store(), gens);
    std::printf("scrub: %llu entries, %s checked — %s\n",
                static_cast<unsigned long long>(report.entries_checked),
                format_bytes(report.bytes_checked).c_str(),
                report.clean() ? "clean" : "CORRUPT");
    if (!report.clean()) return 1;
  }

  if (args.flag("gc-keep")) {
    std::vector<std::uint32_t> keep;
    for (std::uint32_t g = generations - std::min(keep_n, generations) + 1;
         g <= generations; ++g) {
      keep.push_back(g);
    }
    Compactor compactor;
    ContainerStore fresh_store;
    RecipeStore fresh_recipes;
    DiskSim gc_sim;
    const CompactionResult gc =
        compactor.compact(base.container_store(), base.recipe_store(), keep,
                          &fresh_store, &fresh_recipes, gc_sim);
    std::printf(
        "gc (keep last %u): reclaimed %s (%.1f%%), %zu -> %zu containers\n",
        keep_n, format_bytes(gc.dead_bytes).c_str(),
        gc.reclaimed_fraction() * 100.0, gc.containers_before,
        gc.containers_after);
  }

  if (!metrics_path.empty()) {
    std::ofstream out(metrics_path);
    if (!out) {
      std::fprintf(stderr, "cannot open %s for writing\n",
                   metrics_path.c_str());
      return 2;
    }
    obs::write_metrics_json(registry.snapshot(), out);
    std::printf("metrics: wrote %zu metrics to %s\n", registry.size(),
                metrics_path.c_str());
  }
  if (!trace_path.empty()) {
    std::ofstream out(trace_path);
    if (!out) {
      std::fprintf(stderr, "cannot open %s for writing\n", trace_path.c_str());
      return 2;
    }
    auto& recorder = obs::TraceRecorder::global();
    recorder.write_chrome_json(out);
    std::printf("trace: wrote %zu events to %s (load at ui.perfetto.dev)\n",
                recorder.event_count(), trace_path.c_str());
  }
  return 0;
}

int cmd_trace(const Args& args) {
  const std::string path = args.get("out", "backups.dftr");
  const std::uint32_t generations = args.get_u32("generations", 10);
  const std::uint32_t users = args.get_u32("users", 1);
  const std::uint64_t seed = args.get_u64("seed", 42);

  std::ofstream out(path, std::ios::binary);
  if (!out) {
    std::fprintf(stderr, "cannot open %s for writing\n", path.c_str());
    return 2;
  }
  workload::TraceWriter writer(out);

  auto fs = cli::fs_from(args);
  workload::SingleUserSeries single(seed, fs);
  workload::MultiUserSeries multi(seed, fs);
  GearChunker chunker;

  for (std::uint32_t g = 1; g <= generations; ++g) {
    const workload::Backup b = users > 1 ? multi.next() : single.next();
    workload::TraceBackup tb;
    tb.generation = b.generation;
    tb.user = b.user;
    for (const ChunkRef& r : chunker.split(b.stream)) {
      tb.chunks.push_back(StreamChunk{
          Fingerprint::of(ByteView{b.stream.data() + r.offset, r.size}),
          r.offset, r.size});
    }
    writer.write(tb);
    std::printf("gen %u: %zu chunks, %s\n", g, tb.chunks.size(),
                format_bytes(tb.logical_bytes()).c_str());
  }
  std::printf("wrote %llu backups to %s\n",
              static_cast<unsigned long long>(writer.backups_written()),
              path.c_str());
  return 0;
}

int cmd_analyze(const Args& args) {
  const std::string path = args.get("in", "backups.dftr");
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    std::fprintf(stderr, "cannot open %s\n", path.c_str());
    return 2;
  }
  const workload::TraceStats stats = workload::analyze_trace(in);
  std::printf("backups:        %llu\n",
              static_cast<unsigned long long>(stats.backups));
  std::printf("chunks:         %llu (%llu unique)\n",
              static_cast<unsigned long long>(stats.chunks),
              static_cast<unsigned long long>(stats.unique_chunks));
  std::printf("logical bytes:  %s\n", format_bytes(stats.logical_bytes).c_str());
  std::printf("unique bytes:   %s\n", format_bytes(stats.unique_bytes).c_str());
  std::printf("dedup ratio:    %.2fx\n", stats.dedup_ratio());
  std::printf("per-generation redundancy:\n");
  for (std::size_t i = 0; i < stats.generation_redundancy.size(); ++i) {
    std::printf("  gen %zu: %.1f%%\n", i + 1,
                stats.generation_redundancy[i] * 100.0);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const auto args = cli::parse_args(argc, argv);
  if (!args) {
    std::fprintf(stderr,
                 "usage: defrag-cli <backup|trace|analyze|engines> "
                 "[--option value]...\n"
                 "  backup: --engine NAME --generations N [--alpha A]\n"
                 "          [--users N] [--seed N] [--files N] [--verify]\n"
                 "          [--scrub] [--gc-keep N] [--metrics-json FILE]\n"
                 "          [--trace-out FILE]\n");
    return 2;
  }
  if (args->command == "engines") return cmd_engines();
  if (args->command == "backup") return cmd_backup(*args);
  if (args->command == "trace") return cmd_trace(*args);
  if (args->command == "analyze") return cmd_analyze(*args);
  std::fprintf(stderr, "unknown command '%s'\n", args->command.c_str());
  return 2;
}
