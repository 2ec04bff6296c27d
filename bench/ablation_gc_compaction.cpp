// Ablation — offline GC + re-linearizing compaction: retire old
// generations, reclaim their garbage, and measure the restore speedup the
// newest-recipe-first copy order gives the surviving backups.
#include <cstdio>

#include "common/table.h"
#include "common/units.h"
#include "core/dedup_system.h"
#include "dedup/restore_strategies.h"
#include "harness.h"
#include "storage/compactor.h"
#include "workload/backup_series.h"

int main() {
  using namespace defrag;
  auto scale = bench::resolve_scale();
  scale.single_user_generations =
      std::min<std::uint32_t>(scale.single_user_generations, 12);
  bench::print_header(
      "Ablation — offline GC + compaction (DDFS store, keep last 3)",
      "Mark-and-sweep over retained recipes; live chunks are rewritten in "
      "newest-recipe order, so compaction both reclaims space and undoes "
      "de-linearization for the backups that survive it.",
      scale);

  const EngineConfig cfg = bench::paper_engine_config();
  DedupSystem sys(EngineKind::kDdfs, cfg);
  workload::SingleUserSeries series(scale.seed, scale.fs);
  const std::uint32_t gens = scale.single_user_generations;
  for (std::uint32_t g = 1; g <= gens; ++g) {
    sys.ingest_as(g, series.next().stream);
  }
  const auto& base = sys.engine();

  auto restore_rate = [&](const ContainerStore& store, const Recipe& recipe) {
    RestoreOptions opt;
    opt.cache_containers = cfg.restore_cache_containers;
    return restore_with_strategy(store, recipe, cfg.disk, opt, nullptr);
  };

  const std::vector<std::uint32_t> keep = {gens - 2, gens - 1, gens};
  Compactor compactor(cfg.container_bytes);
  ContainerStore fresh_store;
  RecipeStore fresh_recipes;
  DiskSim gc_sim(cfg.disk);
  const CompactionResult gc = compactor.compact(
      base.container_store(), base.recipe_store(), keep, &fresh_store,
      &fresh_recipes, gc_sim);

  Table t({"generation", "before_MB_s", "after_MB_s", "before_loads",
           "after_loads"});
  double before_last = 0.0, after_last = 0.0;
  for (std::uint32_t g : keep) {
    const RestoreResult before =
        restore_rate(base.container_store(), base.recipe_store().get(g));
    const RestoreResult after =
        restore_rate(fresh_store, fresh_recipes.get(g));
    t.add_row({Table::integer(g), Table::num(before.read_mb_s(), 1),
               Table::num(after.read_mb_s(), 1),
               Table::integer(static_cast<long long>(before.container_loads)),
               Table::integer(static_cast<long long>(after.container_loads))});
    if (g == gens) {
      before_last = before.read_mb_s();
      after_last = after.read_mb_s();
    }
  }
  t.print();

  std::printf(
      "\nreclaimed %s of %s (%.1f%%), %zu -> %zu containers, GC took %.2fs "
      "simulated\n",
      format_bytes(gc.dead_bytes).c_str(),
      format_bytes(gc.dead_bytes + gc.live_bytes).c_str(),
      gc.reclaimed_fraction() * 100.0, gc.containers_before,
      gc.containers_after, gc.sim_seconds);

  bench::check_shape("compaction reclaims space", gc.dead_bytes > 0,
                     static_cast<double>(gc.dead_bytes), 0.0);
  bench::check_shape("newest generation restores faster after compaction",
                     after_last > before_last, after_last, before_last);
  return 0;
}
