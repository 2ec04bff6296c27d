// Ablation — dedup x local compression stacking: sweep the workload's
// text fraction and report how much each layer contributes to the total
// space saving (DDFS's classic "10-30x = dedup x local LZ" decomposition).
#include <cstdio>

#include "common/table.h"
#include "common/units.h"
#include "core/dedup_system.h"
#include "harness.h"
#include "workload/backup_series.h"

int main() {
  using namespace defrag;
  auto scale = bench::resolve_scale();
  scale.single_user_generations =
      std::min<std::uint32_t>(scale.single_user_generations, 10);
  bench::print_header(
      "Ablation — dedup x local LZSS compression",
      "Dedup removes identical chunks across generations; local compression "
      "squeezes the unique residue. Their product is the total saving; the "
      "LZ term scales with how compressible the content is.",
      scale);

  Table t({"text_fraction", "dedup_x", "local_lz_x", "total_x",
           "physical"});
  double lz_at_zero = 0.0, lz_at_high = 0.0;

  for (double text : {0.0, 0.3, 0.6, 0.9}) {
    EngineConfig cfg = bench::paper_engine_config();
    cfg.compress_containers = true;
    DedupSystem sys(EngineKind::kDefrag, cfg);

    workload::FsParams fs = scale.fs;
    fs.text_fraction = text;
    workload::SingleUserSeries series(scale.seed, fs);
    for (std::uint32_t g = 1; g <= scale.single_user_generations; ++g) {
      sys.ingest_as(g, series.next().stream);
    }
    const auto& base = sys.engine();
    const double dedup_x =
        static_cast<double>(sys.logical_bytes_ingested()) /
        static_cast<double>(base.stored_data_bytes());
    const double lz_x = static_cast<double>(base.stored_data_bytes()) /
                        static_cast<double>(base.stored_physical_bytes());
    t.add_row({Table::num(text, 1), Table::num(dedup_x, 2),
               Table::num(lz_x, 2), Table::num(dedup_x * lz_x, 2),
               format_bytes(base.stored_physical_bytes())});
    if (text == 0.0) lz_at_zero = lz_x;
    if (text == 0.9) lz_at_high = lz_x;
  }
  t.print();
  std::printf("\n");

  bench::check_shape("incompressible content gains ~nothing from LZ",
                     lz_at_zero < 1.05, lz_at_zero, 1.05);
  bench::check_shape("text-heavy content gains substantially from LZ",
                     lz_at_high > 1.5, lz_at_high, 1.5);
  return 0;
}
