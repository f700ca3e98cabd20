// Fig. 4 reproduction: strong scaling of the communication-free parallel
// training scheme, 1..64 ranks on a fixed dataset.
//
// Paper claim: "an almost perfect strong scaling, where the training time
// reduces as the number of CPU cores are increased."
//
// Measurement protocol (DESIGN.md §5): every row runs one pool thread per
// rank (--threads=T changes that), so speedup compares ranks, not thread
// counts. Each rank's training runs in isolation and is timed individually;
// since training is communication-free (asserted by the concurrent-mode
// counters and by tests), the parallel wall time on P dedicated cores is
// max_r(T_r), the modelled column. Rows with P ranks x T threads within the
// machine's hardware threads also run all ranks concurrently, and report
// that measured wall clock next to the model.
//
// Flags: --grid --frames --epochs --max-ranks --threads; PARPDE_FULL=1 for
// paper scale.

#include <algorithm>
#include <cstdio>
#include <string>

#include "common.hpp"
#include "core/parallel_trainer.hpp"
#include "util/telemetry.hpp"
#include "util/thread_pool.hpp"

using namespace parpde;
using namespace parpde::core;

int main(int argc, char** argv) {
  auto setup = bench::parse_setup(argc, argv);
  const util::Options opts(argc, argv);
  // Scaling defaults: a 64^2 grid fits the full 1..64-rank sweep (the paper's
  // 256^2 needs PARPDE_FULL=1); few epochs suffice since the measurement is
  // time, not model quality. Zero-pad border keeps per-rank work exactly
  // proportional to subdomain area; --border=halo shows the halo-overlap
  // efficiency droop at high rank counts.
  if (!opts.has("grid") && !setup.full_scale) setup.grid = 64;
  if (!opts.has("epochs") && !setup.full_scale) setup.epochs = 4;
  if (!opts.has("border")) setup.border = core::BorderMode::kZeroPad;
  if (!opts.has("threads")) setup.threads = 1;
  const int max_ranks = opts.get_int("max-ranks", 64);
  bench::print_setup("Fig. 4: strong scaling of training time", setup);

  const auto dataset = bench::generate_dataset(setup);
  const TrainConfig config = bench::make_train_config(setup);

  const int hw = util::ThreadPool::hardware_threads();
  util::Table fig4({"ranks", "grid/rank", "T_rank max [s]", "T_rank min [s]",
                    "speedup", "efficiency", "sum work [s]", "wall [s]",
                    "wall speedup", "wall eff."});
  double t1 = 0.0;
  double wall1 = 0.0;
  std::string json_rows;
  for (int ranks = 1; ranks <= max_ranks; ranks *= 2) {
    const mpi::Dims dims = mpi::dims_create(ranks);
    if (dataset.height() / dims.py < config.network.kernel ||
        dataset.width() / dims.px < config.network.kernel) {
      std::printf("stopping at %d ranks: subdomains smaller than the kernel\n",
                  ranks);
      break;
    }
    const ParallelTrainer trainer(config, ranks);
    // Measured wall clock: all ranks at once, while they fit the machine.
    double wall = 0.0;
    if (ranks * std::max(1, setup.threads) <= hw) {
      wall = trainer.train(dataset, ExecutionMode::kConcurrent).wall_seconds;
      if (ranks == 1) wall1 = wall;
    }
    // Per-configuration telemetry window: the counters read below cover
    // exactly the isolated training run.
    telemetry::Registry::global().reset();
    const auto report = trainer.train(dataset, ExecutionMode::kIsolated);

    double tmin = report.rank_outcomes.front().result.seconds;
    for (const auto& o : report.rank_outcomes) {
      tmin = std::min(tmin, o.result.seconds);
    }
    const double tmax = report.modeled_parallel_seconds();
    if (ranks == 1) t1 = tmax;
    const double speedup = t1 / tmax;
    const double wall_speedup = wall > 0.0 ? wall1 / wall : 0.0;
    char per_rank[32];
    std::snprintf(per_rank, sizeof(per_rank), "%lldx%lld",
                  static_cast<long long>(dataset.width() / dims.px),
                  static_cast<long long>(dataset.height() / dims.py));
    fig4.add_row({std::to_string(ranks), per_rank, util::Table::fmt(tmax, 3),
                  util::Table::fmt(tmin, 3), util::Table::fmt(speedup, 2),
                  util::Table::fmt(speedup / ranks, 3),
                  util::Table::fmt(report.total_work_seconds(), 3),
                  wall > 0.0 ? util::Table::fmt(wall, 3) : "-",
                  wall > 0.0 ? util::Table::fmt(wall_speedup, 2) : "-",
                  wall > 0.0 ? util::Table::fmt(wall_speedup / ranks, 3) : "-"});
    std::printf("ranks=%3d done: modeled parallel time %.3fs (speedup %.2fx)\n",
                ranks, tmax, speedup);
    std::fflush(stdout);

    // Measured comm/compute split from the telemetry registry: training is
    // communication-free by construction, so comm_seconds (halo-exchange
    // latency histogram) and comm bytes are expected to be 0 — the JSON makes
    // that measured, not assumed.
    telemetry::JsonObject row;
    row.field("ranks", ranks)
        .field("threads_per_rank", setup.threads)
        .field("t_parallel_seconds", tmax)
        .field("wall_seconds", wall)
        .field("t_min_seconds", tmin)
        .field("speedup", speedup)
        .field("efficiency", speedup / ranks)
        .field("compute_seconds", report.total_work_seconds())
        .field("comm_seconds",
               telemetry::histogram("halo.exchange_seconds").sum())
        .field("comm_bytes_sent",
               telemetry::counter("comm.bytes_sent").value())
        .field("comm_bytes_received",
               telemetry::counter("comm.bytes_received").value())
        .field("gemm_flops", telemetry::counter("gemm.flops").value())
        .field("pool_chunks", telemetry::counter("pool.chunks").value());
    if (!json_rows.empty()) json_rows += ',';
    json_rows += row.str();
  }
  fig4.print("\nFig. 4 | strong scaling (modeled parallel time = max over "
             "per-rank isolated training times; wall = all ranks concurrent):");
  std::printf("\n{\"bench\":\"fig4_scaling\",\"grid\":%d,\"epochs\":%d,"
              "\"threads_per_rank\":%d,\"hardware_threads\":%d,"
              "\"results\":[%s]}\n",
              setup.grid, setup.epochs, setup.threads, hw, json_rows.c_str());
  std::printf(
      "\nNote: training is communication-free, so max_r(T_r) is the wall\n"
      "time of P dedicated cores; the wall column measures it directly up to\n"
      "%d hardware threads (DESIGN.md \"Fig. 4 measurement protocol\").\n",
      hw);
  return 0;
}
