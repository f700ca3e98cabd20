// Rollout microbenchmark: per-step latency of parallel_rollout on the Table-I
// network for three placements — a 2x2 partition on 4 ranks, a 4x4 partition
// on 16 ranks, and the 4x4 partition hosted on 4 ranks (4 tasks per rank).
// Reports p50/p99/mean step latency, halo and compute seconds, halo bytes and
// the steady-state allocation count per placement, plus the health-monitor
// overhead. Emits a single JSON object on stdout and writes it to
// BENCH_rollout.json (progress lines go to stderr so stdout stays
// machine-parseable).
//
//   bench_rollout_latency [--grid G] [--steps N] [--warmup N] [--threads N]
//                         [--record-every K] [--backend fp32|int8]
//                         [--out FILE] [--quant-out FILE] [--full]
//
// Defaults are laptop-scale (grid 128); --full / PARPDE_FULL=1 selects the
// paper's 256 x 256 grid. --backend selects the execution provider it runs on
// (entries are tagged, so fp32 and int8 BENCH_rollout.json archives can sit
// side by side). A second section races the int8 backend against fp32 on the
// 4-rank rollout and writes BENCH_quant.json (per-step speedup — target
// >= 2x — plus the worst relative L2 divergence against the quantization
// error budget).

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "backend/kernel_backend.hpp"
#include "core/config.hpp"
#include "core/inference.hpp"
#include "core/model.hpp"
#include "latency_stats.hpp"
#include "util/options.hpp"
#include "util/random.hpp"
#include "util/thread_pool.hpp"

namespace {

using parpde::Tensor;
using parpde::bench::percentile;
namespace core = parpde::core;

struct StepStats {
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  double mean_ms = 0.0;
  double comm_seconds = 0.0;
  double compute_seconds = 0.0;
  std::uint64_t halo_bytes = 0;
  std::uint64_t steady_state_allocs = 0;
};

StepStats summarize(const core::RolloutResult& r, int warmup) {
  StepStats s;
  std::vector<double> steady;
  for (std::size_t i = static_cast<std::size_t>(warmup); i < r.step_seconds.size();
       ++i) {
    steady.push_back(r.step_seconds[i]);
  }
  double sum = 0.0;
  for (const double v : steady) sum += v;
  s.p50_ms = percentile(steady, 0.50) * 1e3;
  s.p99_ms = percentile(steady, 0.99) * 1e3;
  s.mean_ms = steady.empty() ? 0.0 : sum / static_cast<double>(steady.size()) * 1e3;
  s.comm_seconds = r.comm_seconds;
  s.compute_seconds = r.compute_seconds;
  s.halo_bytes = r.halo_bytes;
  s.steady_state_allocs = r.steady_state_allocs;
  return s;
}

// The stats fields of one JSON object, without braces.
void print_stats_json(std::FILE* f, const StepStats& s) {
  std::fprintf(f,
               "\"p50_ms\": %.4f, \"p99_ms\": %.4f, \"mean_ms\": %.4f, "
               "\"comm_seconds\": %.4f, \"compute_seconds\": %.4f, "
               "\"halo_bytes\": %llu, \"steady_state_allocs\": %llu",
               s.p50_ms, s.p99_ms, s.mean_ms, s.comm_seconds,
               s.compute_seconds,
               static_cast<unsigned long long>(s.halo_bytes),
               static_cast<unsigned long long>(s.steady_state_allocs));
}

// A report of `tasks` subdomains sharing one set of weights.
core::ParallelTrainReport shared_report(int tasks, int grid,
                                        const std::vector<Tensor>& params) {
  core::ParallelTrainReport report;
  report.ranks = tasks;
  report.dims = parpde::mpi::dims_create(tasks);
  const parpde::domain::Partition part(grid, grid, report.dims.px,
                                       report.dims.py);
  report.rank_outcomes.resize(static_cast<std::size_t>(tasks));
  for (int t = 0; t < tasks; ++t) {
    auto& outcome = report.rank_outcomes[static_cast<std::size_t>(t)];
    outcome.rank = t;
    outcome.block = part.block_of_rank(t);
    outcome.parameters = params;
  }
  return report;
}

// Relative L2 distance between two recorded frames.
double relative_l2(const Tensor& a, const Tensor& b) {
  double num = 0.0, den = 0.0;
  for (std::int64_t i = 0; i < a.size(); ++i) {
    const double d = static_cast<double>(a[i]) - static_cast<double>(b[i]);
    num += d * d;
    den += static_cast<double>(b[i]) * static_cast<double>(b[i]);
  }
  return den > 0.0 ? std::sqrt(num / den) : std::sqrt(num);
}

}  // namespace

int main(int argc, char** argv) {
  const parpde::util::Options opts(argc, argv);
  const bool full =
      parpde::util::env_flag("PARPDE_FULL") || opts.get_bool("full", false);
  const int grid = opts.get_int("grid", full ? 256 : 128);
  const int steps = opts.get_int("steps", full ? 40 : 24);
  const int warmup = opts.get_int("warmup", 3);
  const int threads = opts.get_int("threads", 1);
  const int record_every = opts.get_int("record-every", 0);
  const std::string backend_name = opts.get_string("backend", "fp32");
  const std::string out_path = opts.get_string("out", "BENCH_rollout.json");
  const std::string quant_path =
      opts.get_string("quant-out", "BENCH_quant.json");
  const parpde::backend::KernelBackend* bk =
      parpde::backend::by_name(backend_name);
  if (bk == nullptr) {
    std::fprintf(stderr, "unknown --backend=%s (fp32 or int8)\n",
                 backend_name.c_str());
    return 2;
  }
  parpde::util::ThreadPool::configure_global(threads - 1);

  core::TrainConfig cfg;  // Table I network
  cfg.border = core::BorderMode::kHaloPad;

  // Shared random weights on every rank: the bench measures latency, not
  // accuracy, and identical weights keep every placement numerically
  // comparable.
  // Damped weights + bounded biases keep the autoregressive rollout on a
  // finite attractor (raw random weights explode within a few steps), so the
  // int8-vs-fp32 divergence number below reflects quantization error rather
  // than two different overflow trajectories.
  parpde::util::Rng weight_rng(cfg.seed);
  const auto model = core::build_model(cfg.network, cfg.border, weight_rng);
  auto params = core::export_parameters(*model);
  parpde::util::Rng bias_rng(1234);
  for (auto& t : params) {
    if (t.ndim() == 1) {
      bias_rng.fill_uniform(t.values(), -0.3f, 0.3f);
    } else {
      for (std::int64_t i = 0; i < t.size(); ++i) t[i] *= 0.5f;
    }
  }

  Tensor initial({cfg.network.channels.front(), grid, grid});
  parpde::util::Rng data_rng(1234);
  data_rng.fill_uniform(initial.values(), 0.5f, 1.5f);

  std::fprintf(stderr,
               "== bench_rollout_latency ==\n"
               "grid %dx%d | steps %d (+%d warmup) | threads %d | "
               "record_every %d | backend %s | Table-I halo %lld\n",
               grid, grid, steps, warmup, threads, record_every, bk->name(),
               static_cast<long long>(cfg.network.receptive_halo()));

  struct Row {
    int tasks = 0;
    int tasks_per_rank = 1;
    StepStats stats;
  };
  std::vector<Row> rows;
  const int total_steps = steps + warmup;
  for (const auto [tasks, tasks_per_rank] :
       {std::pair{4, 1}, std::pair{16, 1}, std::pair{16, 4}}) {
    Row row;
    row.tasks = tasks;
    row.tasks_per_rank = tasks_per_rank;
    core::RolloutOptions ropts;
    ropts.record_every = record_every;
    ropts.backend = bk;
    ropts.elastic.tasks_per_rank = tasks_per_rank;
    std::fprintf(stderr, "%d tasks on %d ranks...\n", tasks,
                 tasks / tasks_per_rank);
    row.stats = summarize(
        core::parallel_rollout(cfg, shared_report(tasks, grid, params), initial,
                               total_steps, ropts),
        warmup);
    std::fprintf(stderr,
                 "%d tasks on %d ranks: p50 %.3f ms | p99 %.3f ms | steady "
                 "allocs %llu\n",
                 tasks, tasks / tasks_per_rank, row.stats.p50_ms,
                 row.stats.p99_ms,
                 static_cast<unsigned long long>(row.stats.steady_state_allocs));
    rows.push_back(row);
  }

  // --- health-monitor overhead: the always-on monitor must cost < 2% per
  // step. Same 2x2 rollout with the monitor off, then on; the
  // difference in mean step time is the per-step NaN/Inf scan plus the
  // per-strip interface-residual probes (docs/observability.md).
  double health_overhead_pct = 0.0;
  {
    const auto report = shared_report(4, grid, params);
    double mean_ms[2] = {0.0, 0.0};
    for (int i = 0; i < 2; ++i) {
      core::RolloutOptions ropts;
      ropts.record_every = record_every;
      ropts.backend = bk;
      ropts.monitor_health = i == 1;
      std::fprintf(stderr, "2x2, health monitor %s...\n",
                   i == 1 ? "on" : "off");
      mean_ms[i] =
          summarize(core::parallel_rollout(cfg, report, initial, total_steps,
                                           ropts),
                    warmup)
              .mean_ms;
    }
    health_overhead_pct = mean_ms[0] > 0.0
                              ? (mean_ms[1] - mean_ms[0]) / mean_ms[0] * 100.0
                              : 0.0;
    std::fprintf(stderr,
                 "health monitor: off %.3f ms | on %.3f ms | overhead "
                 "%.2f%%\n",
                 mean_ms[0], mean_ms[1], health_overhead_pct);
  }

  const auto emit = [&](std::FILE* f) {
    std::fprintf(f,
                 "{\n"
                 "  \"bench\": \"rollout_latency\",\n"
                 "  \"grid\": %d,\n"
                 "  \"steps\": %d,\n"
                 "  \"warmup\": %d,\n"
                 "  \"threads\": %d,\n"
                 "  \"record_every\": %d,\n"
                 "  \"backend\": \"%s\",\n"
                 "  \"network\": \"table1\",\n"
                 "  \"health_overhead_pct\": %.2f,\n"
                 "  \"partitions\": [\n",
                 grid, steps, warmup, threads, record_every, bk->name(),
                 health_overhead_pct);
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const Row& row = rows[i];
      const auto dims = parpde::mpi::dims_create(row.tasks);
      std::fprintf(f,
                   "  {\"px\": %d, \"py\": %d, \"tasks\": %d, "
                   "\"ranks\": %d, \"tasks_per_rank\": %d,\n    ",
                   dims.px, dims.py, row.tasks, row.tasks / row.tasks_per_rank,
                   row.tasks_per_rank);
      print_stats_json(f, row.stats);
      std::fprintf(f, "}%s\n", i + 1 < rows.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
  };

  emit(stdout);
  if (std::FILE* f = std::fopen(out_path.c_str(), "w")) {
    emit(f);
    std::fclose(f);
    std::fprintf(stderr, "wrote %s\n", out_path.c_str());
  } else {
    std::fprintf(stderr, "could not open %s for writing\n", out_path.c_str());
    return 1;
  }

  // --- int8 vs fp32 backend race: the quantization acceptance numbers. -------
  // Same 4-rank halo-pad rollout through both execution providers;
  // reports the per-step speedup (target >= 2x) and the worst relative L2
  // between the recorded frames against the int8 error budget (the bound
  // tests/test_quant_rollout.cpp enforces; see docs/performance.md).
  {
    constexpr double kQuantErrorBudget = 5e-2;
    const auto report = shared_report(4, grid, params);
    const int quant_record = std::max(1, steps / 4);

    StepStats stats[2];
    std::vector<Tensor> frames[2];
    const char* names[2] = {"fp32", "int8"};
    for (int i = 0; i < 2; ++i) {
      core::RolloutOptions ropts;
      ropts.record_every = quant_record;
      ropts.backend = parpde::backend::by_name(names[i]);
      std::fprintf(stderr, "2x2, %s backend...\n", names[i]);
      auto result =
          core::parallel_rollout(cfg, report, initial, total_steps, ropts);
      stats[i] = summarize(result, warmup);
      frames[i] = std::move(result.frames);
    }
    double max_rel_l2 = 0.0;
    for (std::size_t i = 0;
         i < std::min(frames[0].size(), frames[1].size()); ++i) {
      max_rel_l2 = std::max(max_rel_l2, relative_l2(frames[1][i], frames[0][i]));
    }
    const double speedup =
        stats[1].mean_ms > 0.0 ? stats[0].mean_ms / stats[1].mean_ms : 0.0;
    std::fprintf(stderr,
                 "int8 vs fp32: fp32 p50 %.3f ms | int8 p50 %.3f ms | "
                 "speedup %.2fx | max rel L2 %.2e (budget %.0e)\n",
                 stats[0].p50_ms, stats[1].p50_ms, speedup, max_rel_l2,
                 kQuantErrorBudget);

    const auto emit_quant = [&](std::FILE* f) {
      std::fprintf(f,
                   "{\n"
                   "  \"bench\": \"quant_rollout\",\n"
                   "  \"grid\": %d,\n"
                   "  \"steps\": %d,\n"
                   "  \"warmup\": %d,\n"
                   "  \"threads\": %d,\n"
                   "  \"ranks\": 4,\n"
                   "  \"engine\": \"static\",\n"
                   "  \"network\": \"table1\",\n",
                   grid, steps, warmup, threads);
      for (int i = 0; i < 2; ++i) {
        std::fprintf(f, "  \"%s\": {", names[i]);
        print_stats_json(f, stats[i]);
        std::fprintf(f, "},\n");
      }
      std::fprintf(f,
                   "  \"speedup\": %.4f,\n"
                   "  \"max_rel_l2\": %.6e,\n"
                   "  \"error_budget\": %.1e,\n"
                   "  \"within_budget\": %s\n"
                   "}\n",
                   speedup, max_rel_l2, kQuantErrorBudget,
                   max_rel_l2 <= kQuantErrorBudget ? "true" : "false");
    };
    // Only the file gets the quant JSON — stdout already carries the rollout
    // object and must stay parseable as a single document.
    if (std::FILE* f = std::fopen(quant_path.c_str(), "w")) {
      emit_quant(f);
      std::fclose(f);
      std::fprintf(stderr, "wrote %s\n", quant_path.c_str());
    } else {
      std::fprintf(stderr, "could not open %s for writing\n",
                   quant_path.c_str());
      return 1;
    }
  }
  return 0;
}
