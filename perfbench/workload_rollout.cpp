// Workloads `rollout` and `elastic`: core::parallel_rollout, halo-pad, fp32,
// seeded damped Table-I weights on every rank, record_every = 0.
//
//   rollout  default overlapped engine, 4 ranks (2x2), 256^2 grid: large
//            tiles, compute-bound (backend.fp32 + nn::ForwardPlan).
//   elastic  the same call with the elastic runtime on: 16 subdomains on 4
//            ranks (tasks_per_rank 4), 64^2 grid (16^2 tiles), healthy.
//            Tiny compute, many messages and heartbeats.
//
// End-to-end: the op is one rollout step as rank 0 sees it. Each
// parallel_rollout call is one measurement window (its first step, the plan
// warm-up, is not timed); op_ms_p50/p90 and ops_per_s (steps over the call's
// wall time) are medians over the calls.

#include <algorithm>
#include <cmath>
#include <string>

#include "core/inference.hpp"
#include "core/model.hpp"
#include "ledger.hpp"
#include "minimpi/tags.hpp"
#include "nn/forward_plan.hpp"
#include "perfbench.hpp"
#include "stats.hpp"
#include "util/telemetry.hpp"
#include "util/thread_pool.hpp"

namespace perfbench {

namespace {

namespace core = parpde::core;
namespace telemetry = parpde::telemetry;
using parpde::Tensor;

constexpr int kRanks = 4;
constexpr int kOracleSteps = 3;

struct Shape {
  bool elastic = false;
  std::int64_t grid = 0;
  int tasks = 0;            // subdomains; tasks / kRanks per rank
  int steps_per_call = 0;   // one parallel_rollout call
  const char* span = "";    // ledger span around a call
};

Shape shape_of(const std::string& workload) {
  if (workload == "elastic") return {true, 64, 16, 500, "elastic.rollout"};
  return {false, 256, 4, 100, "core.parallel_rollout"};
}

struct Setup {
  core::TrainConfig cfg;
  std::vector<Tensor> params;
  core::ParallelTrainReport report;
  Tensor initial;
  core::RolloutOptions options;
};

Setup make_setup(const Shape& shape, std::uint64_t seed) {
  Setup s;
  s.cfg.border = core::BorderMode::kHaloPad;
  s.params = damped_parameters(seed);
  s.report.ranks = shape.tasks;
  s.report.dims = parpde::mpi::dims_create(shape.tasks);
  const parpde::domain::Partition part(shape.grid, shape.grid,
                                       s.report.dims.px, s.report.dims.py);
  s.report.rank_outcomes.resize(static_cast<std::size_t>(shape.tasks));
  for (int t = 0; t < shape.tasks; ++t) {
    auto& o = s.report.rank_outcomes[static_cast<std::size_t>(t)];
    o.rank = t;
    o.block = part.block_of_rank(t);
    o.parameters = s.params;
  }
  s.initial = random_frame(shape.grid, seed + 1);
  s.options.record_every = 0;
  if (shape.elastic) {
    s.options.elastic.enabled = true;
    s.options.elastic.recover = true;
    s.options.elastic.tasks_per_rank = shape.tasks / kRanks;
  }
  return s;
}

struct Runs {
  std::vector<Window> windows;  // one per call; its first step excluded
  int steps = 0;
  std::uint64_t failed = 0;
  double compute_s = 0.0;
  double overlap_s = 0.0;
  double comm_s = 0.0;
  std::uint64_t halo_bytes = 0;
  std::uint64_t steady_state_allocs = 0;
  std::uint64_t nonfinite = 0;
  int degraded = 0;
  int recoveries = 0;
};

Runs measure(const Setup& s, const Shape& shape, double seconds) {
  Runs r;
  const Clock::time_point t0 = Clock::now();
  while (r.windows.empty() || seconds_since(t0) < seconds) {
    const Clock::time_point c0 = Clock::now();
    core::RolloutResult res;
    {
      Scope span(shape.span);
      res = core::parallel_rollout(s.cfg, s.report, s.initial,
                                   shape.steps_per_call, s.options);
    }
    r.steps += shape.steps_per_call;
    r.windows.push_back(window_of(
        std::vector<double>(res.step_seconds.begin() + 1,
                            res.step_seconds.end()),
        shape.steps_per_call, seconds_since(c0)));
    r.compute_s += res.compute_seconds;
    r.overlap_s += res.overlap_seconds;
    r.comm_s += res.comm_seconds;
    r.halo_bytes += res.halo_bytes;
    r.steady_state_allocs += res.steady_state_allocs;
    r.nonfinite += res.health.nonfinite_values;
    r.degraded += res.degraded_borders;
    r.recoveries += res.health.recoveries;
    if (res.degraded_borders > 0) {
      r.failed += static_cast<std::uint64_t>(shape.steps_per_call);
    } else if (res.health.nonfinite()) {
      r.failed += static_cast<std::uint64_t>(shape.steps_per_call -
                                             res.health.first_nonfinite_step);
    }
  }
  return r;
}

// True when the shapes match and every element is finite and satisfies
// |a - b| <= abs_tol + rel_tol * |b|.
bool allclose(const Tensor& a, const Tensor& b, double abs_tol,
              double rel_tol) {
  if (a.shape() != b.shape()) return false;
  for (std::int64_t i = 0; i < a.size(); ++i) {
    const double x = a[i];
    const double y = b[i];
    if (!std::isfinite(x) || !std::isfinite(y)) return false;
    if (std::fabs(x - y) > abs_tol + rel_tol * std::fabs(y)) return false;
  }
  return true;
}

// First kOracleSteps of the same rollout, recorded, against the monolithic
// network on the whole frame (test_core_inference's tolerance).
bool matches_sequential(const Setup& s) {
  core::RolloutOptions o = s.options;
  o.record_every = 1;
  const core::RolloutResult par =
      core::parallel_rollout(s.cfg, s.report, s.initial, kOracleSteps, o);
  core::NetworkTrainer reference(s.cfg, 0);
  core::import_parameters(reference.model(), s.params);
  const std::vector<Tensor> seq =
      core::sequential_rollout(reference, s.initial, kOracleSteps);
  if (par.frames.size() != seq.size()) return false;
  bool ok = true;
  for (std::size_t i = 0; i < seq.size(); ++i) {
    ok = ok && allclose(par.frames[i], seq[i], 1e-5, 1e-4);
  }
  return ok;
}

// ForwardPlan::run alone on one rank's padded tile, and the fp32 GEMM rate
// it reaches; single-threaded like each rank.
void plan_probe(const Setup& s, const Shape& shape, double step_p50_ms,
                Result& out) {
  const std::int64_t tile =
      shape.grid / s.report.dims.px + 2 * s.cfg.network.receptive_halo();
  const auto model = core::rebuild_model(s.cfg, s.params);
  parpde::nn::ForwardPlan plan(*model, 4, tile, tile);
  const Tensor x = random_frame(tile, 7);
  static telemetry::Counter& flops =
      telemetry::counter("backend.fp32.gemm_flops");
  (void)plan.run(x.data(), tile, tile);  // warm
  const std::uint64_t before = flops.value();
  const Clock::time_point t0 = Clock::now();
  int reps = 0;
  while (reps < 10 || seconds_since(t0) < 1.0) {
    Scope span("nn.plan_run");
    (void)plan.run(x.data(), tile, tile);
    ++reps;
  }
  const double total_s = seconds_since(t0);
  const double plan_ms = median(ledger().durations_ms("nn.plan_run"));
  const int tiles_per_rank = shape.tasks / kRanks;
  out.metric("nn.plan_run_ms", plan_ms);
  out.metric("core.step_over_plan", step_p50_ms / (tiles_per_rank * plan_ms));
  out.metric("backend.fp32.gflops",
             static_cast<double>(flops.value() - before) / total_s * 1e-9);
  say("plan probe: %lldx%lld tile, %d runs, median %.4f ms",
      static_cast<long long>(tile), static_cast<long long>(tile), reps,
      plan_ms);
}

}  // namespace

void run_rollout(const Args& args, Result& out) {
  parpde::util::ThreadPool::configure_global(0);  // 4 rank threads x 1
  const Shape shape = shape_of(args.workload);

  // --- setup: weights, decomposition, initial frame, and a 2-step rollout
  // that starts the rank threads and builds the plans (median of repeats).
  Setup s;
  const std::vector<double> setup_s = time_setup([&] {
    s = make_setup(shape, args.seed);
    (void)core::parallel_rollout(s.cfg, s.report, s.initial, 2, s.options);
  });
  say("setup: %lldx%lld grid, %d subdomains on %d ranks, median %.4f s of %zu",
      static_cast<long long>(shape.grid), static_cast<long long>(shape.grid),
      shape.tasks, kRanks, median(setup_s), setup_s.size());

  // --- measured window -------------------------------------------------------
  static telemetry::Counter& messages = telemetry::counter("comm.messages_sent");
  static telemetry::Counter& bytes = telemetry::counter("comm.bytes_sent");
  const std::uint64_t messages0 = messages.value();
  const std::uint64_t bytes0 = bytes.value();
  const Runs runs = measure(s, shape, args.seconds);
  const std::uint64_t messages1 = messages.value();
  const std::uint64_t bytes1 = bytes.value();

  const WindowSummary sum = summarize(runs.windows);
  say("%s: step_ms_p50 %.4f ms | step_ms_p90 %.4f ms | steps_per_s %.3f "
      "(medians over %zu calls of %d steps; per call >= %llu timed steps, "
      ">= %llu above p90)",
      args.workload.c_str(), sum.p50 * 1e3, sum.p90 * 1e3, sum.rate,
      sum.windows, shape.steps_per_call,
      static_cast<unsigned long long>(sum.min_samples),
      static_cast<unsigned long long>(sum.min_above_p90));
  out.ops(static_cast<std::uint64_t>(runs.steps), runs.failed);

  // --- oracles (outside the timed window) -----------------------------------
  out.oracle(matches_sequential(s),
             "first steps match core::sequential_rollout (1e-5 abs, 1e-4 rel)");
  out.oracle(runs.nonfinite == 0 && runs.degraded == 0,
             "health clean: no non-finite values, no degraded borders");
  out.oracle(runs.steady_state_allocs == 0,
             "steady-state steps allocate nothing");
  if (shape.elastic) {
    out.oracle(runs.recoveries == 0, "healthy elastic run: 0 recoveries");
  }

  if (!args.trace) {
    out.metric("setup_s", median(setup_s));
    out.metric("op_ms_p50", sum.p50 * 1e3);
    out.metric("op_ms_p90", sum.p90 * 1e3);
    out.metric("ops_per_s", sum.rate);
    return;
  }

  // --- traced run ------------------------------------------------------------
  static telemetry::Counter& heartbeat = telemetry::counter(
      "comm.tag." + std::to_string(parpde::mpi::tags::elastic_heartbeat_tag()) +
      ".bytes_sent");
  telemetry::set_enabled(true);
  ledger().start();
  const std::uint64_t hb0 = heartbeat.value();
  const Runs traced = measure(s, shape, args.seconds / 2);
  const std::uint64_t hb1 = heartbeat.value();
  plan_probe(s, shape, sum.p50 * 1e3, out);
  run_ceiling_probes(out);
  ledger().stop();
  telemetry::set_enabled(false);

  const double steps = runs.steps;
  out.metric("bench.trace_overhead_pct",
             (summarize(traced.windows).p50 - sum.p50) / sum.p50 * 100.0);
  out.metric("core.compute_ms_per_step", runs.compute_s / steps * 1e3);
  out.metric("core.overlap_ms_per_step", runs.overlap_s / steps * 1e3);
  out.metric("domain.halo_wait_ms_per_step", runs.comm_s / steps * 1e3);
  out.metric("domain.halo_bytes_per_step",
             static_cast<double>(runs.halo_bytes) / steps);
  out.metric("core.steady_state_allocs",
             static_cast<double>(runs.steady_state_allocs));
  out.metric("minimpi.messages_per_step",
             static_cast<double>(messages1 - messages0) / steps);
  out.metric("minimpi.bytes_per_step",
             static_cast<double>(bytes1 - bytes0) / steps);
  out.metric("elastic.heartbeat_bytes_per_step",
             static_cast<double>(hb1 - hb0) / traced.steps);
  report_layer_times(out);
}

}  // namespace perfbench
