// Workload `train`: the paper's Fig. 4 quantity. core::ParallelTrainer in
// kConcurrent mode, 4 ranks x 1 thread, halo-pad Table-I net, MAPE + Adam,
// batch 16, on an euler::simulate dataset (128^2, 61 frames) whose Gaussian
// pulse position is drawn from the seed.
//
// End-to-end: the op is one rank-epoch. Each train() call (kEpochsPerCall
// epochs on every rank) is one measurement window: its p50/p90 over the
// ranks' epoch times and its rank-epochs per second of train() wall time
// (4 / epoch_s); the reported figures are medians over the calls. The traced
// run adds the per-layer breakdown of one rank's batch, replayed through
// public module calls.

#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>
#include <optional>

#include "core/model.hpp"
#include "core/parallel_trainer.hpp"
#include "core/trainer.hpp"
#include "euler/simulate.hpp"
#include "ledger.hpp"
#include "nn/conv2d.hpp"
#include "nn/loss.hpp"
#include "perfbench.hpp"
#include "stats.hpp"
#include "tensor/im2col.hpp"
#include "util/random.hpp"
#include "util/telemetry.hpp"
#include "util/thread_pool.hpp"

namespace perfbench {

namespace {

namespace core = parpde::core;
namespace nn = parpde::nn;
namespace telemetry = parpde::telemetry;
using parpde::Tensor;

constexpr int kRanks = 4;
constexpr int kGrid = 128;
constexpr int kFrames = 61;
constexpr int kEpochsPerCall = 2;

core::TrainConfig train_config(std::uint64_t seed) {
  core::TrainConfig cfg;  // Table I, halo-pad, MAPE + Adam, batch 16
  cfg.border = core::BorderMode::kHaloPad;
  cfg.num_threads = 1;
  cfg.epochs = kEpochsPerCall;
  cfg.seed = seed;
  return cfg;
}

parpde::data::FrameDataset simulate_dataset(std::uint64_t seed,
                                            double& simulate_s) {
  parpde::euler::EulerConfig ec;
  ec.n = kGrid;
  parpde::util::Rng rng(seed);
  ec.pulse_x = rng.uniform(-0.6, 0.6);
  ec.pulse_y = rng.uniform(-0.6, 0.6);
  parpde::euler::SimulateOptions so;
  so.num_frames = kFrames;
  so.steps_per_frame = 4;
  const Clock::time_point t0 = Clock::now();
  auto sim = parpde::euler::simulate(ec, so);
  simulate_s = seconds_since(t0);
  return parpde::data::FrameDataset(std::move(sim.frames));
}

// Samples and counts of the measured train() calls.
struct TrainRuns {
  std::vector<Window> windows;  // one per train() call
  double wall_s = 0.0;
  int calls = 0;
  std::uint64_t attempted = 0;  // rank batches
  std::uint64_t failed = 0;     // batches of dead ranks or non-finite epochs
  std::uint64_t train_bytes = 0;
  core::ParallelTrainReport last;
};

// train() calls until `seconds` have passed (at least one call).
TrainRuns measure_train(const core::ParallelTrainer& trainer,
                        const parpde::data::FrameDataset& dataset,
                        double seconds) {
  const auto pairs = static_cast<std::int64_t>(
      dataset.chronological_split(trainer.config().train_fraction)
          .train.size());
  const std::int64_t batch = trainer.config().batch_size;
  const auto batches_per_epoch =
      static_cast<std::uint64_t>((pairs + batch - 1) / batch);
  TrainRuns runs;
  const Clock::time_point t0 = Clock::now();
  while (runs.calls == 0 || seconds_since(t0) < seconds) {
    core::ParallelTrainReport report = trainer.train(dataset);
    runs.wall_s += report.wall_seconds;
    ++runs.calls;
    runs.attempted += static_cast<std::uint64_t>(kRanks * kEpochsPerCall) *
                      batches_per_epoch;
    runs.failed += report.failures.size() *
                   static_cast<std::uint64_t>(kEpochsPerCall) *
                   batches_per_epoch;
    std::vector<double> rank_epoch_s;
    for (const core::RankOutcome& o : report.rank_outcomes) {
      runs.train_bytes += o.train_bytes_sent + o.train_bytes_received;
      for (const core::EpochStats& e : o.result.epochs) {
        rank_epoch_s.push_back(e.seconds);
        if (!std::isfinite(e.loss)) runs.failed += batches_per_epoch;
      }
    }
    runs.windows.push_back(window_of(rank_epoch_s, kRanks * kEpochsPerCall,
                                     report.wall_seconds));
    runs.last = std::move(report);
  }
  return runs;
}

// One rank's first batch, replayed through public module calls on twin B
// while twin A runs NetworkTrainer::train_batch; both start from identical
// weights and Adam state, so the losses and updated weights must agree bit
// for bit. Each rep advances both twins one step. Returns false on any
// mismatch; in the traced run the Scopes land in the ledger.
struct ReplayOutcome {
  bool identical = true;
  std::uint64_t gemm_flops = 0;  // gemm.flops of one replica batch
  Tensor widest_input;           // input of the conv with the most channels
  std::int64_t widest_pad = 0;
  std::int64_t widest_kernel = 0;
};

ReplayOutcome replay_batches(const core::ParallelTrainer& trainer,
                             const parpde::data::FrameDataset& dataset,
                             int reps) {
  const core::TrainConfig& cfg = trainer.config();
  const auto split = dataset.chronological_split(cfg.train_fraction);
  const parpde::domain::Partition part(dataset.height(), dataset.width(),
                                       trainer.dims().px, trainer.dims().py);
  const core::SubdomainTask task = core::make_subdomain_task(
      dataset.frames(), split.train, part.block_of_rank(0), cfg);
  const std::int64_t rows = std::min(cfg.batch_size, task.inputs.dim(0));
  const auto slice = [rows](const Tensor& t) {
    Tensor out({rows, t.dim(1), t.dim(2), t.dim(3)});
    std::memcpy(out.data(), t.data(),
                static_cast<std::size_t>(out.size()) * sizeof(float));
    return out;
  };
  const Tensor inputs = slice(task.inputs);
  const Tensor targets = slice(task.targets);

  core::NetworkTrainer twin_a(cfg, 0);
  core::NetworkTrainer twin_b(cfg, 0);
  nn::Sequential& model = twin_b.model();
  const nn::LossPtr loss = nn::make_loss(cfg.loss);
  static telemetry::Counter& flops = telemetry::counter("gemm.flops");

  static const char* const kFwd[] = {"nn.conv1.fwd", "nn.conv2.fwd",
                                     "nn.conv3.fwd", "nn.conv4.fwd"};
  static const char* const kBwd[] = {"nn.conv1.bwd", "nn.conv2.bwd",
                                     "nn.conv3.bwd", "nn.conv4.bwd"};
  ReplayOutcome out;
  for (int rep = 0; rep < reps; ++rep) {
    double loss_a = 0.0;
    {
      Scope s("core.train_batch");
      loss_a = twin_a.train_batch(inputs, targets);
    }
    const std::uint64_t flops_before = flops.value();
    twin_b.optimizer().zero_grad();
    Tensor x = inputs;
    std::int64_t widest_channels = 0;
    int conv = 0;
    for (std::size_t i = 0; i < model.layer_count(); ++i) {
      nn::Module& layer = model.layer(i);
      if (auto* c = dynamic_cast<nn::Conv2d*>(&layer)) {
        if (c->in_channels() > widest_channels) {
          widest_channels = c->in_channels();
          out.widest_input = x;
          out.widest_pad = c->pad();
          out.widest_kernel = c->kernel();
        }
        Scope s(kFwd[conv++]);
        x = layer.forward(x);
      } else {
        Scope s("nn.act.fwd");
        x = layer.forward(x);
      }
    }
    Tensor grad;
    double loss_b = 0.0;
    {
      Scope s("nn.loss");
      loss_b = loss->compute(x, targets, &grad);
    }
    for (std::size_t i = model.layer_count(); i-- > 0;) {
      nn::Module& layer = model.layer(i);
      if (dynamic_cast<nn::Conv2d*>(&layer) != nullptr) {
        Scope s(kBwd[--conv]);
        grad = layer.backward(grad);
      } else {
        Scope s("nn.act.bwd");
        grad = layer.backward(grad);
      }
    }
    {
      Scope s("nn.optimizer");
      twin_b.optimizer().step();
    }
    out.gemm_flops = flops.value() - flops_before;

    bool same = std::memcmp(&loss_a, &loss_b, sizeof loss_a) == 0;
    const auto pa = core::export_parameters(twin_a.model());
    const auto pb = core::export_parameters(model);
    for (std::size_t i = 0; i < pa.size(); ++i) {
      same = same && std::memcmp(pa[i].data(), pb[i].data(),
                                 static_cast<std::size_t>(pa[i].size()) *
                                     sizeof(float)) == 0;
    }
    out.identical = out.identical && same;
  }
  return out;
}

// Sum over a batch of every span named `name` in the ledger, median over
// batches: conv spans occur once per batch, activation spans three times.
double per_batch_ms(const std::string& name, int reps) {
  const std::vector<double> d = ledger().durations_ms(name);
  if (d.empty() || reps <= 0) return 0.0;
  const std::size_t per = d.size() / static_cast<std::size_t>(reps);
  std::vector<double> sums;
  for (int r = 0; r < reps; ++r) {
    double s = 0.0;
    for (std::size_t i = 0; i < per; ++i) {
      s += d[static_cast<std::size_t>(r) * per + i];
    }
    sums.push_back(s);
  }
  return median(sums);
}

// im2col_batched / col2im_batched at the widest conv's training shape.
void lowering_probe(const ReplayOutcome& r, int reps, Result& out) {
  const Tensor& x = r.widest_input;
  parpde::ConvGeometry g;
  g.in_channels = x.dim(1);
  g.height = x.dim(2);
  g.width = x.dim(3);
  g.kernel = r.widest_kernel;
  g.pad = r.widest_pad;
  const std::int64_t batch = x.dim(0);
  Scope probe("bench.lowering_probe");
  std::vector<float> col(
      static_cast<std::size_t>(g.col_rows() * batch * g.col_cols()));
  std::vector<float> back(static_cast<std::size_t>(x.size()));
  for (int i = 0; i < reps; ++i) {
    {
      Scope s("tensor.im2col");
      parpde::im2col_batched(x.data(), batch, g, col.data());
    }
    std::fill(back.begin(), back.end(), 0.0f);
    Scope s("tensor.col2im");
    parpde::col2im_batched(col.data(), batch, g, back.data());
  }
  out.metric("tensor.im2col_ms", median(ledger().durations_ms("tensor.im2col")));
  out.metric("tensor.col2im_ms", median(ledger().durations_ms("tensor.col2im")));
  say("lowering probe: [%lld x %lld] col matrix, batch %lld of %lldx%lldx%lld",
      static_cast<long long>(g.col_rows()),
      static_cast<long long>(batch * g.col_cols()),
      static_cast<long long>(batch), static_cast<long long>(g.in_channels),
      static_cast<long long>(g.height), static_cast<long long>(g.width));
}

double max_rank_seconds(const core::ParallelTrainReport& r) {
  double m = 0.0;
  for (const auto& o : r.rank_outcomes) m = std::max(m, o.result.seconds);
  return m;
}

}  // namespace

void run_train(const Args& args, Result& out) {
  parpde::util::ThreadPool::configure_global(0);
  const core::TrainConfig cfg = train_config(args.seed);

  // --- setup: generate the dataset -----------------------------------------
  std::vector<double> simulate_s;
  std::optional<parpde::data::FrameDataset> dataset;
  const std::vector<double> setup_s = time_setup([&] {
    double sim = 0.0;
    dataset.emplace(simulate_dataset(args.seed, sim));
    simulate_s.push_back(sim);
  });
  const core::ParallelTrainer trainer(cfg, kRanks);
  say("setup: %dx%d grid, %d frames, median %.4f s of %zu",
      kGrid, kGrid, kFrames, median(setup_s), setup_s.size());

  // --- measured window -------------------------------------------------------
  const TrainRuns runs = measure_train(trainer, *dataset, args.seconds);
  const WindowSummary sum = summarize(runs.windows);
  const int epochs = runs.calls * kEpochsPerCall;
  say("train: epoch_s %.4f s (train() wall over %d epochs in %d calls) | "
      "final_loss %.9g",
      runs.wall_s / epochs, epochs, runs.calls, runs.last.mean_final_loss());
  say("train: rank-epoch p50 %.3f ms p90 %.3f ms | %.4f rank-epochs/s "
      "(medians over %zu calls of %llu rank-epochs; p90 of so few is the "
      "call's slowest rank-epoch)",
      sum.p50 * 1e3, sum.p90 * 1e3, sum.rate, sum.windows,
      static_cast<unsigned long long>(sum.min_samples));
  out.ops(runs.attempted, runs.failed);

  // --- oracles (outside the timed window) -----------------------------------
  out.oracle(runs.train_bytes == 0,
             "training sent/received 0 bytes on every rank");
  bool falls = true;
  for (const core::RankOutcome& o : runs.last.rank_outcomes) {
    const double first = o.result.epochs.front().loss;
    const double last = o.result.epochs.back().loss;
    falls = falls && std::isfinite(first) && std::isfinite(last) &&
            last < first;
  }
  out.oracle(falls, "every rank's loss is finite and falls from the first "
                    "to the last epoch");

  if (!args.trace) {
    out.oracle(replay_batches(trainer, *dataset, 1).identical,
               "module-by-module replica of a batch matches train_batch "
               "bit for bit");
    out.metric("setup_s", median(setup_s));
    out.metric("op_ms_p50", sum.p50 * 1e3);
    out.metric("op_ms_p90", sum.p90 * 1e3);
    out.metric("ops_per_s", sum.rate);
    return;
  }

  // --- traced run ------------------------------------------------------------
  constexpr int kReplayReps = 5;
  telemetry::set_enabled(true);
  ledger().start();
  TrainRuns traced;
  {
    Scope s("core.train");
    traced = measure_train(trainer, *dataset, 0.0);
  }
  core::ParallelTrainReport isolated;
  {
    Scope s("core.train_isolated");
    isolated = trainer.train(*dataset, core::ExecutionMode::kIsolated);
  }
  double sequential_s = 0.0;
  {
    Scope s("core.train_sequential");
    sequential_s = core::train_sequential(*dataset, cfg).result.seconds;
  }
  parpde::util::ThreadPool::configure_global(0);
  ReplayOutcome replay;
  {
    Scope s("bench.replay");
    replay = replay_batches(trainer, *dataset, kReplayReps);
  }
  lowering_probe(replay, kReplayReps, out);
  run_ceiling_probes(out);
  ledger().stop();
  telemetry::set_enabled(false);

  out.oracle(replay.identical,
             "module-by-module replica of a batch matches train_batch bit "
             "for bit");
  out.metric("bench.trace_overhead_pct",
             (summarize(traced.windows).p50 - sum.p50) / sum.p50 * 100.0);
  for (int i = 1; i <= 4; ++i) {
    const std::string conv = "nn.conv" + std::to_string(i);
    out.metric(conv + ".fwd_ms", per_batch_ms(conv + ".fwd", kReplayReps));
    out.metric(conv + ".bwd_ms", per_batch_ms(conv + ".bwd", kReplayReps));
  }
  out.metric("nn.act.fwd_ms", per_batch_ms("nn.act.fwd", kReplayReps));
  out.metric("nn.act.bwd_ms", per_batch_ms("nn.act.bwd", kReplayReps));
  out.metric("nn.loss_ms", per_batch_ms("nn.loss", kReplayReps));
  out.metric("nn.optimizer_ms", per_batch_ms("nn.optimizer", kReplayReps));
  out.metric("core.train_batch_ms",
             per_batch_ms("core.train_batch", kReplayReps));
  double conv_ms = 0.0;
  for (int i = 1; i <= 4; ++i) {
    const std::string conv = "nn.conv" + std::to_string(i);
    conv_ms += per_batch_ms(conv + ".fwd", kReplayReps) +
               per_batch_ms(conv + ".bwd", kReplayReps);
  }
  out.metric("tensor.gemm_flops_per_batch",
             static_cast<double>(replay.gemm_flops));
  out.metric("tensor.gemm_gflops",
             static_cast<double>(replay.gemm_flops) / (conv_ms * 1e-3) * 1e-9);

  const core::ParallelTrainReport& concurrent = traced.last;
  double sum_t = 0.0;
  for (const auto& o : concurrent.rank_outcomes) sum_t += o.result.seconds;
  out.metric("core.rank_imbalance",
             max_rank_seconds(concurrent) / (sum_t / kRanks));
  out.metric("core.contention",
             max_rank_seconds(concurrent) / max_rank_seconds(isolated));
  out.metric("core.speedup_vs_1rank", sequential_s / concurrent.wall_seconds);
  out.metric("core.final_loss", runs.last.mean_final_loss());
  out.metric("minimpi.train_bytes", static_cast<double>(runs.train_bytes));
  out.metric("euler.simulate_s", median(simulate_s));
  say("train trace, %d epochs: concurrent max_r T_r %.3f s, wall %.3f s | "
      "isolated max_r T_r %.3f s | sequential (1 rank, 1 thread) %.3f s",
      kEpochsPerCall, max_rank_seconds(concurrent), concurrent.wall_seconds,
      max_rank_seconds(isolated), sequential_s);
  report_layer_times(out);
}

}  // namespace perfbench
