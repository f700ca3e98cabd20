// Model-parallel baseline: mathematical equivalence with monolithic training,
// communication accounting, and argument validation.

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <map>
#include <vector>

#include "core/model.hpp"
#include "core/model_parallel_trainer.hpp"
#include "data/batcher.hpp"
#include "euler/simulate.hpp"
#include "helpers.hpp"
#include "minimpi/collectives.hpp"
#include "minimpi/environment.hpp"
#include "nn/conv2d.hpp"

namespace parpde::core {
namespace {

TrainConfig tiny_config() {
  TrainConfig cfg;
  cfg.network.channels = {4, 6, 4};
  cfg.network.kernel = 3;
  cfg.border = BorderMode::kZeroPad;
  cfg.loss = "mse";
  cfg.epochs = 2;
  cfg.batch_size = 4;
  return cfg;
}

data::FrameDataset tiny_dataset() {
  euler::EulerConfig ec;
  ec.n = 16;
  euler::SimulateOptions opts;
  opts.num_frames = 11;
  auto sim = euler::simulate(ec, opts);
  return data::FrameDataset(std::move(sim.frames));
}

TEST(ModelParallel, RejectsBadConfigurations) {
  EXPECT_THROW(ModelParallelTrainer(tiny_config(), 0), std::invalid_argument);
  TrainConfig halo = tiny_config();
  halo.border = BorderMode::kHaloPad;
  EXPECT_THROW(ModelParallelTrainer(halo, 2), std::invalid_argument);
  // 4 output channels in the last layer < 5 ranks.
  EXPECT_THROW(ModelParallelTrainer(tiny_config(), 5), std::invalid_argument);
}

TEST(ModelParallel, MatchesMonolithicTraining) {
  // Channel-partitioned training distributes the exact same computation, so
  // the trained parameters must match the monolithic NetworkTrainer (same
  // seed, same batches) up to float summation-order noise.
  const auto ds = tiny_dataset();
  const TrainConfig cfg = tiny_config();

  const auto split = ds.chronological_split(cfg.train_fraction);
  const domain::Partition part(16, 16, 1, 1);
  const auto task =
      make_subdomain_task(ds.frames(), split.train, part.block(0, 0), cfg);
  NetworkTrainer mono(cfg, /*seed_stream=*/0);
  const auto mono_result = mono.train(task);
  const auto mono_params = export_parameters(mono.model());

  for (const int ranks : {1, 2, 3}) {
    SCOPED_TRACE("ranks=" + std::to_string(ranks));
    const ModelParallelTrainer trainer(cfg, ranks);
    const auto report = trainer.train(ds);
    EXPECT_NEAR(report.final_loss(), mono_result.final_loss(),
                1e-3 * std::abs(mono_result.final_loss()) + 1e-6);
    ASSERT_EQ(report.parameters.size(), mono_params.size());
    for (std::size_t p = 0; p < mono_params.size(); ++p) {
      SCOPED_TRACE("param " + std::to_string(p));
      parpde::testing::expect_tensors_close(report.parameters[p],
                                            mono_params[p], 1e-4, 1e-3);
    }
  }
}

TEST(ModelParallel, CommunicatesEveryLayerUnlikeThePaperScheme) {
  const auto ds = tiny_dataset();
  const ModelParallelTrainer trainer(tiny_config(), 2);
  const auto report = trainer.train(ds);
  // Allgather per layer per batch + allreduce per layer per batch.
  EXPECT_GT(report.comm_bytes, 0u);
  EXPECT_GT(report.comm_seconds, 0.0);
  EXPECT_EQ(report.ranks, 2);
  EXPECT_EQ(report.epochs.size(), 2u);
}

TEST(ModelParallel, SingleRankSendsNothing) {
  const auto ds = tiny_dataset();
  const ModelParallelTrainer trainer(tiny_config(), 1);
  const auto report = trainer.train(ds);
  EXPECT_EQ(report.comm_bytes, 0u);
  EXPECT_TRUE(std::isfinite(report.final_loss()));
}

TEST(ModelParallel, TableINetworkSplitsAcrossFourRanks) {
  // Table I's smallest layer has 4 output channels, so 4 ranks is the widest
  // legal split of the full architecture.
  const auto ds = tiny_dataset();
  TrainConfig cfg = tiny_config();
  cfg.network = NetworkConfig{};  // Table I
  cfg.epochs = 1;
  const ModelParallelTrainer trainer(cfg, 4);
  const auto report = trainer.train(ds);
  EXPECT_TRUE(std::isfinite(report.final_loss()));
  EXPECT_GT(report.comm_bytes, 0u);
}

// Each rank's layer slice hands its input gradient to the allreduce that
// forms the previous layer's dY, so those slices keep computing dx. Only
// build_model's first layer, whose dx nothing reads, drops it.
TEST(ModelParallel, StageBoundaryLayersStillReturnInputGradient) {
  const TrainConfig cfg = tiny_config();
  util::Rng rng(3);
  const auto model = build_model(cfg.network, cfg.border, rng);
  EXPECT_FALSE(model->layer(0).needs_input_grad());
  for (std::size_t i = 1; i < model->layer_count(); ++i) {
    EXPECT_TRUE(model->layer(i).needs_input_grad()) << "layer " << i;
  }

  // Rank 1's half of the 6 -> 4 layer, built as the trainer builds it.
  nn::Conv2d slice(6, 2, cfg.network.kernel, /*pad=*/-1);
  slice.init(rng);
  ASSERT_TRUE(slice.needs_input_grad());
  Tensor x({2, 6, 8, 8});
  rng.fill_uniform(x.values(), -1.0f, 1.0f);
  Tensor dy(slice.forward(x).shape());
  rng.fill_uniform(dy.values(), -1.0f, 1.0f);
  const Tensor dx = slice.backward(dy);
  ASSERT_TRUE(dx.same_shape(x));
  double norm = 0.0;
  for (std::int64_t i = 0; i < dx.size(); ++i) norm += std::abs(dx[i]);
  EXPECT_GT(norm, 0.0);
}

// Bytes one allreduce of `count` floats puts on the wire across `ranks`.
std::uint64_t allreduce_bytes(std::int64_t count, int ranks) {
  std::atomic<std::uint64_t> total{0};
  mpi::Environment env(ranks);
  env.run([&](mpi::Communicator& comm) {
    comm.reset_counters();
    std::vector<float> values(static_cast<std::size_t>(count), 1.0f);
    mpi::allreduce<float>(comm, values, mpi::ReduceOp::kSum);
    total += comm.bytes_sent();
  });
  return total.load();
}

// The trainer's first slice computes no input gradient and allreduces none:
// nothing reads the gradient of the dataset. Its weight and bias gradients
// do not depend on that choice, so the trained parameters are unchanged, and
// comm_bytes is exactly one [N, C0, H, W] allreduce per batch below what the
// trainer sent while it still reduced that gradient (the constants below;
// byte counts depend only on message sizes, not on the machine).
TEST(ModelParallel, FirstLayerSkipsItsInputGradientAndAllreduce) {
  const TrainConfig base = tiny_config();
  util::Rng rng(5);
  nn::Conv2d with_dx(4, 3, base.network.kernel, /*pad=*/-1);
  with_dx.init(rng);
  nn::Conv2d without_dx(4, 3, base.network.kernel, /*pad=*/-1);
  without_dx.weight() = with_dx.weight();
  without_dx.bias() = with_dx.bias();
  without_dx.set_needs_input_grad(false);
  Tensor x({2, 4, 8, 8});
  rng.fill_uniform(x.values(), -1.0f, 1.0f);
  Tensor dy(with_dx.forward(x).shape());
  (void)without_dx.forward(x);
  rng.fill_uniform(dy.values(), -1.0f, 1.0f);
  EXPECT_FALSE(with_dx.backward(dy).empty());
  EXPECT_TRUE(without_dx.backward(dy).empty());
  const auto a = with_dx.parameters();
  const auto b = without_dx.parameters();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    parpde::testing::expect_tensors_equal(*a[i].grad, *b[i].grad);
  }

  const auto ds = tiny_dataset();
  TrainConfig cfg = base;
  cfg.epochs = 1;
  const auto split = ds.chronological_split(cfg.train_fraction);
  const domain::Partition part(16, 16, 1, 1);
  const auto task =
      make_subdomain_task(ds.frames(), split.train, part.block(0, 0), cfg);
  const std::int64_t sample = task.inputs.dim(1) * task.inputs.dim(2) *
                              task.inputs.dim(3);
  const std::map<int, std::uint64_t> bytes_with_layer0_allreduce = {
      {2, 215924}, {3, 406536}};
  for (const auto& [ranks, before] : bytes_with_layer0_allreduce) {
    SCOPED_TRACE("ranks=" + std::to_string(ranks));
    data::Batcher batcher(task.inputs.dim(0), cfg.batch_size, cfg.seed,
                          cfg.shuffle);
    std::uint64_t dropped = 0;
    for (const auto& batch : batcher.next_epoch()) {
      dropped += allreduce_bytes(
          static_cast<std::int64_t>(batch.size()) * sample, ranks);
    }
    const auto report = ModelParallelTrainer(cfg, ranks).train(ds);
    EXPECT_GT(dropped, 0u);
    EXPECT_EQ(report.comm_bytes, before - dropped);
  }
}

}  // namespace
}  // namespace parpde::core
