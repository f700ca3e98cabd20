// Blocked GEMM vs. the naive reference loops across the four kernel variants
// (including sizes that are not multiples of the micro-tile or cache blocks),
// plus the bit-determinism contract: identical results — down to identical
// epoch losses of a full training run, including one whose convs stream
// several bands — at any thread-pool size.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <iterator>
#include <vector>

#include "core/trainer.hpp"
#include "nn/conv_ops.hpp"
#include "tensor/gemm.hpp"
#include "util/random.hpp"
#include "util/thread_pool.hpp"

namespace parpde {
namespace {

std::vector<float> random_vec(std::int64_t size, std::uint64_t seed) {
  std::vector<float> v(static_cast<std::size_t>(size));
  util::Rng rng(seed);
  rng.fill_uniform(v, -1.0f, 1.0f);
  return v;
}

// Blocked and naive kernels sum k in different orders, so compare with a
// tolerance scaled by the reduction depth.
void expect_close(const std::vector<float>& got, const std::vector<float>& want,
                  std::int64_t k) {
  ASSERT_EQ(got.size(), want.size());
  const double tol = 1e-5 * static_cast<double>(k);
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_NEAR(got[i], want[i], tol + 1e-4 * std::abs(want[i]))
        << "at index " << i;
  }
}

struct Dims {
  std::int64_t m, k, n;
};

// Micro-tile is 6 x 16, cache blocks 120 x 32 x 512: cover below / at / past
// each boundary plus ragged remainders on every dimension.
const Dims kDims[] = {
    {1, 1, 1},    {3, 5, 7},      {6, 32, 16},   {7, 33, 17},
    {13, 31, 47}, {16, 150, 256}, {121, 65, 40}, {24, 40, 530},
};

TEST(GemmBlocked, MatchesNaive) {
  for (const auto& d : kDims) {
    const auto a = random_vec(d.m * d.k, 11 + d.m);
    const auto b = random_vec(d.k * d.n, 23 + d.n);
    std::vector<float> got(static_cast<std::size_t>(d.m * d.n));
    std::vector<float> want(got.size());
    gemm(a.data(), b.data(), got.data(), d.m, d.k, d.n);
    gemm_naive(a.data(), b.data(), want.data(), d.m, d.k, d.n);
    expect_close(got, want, d.k);
  }
}

TEST(GemmBlocked, AccumulateMatchesNaive) {
  for (const auto& d : kDims) {
    const auto a = random_vec(d.m * d.k, 31 + d.m);
    const auto b = random_vec(d.k * d.n, 37 + d.n);
    auto got = random_vec(d.m * d.n, 41 + d.k);  // existing C contents
    auto want = got;
    gemm_acc(a.data(), b.data(), got.data(), d.m, d.k, d.n);
    gemm_naive_acc(a.data(), b.data(), want.data(), d.m, d.k, d.n);
    expect_close(got, want, d.k);
  }
}

TEST(GemmBlocked, TransposedAMatchesNaive) {
  for (const auto& d : kDims) {
    const auto a = random_vec(d.k * d.m, 43 + d.m);  // stored [k x m]
    const auto b = random_vec(d.k * d.n, 47 + d.n);
    std::vector<float> got(static_cast<std::size_t>(d.m * d.n));
    std::vector<float> want(got.size());
    gemm_at(a.data(), b.data(), got.data(), d.m, d.k, d.n);
    gemm_naive_at(a.data(), b.data(), want.data(), d.m, d.k, d.n);
    expect_close(got, want, d.k);
  }
}

TEST(GemmBlocked, TransposedBAccumulateMatchesNaive) {
  for (const auto& d : kDims) {
    const auto a = random_vec(d.m * d.k, 53 + d.m);
    const auto b = random_vec(d.n * d.k, 59 + d.n);  // stored [n x k]
    auto got = random_vec(d.m * d.n, 61 + d.k);
    auto want = got;
    gemm_bt_acc(a.data(), b.data(), got.data(), d.m, d.k, d.n);
    gemm_naive_bt_acc(a.data(), b.data(), want.data(), d.m, d.k, d.n);
    expect_close(got, want, d.k);
  }
}

// gemm_bt_acc packs its transposed B with 8 x 8 register transposes; that
// is pure data movement, so it must match gemm_acc on the explicitly
// transposed B byte for byte. Beyond kDims: k not a multiple of 8 (the
// element-wise kc tail) and ragged n < 8 (an 8-column half with zero rows).
TEST(GemmBlocked, TransposedBAccumulateIsBytewiseGemmAcc) {
  std::vector<Dims> dims(std::begin(kDims), std::end(kDims));
  dims.insert(dims.end(), {{4, 13, 5}, {6, 100, 3}, {16, 150, 7},
                           {6, 8, 9}, {5, 77, 150}});
  for (const auto& d : dims) {
    const auto a = random_vec(d.m * d.k, 67 + d.m);
    const auto bt = random_vec(d.n * d.k, 71 + d.n);  // stored [n x k]
    std::vector<float> b(bt.size());                  // the same, [k x n]
    for (std::int64_t j = 0; j < d.n; ++j) {
      for (std::int64_t p = 0; p < d.k; ++p) {
        b[static_cast<std::size_t>(p * d.n + j)] =
            bt[static_cast<std::size_t>(j * d.k + p)];
      }
    }
    auto got = random_vec(d.m * d.n, 73 + d.k);
    auto want = got;
    gemm_bt_acc(a.data(), bt.data(), got.data(), d.m, d.k, d.n);
    gemm_acc(a.data(), b.data(), want.data(), d.m, d.k, d.n);
    ASSERT_EQ(std::memcmp(got.data(), want.data(), got.size() * sizeof(float)),
              0)
        << "m=" << d.m << " k=" << d.k << " n=" << d.n;
  }
}

// The threaded path splits C into row/column stripes but never splits the
// k-reduction, so a multi-worker run must be bit-identical to the inline run.
TEST(GemmBlocked, BitIdenticalAcrossWorkerCounts) {
  const std::int64_t m = 37, k = 150, n = 1100;  // big enough to fan out
  const auto a = random_vec(m * k, 71);
  const auto b = random_vec(k * n, 73);
  std::vector<float> inline_c(static_cast<std::size_t>(m * n));
  std::vector<float> pooled_c(inline_c.size());

  util::ThreadPool::configure_global(0);
  gemm(a.data(), b.data(), inline_c.data(), m, k, n);
  util::ThreadPool::configure_global(3);
  gemm(a.data(), b.data(), pooled_c.data(), m, k, n);
  util::ThreadPool::configure_global(0);

  for (std::size_t i = 0; i < inline_c.size(); ++i) {
    ASSERT_EQ(inline_c[i], pooled_c[i]) << "at index " << i;
  }
}

// End-to-end determinism: a full training run of `cfg` on random
// [samples, 4, size, size] data (conv forward/backward, bias and activation
// loops, ADAM updates) produces bit-identical epoch losses with 1 thread and
// with 4 threads.
void expect_losses_identical_across_thread_counts(const core::TrainConfig& cfg,
                                                  std::int64_t samples,
                                                  std::int64_t size) {
  core::SubdomainTask task;
  task.inputs = Tensor({samples, 4, size, size});
  task.targets = Tensor({samples, 4, size, size});
  util::Rng rng(20260805);
  rng.fill_uniform(task.inputs.values(), 0.1f, 1.0f);
  rng.fill_uniform(task.targets.values(), 0.1f, 1.0f);

  auto run = [&](int workers) {
    util::ThreadPool::configure_global(workers);
    core::NetworkTrainer trainer(cfg, /*seed_stream=*/0);
    const auto result = trainer.train(task);
    util::ThreadPool::configure_global(0);
    std::vector<double> losses;
    for (const auto& e : result.epochs) losses.push_back(e.loss);
    return losses;
  };

  const auto one_thread = run(0);   // inline: 1 thread total
  const auto four_threads = run(3); // caller + 3 workers = 4 threads
  ASSERT_EQ(one_thread.size(), four_threads.size());
  for (std::size_t e = 0; e < one_thread.size(); ++e) {
    ASSERT_EQ(one_thread[e], four_threads[e]) << "epoch " << e;
  }
}

TEST(GemmBlocked, TrainingLossesIdenticalAcrossThreadCounts) {
  core::TrainConfig cfg;
  cfg.network.channels = {4, 6, 4};
  cfg.network.kernel = 3;
  cfg.border = core::BorderMode::kZeroPad;
  cfg.epochs = 3;
  cfg.batch_size = 4;
  cfg.loss = "mse";
  expect_losses_identical_across_thread_counts(cfg, 12, 12);
}

// The same contract where every conv streams several bands with a ragged
// last one: 43x43 "same"-padded tiles lower 15-row bands (15+15+13) in the
// 4-channel layer and 3-row bands (14 x 3 + 1) in the 16-channel one, so
// band edges cross padding rows and dW / dx accumulate across bands.
TEST(GemmBlocked, TrainingLossesIdenticalAcrossThreadCountsMultiBand) {
  core::TrainConfig cfg;
  cfg.network.channels = {4, 16, 4};
  cfg.network.kernel = 5;
  cfg.border = core::BorderMode::kZeroPad;
  cfg.epochs = 2;
  cfg.batch_size = 4;
  cfg.loss = "mse";
  for (const std::int64_t cin : {4, 16}) {
    const ConvGeometry g{cin, 43, 43, 5, 2};
    ASSERT_GT(g.out_height(), 2 * nn::conv_band_rows(g)) << cin;
    ASSERT_NE(g.out_height() % nn::conv_band_rows(g), 0) << cin;
  }
  expect_losses_identical_across_thread_counts(cfg, 8, 43);
}

}  // namespace
}  // namespace parpde
