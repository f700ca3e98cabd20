// Int8 quantized inference backend (ISSUE 6): a 100-step Fig. 3 rollout on
// the quantized backend must track the fp32 reference within the documented
// error budget, stay bit-deterministic across placements and worker counts,
// degrade faulted borders exactly like fp32, and keep the zero-allocation
// steady state PR 5 established.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "backend/kernel_backend.hpp"
#include "core/inference.hpp"
#include "core/model.hpp"
#include "helpers.hpp"
#include "minimpi/cart.hpp"
#include "minimpi/fault.hpp"
#include "minimpi/tags.hpp"
#include "nn/forward_plan.hpp"
#include "nn/serialize.hpp"
#include "util/random.hpp"
#include "util/thread_pool.hpp"

// --- counting allocator ------------------------------------------------------
// Same device as tests/test_rollout_overlap.cpp: global operator new/delete
// counting allocations while g_count_allocs is set, to prove the int8 plan's
// steady state allocates nothing.

namespace {
std::atomic<bool> g_count_allocs{false};
std::atomic<std::int64_t> g_alloc_events{0};

void* counted_alloc(std::size_t n) {
  if (g_count_allocs.load(std::memory_order_relaxed)) {
    g_alloc_events.fetch_add(1, std::memory_order_relaxed);
  }
  void* p = std::malloc(n == 0 ? 1 : n);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
}  // namespace

void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace parpde::core {
namespace {

// Relative L2 divergence budget for the int8 backend over a 100-step Table-I
// rollout (per-output-channel symmetric weights, calibrated activation scales
// with 2x headroom). Measured divergence on the Fig. 3 configuration settles
// near 5e-3 (the contraction keeps re-injected quantization noise bounded);
// a single raw-init step measures ~3.6e-2. 5e-2 covers both without masking
// a broken quantizer — a
// wrong scale or a saturating accumulator blows past it immediately.
// Documented in docs/performance.md; keep the two in sync.
constexpr double kQuantErrorBudget = 5e-2;

// Table-I network (the NetworkConfig defaults), halo-pad borders.
TrainConfig fig3_config() {
  TrainConfig cfg;
  cfg.border = BorderMode::kHaloPad;
  return cfg;
}

Tensor random_frame(std::int64_t n, std::uint64_t seed) {
  Tensor t({4, n, n});
  util::Rng rng(seed);
  rng.fill_uniform(t.values(), 0.5f, 1.5f);
  return t;
}

// Freshly initialised Table-I weights scaled toward a contractive map so a
// 100-step autoregressive rollout stays bounded (raw random init can blow up
// over that horizon, which would make the relative-error metric meaningless),
// with nonzero biases so the attractor is a nontrivial field of O(1)
// magnitude rather than all-zeros (a zero fixed point is reproduced exactly
// by both backends and would make the divergence test vacuous).
std::vector<Tensor> contractive_params(const TrainConfig& cfg) {
  NetworkTrainer reference(cfg, 0);
  auto params = export_parameters(reference.model());
  util::Rng rng(1234);
  for (auto& t : params) {
    if (t.ndim() == 1) {
      rng.fill_uniform(t.values(), -0.3f, 0.3f);  // conv bias
    } else {
      for (std::int64_t i = 0; i < t.size(); ++i) t[i] *= 0.5f;
    }
  }
  return params;
}

ParallelTrainReport shared_weight_report(int ranks,
                                         const std::vector<Tensor>& params,
                                         std::int64_t grid) {
  ParallelTrainReport report;
  report.ranks = ranks;
  report.dims = mpi::dims_create(ranks);
  const domain::Partition part(grid, grid, report.dims.px, report.dims.py);
  report.rank_outcomes.resize(static_cast<std::size_t>(ranks));
  for (int r = 0; r < ranks; ++r) {
    auto& outcome = report.rank_outcomes[static_cast<std::size_t>(r)];
    outcome.rank = r;
    outcome.block = part.block_of_rank(r);
    outcome.parameters = params;
  }
  return report;
}

RolloutOptions backend_options(const backend::KernelBackend* bk,
                               int tasks_per_rank = 1, bool recovery = false) {
  RolloutOptions options;
  options.backend = bk;
  options.elastic.tasks_per_rank = tasks_per_rank;
  options.elastic.enabled = recovery;
  return options;
}

double relative_l2(const Tensor& a, const Tensor& b) {
  double num = 0.0, den = 0.0;
  EXPECT_TRUE(a.same_shape(b));
  for (std::int64_t i = 0; i < a.size(); ++i) {
    const double d = static_cast<double>(a[i]) - static_cast<double>(b[i]);
    num += d * d;
    den += static_cast<double>(b[i]) * static_cast<double>(b[i]);
  }
  return std::sqrt(num) / (std::sqrt(den) + 1e-12);
}

void expect_frames_bit_identical(const RolloutResult& a,
                                 const RolloutResult& b) {
  ASSERT_EQ(a.frames.size(), b.frames.size());
  for (std::size_t s = 0; s < a.frames.size(); ++s) {
    SCOPED_TRACE("frame " + std::to_string(s));
    parpde::testing::expect_tensors_equal(a.frames[s], b.frames[s]);
  }
}

TEST(QuantRollout, HundredStepDivergenceWithinBudget) {
  // The acceptance rollout: Fig. 3 configuration (Table-I net, 4 ranks,
  // halo-pad), 100 autoregressive steps, int8 vs fp32 relative L2 on every
  // recorded frame under kQuantErrorBudget.
  const TrainConfig cfg = fig3_config();
  const std::int64_t grid = 48;
  const auto params = contractive_params(cfg);
  const auto report = shared_weight_report(4, params, grid);
  const Tensor initial = random_frame(grid, 42);
  const int steps = 100;

  RolloutOptions fp32 = backend_options(&backend::blocked_f32());
  RolloutOptions int8 = backend_options(&backend::quantized_int8());
  fp32.record_every = 10;
  int8.record_every = 10;

  const auto ref = parallel_rollout(cfg, report, initial, steps, fp32);
  const auto quant = parallel_rollout(cfg, report, initial, steps, int8);

  EXPECT_EQ(ref.backend, "fp32");
  EXPECT_EQ(quant.backend, "int8");
  EXPECT_EQ(ref.steady_state_allocs, 0u);
  EXPECT_EQ(quant.steady_state_allocs, 0u);
  ASSERT_EQ(ref.recorded_steps, quant.recorded_steps);
  ASSERT_FALSE(ref.frames.empty());
  double worst = 0.0;
  for (std::size_t s = 0; s < ref.frames.size(); ++s) {
    const double err = relative_l2(quant.frames[s], ref.frames[s]);
    worst = std::max(worst, err);
    EXPECT_LT(err, kQuantErrorBudget)
        << "step " << ref.recorded_steps[s] << " rel-L2 " << err;
  }
  // The budget must not be slack by orders of magnitude either — that would
  // mean the test can no longer detect a quantizer regression.
  EXPECT_GT(worst, kQuantErrorBudget * 1e-4);
}

TEST(QuantRollout, BitDeterministicAcrossPlacementsAndWorkers) {
  // Fixed calibrated scales + exact integer accumulation: one task per rank,
  // two tasks per rank (strips copied in place), recovery on, and any pool
  // worker count must produce identical bits.
  const TrainConfig cfg = fig3_config();
  const std::int64_t grid = 48;
  const auto params = contractive_params(cfg);
  const auto report = shared_weight_report(4, params, grid);
  const Tensor initial = random_frame(grid, 7);
  const int steps = 6;
  const auto* int8 = &backend::quantized_int8();

  const auto spread =
      parallel_rollout(cfg, report, initial, steps, backend_options(int8));
  const auto packed =
      parallel_rollout(cfg, report, initial, steps, backend_options(int8, 2));
  const auto recovering = parallel_rollout(cfg, report, initial, steps,
                                           backend_options(int8, 1, true));
  util::ThreadPool::configure_global(3);
  const auto pooled =
      parallel_rollout(cfg, report, initial, steps, backend_options(int8));
  util::ThreadPool::configure_global(0);

  expect_frames_bit_identical(spread, packed);
  expect_frames_bit_identical(spread, recovering);
  expect_frames_bit_identical(spread, pooled);
  EXPECT_EQ(spread.steady_state_allocs, 0u);
  EXPECT_EQ(packed.steady_state_allocs, 0u);
}

mpi::fault::Rule drop_halo_from(int source) {
  mpi::fault::Rule drop;
  drop.action = mpi::fault::Action::kDrop;
  drop.tag_lo = mpi::tags::kHalo.base;
  drop.tag_hi = mpi::tags::kHalo.base + mpi::tags::kHalo.count - 1;
  drop.source = source;
  return drop;
}

TEST(QuantRollout, DegradedBordersMatchFp32Behavior) {
  // Message loss must trigger the identical degradation sequence on both
  // backends (same borders, same steps — the protocol is backend-blind), and
  // the degraded int8 rollout must still be bit-identical with recovery on
  // and off.
  const TrainConfig cfg = fig3_config();
  const std::int64_t grid = 48;
  const auto params = contractive_params(cfg);
  const auto report = shared_weight_report(2, params, grid);
  const Tensor initial = random_frame(grid, 21);
  const int steps = 3;

  auto degraded = [](const backend::KernelBackend* bk, bool recovery) {
    RolloutOptions options = backend_options(bk, 1, recovery);
    options.halo.recv_timeout = std::chrono::milliseconds(10);
    options.halo.max_retries = 1;
    return options;
  };
  const auto* fp32 = &backend::blocked_f32();
  const auto* int8 = &backend::quantized_int8();

  mpi::fault::install(mpi::fault::FaultPlan(7).add_rule(drop_halo_from(1)));
  const auto ref =
      parallel_rollout(cfg, report, initial, steps, degraded(fp32, false));
  mpi::fault::install(mpi::fault::FaultPlan(7).add_rule(drop_halo_from(1)));
  const auto quant_off =
      parallel_rollout(cfg, report, initial, steps, degraded(int8, false));
  mpi::fault::install(mpi::fault::FaultPlan(7).add_rule(drop_halo_from(1)));
  const auto quant_on =
      parallel_rollout(cfg, report, initial, steps, degraded(int8, true));
  mpi::fault::uninstall();

  EXPECT_EQ(ref.degraded_borders, 2);  // rank 0, then one step later rank 1
  EXPECT_EQ(quant_off.degraded_borders, ref.degraded_borders);
  EXPECT_EQ(quant_off.degraded_detail, ref.degraded_detail);
  EXPECT_EQ(quant_on.degraded_borders, ref.degraded_borders);
  EXPECT_EQ(quant_on.degraded_detail, ref.degraded_detail);
  expect_frames_bit_identical(quant_off, quant_on);
}

TEST(QuantRollout, DeconvModeRejectsInt8) {
  // The deconv model graph is not plan-compatible; the int8 backend cannot
  // silently fall back to fp32 module_forward — it must refuse.
  TrainConfig cfg = fig3_config();
  cfg.border = BorderMode::kDeconv;
  const std::int64_t grid = 48;
  const auto params = contractive_params(cfg);
  const auto report = shared_weight_report(4, params, grid);
  const Tensor initial = random_frame(grid, 5);

  EXPECT_THROW(parallel_rollout(cfg, report, initial, 2,
                                backend_options(&backend::quantized_int8())),
               std::invalid_argument);
}

TEST(QuantPlan, CalibrationRoundTripAndUncalibratedThrows) {
  const TrainConfig cfg = fig3_config();
  util::Rng rng(cfg.seed);
  auto model = build_model(cfg.network, cfg.border, rng);
  const std::int64_t h = 40, w = 36;

  Tensor x({4, h, w});
  util::Rng data_rng(99);
  data_rng.fill_uniform(x.values(), -1.0f, 1.0f);

  nn::ForwardPlan calibrated(*model, 4, h, w, &backend::quantized_int8());
  ASSERT_TRUE(calibrated.supported());
  EXPECT_TRUE(calibrated.needs_calibration());
  EXPECT_THROW((void)calibrated.run(x.data(), h, w), std::logic_error);
  calibrated.calibrate(x.data(), h, w);
  EXPECT_FALSE(calibrated.needs_calibration());
  ASSERT_EQ(calibrated.calibration().size(), 4u);  // one range per conv layer
  const nn::ForwardPlan::Output a = calibrated.run(x.data(), h, w);

  // A second plan fed the recorded ranges (the serialized-model path) must
  // reproduce the calibrated plan bit for bit.
  nn::ForwardPlan restored(*model, 4, h, w, &backend::quantized_int8());
  restored.set_calibration(calibrated.calibration());
  EXPECT_FALSE(restored.needs_calibration());
  const nn::ForwardPlan::Output b = restored.run(x.data(), h, w);
  ASSERT_EQ(a.size(), b.size());
  for (std::int64_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a.data[i], b.data[i]) << "at index " << i;
  }

  // Wrong-arity ranges must be rejected.
  nn::ForwardPlan bad(*model, 4, h, w, &backend::quantized_int8());
  EXPECT_THROW(bad.set_calibration({1.0f}), std::invalid_argument);

  // fp32 plans need no calibration and accept none of this ceremony.
  nn::ForwardPlan reference(*model, 4, h, w);
  EXPECT_FALSE(reference.needs_calibration());
}

TEST(QuantPlan, Int8CloseToFp32SingleStep) {
  // One forward pass on raw-init (unscaled) weights: agreement within the
  // stacked per-layer quantization noise. Measured ~3.6e-2 on this seed; the
  // bound matches the rollout budget.
  const TrainConfig cfg = fig3_config();
  util::Rng rng(cfg.seed);
  auto model = build_model(cfg.network, cfg.border, rng);
  const std::int64_t h = 32, w = 32;

  Tensor x({4, h, w});
  util::Rng data_rng(3);
  data_rng.fill_uniform(x.values(), -1.0f, 1.0f);

  nn::ForwardPlan fp32(*model, 4, h, w);
  nn::ForwardPlan int8(*model, 4, h, w, &backend::quantized_int8());
  int8.calibrate(x.data(), h, w);

  const nn::ForwardPlan::Output a = fp32.run(x.data(), h, w);
  const nn::ForwardPlan::Output b = int8.run(x.data(), h, w);
  ASSERT_EQ(a.size(), b.size());
  double num = 0.0, den = 0.0;
  for (std::int64_t i = 0; i < a.size(); ++i) {
    const double d = static_cast<double>(b.data[i]) - a.data[i];
    num += d * d;
    den += static_cast<double>(a.data[i]) * a.data[i];
  }
  EXPECT_LT(std::sqrt(num) / (std::sqrt(den) + 1e-12), kQuantErrorBudget);
}

TEST(QuantSerialize, CalibrationSectionRoundTrip) {
  // The v3 checkpoint trailer carries the calibration ranges: a reloaded
  // model + set_calibration must reproduce the original int8 plan bit for
  // bit, and a plain (range-free) save stays v2 and loads with the
  // calibration slot cleared.
  const TrainConfig cfg = fig3_config();
  util::Rng rng(cfg.seed);
  auto model = build_model(cfg.network, cfg.border, rng);
  const std::int64_t h = 32, w = 32;

  Tensor x({4, h, w});
  util::Rng data_rng(23);
  data_rng.fill_uniform(x.values(), -1.0f, 1.0f);

  nn::ForwardPlan plan(*model, 4, h, w, &backend::quantized_int8());
  plan.calibrate(x.data(), h, w);

  std::stringstream file(std::ios::in | std::ios::out | std::ios::binary);
  nn::save_parameters(file, *model, plan.calibration());

  util::Rng rng2(cfg.seed + 1);  // different init: load must overwrite it
  auto restored_model = build_model(cfg.network, cfg.border, rng2);
  std::vector<float> ranges{-1.0f};  // stale content: load must replace it
  nn::load_parameters(file, *restored_model, &ranges);
  ASSERT_EQ(ranges, plan.calibration());

  nn::ForwardPlan restored(*restored_model, 4, h, w,
                           &backend::quantized_int8());
  restored.set_calibration(ranges);
  const nn::ForwardPlan::Output a = plan.run(x.data(), h, w);
  const nn::ForwardPlan::Output b = restored.run(x.data(), h, w);
  ASSERT_EQ(a.size(), b.size());
  for (std::int64_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a.data[i], b.data[i]) << "at index " << i;
  }

  // Range-free save: stays readable by the calibration-aware loader, which
  // must clear the output vector (no stale ranges survive).
  std::stringstream plain(std::ios::in | std::ios::out | std::ios::binary);
  nn::save_parameters(plain, *model);
  std::vector<float> stale{9.0f};
  nn::load_parameters(plain, *restored_model, &stale);
  EXPECT_TRUE(stale.empty());
}

TEST(QuantPlan, SteadyStateAllocationFree) {
  // The int8 plan must hit the same zero-allocation steady state as fp32:
  // quantized weights, input/col workspaces and the thread-local panel/acc
  // scratch are all sized during construction/warm-up. Pool inline (0
  // workers), matching the per-rank inference configuration.
  const TrainConfig cfg = fig3_config();
  util::Rng rng(cfg.seed);
  auto model = build_model(cfg.network, cfg.border, rng);
  const std::int64_t h = 40, w = 36;
  nn::ForwardPlan plan(*model, 4, h, w, &backend::quantized_int8());
  ASSERT_TRUE(plan.supported());

  Tensor x({4, h, w});
  util::Rng data_rng(17);
  data_rng.fill_uniform(x.values(), -1.0f, 1.0f);
  plan.calibrate(x.data(), h, w);

  // Warm every code path: full tile plus a smaller (rim-band style) geometry.
  (void)plan.run(x.data(), h, w);
  (void)plan.run(x.data(), h - 4, w - 6);
  (void)plan.run(x.data(), h, w);

  g_alloc_events.store(0);
  g_count_allocs.store(true);
  for (int i = 0; i < 8; ++i) {
    const nn::ForwardPlan::Output steady = plan.run(x.data(), h, w);
    ASSERT_NE(steady.data, nullptr);
    const nn::ForwardPlan::Output rim = plan.run(x.data(), h - 4, w - 6);
    ASSERT_NE(rim.data, nullptr);
  }
  g_count_allocs.store(false);
  EXPECT_EQ(g_alloc_events.load(), 0);
  EXPECT_EQ(plan.growth_events(), 0u);
}

}  // namespace
}  // namespace parpde::core
