// The rollout engine: parallel_rollout must be bit-identical to the serial
// per-block reference (SubdomainEnsemble::predict iterated step by step) and
// to other placements of itself — tasks per rank, pool workers, recovery on
// or off — healthy, under injected message delay, and under message loss with
// degraded borders; and its steady-state step must perform zero heap
// allocations (counting allocator over the ForwardPlan, growth accounting
// over the engine).

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <optional>
#include <string>
#include <vector>

#include "core/inference.hpp"
#include "core/model.hpp"
#include "domain/exchange.hpp"
#include "domain/halo.hpp"
#include "helpers.hpp"
#include "minimpi/cart.hpp"
#include "minimpi/environment.hpp"
#include "minimpi/fault.hpp"
#include "minimpi/tags.hpp"
#include "nn/forward_plan.hpp"
#include "util/random.hpp"
#include "util/thread_pool.hpp"

// --- counting allocator ------------------------------------------------------
// Global operator new/delete for this test binary, counting allocations while
// g_count_allocs is set. Used to prove the ForwardPlan steady state allocates
// nothing; everything else routes straight to malloc/free.

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

TrainConfig small_config(BorderMode mode) {
  TrainConfig cfg;
  cfg.network.channels = {4, 6, 4};
  cfg.network.kernel = 3;  // receptive halo 2
  cfg.border = mode;
  return cfg;
}

Tensor random_frame(std::int64_t n, std::uint64_t seed) {
  Tensor t({4, n, n});
  util::Rng rng(seed);
  rng.fill_uniform(t.values(), 0.5f, 1.5f);
  return t;
}

ParallelTrainReport shared_weight_report(const TrainConfig& /*cfg*/, int ranks,
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

RolloutOptions placement(int tasks_per_rank, bool recovery = false) {
  RolloutOptions options;
  options.elastic.tasks_per_rank = tasks_per_rank;
  options.elastic.enabled = recovery;
  return options;
}

// The serial per-block reference: SubdomainEnsemble::predict iterated step by
// step, as a RolloutResult recording every step.
RolloutResult serial_reference(const TrainConfig& cfg,
                               const ParallelTrainReport& report,
                               const Tensor& initial, int steps) {
  SubdomainEnsemble ensemble(cfg, report, initial.dim(1), initial.dim(2));
  RolloutResult result;
  Tensor frame = initial;
  for (int s = 0; s < steps; ++s) {
    frame = ensemble.predict(frame);
    result.frames.push_back(frame);
    result.recorded_steps.push_back(s);
  }
  return result;
}

void expect_frames_bit_identical(const RolloutResult& a,
                                 const RolloutResult& b) {
  ASSERT_EQ(a.frames.size(), b.frames.size());
  for (std::size_t s = 0; s < a.frames.size(); ++s) {
    SCOPED_TRACE("frame " + std::to_string(s));
    parpde::testing::expect_tensors_equal(a.frames[s], b.frames[s]);
  }
}

TEST(RolloutOverlap, BitIdenticalToSerialReferenceHaloPad) {
  const TrainConfig cfg = small_config(BorderMode::kHaloPad);
  const std::int64_t grid = 16;
  NetworkTrainer reference(cfg, 0);
  const auto params = export_parameters(reference.model());
  const auto report = shared_weight_report(cfg, 4, params, grid);
  const Tensor initial = random_frame(grid, 42);
  const int steps = 4;

  const auto serial = serial_reference(cfg, report, initial, steps);
  const auto rollout = parallel_rollout(cfg, report, initial, steps, placement(1));
  const auto recovering =
      parallel_rollout(cfg, report, initial, steps, placement(1, true));

  expect_frames_bit_identical(serial, rollout);
  expect_frames_bit_identical(serial, recovering);
  EXPECT_EQ(rollout.halo_bytes, recovering.halo_bytes);
  EXPECT_GT(rollout.halo_bytes, 0u);
  EXPECT_EQ(rollout.degraded_borders, 0);
  EXPECT_EQ(rollout.steady_state_allocs, 0u);
  EXPECT_EQ(rollout.overlap_seconds, 0.0);
  ASSERT_EQ(rollout.step_seconds.size(), static_cast<std::size_t>(steps));
}

TEST(RolloutOverlap, BitIdenticalToSerialReferenceZeroPad) {
  const TrainConfig cfg = small_config(BorderMode::kZeroPad);
  const std::int64_t grid = 16;
  NetworkTrainer reference(cfg, 0);
  const auto params = export_parameters(reference.model());
  const auto report = shared_weight_report(cfg, 4, params, grid);
  const Tensor initial = random_frame(grid, 7);

  const auto serial = serial_reference(cfg, report, initial, 3);
  const auto rollout = parallel_rollout(cfg, report, initial, 3, placement(1));

  expect_frames_bit_identical(serial, rollout);
  EXPECT_EQ(rollout.halo_bytes, 0u);  // zero-pad is communication-free
  EXPECT_EQ(rollout.steady_state_allocs, 0u);
}

TEST(RolloutOverlap, BitIdenticalWithPoolWorkersAndTasksPerRank) {
  // The forward fans out over the intra-rank pool and a rank may host
  // several tasks (strips between them copied in place); the values must
  // depend on neither (the k-reduction never splits).
  const TrainConfig cfg = small_config(BorderMode::kHaloPad);
  const std::int64_t grid = 24;
  NetworkTrainer reference(cfg, 0);
  const auto params = export_parameters(reference.model());
  const auto report = shared_weight_report(cfg, 9, params, grid);
  const Tensor initial = random_frame(grid, 11);

  const auto inline_run = parallel_rollout(cfg, report, initial, 3, placement(1));
  util::ThreadPool::configure_global(3);
  const auto pooled = parallel_rollout(cfg, report, initial, 3, placement(1));
  const auto packed = parallel_rollout(cfg, report, initial, 3, placement(3));
  const auto single = parallel_rollout(cfg, report, initial, 3, placement(9));
  util::ThreadPool::configure_global(0);
  const auto serial = serial_reference(cfg, report, initial, 3);

  expect_frames_bit_identical(inline_run, pooled);
  expect_frames_bit_identical(pooled, serial);
  expect_frames_bit_identical(packed, serial);
  expect_frames_bit_identical(single, serial);
  EXPECT_EQ(packed.steady_state_allocs, 0u);
  EXPECT_EQ(single.halo_bytes, 0u);  // one rank: every strip copied in place
}

TEST(RolloutOverlap, RecordEveryStrideMatchesFullRecording) {
  const TrainConfig cfg = small_config(BorderMode::kHaloPad);
  const std::int64_t grid = 16;
  NetworkTrainer reference(cfg, 0);
  const auto params = export_parameters(reference.model());
  const auto report = shared_weight_report(cfg, 4, params, grid);
  const Tensor initial = random_frame(grid, 3);
  const int steps = 5;

  const auto full = parallel_rollout(cfg, report, initial, steps, placement(1));
  RolloutOptions strided = placement(1);
  strided.record_every = 2;
  const auto sparse = parallel_rollout(cfg, report, initial, steps, strided);

  // Steps 1, 3 (every second) plus the final step 4.
  ASSERT_EQ(sparse.recorded_steps, (std::vector<int>{1, 3, 4}));
  ASSERT_EQ(sparse.frames.size(), 3u);
  for (std::size_t i = 0; i < sparse.recorded_steps.size(); ++i) {
    SCOPED_TRACE("recorded step " + std::to_string(sparse.recorded_steps[i]));
    parpde::testing::expect_tensors_equal(
        sparse.frames[i],
        full.frames[static_cast<std::size_t>(sparse.recorded_steps[i])]);
  }

  RolloutOptions none = placement(1);
  none.record_every = 0;
  const auto silent = parallel_rollout(cfg, report, initial, steps, none);
  EXPECT_TRUE(silent.frames.empty());
  EXPECT_TRUE(silent.recorded_steps.empty());
}

TEST(RolloutOverlap, InjectedDelayKeepsFramesBitIdentical) {
  // Strips arrive late but intact: the bounded receives absorb the delay and
  // the frames must not change by a single bit on either placement.
  const TrainConfig cfg = small_config(BorderMode::kHaloPad);
  const std::int64_t grid = 16;
  NetworkTrainer reference(cfg, 0);
  const auto params = export_parameters(reference.model());
  const auto report = shared_weight_report(cfg, 4, params, grid);
  const Tensor initial = random_frame(grid, 9);

  const auto baseline = parallel_rollout(cfg, report, initial, 3, placement(1));

  mpi::fault::Rule delay;
  delay.action = mpi::fault::Action::kDelay;
  delay.tag_lo = mpi::tags::kHalo.base;
  delay.tag_hi = mpi::tags::kHalo.base + mpi::tags::kHalo.count - 1;
  delay.delay_ms = 2;
  mpi::fault::install(mpi::fault::FaultPlan(5).add_rule(delay));
  const auto delayed_spread =
      parallel_rollout(cfg, report, initial, 3, placement(1));
  mpi::fault::install(mpi::fault::FaultPlan(5).add_rule(delay));
  const auto delayed_packed =
      parallel_rollout(cfg, report, initial, 3, placement(2));
  mpi::fault::uninstall();

  expect_frames_bit_identical(baseline, delayed_spread);
  expect_frames_bit_identical(baseline, delayed_packed);
  EXPECT_EQ(delayed_spread.degraded_borders, 0);
}

mpi::fault::Rule drop_halo_from(int source) {
  mpi::fault::Rule drop;
  drop.action = mpi::fault::Action::kDrop;
  drop.tag_lo = mpi::tags::kHalo.base;
  drop.tag_hi = mpi::tags::kHalo.base + mpi::tags::kHalo.count - 1;
  drop.source = source;
  return drop;
}

RolloutOptions degraded_options(bool recovery) {
  RolloutOptions options = placement(1, recovery);
  options.halo.recv_timeout = std::chrono::milliseconds(10);
  options.halo.max_retries = 1;
  return options;
}

TEST(RolloutOverlap, PartialDegradationBitIdenticalWithRecoveryOnAndOff) {
  // Two ranks, one shared border; every strip rank 1 sends is lost. Rank 0
  // degrades its only live border at step 0, stops talking to rank 1 (sticky),
  // and rank 1 therefore degrades the opposite side at step 1 — a protocol-
  // driven cascade with no third rank whose retry deadline could race the
  // stalled sends. The heartbeats of recovery mode travel outside the halo
  // range, so no rank is declared dead: with recovery on and off the rollout
  // must produce the same degradation sequence and bit-identical frames.
  const TrainConfig cfg = small_config(BorderMode::kHaloPad);
  const std::int64_t grid = 16;
  NetworkTrainer reference(cfg, 0);
  const auto params = export_parameters(reference.model());
  const auto report = shared_weight_report(cfg, 2, params, grid);
  const Tensor initial = random_frame(grid, 21);

  mpi::fault::install(mpi::fault::FaultPlan(7).add_rule(drop_halo_from(1)));
  const auto ser = parallel_rollout(cfg, report, initial, 3,
                                    degraded_options(/*recovery=*/true));
  mpi::fault::install(mpi::fault::FaultPlan(7).add_rule(drop_halo_from(1)));
  const auto over = parallel_rollout(cfg, report, initial, 3,
                                     degraded_options(/*recovery=*/false));
  mpi::fault::uninstall();

  EXPECT_EQ(ser.degraded_borders, 2);  // rank 0 then, one step later, rank 1
  EXPECT_EQ(ser.degraded_borders, over.degraded_borders);
  EXPECT_EQ(ser.degraded_detail, over.degraded_detail);
  expect_frames_bit_identical(ser, over);
}

TEST(RolloutOverlap, TotalBlackoutBitIdenticalWithRecoveryOnAndOff) {
  // Every halo strip in the whole grid is lost: all interior borders must
  // degrade at step 0 with recovery on and off (timing-independent — there is
  // nothing left to arrive late) and the frames must match bit for bit.
  const TrainConfig cfg = small_config(BorderMode::kHaloPad);
  const std::int64_t grid = 16;
  NetworkTrainer reference(cfg, 0);
  const auto params = export_parameters(reference.model());
  const auto report = shared_weight_report(cfg, 4, params, grid);
  const Tensor initial = random_frame(grid, 23);

  mpi::fault::install(mpi::fault::FaultPlan(11).add_rule(drop_halo_from(-1)));
  const auto ser = parallel_rollout(cfg, report, initial, 2,
                                    degraded_options(/*recovery=*/true));
  mpi::fault::install(mpi::fault::FaultPlan(11).add_rule(drop_halo_from(-1)));
  const auto over = parallel_rollout(cfg, report, initial, 2,
                                     degraded_options(/*recovery=*/false));
  mpi::fault::uninstall();

  // 2x2 grid: every rank loses its two live borders.
  EXPECT_EQ(ser.degraded_borders, 8);
  EXPECT_EQ(ser.degraded_borders, over.degraded_borders);
  EXPECT_EQ(ser.degraded_detail, over.degraded_detail);
  expect_frames_bit_identical(ser, over);
}

TEST(RolloutOverlap, SplitExchangeMatchesMonolithicAcrossSteps) {
  // HaloExchange::begin/finish with persistent buffers must reproduce
  // exchange_halo exactly, step after step (the reused staging must not leak
  // stale halo data between steps).
  const std::int64_t grid = 12, halo = 2;
  const int ranks = 4;
  const auto dims = mpi::dims_create(ranks);
  const domain::Partition partition(grid, grid, dims.px, dims.py);

  std::vector<std::vector<Tensor>> serialized(static_cast<std::size_t>(ranks));
  std::vector<std::vector<Tensor>> split(static_cast<std::size_t>(ranks));
  for (int mode = 0; mode < 2; ++mode) {
    mpi::Environment env(ranks);
    env.run([&](mpi::Communicator& comm) {
      mpi::CartComm cart(comm, dims.px, dims.py);
      const auto block = partition.block(cart.cx(), cart.cy());
      domain::BorderHealth health;
      std::optional<domain::HaloExchange> exchange;
      if (mode == 1) {
        exchange.emplace(cart, partition, halo, domain::HaloOptions{}, &health);
      }
      Tensor padded;
      for (int step = 0; step < 3; ++step) {
        Tensor interior({3, block.height(), block.width()});
        util::Rng rng(static_cast<std::uint64_t>(
            1000 + comm.rank() * 17 + step));
        rng.fill_uniform(interior.values(), -1.0f, 1.0f);
        if (mode == 0) {
          padded = domain::exchange_halo(cart, partition, interior, halo,
                                         nullptr, {}, &health);
          serialized[static_cast<std::size_t>(comm.rank())].push_back(padded);
        } else {
          exchange->begin(interior);
          exchange->finish(padded);
          split[static_cast<std::size_t>(comm.rank())].push_back(padded);
        }
      }
    });
  }
  for (int r = 0; r < ranks; ++r) {
    for (std::size_t s = 0; s < 3; ++s) {
      SCOPED_TRACE("rank " + std::to_string(r) + " step " + std::to_string(s));
      parpde::testing::expect_tensors_equal(
          serialized[static_cast<std::size_t>(r)][s],
          split[static_cast<std::size_t>(r)][s]);
    }
  }
}

TEST(ForwardPlan, BitIdenticalToModuleForwardAndAllocationFree) {
  const TrainConfig cfg = small_config(BorderMode::kHaloPad);
  util::Rng rng(cfg.seed);
  auto model = build_model(cfg.network, cfg.border, rng);
  const std::int64_t h = 20, w = 18;
  nn::ForwardPlan plan(*model, 4, h, w);
  ASSERT_TRUE(plan.supported());
  EXPECT_EQ(plan.shrink(), 2 * cfg.network.receptive_halo());

  Tensor x({4, h, w});
  util::Rng data_rng(99);
  data_rng.fill_uniform(x.values(), -1.0f, 1.0f);

  // Reference through the module graph.
  Tensor x4 = x;
  x4.reshape({1, 4, h, w});
  Tensor expected = model->forward(x4);
  expected.reshape({expected.dim(1), expected.dim(2), expected.dim(3)});

  const nn::ForwardPlan::Output out = plan.run(x.data(), h, w);
  ASSERT_EQ(out.channels, expected.dim(0));
  ASSERT_EQ(out.height, expected.dim(1));
  ASSERT_EQ(out.width, expected.dim(2));
  for (std::int64_t i = 0; i < expected.size(); ++i) {
    ASSERT_EQ(out.data[i], expected.data()[i]) << "at index " << i;
  }

  // Smaller geometries reuse the same buffers.
  (void)plan.run(x.data(), h - 4, w - 6);
  EXPECT_EQ(plan.growth_events(), 0u);

  // Steady state: zero heap allocations across repeated runs (the counting
  // global operator new above). The pool is inline here (0 workers), matching
  // the per-rank inference configuration where rank threads run their own
  // chunks.
  (void)plan.run(x.data(), h, w);  // warm every code path once more
  g_alloc_events.store(0);
  g_count_allocs.store(true);
  for (int i = 0; i < 8; ++i) {
    const nn::ForwardPlan::Output steady = plan.run(x.data(), h, w);
    ASSERT_NE(steady.data, nullptr);
  }
  g_count_allocs.store(false);
  EXPECT_EQ(g_alloc_events.load(), 0);
  EXPECT_EQ(plan.growth_events(), 0u);
}

TEST(SubdomainEnsemble, ParallelPredictMatchesPerBlockReference) {
  const TrainConfig cfg = small_config(BorderMode::kHaloPad);
  const std::int64_t grid = 16;
  NetworkTrainer reference(cfg, 0);
  const auto params = export_parameters(reference.model());
  const auto report = shared_weight_report(cfg, 4, params, grid);
  const Tensor frame = random_frame(grid, 13);

  SubdomainEnsemble ensemble(cfg, report, grid, grid);

  // Reference: the serial per-block loop through the module graph.
  util::Rng rng(cfg.seed);
  auto model = build_model(cfg.network, cfg.border, rng);
  import_parameters(*model, params);
  const std::int64_t halo = cfg.network.receptive_halo();
  Tensor expected({frame.dim(0), grid, grid});
  for (int r = 0; r < 4; ++r) {
    const auto block = ensemble.partition().block_of_rank(r);
    Tensor input = domain::extract_with_halo(frame, block, halo);
    input.reshape({1, input.dim(0), input.dim(1), input.dim(2)});
    Tensor out = model->forward(input);
    out.reshape({out.dim(1), out.dim(2), out.dim(3)});
    domain::insert_interior(expected, block, out);
  }

  const Tensor serial = ensemble.predict(frame);
  parpde::testing::expect_tensors_equal(serial, expected);

  // Same result with pool workers and on a second call (buffer reuse).
  util::ThreadPool::configure_global(3);
  const Tensor pooled = ensemble.predict(frame);
  util::ThreadPool::configure_global(0);
  parpde::testing::expect_tensors_equal(pooled, expected);
  const Tensor again = ensemble.predict(frame);
  parpde::testing::expect_tensors_equal(again, expected);
}

}  // namespace
}  // namespace parpde::core
