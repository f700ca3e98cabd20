#include "core/inference.hpp"

#include <algorithm>
#include <array>
#include <chrono>
#include <cstring>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "backend/kernel_backend.hpp"
#include "domain/exchange.hpp"
#include "domain/halo.hpp"
#include "elastic/assignment.hpp"
#include "elastic/state_checkpoint.hpp"
#include "minimpi/environment.hpp"
#include "minimpi/fault.hpp"
#include "minimpi/tags.hpp"
#include "nn/forward_plan.hpp"
#include "tensor/ops.hpp"
#include "util/log.hpp"
#include "util/telemetry.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

namespace parpde::core {

namespace {

// Copies a dense [c, sh, sw] plane block into the (y0, x0) window of a
// [c, h, w] tensor.
void insert_window(Tensor& dst, std::int64_t y0, std::int64_t x0,
                   const float* src, std::int64_t c, std::int64_t sh,
                   std::int64_t sw) {
  const auto h = dst.dim(1), w = dst.dim(2);
  for (std::int64_t ic = 0; ic < c; ++ic) {
    for (std::int64_t y = 0; y < sh; ++y) {
      float* d = dst.data() + (ic * h + y0 + y) * w + x0;
      std::copy(src, src + sw, d);
      src += sw;
    }
  }
}

// Health monitor: counts NaN/Inf floats via the exponent bits (all-ones
// exponent = non-finite). Branch-free, no library calls, no allocation —
// cheap enough to scan every task's step output unconditionally.
std::uint64_t count_nonfinite(const float* x, std::int64_t n) {
  std::uint64_t bad = 0;
  for (std::int64_t i = 0; i < n; ++i) {
    std::uint32_t bits;
    std::memcpy(&bits, &x[i], sizeof(bits));
    bad += static_cast<std::uint64_t>((bits & 0x7f800000u) == 0x7f800000u);
  }
  return bad;
}

// Module-graph forward on a [C, bh, bw] tile (the plan-incompatible
// fallback, deconv mode): reshapes in place around Sequential::forward, no
// input copy.
Tensor module_forward(nn::Sequential& model, Tensor& input) {
  input.reshape({1, input.dim(0), input.dim(1), input.dim(2)});
  Tensor out = model.forward(input);
  input.reshape({input.dim(1), input.dim(2), input.dim(3)});
  out.reshape({out.dim(1), out.dim(2), out.dim(3)});
  return out;
}

// One subdomain task: its model and pre-sized plan, its field, and its halo
// exchange. Every rank keeps a slot per task; slots of tasks the rank does
// not host (yet — adoption activates them) only carry geometry.
struct TaskState {
  int id = -1;
  domain::BlockRange block{};
  bool use_plan = false;
  std::unique_ptr<nn::Sequential> model;
  std::unique_ptr<nn::ForwardPlan> plan;
  Tensor interior;  // [c, bh, bw], the task's current field
  Tensor next;      // assembled step output
  Tensor padded;    // [c, bh + 2 halo, bw + 2 halo] forward input
  domain::BorderHealth health;
  std::optional<domain::HaloExchange> exchange;
};

// Thrown out of the heartbeat barrier when a peer's lease budget is
// exhausted; carries every peer that expired at that moment so simultaneous
// deaths rebalance as one batch on every survivor.
struct DeathNotice {
  std::vector<int> failed;
  double waited_seconds = 0.0;
};

}  // namespace

RolloutResult parallel_rollout(const TrainConfig& config,
                               const ParallelTrainReport& trained,
                               const Tensor& initial, int steps,
                               const domain::HaloOptions& halo_options) {
  RolloutOptions options;
  options.halo = halo_options;
  return parallel_rollout(config, trained, initial, steps, options);
}

RolloutResult parallel_rollout(const TrainConfig& config,
                               const ParallelTrainReport& trained,
                               const Tensor& initial, int steps,
                               const RolloutOptions& options) {
  if (config.border == BorderMode::kValidInner) {
    throw std::invalid_argument(
        "parallel_rollout: valid-inner mode cannot roll out (output loses the "
        "subdomain rim)");
  }
  if (initial.ndim() != 3) {
    throw std::invalid_argument("parallel_rollout: initial frame must be [C,H,W]");
  }
  if (steps <= 0) throw std::invalid_argument("parallel_rollout: steps must be > 0");

  const ElasticOptions& el = options.elastic;
  const int tasks = trained.ranks;
  if (el.tasks_per_rank < 1 || tasks % el.tasks_per_rank != 0) {
    throw std::invalid_argument(
        "parallel_rollout: tasks_per_rank must divide the trained report's "
        "rank count (" +
        std::to_string(tasks) + ")");
  }
  if (tasks > mpi::tags::kMaxTasks) {
    throw std::invalid_argument("parallel_rollout: more tasks than the halo "
                                "tag range can address");
  }
  const int nranks = tasks / el.tasks_per_rank;
  const int px = trained.dims.px;
  const int py = trained.dims.py;
  if (px * py != tasks) {
    throw std::invalid_argument("parallel_rollout: trained dims do not tile "
                                "the task count");
  }
  const std::chrono::milliseconds lease =
      std::max(el.lease, std::chrono::milliseconds(1));
  const std::int64_t lease_budget_ms =
      lease.count() * static_cast<std::int64_t>(std::max(el.missed_leases, 1));
  const bool snapshots =
      el.enabled && el.state_every > 0 && !el.state_dir.empty();

  const domain::Partition partition(initial.dim(1), initial.dim(2), px, py);
  const std::int64_t halo = config.border == BorderMode::kHaloPad
                                ? config.network.receptive_halo()
                                : 0;
  const std::int64_t chans = initial.dim(0);
  const backend::KernelBackend* bk =
      options.backend != nullptr ? options.backend : &backend::blocked_f32();
  // Anything but the reference backend must run through the plan — the
  // module graph is the fp32 reference path by definition.
  const bool non_reference = bk != &backend::blocked_f32();

  // A step is recorded every `record_every` steps, plus always the last one.
  auto recorded = [&](int step) {
    if (options.record_every <= 0) return false;
    return (step + 1) % options.record_every == 0 || step + 1 == steps;
  };
  std::vector<int> recorded_steps;
  for (int s = 0; s < steps; ++s) {
    if (recorded(s)) recorded_steps.push_back(s);
  }

  RolloutResult result;
  result.backend = bk->name();
  result.recorded_steps = recorded_steps;
  result.frames.resize(recorded_steps.size());
  result.step_seconds.resize(static_cast<std::size_t>(steps), 0.0);

  const auto np = static_cast<std::size_t>(nranks);
  std::vector<double> comm_seconds(np, 0.0);
  std::vector<double> compute_seconds(np, 0.0);
  std::vector<std::uint64_t> steady_allocs(np, 0);
  std::vector<std::uint64_t> halo_bytes(np, 0);
  std::vector<std::uint64_t> halo_bytes_recv(np, 0);
  std::vector<std::uint64_t> total_sent(np, 0);
  std::vector<std::uint64_t> total_recv(np, 0);
  std::vector<std::uint64_t> nonfinite(np, 0);
  std::vector<int> first_bad_step(np, -1);
  std::vector<double> max_residual(np, 0.0);
  std::vector<int> recoveries_of(np, 0);
  std::vector<int> adopted_of(np, 0);
  std::vector<int> detect_step_of(np, -1);
  std::vector<double> detect_seconds_of(np, 0.0);
  std::vector<double> rebalance_seconds_of(np, 0.0);
  std::vector<int> epoch_of(np, 0);
  std::vector<int> blip_of(np, 0);
  // Final per-task border state, written by each task's last owner.
  std::vector<int> task_degraded(static_cast<std::size_t>(tasks), 0);
  std::vector<std::string> task_border(static_cast<std::size_t>(tasks));

  // The health monitor forwards the residual-probe switch into the halo
  // exchange and takes the int8 saturation count as a counter delta around
  // the whole run (quantize_u8 accounts per chunk into the global counter).
  domain::HaloOptions halo_options = options.halo;
  halo_options.probe_residuals = options.monitor_health;
  static telemetry::Counter& saturated =
      telemetry::counter("backend.int8.saturated");
  static telemetry::Counter& nonfinite_counter =
      telemetry::counter("health.nonfinite_values");
  const std::uint64_t saturated_before = saturated.value();

  const auto body = [&](mpi::Communicator& comm) {
    const int rank = comm.rank();
    const auto ri = static_cast<std::size_t>(rank);
    mpi::PhaseScope phase(comm, "rollout");

    static telemetry::Counter& adoptions_counter =
        telemetry::counter("recover.adoptions");
    static telemetry::Gauge& epoch_gauge =
        telemetry::gauge("recover.assignment_epoch");
    static telemetry::Histogram& rebalance_hist =
        telemetry::histogram("recover.rebalance_seconds");
    static telemetry::Histogram& detection_hist =
        telemetry::histogram("recover.detection_seconds");
    static telemetry::Histogram& step_latency =
        telemetry::histogram("rollout.step_seconds");
    static telemetry::Counter& steady_counter =
        telemetry::counter("inference.steady_state_allocs");

    elastic::Assignment assign(tasks, nranks);
    std::vector<char> live(np, 1);
    std::vector<TaskState> task(static_cast<std::size_t>(tasks));
    std::vector<domain::HaloExchange*> peers(static_cast<std::size_t>(tasks),
                                             nullptr);
    for (int t = 0; t < tasks; ++t) {
      TaskState& ts = task[static_cast<std::size_t>(t)];
      ts.id = t;
      ts.block = partition.block(t % px, t / px);
      if (halo > ts.block.height() || halo > ts.block.width()) {
        throw std::invalid_argument(
            "parallel_rollout: halo exceeds the task block size (too many "
            "tasks for this grid)");
      }
    }

    util::AccumulatingTimer comm_timer;
    util::AccumulatingTimer compute_timer;
    comm.reset_counters();
    std::uint64_t exchange_bytes = 0;
    std::uint64_t exchange_bytes_recv = 0;

    // Builds (or, on adoption, rebuilds) one task's model, plan, initial
    // field and exchange. Int8 calibration always runs on the *initial*
    // interior, in a zero-extended halo frame (the physical-boundary
    // treatment), so an adopted task installs the exact activation scales
    // its original owner calibrated at step 0 — a prerequisite for
    // bit-identical resumption.
    auto activate = [&](TaskState& ts) {
      util::Rng rng(config.seed);
      ts.model = build_model(config.network, config.border, rng);
      import_parameters(
          *ts.model,
          trained.rank_outcomes[static_cast<std::size_t>(ts.id)].parameters);
      ts.interior = domain::extract_interior(initial, ts.block);
      const std::int64_t bh = ts.block.height();
      const std::int64_t bw = ts.block.width();
      ts.plan = std::make_unique<nn::ForwardPlan>(*ts.model, chans,
                                                  bh + 2 * halo, bw + 2 * halo,
                                                  bk);
      if (non_reference && !ts.plan->supported()) {
        throw std::invalid_argument(
            std::string("parallel_rollout: the ") + bk->name() +
            " backend requires a plan-compatible model (deconv mode runs fp32 "
            "only)");
      }
      ts.use_plan = ts.plan->supported();
      if (ts.use_plan && ts.plan->needs_calibration()) {
        if (halo > 0) {
          Tensor calib({chans, bh + 2 * halo, bw + 2 * halo});
          calib.fill(0.0f);
          insert_window(calib, halo, halo, ts.interior.data(), chans, bh, bw);
          ts.plan->calibrate(calib.data(), calib.dim(1), calib.dim(2));
        } else {
          ts.plan->calibrate(ts.interior.data(), bh, bw);
        }
      }
      ts.next = Tensor({chans, bh, bw});
      if (halo > 0 && !ts.exchange) {
        ts.exchange.emplace(comm, partition, ts.id, assign, peers, halo,
                            halo_options, &ts.health);
        peers[static_cast<std::size_t>(ts.id)] = &*ts.exchange;
      }
    };

    std::vector<int> owned = assign.tasks_of(rank);
    for (const int t : owned) activate(task[static_cast<std::size_t>(t)]);

    // --- heartbeat barrier (ElasticOptions::enabled only) ------------------
    // Per-peer high-water mark of the (epoch, step) key the last heartbeat
    // carried; the lexicographic key lets post-recovery barriers consume any
    // stale pre-recovery heartbeat without miscounting it.
    auto hb_key = [](std::uint32_t epoch, std::uint32_t step) {
      return (static_cast<std::int64_t>(epoch) << 32) |
             static_cast<std::int64_t>(step);
    };
    std::vector<std::int64_t> hb_seen(np, -1);
    std::vector<std::uint32_t> hb_buf;
    std::vector<float> gather_buf;

    // The step barrier is split in two so a rank's own synchronous work
    // (settle() below) runs between announcing its heartbeat and awaiting
    // its peers'. heartbeat_send announces (epoch, step) to every live peer.
    auto heartbeat_send = [&](int step) {
      const std::array<std::uint32_t, 2> hb = {
          static_cast<std::uint32_t>(assign.epoch()),
          static_cast<std::uint32_t>(step)};
      for (int p = 0; p < nranks; ++p) {
        if (p == rank || !live[static_cast<std::size_t>(p)]) continue;
        comm.send<std::uint32_t>(p, mpi::tags::elastic_heartbeat_tag(), hb);
      }
    };

    // Waits until every live peer's heartbeat reaches (epoch, step). A peer
    // that stays silent for the whole lease budget while we wait is declared
    // dead via DeathNotice. Never uses a collective: those would hang on the
    // dead rank. Threading (src/minimpi/README.md): this loop and the halo
    // receives both run on the rank's own thread, and the heartbeat and
    // strip tag ranges are disjoint, so each channel keeps a single consumer.
    auto heartbeat_await = [&](int step) {
      const std::int64_t target =
          hb_key(static_cast<std::uint32_t>(assign.epoch()),
                 static_cast<std::uint32_t>(step));
      std::vector<std::int64_t> waited_ms(np, 0);
      util::WallTimer wait_timer;
      for (;;) {
        bool all = true;
        for (int p = 0; p < nranks; ++p) {
          const auto pi = static_cast<std::size_t>(p);
          if (p == rank || !live[pi] || hb_seen[pi] >= target) continue;
          const mpi::RecvStatus status = comm.recv_for<std::uint32_t>(
              p, mpi::tags::elastic_heartbeat_tag(), lease, &hb_buf);
          if (status == mpi::RecvStatus::kOk && hb_buf.size() == 2) {
            hb_seen[pi] = std::max(hb_seen[pi], hb_key(hb_buf[0], hb_buf[1]));
          } else {
            waited_ms[pi] += lease.count();
            if (waited_ms[pi] >= lease_budget_ms) {
              // Batch every peer whose budget expired in this same round so
              // simultaneous deaths produce one deterministic rebalance.
              DeathNotice notice;
              notice.waited_seconds = wait_timer.seconds();
              for (int q = 0; q < nranks; ++q) {
                const auto qi = static_cast<std::size_t>(q);
                if (q != rank && live[qi] && hb_seen[qi] < target &&
                    waited_ms[qi] >= lease_budget_ms) {
                  notice.failed.push_back(q);
                }
              }
              throw notice;
            }
          }
          if (hb_seen[pi] < target) all = false;
        }
        if (all) return;
      }
    };

    // Bounded receive of one gathered frame block: a missing block fails
    // this rank after several lease budgets rather than hanging.
    auto gather_recv = [&](int src, int tag, int step) {
      std::int64_t waited = 0;
      const std::int64_t budget = 4 * lease_budget_ms + 1000;
      for (;;) {
        const mpi::RecvStatus status =
            comm.recv_for<float>(src, tag, lease, &gather_buf);
        if (status == mpi::RecvStatus::kOk) return;
        if (status == mpi::RecvStatus::kCorrupt) {
          throw mpi::fault::RankFailure(
              "parallel_rollout: CRC-corrupt frame block from rank " +
                  std::to_string(src),
              -1, step);
        }
        waited += lease.count();
        if (waited >= budget) {
          throw mpi::fault::RankFailure(
              "parallel_rollout: no frame block from rank " +
                  std::to_string(src) + " within the patience budget",
              -1, step);
        }
      }
    };

    // --- halo exchange -----------------------------------------------------
    // Every hosted task posts its W/E strips before any of them waits, then
    // every task completes phase 1 (receives W/E, posts S/N) before any
    // completes phase 2 — so no receive ever waits on a send its own rank
    // has yet to make. A neighbour task whose owner is dead (and unadopted)
    // sits behind a degraded border: its halo band stays zero.
    auto exchange_tasks = [&] {
      comm_timer.start();
      const std::uint64_t sent_before = comm.bytes_sent();
      const std::uint64_t recv_before = comm.bytes_received();
      for (const int t : owned) {
        TaskState& ts = task[static_cast<std::size_t>(t)];
        ts.exchange->begin(ts.interior);
      }
      for (const int t : owned) {
        task[static_cast<std::size_t>(t)].exchange->finish_x();
      }
      for (const int t : owned) {
        TaskState& ts = task[static_cast<std::size_t>(t)];
        ts.exchange->finish_y(ts.padded);
      }
      exchange_bytes += comm.bytes_sent() - sent_before;
      exchange_bytes_recv += comm.bytes_received() - recv_before;
      comm_timer.stop();
    };

    // --- deferred work (recovery mode) -------------------------------------
    // What a rank owes between heartbeat_send and heartbeat_await: the
    // snapshot of the previous step's result and, after a rebalance, the
    // adoption and rollback. Done there, it overlaps the peers' wait instead
    // of adding to the silence they time against the lease budget: under
    // I/O load the two fsyncs of one snapshot alone have taken longer than
    // 8 x 25 ms.
    int unsaved_step = -1;           // step whose result awaits its snapshot
    std::vector<int> to_adopt;       // orphans assigned here, not yet active
    std::optional<int> rollback_to;  // pending rollback line (-1 = initial)
    auto settle = [&] {
      if (unsaved_step >= 0) {
        for (const int t : owned) {
          elastic::save_task_state(el.state_dir, t, unsaved_step,
                                   task[static_cast<std::size_t>(t)].interior);
        }
        unsaved_step = -1;
      }
      if (!rollback_to) return;
      util::WallTimer rebalance_timer;
      for (const int t : to_adopt) activate(task[static_cast<std::size_t>(t)]);
      to_adopt.clear();
      // Roll every owned task (adopted and original alike) back to the
      // newest common snapshot line; without snapshots, back to the initial
      // frame.
      const int line = *rollback_to;
      for (const int t : owned) {
        TaskState& ts = task[static_cast<std::size_t>(t)];
        if (line >= 0) {
          std::string why;
          if (!elastic::load_task_state(el.state_dir, t, line, &ts.interior,
                                        &why)) {
            throw std::runtime_error("parallel_rollout: rollback of task " +
                                     std::to_string(t) + " to step " +
                                     std::to_string(line) + " failed: " + why);
          }
        } else {
          ts.interior = domain::extract_interior(initial, ts.block);
        }
        ts.health.reset();
      }
      rollback_to.reset();
      const double rebalance_s = rebalance_timer.seconds();
      rebalance_seconds_of[ri] += rebalance_s;
      rebalance_hist.observe(rebalance_s);
    };

    // --- failure handling (recovery mode) ----------------------------------
    // Every survivor runs this with the identical failed set at the identical
    // step (the all-to-all barrier guarantees it), so the rebalanced map and
    // the rollback line agree everywhere with no coordination. Returns the
    // step to resume from: the rolled-back line + 1 under recovery, or the
    // current step (continue degraded) with recover off. Under recovery the
    // adoption and rollback themselves are left to settle().
    auto handle_death = [&](const DeathNotice& notice, int step) -> int {
      if (std::find(notice.failed.begin(), notice.failed.end(), 0) !=
          notice.failed.end()) {
        throw std::runtime_error(
            "parallel_rollout: rank 0 died; it hosts the recorded frames and "
            "cannot be adopted");
      }
      for (const int q : notice.failed) live[static_cast<std::size_t>(q)] = 0;
      if (detect_step_of[ri] < 0) {
        detect_step_of[ri] = step;
        detect_seconds_of[ri] = notice.waited_seconds;
      }
      detection_hist.observe(notice.waited_seconds);
      std::string who;
      for (const int q : notice.failed) {
        if (!who.empty()) who += ',';
        who += std::to_string(q);
      }
      // The blip: every border facing a dead rank's task degrades now; under
      // recovery it is healthy again the moment the task is adopted.
      int blip = 0;
      for (const int t : owned) {
        TaskState& ts = task[static_cast<std::size_t>(t)];
        for (const mpi::Direction d : mpi::kAllDirections) {
          const int nt = partition.neighbor(t, d);
          if (nt < 0) continue;
          if (!live[static_cast<std::size_t>(assign.owner(nt))] &&
              !ts.health.degraded(d)) {
            ts.health.mark_degraded(d);
            ++blip;
          }
        }
      }
      if (!el.recover) {
        util::log_warn() << "rank " << rank << ": rank(s) " << who
                         << " dead at step " << step
                         << "; recovery disabled, " << blip
                         << " border(s) degraded to zero padding";
        return step;
      }
      const std::vector<int> orphans = assign.rebalance(notice.failed);
      for (const int t : orphans) {
        if (assign.owner(t) == rank) to_adopt.push_back(t);
      }
      const int adopted = static_cast<int>(to_adopt.size());
      owned = assign.tasks_of(rank);
      // The dead rank completed step-1 but saved only up to step-2: each
      // step's snapshot is written during the next step's settle(), which a
      // rank killed at this step boundary never reached. Survivors hold
      // every line <= step-1, so step-2 bounds the newest common line.
      rollback_to =
          snapshots ? elastic::rollback_line(step - 2, el.state_every) : -1;
      const int line = *rollback_to;
      recoveries_of[ri] += 1;
      adopted_of[ri] += adopted;
      blip_of[ri] += blip;
      epoch_of[ri] = assign.epoch();
      adoptions_counter.add(static_cast<std::uint64_t>(adopted));
      epoch_gauge.set(static_cast<double>(assign.epoch()));
      util::log_warn() << "rank " << rank << ": rank(s) " << who
                       << " dead at step " << step << "; epoch "
                       << assign.epoch() << ", adopted " << adopted
                       << " task(s), resuming from step " << (line + 1);
      return line + 1;
    };

    // --- main loop ---------------------------------------------------------
    std::uint64_t warm_growths = 0;
    int warm_until = 0;  // re-baselined after recovery: adopted plans grow once
    auto total_growths = [&] {
      std::uint64_t g = 0;
      for (const int t : owned) {
        const TaskState& ts = task[static_cast<std::size_t>(t)];
        if (ts.use_plan) g += ts.plan->growth_events();
        if (ts.exchange) g += ts.exchange->growth_events();
      }
      return g;
    };

    int step = 0;
    while (step < steps) {
      telemetry::Span step_span("rollout.step", "rollout");
      util::WallTimer step_timer;
      if (el.enabled) {
        // Step-boundary kill point: a killed rank dies *before* sending
        // anything for this step, so no partial traffic is ever in flight at
        // detection time.
        mpi::fault::check_kill_step(rank, step);
        heartbeat_send(step);
        settle();
        bool rolled_back = false;
        for (;;) {
          try {
            heartbeat_await(step);
            break;
          } catch (const DeathNotice& notice) {
            const int resume = handle_death(notice, step);
            if (el.recover) {
              // New epoch: the loop head sends a fresh heartbeat.
              step = resume;
              rolled_back = true;
              break;
            }
            // Recover off: the barrier re-runs without the dead peers; our
            // heartbeat for this step is already out, don't duplicate it.
          }
        }
        if (rolled_back) {
          warm_until = step;
          continue;
        }
      }

      // Sec. III: "extra data points must be received from the neighboring
      // processes" — then every hosted task runs its forward on the padded
      // tile.
      if (halo > 0) exchange_tasks();
      compute_timer.start();
      {
        telemetry::Span forward_span("rollout.forward", "rollout");
        mpi::PhaseScope forward_phase(comm, "rollout.forward",
                                      mpi::CommPolicy::kForbidden);
        for (const int t : owned) {
          TaskState& ts = task[static_cast<std::size_t>(t)];
          Tensor& input = halo > 0 ? ts.padded : ts.interior;
          if (ts.use_plan) {
            const nn::ForwardPlan::Output out =
                ts.plan->run(input.data(), input.dim(1), input.dim(2));
            insert_window(ts.next, 0, 0, out.data, out.channels,
                          ts.block.height(), ts.block.width());
            std::swap(ts.interior, ts.next);
          } else {
            ts.interior = module_forward(*ts.model, input);
          }
        }
      }
      compute_timer.stop();

      // Health monitor: scan this step's output for NaN/Inf. One pass over
      // each hosted tile, no allocation — the <2% overhead budget is checked
      // by bench_rollout_latency's health section.
      if (options.monitor_health) {
        for (const int t : owned) {
          const TaskState& ts = task[static_cast<std::size_t>(t)];
          const std::uint64_t bad =
              count_nonfinite(ts.interior.data(), ts.interior.size());
          if (bad > 0) {
            nonfinite[ri] += bad;
            nonfinite_counter.add(bad);
            if (first_bad_step[ri] < 0) first_bad_step[ri] = step;
          }
        }
      }

      if (snapshots && (step + 1) % el.state_every == 0) unsaved_step = step;

      // Gather the predicted frame on rank 0 for validation/recording (not
      // part of the scheme's communication cost; a production run keeps
      // fields distributed — record_every <= 0 skips this entirely).
      if (recorded(step)) {
        telemetry::Span gather_span("rollout.gather", "rollout");
        comm_timer.start();
        const std::size_t frame_index = static_cast<std::size_t>(
            std::lower_bound(recorded_steps.begin(), recorded_steps.end(),
                             step) -
            recorded_steps.begin());
        if (rank != 0) {
          for (const int t : owned) {
            comm.send<float>(0, mpi::tags::task_gather_tag(t),
                             task[static_cast<std::size_t>(t)].interior.values());
          }
        } else {
          Tensor& full = result.frames[frame_index];
          full = Tensor({chans, partition.grid_h(), partition.grid_w()});
          for (int t = 0; t < tasks; ++t) {
            const TaskState& ts = task[static_cast<std::size_t>(t)];
            const int src = assign.owner(t);
            // Dead, unadopted tasks leave zero holes (recover off only).
            if (!live[static_cast<std::size_t>(src)]) continue;
            const domain::BlockRange& b = ts.block;
            const float* block = ts.interior.data();
            if (src != 0) {
              gather_recv(src, mpi::tags::task_gather_tag(t), step);
              if (gather_buf.size() !=
                  static_cast<std::size_t>(chans * b.height() * b.width())) {
                throw std::runtime_error(
                    "parallel_rollout: gathered block size mismatch");
              }
              block = gather_buf.data();
            }
            insert_window(full, b.h0, b.w0, block, chans, b.height(),
                          b.width());
          }
        }
        comm_timer.stop();
      }

      if (step == warm_until) warm_growths = total_growths();
      if (rank == 0) {
        const double seconds = step_timer.seconds();
        result.step_seconds[static_cast<std::size_t>(step)] = seconds;
        step_latency.observe(seconds);
      }
      ++step;
    }
    if (el.enabled) settle();  // the final step's snapshot

    const std::uint64_t growths = total_growths();
    steady_allocs[ri] = growths - warm_growths;
    steady_counter.add(growths - warm_growths);
    comm_seconds[ri] = comm_timer.seconds();
    compute_seconds[ri] = compute_timer.seconds();
    halo_bytes[ri] = exchange_bytes;
    halo_bytes_recv[ri] = exchange_bytes_recv;
    total_sent[ri] = comm.bytes_sent();
    total_recv[ri] = comm.bytes_received();
    for (const int t : owned) {
      const TaskState& ts = task[static_cast<std::size_t>(t)];
      max_residual[ri] = std::max(max_residual[ri], ts.health.max_residual());
      if (ts.health.any()) {
        task_degraded[static_cast<std::size_t>(t)] = ts.health.count();
        task_border[static_cast<std::size_t>(t)] = ts.health.describe();
      }
    }
  };

  // Recovery mode survives injected rank deaths (fault::RankFailure); without
  // it every rank error propagates to the caller.
  mpi::Environment env(nranks);
  mpi::RunOutcome outcome;
  if (el.enabled) {
    outcome = env.run_collect(body);
  } else {
    env.run(body);
  }

  for (int r = 0; r < nranks; ++r) {
    const auto ri = static_cast<std::size_t>(r);
    result.health.nonfinite_values += nonfinite[ri];
    if (first_bad_step[ri] >= 0 &&
        (result.health.first_nonfinite_step < 0 ||
         first_bad_step[ri] < result.health.first_nonfinite_step)) {
      result.health.first_nonfinite_step = first_bad_step[ri];
      result.health.first_nonfinite_rank = r;
    }
    result.health.max_interface_residual =
        std::max(result.health.max_interface_residual, max_residual[ri]);
    result.comm_seconds = std::max(result.comm_seconds, comm_seconds[ri]);
    result.compute_seconds =
        std::max(result.compute_seconds, compute_seconds[ri]);
    result.steady_state_allocs += steady_allocs[ri];
    result.halo_bytes += halo_bytes[ri];
    result.halo_bytes_received += halo_bytes_recv[ri];
    result.bytes_sent += total_sent[ri];
    result.bytes_received += total_recv[ri];
    result.health.recoveries =
        std::max(result.health.recoveries, recoveries_of[ri]);
    result.health.adopted_tasks += adopted_of[ri];
    result.health.detection_step =
        std::max(result.health.detection_step, detect_step_of[ri]);
    result.health.detection_seconds =
        std::max(result.health.detection_seconds, detect_seconds_of[ri]);
    result.health.rebalance_seconds =
        std::max(result.health.rebalance_seconds, rebalance_seconds_of[ri]);
    result.health.assignment_epoch =
        std::max(result.health.assignment_epoch, epoch_of[ri]);
    result.health.degraded_during_recovery += blip_of[ri];
  }
  for (int t = 0; t < tasks; ++t) {
    const auto ti = static_cast<std::size_t>(t);
    if (task_degraded[ti] > 0) {
      result.degraded_borders += task_degraded[ti];
      result.degraded_detail.push_back("task " + std::to_string(t) + ": " +
                                       task_border[ti]);
    }
  }
  result.health.failed_ranks = static_cast<int>(outcome.failed_ranks().size());
  result.health.quant_saturations = saturated.value() - saturated_before;
  result.health.degraded_borders = result.degraded_borders;
  return result;
}

SubdomainEnsemble::SubdomainEnsemble(const TrainConfig& config,
                                     const ParallelTrainReport& trained,
                                     std::int64_t grid_h, std::int64_t grid_w)
    : config_(config),
      partition_(grid_h, grid_w, trained.dims.px, trained.dims.py),
      halo_(config.border == BorderMode::kHaloPad
                ? config.network.receptive_halo()
                : 0) {
  models_.reserve(trained.rank_outcomes.size());
  plans_.reserve(trained.rank_outcomes.size());
  for (std::size_t r = 0; r < trained.rank_outcomes.size(); ++r) {
    util::Rng rng(config.seed);
    auto model = build_model(config.network, config.border, rng);
    import_parameters(*model, trained.rank_outcomes[r].parameters);
    const auto block = partition_.block_of_rank(static_cast<int>(r));
    auto plan = std::make_unique<nn::ForwardPlan>(
        *model, config.network.channels.front(), block.height() + 2 * halo_,
        block.width() + 2 * halo_);
    if (!plan->supported()) plan.reset();
    models_.push_back(std::move(model));
    plans_.push_back(std::move(plan));
  }
  inputs_.resize(models_.size());
}

SubdomainEnsemble::~SubdomainEnsemble() = default;

Tensor SubdomainEnsemble::predict(const Tensor& frame) const {
  if (frame.ndim() != 3 || frame.dim(1) != partition_.grid_h() ||
      frame.dim(2) != partition_.grid_w()) {
    throw std::invalid_argument("SubdomainEnsemble::predict: bad frame shape");
  }
  Tensor assembled({frame.dim(0), frame.dim(1), frame.dim(2)});
  // Subdomains write disjoint blocks of `assembled` and touch only their own
  // model/plan/staging, so fanning them out is bit-deterministic; the nested
  // kernels inside each forward run inline on the claiming thread.
  util::ThreadPool::global().parallel_for(
      static_cast<std::int64_t>(models_.size()), 1,
      [&](std::int64_t begin, std::int64_t end) {
        for (std::int64_t r = begin; r < end; ++r) {
          const auto block = partition_.block_of_rank(static_cast<int>(r));
          const auto i = static_cast<std::size_t>(r);
          domain::extract_with_halo_into(frame, block, halo_, inputs_[i]);
          if (plans_[i] != nullptr) {
            const nn::ForwardPlan::Output out = plans_[i]->run(
                inputs_[i].data(), inputs_[i].dim(1), inputs_[i].dim(2));
            insert_window(assembled, block.h0, block.w0, out.data,
                          out.channels, block.height(), block.width());
          } else {
            Tensor out = module_forward(*models_[i], inputs_[i]);
            domain::insert_interior(assembled, block, out);
          }
        }
      });
  return assembled;
}

std::vector<Tensor> sequential_rollout(NetworkTrainer& trainer,
                                       const Tensor& initial, int steps) {
  if (initial.ndim() != 3) {
    throw std::invalid_argument("sequential_rollout: initial frame must be [C,H,W]");
  }
  std::vector<Tensor> frames;
  frames.reserve(static_cast<std::size_t>(steps));
  Tensor current = initial;
  const std::int64_t halo = trainer.config().border == BorderMode::kHaloPad
                                ? trainer.config().network.receptive_halo()
                                : 0;
  for (int step = 0; step < steps; ++step) {
    if (halo > 0) {
      // The monolithic model in halo-pad mode expects a zero-extended frame
      // (the physical-boundary treatment used during training). Reshape in
      // place around the pad — the old reshaped() round-trips copied the
      // whole frame twice per step.
      current.reshape({1, current.dim(0), current.dim(1), current.dim(2)});
      Tensor padded = ops::pad_nchw(current, halo);
      current.reshape({current.dim(1), current.dim(2), current.dim(3)});
      padded.reshape({padded.dim(1), padded.dim(2), padded.dim(3)});
      current = trainer.predict(padded);
    } else {
      current = trainer.predict(current);
    }
    frames.push_back(current);
  }
  return frames;
}

std::unique_ptr<nn::Sequential> rebuild_model(
    const TrainConfig& config, const std::vector<Tensor>& parameters) {
  // The rng only shapes the throwaway init; import_parameters overwrites
  // every value, so the seed does not influence the rebuilt network.
  util::Rng rng(config.seed);
  auto model = build_model(config.network, config.border, rng);
  import_parameters(*model, parameters);
  return model;
}

}  // namespace parpde::core
