// Workload `serve`: serve::SurrogateServer on the int8 backend, 64^2
// zero-pad Table-I sessions (seeded damped weights, seeded initial frames),
// default coalescing, kClients client threads each owning
// kSessionsPerClient sessions and stepping them round-robin. Load rule: the
// clients, the scheduler thread and one global-pool worker make 4 threads.
//
// End-to-end (closed loop): each client sends its next step as soon as the
// last returns. op_ms_p50/p90 are request latencies as the client sees them
// and ops_per_s is the completed-request rate (capacity), each a median over
// 1-second windows.
//
// The traced run adds an open loop: seeded Poisson arrivals at kOpenLoopRps
// in total, latency timed from each request's due time so a stall is charged
// to every request it delays, and how late the generator ran. It is not an
// end-to-end metric because its run-to-run spread exceeds the largest bound
// the benchmark may set (see README.md, "Noise handling for serve").

#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>
#include <random>
#include <thread>

#include "backend/kernel_backend.hpp"
#include "core/inference.hpp"
#include "ledger.hpp"
#include "nn/forward_plan.hpp"
#include "perfbench.hpp"
#include "serve/surrogate_server.hpp"
#include "stats.hpp"
#include "util/aligned.hpp"
#include "util/telemetry.hpp"
#include "util/thread_pool.hpp"

namespace perfbench {

namespace {

namespace core = parpde::core;
namespace nn = parpde::nn;
namespace serve = parpde::serve;
namespace telemetry = parpde::telemetry;
using parpde::Tensor;

constexpr std::int64_t kGrid = 64;
constexpr std::int64_t kChannels = 4;
constexpr std::int64_t kFrame = kChannels * kGrid * kGrid;
// Two clients, not three: in the sizing runs three clients spread the
// latency more across seeds (README.md, "Noise handling for serve").
constexpr int kClients = 2;
constexpr int kSessionsPerClient = 4;
constexpr int kSessions = kClients * kSessionsPerClient;
// Offered open-loop rate, about half the closed-loop capacity; BENCHMARK.json
// states it in the workload's "why".
constexpr double kOpenLoopRps = 350.0;
constexpr double kWindowSeconds = 1.0;
constexpr int kRelL2Steps = 100;
constexpr double kInt8Budget = 5e-2;

struct Service {
  std::unique_ptr<nn::Sequential> model;
  std::vector<Tensor> initials;
  std::vector<float> calibration;
  std::unique_ptr<serve::SurrogateServer> server;
  // Session ids; client c owns the kSessionsPerClient from
  // c * kSessionsPerClient on.
  std::vector<std::int64_t> ids;
};

Service make_service(std::uint64_t seed) {
  Service s;
  core::TrainConfig cfg;
  cfg.border = core::BorderMode::kZeroPad;
  s.model = core::rebuild_model(cfg, damped_parameters(seed));
  for (int i = 0; i < kSessions; ++i) {
    s.initials.push_back(random_frame(kGrid, seed * 1000 + 100 + i));
  }
  const parpde::backend::KernelBackend& int8 =
      parpde::backend::quantized_int8();
  nn::ForwardPlan probe(*s.model, kChannels, kGrid, kGrid, &int8, 1);
  probe.calibrate(s.initials[0].data(), kGrid, kGrid);
  s.calibration = probe.calibration();
  serve::ServerOptions opt;
  opt.backend = &int8;
  opt.max_sessions = kSessions;
  s.server = std::make_unique<serve::SurrogateServer>(*s.model, kChannels,
                                                      kGrid, kGrid, opt);
  s.server->set_calibration(s.calibration);
  for (const Tensor& ic : s.initials) {
    s.ids.push_back(s.server->open_session(ic.data()));
  }
  return s;
}

struct PhaseStats {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  double wall_s = 0.0;
  std::vector<ScheduledRequest> requests;  // open loop only
};

// Runs kClients threads; client c calls `body(c, out)` and the per-client
// outputs are merged.
template <typename Body>
PhaseStats run_clients(const Body& body) {
  std::vector<PhaseStats> per(kClients);
  const Clock::time_point t0 = Clock::now();
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back(
        [&body, &per, c] { body(c, per[static_cast<std::size_t>(c)]); });
  }
  for (std::thread& t : clients) t.join();
  PhaseStats all;
  all.wall_s = seconds_since(t0);
  for (PhaseStats& p : per) {
    all.attempted += p.attempted;
    all.failed += p.failed;
    all.requests.insert(all.requests.end(), p.requests.begin(),
                        p.requests.end());
  }
  return all;
}

PhaseStats closed_loop(Service& s, double seconds) {
  const Clock::time_point t0 = Clock::now();
  return run_clients([&](int c, PhaseStats& out) {
    for (int k = 0; seconds_since(t0) < seconds; ++k) {
      const std::int64_t id =
          s.ids[static_cast<std::size_t>(c * kSessionsPerClient +
                                         k % kSessionsPerClient)];
      ScheduledRequest r;  // a closed loop sends when due
      r.due = r.sent = seconds_since(t0);
      const bool ok = s.server->step(id).ok();
      r.done = seconds_since(t0);
      ++out.attempted;
      if (ok) {
        out.requests.push_back(r);
      } else {
        ++out.failed;
      }
    }
  });
}

PhaseStats open_loop(Service& s, double seconds, std::uint64_t seed) {
  const Clock::time_point t0 = Clock::now();
  return run_clients([&](int c, PhaseStats& out) {
    std::mt19937_64 rng(seed * 7919 + static_cast<std::uint64_t>(c));
    std::exponential_distribution<double> gap(kOpenLoopRps / kClients);
    double due = gap(rng);
    for (int k = 0; due < seconds; ++k, due += gap(rng)) {
      std::this_thread::sleep_until(
          t0 + std::chrono::duration_cast<Clock::duration>(
                   std::chrono::duration<double>(due)));
      const std::int64_t id =
          s.ids[static_cast<std::size_t>(c * kSessionsPerClient +
                                         k % kSessionsPerClient)];
      ScheduledRequest r;
      r.due = due;
      r.sent = seconds_since(t0);
      const bool ok = s.server->step(id).ok();
      r.done = seconds_since(t0);
      ++out.attempted;
      if (ok) {
        out.requests.push_back(r);
      } else {
        ++out.failed;
      }
    }
  });
}

// `seconds` of closed-loop (or open-loop) load in kWindowSeconds windows;
// each window is one Window of the medians.
struct ServeRun {
  std::vector<Window> windows;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  double lag_max = 0.0;  // open loop: how late the generator sent
};

ServeRun measure(Service& s, double seconds, bool open, std::uint64_t seed) {
  ServeRun run;
  const int windows =
      std::max(1, static_cast<int>(std::lround(seconds / kWindowSeconds)));
  for (int w = 0; w < windows; ++w) {
    const PhaseStats phase =
        open ? open_loop(s, kWindowSeconds,
                         seed * 1000 + static_cast<std::uint64_t>(w))
             : closed_loop(s, kWindowSeconds);
    const OpenLoopTimes times = open_loop_times(phase.requests);
    run.windows.push_back(window_of(
        times.latency, static_cast<double>(phase.attempted - phase.failed),
        phase.wall_s));
    run.lag_max = std::max(run.lag_max, times.lag_max);
    run.attempted += phase.attempted;
    run.failed += phase.failed;
  }
  return run;
}

// Replays `steps` solo ForwardPlan::run steps from `initial`.
std::vector<float> solo_replay(nn::ForwardPlan& plan, const Tensor& initial,
                               std::int64_t steps) {
  std::vector<float> frame(initial.data(), initial.data() + kFrame);
  for (std::int64_t t = 0; t < steps; ++t) {
    const nn::ForwardPlan::Output o = plan.run(frame.data(), kGrid, kGrid);
    std::memcpy(frame.data(), o.data, kFrame * sizeof(float));
  }
  return frame;
}

// ||a - b|| / ||b|| over one frame.
double relative_l2(const float* a, const float* b) {
  double num = 0.0;
  double den = 0.0;
  for (std::int64_t i = 0; i < kFrame; ++i) {
    const double d = static_cast<double>(a[i]) - static_cast<double>(b[i]);
    num += d * d;
    den += static_cast<double>(b[i]) * static_cast<double>(b[i]);
  }
  return std::sqrt(num / den);
}

// Relative L2 between the int8 and fp32 trajectories of session 0 after
// kRelL2Steps solo steps.
double int8_rel_l2(const Service& s) {
  nn::ForwardPlan fp32(*s.model, kChannels, kGrid, kGrid, nullptr, 1);
  nn::ForwardPlan int8(*s.model, kChannels, kGrid, kGrid,
                       &parpde::backend::quantized_int8(), 1);
  int8.set_calibration(s.calibration);
  const std::vector<float> a = solo_replay(int8, s.initials[0], kRelL2Steps);
  const std::vector<float> b = solo_replay(fp32, s.initials[0], kRelL2Steps);
  return relative_l2(a.data(), b.data());
}

// Per-sample time of run_batched at batch 1 and 8 on the int8 plan, and the
// int8 GEMM rate of the batch-8 runs.
void batching_probe(const Service& s, Result& out) {
  constexpr int kBatch = 8;
  nn::ForwardPlan plan(*s.model, kChannels, kGrid, kGrid,
                       &parpde::backend::quantized_int8(), kBatch);
  plan.set_calibration(s.calibration);
  parpde::util::AlignedVector<float> stacked(kBatch * kFrame);
  for (int b = 0; b < kBatch; ++b) {
    std::memcpy(stacked.data() + b * kFrame,
                s.initials[static_cast<std::size_t>(b)].data(),
                kFrame * sizeof(float));
  }
  static telemetry::Counter& ops =
      telemetry::counter("backend.int8.gemm_flops");
  (void)plan.run_batched(stacked.data(), kBatch, kGrid, kGrid);  // warm
  constexpr int kReps = 40;
  for (int r = 0; r < kReps; ++r) {
    Scope span("nn.plan_batched.b1");
    (void)plan.run_batched(stacked.data(), 1, kGrid, kGrid);
  }
  const std::uint64_t before = ops.value();
  const Clock::time_point t0 = Clock::now();
  for (int r = 0; r < kReps; ++r) {
    Scope span("nn.plan_batched.b8");
    (void)plan.run_batched(stacked.data(), kBatch, kGrid, kGrid);
  }
  const double b8_total_s = seconds_since(t0);
  const double b1 = median(ledger().durations_ms("nn.plan_batched.b1"));
  const double b8 = median(ledger().durations_ms("nn.plan_batched.b8")) / kBatch;
  out.metric("nn.plan_batched_ms_per_sample.b1", b1);
  out.metric("nn.plan_batched_ms_per_sample.b8", b8);
  out.metric("nn.batch_amortization", b1 / b8);
  out.metric("backend.int8.gops",
             static_cast<double>(ops.value() - before) / b8_total_s * 1e-9);
}

}  // namespace

void run_serve(const Args& args, Result& out) {
  // One pool worker beside the scheduler: with the scheduler computing alone,
  // a CPU hog on one more core cut capacity by 10%; with a worker sharing
  // the chunks, two hogs cost nothing.
  parpde::util::ThreadPool::configure_global(1);

  // --- setup: model, calibration, server, sessions (median of repeats) ------
  Service s;
  const std::vector<double> setup_s = time_setup([&] {
    s.server.reset();  // the server must go before the model it runs
    s = make_service(args.seed);
  });
  say("setup: %lldx%lld int8 server, %d sessions on %d clients, median "
      "%.5f s of %zu",
      static_cast<long long>(kGrid), static_cast<long long>(kGrid), kSessions,
      kClients, median(setup_s), setup_s.size());

  // --- measured window -------------------------------------------------------
  const ServeRun run = measure(s, args.seconds, false, args.seed);
  const WindowSummary sum = summarize(run.windows);
  say("serve: closed loop, %d clients: request_ms_p50 %.4f ms | "
      "request_ms_p90 %.4f ms | capacity_rps %.2f (medians over %zu windows "
      "of %.1f s; per window >= %llu requests, >= %llu above p90)",
      kClients, sum.p50 * 1e3, sum.p90 * 1e3, sum.rate, sum.windows,
      kWindowSeconds, static_cast<unsigned long long>(sum.min_samples),
      static_cast<unsigned long long>(sum.min_above_p90));
  out.ops(run.attempted, run.failed);

  // --- oracles (outside the timed window) -----------------------------------
  {
    nn::ForwardPlan solo(*s.model, kChannels, kGrid, kGrid,
                         &parpde::backend::quantized_int8(), 1);
    solo.set_calibration(s.calibration);
    bool identical = true;
    for (const int session : {static_cast<int>(args.seed % kSessions),
                              static_cast<int>((args.seed + 5) % kSessions)}) {
      const std::int64_t id = s.ids[static_cast<std::size_t>(session)];
      const std::vector<float> ref =
          solo_replay(solo, s.initials[static_cast<std::size_t>(session)],
                      s.server->session_steps(id));
      identical = identical && std::memcmp(ref.data(), s.server->frame(id),
                                           kFrame * sizeof(float)) == 0;
    }
    out.oracle(identical,
               "sampled sessions are bit-identical to a solo ForwardPlan::run "
               "replay");
  }
  const double rel_l2 = int8_rel_l2(s);
  out.oracle(rel_l2 < kInt8Budget,
             "int8_rel_l2 after 100 steps " + std::to_string(rel_l2) +
                 " is under the 5e-2 budget");

  if (!args.trace) {
    out.metric("setup_s", median(setup_s));
    out.metric("op_ms_p50", sum.p50 * 1e3);
    out.metric("op_ms_p90", sum.p90 * 1e3);
    out.metric("ops_per_s", sum.rate);
    return;
  }

  // --- traced run: an untraced open loop, then the traced closed loop -----
  const ServeRun open = measure(s, args.seconds / 2, true, args.seed);
  const WindowSummary open_sum = summarize(open.windows);
  say("serve: open loop at %.0f rps: request_ms_p50 %.4f ms | request_ms_p90 "
      "%.4f ms (medians over %zu windows of %.1f s; per window >= %llu "
      "requests, >= %llu above p90) | generator lag max %.4f ms",
      kOpenLoopRps, open_sum.p50 * 1e3, open_sum.p90 * 1e3, open_sum.windows,
      kWindowSeconds, static_cast<unsigned long long>(open_sum.min_samples),
      static_cast<unsigned long long>(open_sum.min_above_p90),
      open.lag_max * 1e3);
  out.ops(open.attempted, open.failed);

  static telemetry::Counter& saturated =
      telemetry::counter("backend.int8.saturated");
  static telemetry::Counter& chunks = telemetry::counter("pool.chunks");
  telemetry::Histogram& coalesce = telemetry::histogram("serve.coalesce_seconds");
  coalesce.reset();
  const serve::ServerStats before = s.server->stats();
  const std::uint64_t saturated0 = saturated.value();
  const std::uint64_t chunks0 = chunks.value();
  telemetry::set_enabled(true);
  ledger().start();
  ServeRun traced;
  {
    Scope span("serve.closed_loop");
    traced = measure(s, args.seconds / 2, false, args.seed);
  }
  const serve::ServerStats after = s.server->stats();
  const std::uint64_t saturated1 = saturated.value();
  const std::uint64_t chunks1 = chunks.value();
  batching_probe(s, out);
  run_ceiling_probes(out);
  ledger().stop();
  telemetry::set_enabled(false);

  const auto requests = static_cast<double>(after.requests - before.requests);
  const auto batches = static_cast<double>(after.batches - before.batches);
  const std::vector<double> bounds = coalesce.bounds();
  const std::vector<std::uint64_t> counts = coalesce.bucket_counts();
  out.metric("bench.trace_overhead_pct",
             (summarize(traced.windows).p50 - sum.p50) / sum.p50 * 100.0);
  out.metric("serve.open_loop_ms_p50", open_sum.p50 * 1e3);
  out.metric("serve.open_loop_ms_p90", open_sum.p90 * 1e3);
  out.metric("serve.batch_mean", requests / batches);
  out.metric("serve.dispatches_per_request", batches / requests);
  out.metric("serve.queue_wait_ms_p50",
             histogram_quantile(bounds, counts, 0.50, coalesce.max()) * 1e3);
  out.metric("serve.queue_wait_ms_p95",
             histogram_quantile(bounds, counts, 0.95, coalesce.max()) * 1e3);
  out.metric("backend.int8.saturated_per_request",
             static_cast<double>(saturated1 - saturated0) / requests);
  out.metric("backend.int8.rel_l2", rel_l2);
  out.metric("util.pool_chunks_per_request",
             static_cast<double>(chunks1 - chunks0) / requests);
  out.metric("serve.growth_events",
             static_cast<double>(s.server->growth_events()));
  out.metric("serve.rejected", static_cast<double>(after.rejected));
  out.metric("bench.generator_lag_ms_max", open.lag_max * 1e3);
  say("serve trace: %.0f requests in %.0f dispatches | coalesce window "
      "observations %llu",
      requests, batches, static_cast<unsigned long long>(coalesce.count()));
  report_layer_times(out);
}

}  // namespace perfbench
