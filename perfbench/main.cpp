// perfbench — the repo's one benchmark. Runs one named workload with a seed
// and prints every end-to-end metric (or, with --trace 1, every per-layer
// metric) as the last stdout line, a single JSON object:
//
//   {"correct": true, "attempted": N, "failed": N,
//    "metrics": {"<name>": {"value": V, "unit": "U"}, ...}}
//
//   perfbench --workload train|rollout|elastic|serve --seed N --seconds S
//             --trace 0|1 [--trace-file FILE]
//   perfbench --selftest
//
// Correctness oracles run outside the timed window; any failure sets
// "correct": false and the exit code to 1. perfbench/run.py builds this
// binary and is the command BENCHMARK.json names.

#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <exception>
#include <stdexcept>
#include <string>

#include "core/config.hpp"
#include "core/model.hpp"
#include "ledger.hpp"
#include "perfbench.hpp"
#include "util/random.hpp"
#include "util/telemetry.hpp"

namespace perfbench {

namespace {

// Units of every metric the benchmark can print, by kind. BENCHMARK.json
// lists the same names and units (run.py checks that they agree).
struct MetricSpec {
  std::string name;
  const char* unit;
};

// Module names in dependency order; every per-layer self time is one of them
// or the benchmark's own probes ("bench").
constexpr const char* kLayers[] = {"euler", "data",    "tensor",  "nn",
                                   "backend", "core",  "domain",  "minimpi",
                                   "elastic", "serve", "util",    "bench"};

const std::vector<MetricSpec>& end_to_end_metrics() {
  // "op" is the workload's unit of work: a rank-epoch (train), a rollout
  // step (rollout, elastic) or a request (serve).
  static const std::vector<MetricSpec> specs = {
      {"setup_s", "s"},
      {"op_ms_p50", "ms"},
      {"op_ms_p90", "ms"},
      {"ops_per_s", "1/s"},
  };
  return specs;
}

const std::vector<MetricSpec>& per_layer_metrics() {
  static const std::vector<MetricSpec> specs = [] {
    std::vector<MetricSpec> s = {
        // all workloads
        {"bench.trace_overhead_pct", "%"},
        {"bench.residual_ms", "ms"},
        {"bench.traced_wall_ms", "ms"},
        {"tensor.gemm_peak_gflops", "GFLOP/s"},
        {"tensor.copy_gbps", "GB/s"},
        // train
        {"nn.conv1.fwd_ms", "ms"},
        {"nn.conv2.fwd_ms", "ms"},
        {"nn.conv3.fwd_ms", "ms"},
        {"nn.conv4.fwd_ms", "ms"},
        {"nn.conv1.bwd_ms", "ms"},
        {"nn.conv2.bwd_ms", "ms"},
        {"nn.conv3.bwd_ms", "ms"},
        {"nn.conv4.bwd_ms", "ms"},
        {"nn.act.fwd_ms", "ms"},
        {"nn.act.bwd_ms", "ms"},
        {"nn.loss_ms", "ms"},
        {"nn.optimizer_ms", "ms"},
        {"core.train_batch_ms", "ms"},
        {"tensor.gemm_flops_per_batch", "flop"},
        {"tensor.gemm_gflops", "GFLOP/s"},
        {"tensor.im2col_ms", "ms"},
        {"tensor.col2im_ms", "ms"},
        {"core.rank_imbalance", "ratio"},
        {"core.contention", "ratio"},
        {"core.speedup_vs_1rank", "ratio"},
        {"core.final_loss", "loss"},
        {"minimpi.train_bytes", "B"},
        {"euler.simulate_s", "s"},
        // rollout, elastic
        {"core.compute_ms_per_step", "ms"},
        {"core.overlap_ms_per_step", "ms"},
        {"domain.halo_wait_ms_per_step", "ms"},
        {"domain.halo_bytes_per_step", "B"},
        {"core.steady_state_allocs", "count"},
        {"minimpi.messages_per_step", "count"},
        {"minimpi.bytes_per_step", "B"},
        {"nn.plan_run_ms", "ms"},
        {"core.step_over_plan", "ratio"},
        {"backend.fp32.gflops", "GFLOP/s"},
        {"elastic.heartbeat_bytes_per_step", "B"},
        // serve
        {"serve.batch_mean", "count"},
        {"serve.dispatches_per_request", "ratio"},
        {"serve.open_loop_ms_p50", "ms"},
        {"serve.open_loop_ms_p90", "ms"},
        {"serve.queue_wait_ms_p50", "ms"},
        {"serve.queue_wait_ms_p95", "ms"},
        {"nn.plan_batched_ms_per_sample.b1", "ms"},
        {"nn.plan_batched_ms_per_sample.b8", "ms"},
        {"nn.batch_amortization", "ratio"},
        {"backend.int8.gops", "GOP/s"},
        {"backend.int8.saturated_per_request", "count"},
        {"backend.int8.rel_l2", "ratio"},
        {"util.pool_chunks_per_request", "count"},
        {"serve.growth_events", "count"},
        {"serve.rejected", "count"},
        {"bench.generator_lag_ms_max", "ms"},
    };
    for (const char* layer : kLayers) {
      s.push_back({std::string(layer) + ".self_ms", "ms"});
    }
    return s;
  }();
  return specs;
}

}  // namespace

void Result::metric(const std::string& name, double value) {
  const auto& specs = trace_ ? per_layer_metrics() : end_to_end_metrics();
  bool known = false;
  for (const MetricSpec& s : specs) known = known || name == s.name;
  if (!known) {
    throw std::logic_error("metric '" + name + "' is not in the " +
                           (trace_ ? "per-layer" : "end-to-end") +
                           " catalogue");
  }
  for (auto& [n, v] : metrics_) {
    if (n == name) {
      v = value;
      return;
    }
  }
  metrics_.emplace_back(name, value);
}

void Result::oracle(bool ok, const std::string& what) {
  say("oracle %-4s %s", ok ? "ok" : "FAIL", what.c_str());
  correct_ = correct_ && ok;
}

void say(const char* fmt, ...) {
  va_list ap;
  va_start(ap, fmt);
  std::vprintf(fmt, ap);
  va_end(ap);
  std::printf("\n");
  std::fflush(stdout);
}

std::vector<parpde::Tensor> damped_parameters(std::uint64_t seed) {
  namespace core = parpde::core;
  const core::NetworkConfig net;  // Table I
  parpde::util::Rng weight_rng(seed);
  const auto model =
      core::build_model(net, core::BorderMode::kZeroPad, weight_rng);
  auto params = core::export_parameters(*model);
  parpde::util::Rng bias_rng(seed ^ 0x5bd1e995u);
  for (auto& t : params) {
    if (t.ndim() == 1) {
      bias_rng.fill_uniform(t.values(), -0.3f, 0.3f);
    } else {
      for (std::int64_t i = 0; i < t.size(); ++i) t[i] *= 0.5f;
    }
  }
  return params;
}

parpde::Tensor random_frame(std::int64_t grid, std::uint64_t seed) {
  parpde::Tensor frame({4, grid, grid});
  parpde::util::Rng rng(seed);
  rng.fill_uniform(frame.values(), 0.5f, 1.5f);
  return frame;
}

void report_layer_times(Result& out) {
  const Ledger& l = ledger();
  const LayerTimes t =
      layer_self_times(l.records(), l.window_start_us(), l.window_end_us());
  double sum_ms = 0.0;
  for (const char* layer : kLayers) {
    double self_ms = 0.0;
    for (const auto& [name, us] : t.self_us) {
      if (name == layer) self_ms = us * 1e-3;
    }
    out.metric(std::string(layer) + ".self_ms", self_ms);
    sum_ms += self_ms;
    if (self_ms > 0.0) say("layer %-8s self %10.3f ms", layer, self_ms);
  }
  for (const auto& [name, us] : t.self_us) {
    bool listed = false;
    for (const char* layer : kLayers) listed = listed || name == layer;
    if (!listed) {
      throw std::logic_error("span layer '" + name + "' is not a module");
    }
  }
  say("layer residual self %10.3f ms | sum %.3f ms == traced wall %.3f ms",
      t.residual_us * 1e-3, sum_ms + t.residual_us * 1e-3,
      t.window_us * 1e-3);
  out.metric("bench.residual_ms", t.residual_us * 1e-3);
  out.metric("bench.traced_wall_ms", t.window_us * 1e-3);
}

}  // namespace perfbench

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload train|rollout|elastic|serve "
               "--seed N --seconds S --trace 0|1 [--trace-file FILE]\n"
               "       perfbench --selftest\n");
  return 2;
}

void print_result(const perfbench::Result& r, bool trace) {
  const auto& specs = trace ? perfbench::per_layer_metrics()
                            : perfbench::end_to_end_metrics();
  std::string json = std::string("{\"correct\": ") +
                     (r.correct() ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(r.attempted()) +
                     ", \"failed\": " + std::to_string(r.failed()) +
                     ", \"metrics\": {";
  for (std::size_t i = 0; i < specs.size(); ++i) {
    double value = 0.0;
    bool found = false;
    for (const auto& [name, v] : r.metrics()) {
      if (name == specs[i].name) {
        value = v;
        found = true;
      }
    }
    // Every end-to-end metric is measured by every workload; per-layer
    // metrics of a layer the workload does not exercise read 0.
    if (!found && !trace) {
      throw std::logic_error("end-to-end metric " + specs[i].name +
                             " was not measured");
    }
    if (!std::isfinite(value)) {
      throw std::logic_error("metric " + specs[i].name + " is not finite");
    }
    char buf[96];
    std::snprintf(buf, sizeof buf, "%.17g", value);
    json += std::string(i == 0 ? "" : ", ") + "\"" + specs[i].name +
            "\": {\"value\": " + buf + ", \"unit\": \"" + specs[i].unit +
            "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Args args;
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string key = argv[i];
      if (key == "--selftest") {
        const int failures = perfbench::selftest();
        std::printf("selftest: %d failure(s)\n", failures);
        return failures == 0 ? 0 : 1;
      }
      if (i + 1 >= argc) return usage();
      const std::string value = argv[++i];
      if (key == "--workload") {
        args.workload = value;
        have_workload = true;
      } else if (key == "--seed") {
        args.seed = std::stoull(value);
        have_seed = true;
      } else if (key == "--seconds") {
        args.seconds = std::stod(value);
        have_seconds = args.seconds > 0.0;
      } else if (key == "--trace") {
        if (value != "0" && value != "1") return usage();
        args.trace = value == "1";
        have_trace = true;
      } else if (key == "--trace-file") {
        args.trace_file = value;
      } else {
        return usage();
      }
    }
  } catch (const std::exception&) {
    return usage();
  }
  if (!have_workload || !have_seed || !have_seconds || !have_trace) {
    return usage();
  }

  perfbench::Result result(args.trace);
  try {
    perfbench::say("perfbench: workload %s | seed %llu | %.1f s | trace %d",
                   args.workload.c_str(),
                   static_cast<unsigned long long>(args.seed), args.seconds,
                   args.trace ? 1 : 0);
    if (args.workload == "train") {
      perfbench::run_train(args, result);
    } else if (args.workload == "rollout" || args.workload == "elastic") {
      perfbench::run_rollout(args, result);
    } else if (args.workload == "serve") {
      perfbench::run_serve(args, result);
    } else {
      return usage();
    }
    if (args.trace) {
      if (!args.trace_file.empty()) {
        const bool written =
            parpde::telemetry::write_chrome_trace(args.trace_file);
        perfbench::say("chrome trace %s: %s", args.trace_file.c_str(),
                       written ? "written" : "NOT written");
      }
      parpde::telemetry::clear_trace();
    }
    perfbench::say("attempted %llu | failed %llu | failed_frac %.6f",
                   static_cast<unsigned long long>(result.attempted()),
                   static_cast<unsigned long long>(result.failed()),
                   result.attempted() > 0
                       ? static_cast<double>(result.failed()) /
                             static_cast<double>(result.attempted())
                       : 0.0);
    if (result.attempted() == 0) {
      throw std::runtime_error("no operation was attempted");
    }
    print_result(result, args.trace);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  return result.correct() ? 0 : 1;
}
