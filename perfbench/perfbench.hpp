#pragma once

// Shared interface of the perfbench workloads: run arguments, the result
// every workload fills (metrics, oracle verdicts, attempted/failed counts),
// and small helpers the workloads share.

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "tensor/tensor.hpp"

namespace perfbench {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;  // length of the measured window
  bool trace = false;     // per-layer run instead of the end-to-end run
  std::string trace_file;  // Chrome trace output of the traced run ("" = none)
};

class Result {
 public:
  // `trace` selects the per-layer catalogue instead of the end-to-end one.
  explicit Result(bool trace) : trace_(trace) {}

  // Records a metric; the name must be in the catalogue of the run's kind
  // (end-to-end or per-layer, main.cpp), otherwise std::logic_error.
  void metric(const std::string& name, double value);
  // Records an oracle verdict and prints it.
  void oracle(bool ok, const std::string& what);
  // Adds operations attempted/failed in the measured window.
  void ops(std::uint64_t attempted, std::uint64_t failed) {
    attempted_ += attempted;
    failed_ += failed;
  }

  [[nodiscard]] bool correct() const noexcept { return correct_; }
  [[nodiscard]] std::uint64_t attempted() const noexcept { return attempted_; }
  [[nodiscard]] std::uint64_t failed() const noexcept { return failed_; }
  [[nodiscard]] const std::vector<std::pair<std::string, double>>& metrics()
      const noexcept {
    return metrics_;
  }

 private:
  std::vector<std::pair<std::string, double>> metrics_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  bool correct_ = true;
  bool trace_ = false;
};

void run_train(const Args& args, Result& out);
void run_rollout(const Args& args, Result& out);  // "rollout" and "elastic"
void run_serve(const Args& args, Result& out);

// Ceiling probes of the traced run (probes.cpp): single-thread peak of the
// blocked tensor::gemm and copy bandwidth over arrays 4x the L3 cache.
void run_ceiling_probes(Result& out);

// Prints the traced window's per-layer self times, residual and wall time
// from the ledger and records them as metrics.
void report_layer_times(Result& out);

// Runs the self-test of the benchmark's own math; returns failures.
int selftest();

// printf-style progress/report line on stdout (flushed).
void say(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

using Clock = std::chrono::steady_clock;
inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// Set-up timing: runs `setup` at least 5 times and until a second has
// passed (at most 100 times) and returns each run's seconds, so the median
// of even a millisecond set-up rests on many samples.
template <typename F>
std::vector<double> time_setup(const F& setup) {
  std::vector<double> out;
  const Clock::time_point start = Clock::now();
  while (out.size() < 5 || (seconds_since(start) < 1.0 && out.size() < 100)) {
    const Clock::time_point t0 = Clock::now();
    setup();
    out.push_back(seconds_since(t0));
  }
  return out;
}

// Table-I parameters from seed-derived init, damped toward a contractive map
// (weights halved, biases redrawn in [-0.3, 0.3]) so long autoregressive
// rollouts stay finite; the idiom of bench_rollout_latency and bench_serving.
// Conv weight shapes do not depend on the border mode, so one set serves
// halo-pad and zero-pad models alike.
std::vector<parpde::Tensor> damped_parameters(std::uint64_t seed);

// A [4, grid, grid] frame of seeded values in [0.5, 1.5].
parpde::Tensor random_frame(std::int64_t grid, std::uint64_t seed);

}  // namespace perfbench
