#pragma once

// Span ledger of the traced run. Every Scope emits a telemetry::Span (so the
// Chrome trace shows the benchmark's layer boundaries next to the spans the
// program already records) and, while the ledger is recording, appends a
// record with its parent so the layer self times can be computed in process.
//
// Scopes are opened only on the benchmark's main thread; the ledger is not
// thread-safe. A span's layer is its name up to the first '.', which is one
// of the repo's module names (euler, data, tensor, nn, backend, core, domain,
// minimpi, elastic, serve, util) or "bench" for the benchmark's own probes.

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "util/telemetry.hpp"

namespace perfbench {

struct SpanRecord {
  std::string name;
  std::int64_t start_us = 0;
  std::int64_t end_us = 0;
  int parent = -1;  // index into the record list, -1 for a root span
};

class Ledger {
 public:
  // Clears the ledger and starts recording; the traced window opens now.
  void start();
  // Stops recording; the traced window closes now.
  void stop();
  [[nodiscard]] bool recording() const noexcept { return recording_; }

  [[nodiscard]] const std::vector<SpanRecord>& records() const noexcept {
    return records_;
  }
  [[nodiscard]] std::int64_t window_start_us() const noexcept {
    return window_start_us_;
  }
  [[nodiscard]] std::int64_t window_end_us() const noexcept {
    return window_end_us_;
  }

  // Durations (ms) of every recorded span called `name`, in record order.
  [[nodiscard]] std::vector<double> durations_ms(const std::string& name) const;

  int open(const char* name);
  void close(int index);

 private:
  std::vector<SpanRecord> records_;
  std::vector<int> stack_;
  std::int64_t window_start_us_ = 0;
  std::int64_t window_end_us_ = 0;
  bool recording_ = false;
};

// The process-wide ledger the Scopes write to.
Ledger& ledger();

class Scope {
 public:
  explicit Scope(const char* name)
      : span_(name, "bench"),
        index_(ledger().recording() ? ledger().open(name) : -1) {}
  ~Scope() {
    if (index_ >= 0) ledger().close(index_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  parpde::telemetry::Span span_;
  int index_;
};

// Self time of each span: its duration minus the part of its interval that
// its direct children cover (children clipped to the parent, overlaps
// counted once). Same order as `records`.
std::vector<double> self_times_us(const std::vector<SpanRecord>& records);

// Self time summed per layer, plus the residual: the part of the traced
// window no span covers. Sum of the layer self times + residual == window.
struct LayerTimes {
  std::vector<std::pair<std::string, double>> self_us;  // first-seen order
  double residual_us = 0.0;
  double window_us = 0.0;
};
LayerTimes layer_self_times(const std::vector<SpanRecord>& records,
                            std::int64_t window_start_us,
                            std::int64_t window_end_us);

}  // namespace perfbench
