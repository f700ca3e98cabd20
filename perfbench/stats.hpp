#pragma once

// The benchmark's own arithmetic: percentiles that carry their sample
// counts, and the open-loop schedule accounting. Everything here is checked
// on synthetic input by selftest.cpp.

#include <algorithm>
#include <cstdint>
#include <vector>

namespace perfbench {

// Nearest-rank percentile (q in [0, 1]) with the number of samples it rests
// on and how many samples lie strictly above it.
struct Percentile {
  double value = 0.0;
  std::uint64_t count = 0;  // samples the percentile was taken over
  std::uint64_t above = 0;  // samples strictly greater than `value`
};

// Rank r = ceil(q * n) (1-based, clamped to [1, n]); value = sorted[r - 1].
inline Percentile percentile(std::vector<double> xs, double q) {
  Percentile p;
  p.count = xs.size();
  if (xs.empty()) return p;
  std::sort(xs.begin(), xs.end());
  const auto n = static_cast<double>(xs.size());
  auto rank = static_cast<std::size_t>(q * n);
  if (static_cast<double>(rank) < q * n) ++rank;  // ceil without <cmath>
  rank = std::clamp<std::size_t>(rank, 1, xs.size());
  p.value = xs[rank - 1];
  for (std::size_t i = rank; i < xs.size(); ++i) {
    if (xs[i] > p.value) ++p.above;
  }
  return p;
}

inline double median(std::vector<double> xs) {
  return percentile(std::move(xs), 0.5).value;
}

// Figures of one measurement window: a train() call, a rollout call, or a
// serve window. The tail percentile is p90, the highest one with at least
// ten samples beyond it in a 100-step rollout window.
struct Window {
  double p50 = 0.0;
  double p90 = 0.0;
  double rate = 0.0;  // operations per second of window wall time
  std::uint64_t samples = 0;
  std::uint64_t above_p90 = 0;
};

inline Window window_of(const std::vector<double>& latencies,
                        double operations, double wall_s) {
  const Percentile p90 = percentile(latencies, 0.90);
  Window w;
  w.p50 = percentile(latencies, 0.50).value;
  w.p90 = p90.value;
  w.rate = wall_s > 0.0 ? operations / wall_s : 0.0;
  w.samples = p90.count;
  w.above_p90 = p90.above;
  return w;
}

// The reported end-to-end figures: the median over windows of each window's
// p50, p90 and rate. The machine's speed drifts in bursts of a few seconds;
// a burst that spoils a minority of the windows moves none of the medians,
// where it would drag a percentile pooled over the whole run.
struct WindowSummary {
  double p50 = 0.0;
  double p90 = 0.0;
  double rate = 0.0;
  std::size_t windows = 0;
  std::uint64_t min_samples = 0;    // fewest latencies in any one window
  std::uint64_t min_above_p90 = 0;  // fewest of them above the window's p90
};

inline WindowSummary summarize(const std::vector<Window>& ws) {
  WindowSummary s;
  s.windows = ws.size();
  if (ws.empty()) return s;
  std::vector<double> p50, p90, rate;
  s.min_samples = ws.front().samples;
  s.min_above_p90 = ws.front().above_p90;
  for (const Window& w : ws) {
    p50.push_back(w.p50);
    p90.push_back(w.p90);
    rate.push_back(w.rate);
    s.min_samples = std::min(s.min_samples, w.samples);
    s.min_above_p90 = std::min(s.min_above_p90, w.above_p90);
  }
  s.p50 = median(std::move(p50));
  s.p90 = median(std::move(p90));
  s.rate = median(std::move(rate));
  return s;
}

// One request of an open-loop schedule, all times on one clock (seconds).
// `due` is when the generator should have sent it, `sent` when it did,
// `done` when the reply arrived.
struct ScheduledRequest {
  double due = 0.0;
  double sent = 0.0;
  double done = 0.0;
};

// Open-loop accounting: latency is measured from the due time, so a stall
// that delays later sends is charged to every request it delayed; lag is how
// late the generator sent (never negative: an early send counts as on time).
struct OpenLoopTimes {
  std::vector<double> latency;  // done - due, per request
  double lag_max = 0.0;         // max(sent - due, 0)
};

inline OpenLoopTimes open_loop_times(const std::vector<ScheduledRequest>& rs) {
  OpenLoopTimes out;
  out.latency.reserve(rs.size());
  for (const ScheduledRequest& r : rs) {
    out.latency.push_back(r.done - r.due);
    out.lag_max = std::max(out.lag_max, r.sent - r.due);
  }
  return out;
}

// Quantile of a fixed-bucket histogram (telemetry::Histogram layout:
// counts[i] tallies observations <= bounds[i], counts.back() the overflow):
// the upper bound of the first bucket whose cumulative count reaches
// ceil(q * n). Resolution is one bucket; the overflow bucket reports
// `overflow_value` (the histogram's observed max).
inline double histogram_quantile(const std::vector<double>& bounds,
                                 const std::vector<std::uint64_t>& counts,
                                 double q, double overflow_value) {
  std::uint64_t n = 0;
  for (const std::uint64_t c : counts) n += c;
  if (n == 0) return 0.0;
  auto target = static_cast<std::uint64_t>(q * static_cast<double>(n));
  if (static_cast<double>(target) < q * static_cast<double>(n)) ++target;
  target = std::max<std::uint64_t>(target, 1);
  std::uint64_t cumulative = 0;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    cumulative += counts[i];
    if (cumulative >= target) {
      return i < bounds.size() ? bounds[i] : overflow_value;
    }
  }
  return overflow_value;
}

}  // namespace perfbench
