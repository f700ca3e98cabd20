// Self-test of the benchmark's own math on synthetic input: percentiles
// with their sample counts, histogram quantiles, medians over measurement
// windows, span self time on a synthetic span tree, and open-loop due-time
// latency and generator lag.
// run.py runs it before every workload; a failure stops the run.

#include <cmath>
#include <cstdio>
#include <string>

#include "ledger.hpp"
#include "perfbench.hpp"
#include "stats.hpp"

namespace perfbench {

namespace {

int failures = 0;

void check(bool ok, const std::string& what) {
  if (!ok) {
    std::printf("selftest FAIL: %s\n", what.c_str());
    ++failures;
  }
}

bool near(double a, double b) { return std::fabs(a - b) < 1e-9; }

void test_percentiles() {
  std::vector<double> xs;
  for (int i = 100; i >= 1; --i) xs.push_back(i);  // unsorted on purpose
  const Percentile p50 = percentile(xs, 0.50);
  check(p50.value == 50 && p50.count == 100 && p50.above == 50, "p50 of 1..100");
  const Percentile p95 = percentile(xs, 0.95);
  check(p95.value == 95 && p95.above == 5, "p95 of 1..100 has 5 above");
  const Percentile p100 = percentile(xs, 1.0);
  check(p100.value == 100 && p100.above == 0, "p100 is the max");
  const Percentile dup = percentile({1, 2, 2, 2, 3}, 0.5);
  check(dup.value == 2 && dup.above == 1, "ties: p50 of 1,2,2,2,3");
  const Percentile one = percentile({7}, 0.95);
  check(one.value == 7 && one.count == 1 && one.above == 0, "single sample");
  check(percentile({}, 0.5).count == 0, "empty sample set");
  check(median({3, 1, 2}) == 2, "median of three");

  const std::vector<double> bounds = {1, 2, 4};
  const std::vector<std::uint64_t> counts = {1, 2, 3, 4};  // last: overflow
  check(histogram_quantile(bounds, counts, 0.5, 9) == 4,
        "histogram p50 lands in the third bucket");
  check(histogram_quantile(bounds, counts, 0.1, 9) == 1,
        "histogram p10 lands in the first bucket");
  check(histogram_quantile(bounds, counts, 0.95, 9) == 9,
        "histogram p95 in the overflow bucket reports the max");
  check(histogram_quantile(bounds, {0, 0, 0, 0}, 0.5, 9) == 0,
        "empty histogram");
}

void test_windows() {
  const Window w = window_of({4, 1, 3, 2}, 8, 2.0);
  check(w.p50 == 2 && w.p90 == 4 && w.rate == 4 && w.samples == 4 &&
            w.above_p90 == 0,
        "window percentiles, counts and rate");
  // One noisy window out of three moves no median.
  const WindowSummary s = summarize({{1, 2, 10, 50, 3}, {9, 20, 1, 60, 3},
                                     {1.1, 2.2, 11, 40, 2}});
  check(s.p50 == 1.1 && s.p90 == 2.2 && s.rate == 10 && s.windows == 3 &&
            s.min_samples == 40 && s.min_above_p90 == 2,
        "median over windows ignores one burst");
  check(summarize({}).windows == 0, "no windows");
}

void test_self_times() {
  // A [0,100] > B [10,40] > C [20,30];  A > D [50,70];  E [120,130].
  const std::vector<SpanRecord> tree = {
      {"core.a", 0, 100, -1},  {"nn.b", 10, 40, 0}, {"nn.c", 20, 30, 1},
      {"tensor.d", 50, 70, 0}, {"core.e", 120, 130, -1}};
  const std::vector<double> self = self_times_us(tree);
  check(near(self[0], 50) && near(self[1], 20) && near(self[2], 10) &&
            near(self[3], 20) && near(self[4], 10),
        "self time = span minus its children");
  const LayerTimes t = layer_self_times(tree, 0, 150);
  double core = 0, nn = 0, tensor = 0, sum = 0;
  for (const auto& [layer, us] : t.self_us) {
    if (layer == "core") core = us;
    if (layer == "nn") nn = us;
    if (layer == "tensor") tensor = us;
    sum += us;
  }
  check(near(core, 60) && near(nn, 30) && near(tensor, 20),
        "self time summed per layer");
  check(near(t.residual_us, 40) && near(sum + t.residual_us, t.window_us),
        "layer self times + residual == window");

  // Overlapping children (spans from a sloppy producer) and a child running
  // past its parent are counted once and clipped.
  const std::vector<SpanRecord> overlap = {{"core.f", 0, 50, -1},
                                           {"nn.g", 10, 30, 0},
                                           {"nn.h", 20, 40, 0},
                                           {"nn.i", 45, 60, 0}};
  check(near(self_times_us(overlap)[0], 15),
        "overlapping and overhanging children are clipped and merged");

  // The ledger links nested scopes to their parent.
  ledger().start();
  {
    Scope outer("bench.outer");
    Scope inner("bench.inner");
  }
  { Scope next("bench.next"); }
  ledger().stop();
  const auto& r = ledger().records();
  check(r.size() == 3 && r[0].parent == -1 && r[1].parent == 0 &&
            r[2].parent == -1 && r[1].start_us >= r[0].start_us &&
            r[1].end_us <= r[0].end_us,
        "ledger records nesting");
}

void test_open_loop() {
  // Second request sent 0.5 late (the first was still running), third sent
  // early: lag is 0.5, and latency runs from the due time.
  const std::vector<ScheduledRequest> rs = {
      {0.0, 0.0, 0.5}, {1.0, 1.5, 2.5}, {2.0, 1.9, 2.2}};
  const OpenLoopTimes t = open_loop_times(rs);
  check(t.latency.size() == 3 && near(t.latency[0], 0.5) &&
            near(t.latency[1], 1.5) && near(t.latency[2], 0.2),
        "open-loop latency is measured from the due time");
  check(near(t.lag_max, 0.5), "generator lag is the worst late send");
  check(open_loop_times({}).lag_max == 0.0, "empty schedule");
}

}  // namespace

int selftest() {
  failures = 0;
  test_percentiles();
  test_windows();
  test_self_times();
  test_open_loop();
  return failures;
}

}  // namespace perfbench
