#include "ledger.hpp"

#include <algorithm>
#include <stdexcept>

namespace perfbench {

namespace telemetry = parpde::telemetry;

Ledger& ledger() {
  static Ledger instance;
  return instance;
}

void Ledger::start() {
  records_.clear();
  stack_.clear();
  recording_ = true;
  window_start_us_ = telemetry::now_us();
  window_end_us_ = window_start_us_;
}

void Ledger::stop() {
  if (!stack_.empty()) {
    throw std::logic_error("perfbench ledger stopped with open spans");
  }
  recording_ = false;
  window_end_us_ = telemetry::now_us();
}

int Ledger::open(const char* name) {
  SpanRecord r;
  r.name = name;
  r.parent = stack_.empty() ? -1 : stack_.back();
  r.start_us = telemetry::now_us();
  records_.push_back(std::move(r));
  const int index = static_cast<int>(records_.size()) - 1;
  stack_.push_back(index);
  return index;
}

void Ledger::close(int index) {
  if (stack_.empty() || stack_.back() != index) {
    throw std::logic_error("perfbench ledger: spans closed out of order");
  }
  stack_.pop_back();
  records_[static_cast<std::size_t>(index)].end_us = telemetry::now_us();
}

std::vector<double> Ledger::durations_ms(const std::string& name) const {
  std::vector<double> out;
  for (const SpanRecord& r : records_) {
    if (r.name == name) {
      out.push_back(static_cast<double>(r.end_us - r.start_us) * 1e-3);
    }
  }
  return out;
}

namespace {

using Interval = std::pair<std::int64_t, std::int64_t>;

// Length of the union of `parts` after clipping each to [lo, hi].
double covered_us(std::vector<Interval> parts, std::int64_t lo,
                  std::int64_t hi) {
  std::sort(parts.begin(), parts.end());
  double covered = 0.0;
  std::int64_t cursor = lo;
  for (auto [s, e] : parts) {
    s = std::max(s, cursor);
    e = std::min(e, hi);
    if (e > s) {
      covered += static_cast<double>(e - s);
      cursor = e;
    }
  }
  return covered;
}

std::string layer_of(const std::string& name) {
  return name.substr(0, name.find('.'));
}

}  // namespace

std::vector<double> self_times_us(const std::vector<SpanRecord>& records) {
  std::vector<std::vector<Interval>> children(records.size());
  for (const SpanRecord& r : records) {
    if (r.parent >= 0) {
      children[static_cast<std::size_t>(r.parent)].emplace_back(r.start_us,
                                                                 r.end_us);
    }
  }
  std::vector<double> self(records.size());
  for (std::size_t i = 0; i < records.size(); ++i) {
    const SpanRecord& r = records[i];
    self[i] = static_cast<double>(r.end_us - r.start_us) -
              covered_us(std::move(children[i]), r.start_us, r.end_us);
  }
  return self;
}

LayerTimes layer_self_times(const std::vector<SpanRecord>& records,
                            std::int64_t window_start_us,
                            std::int64_t window_end_us) {
  LayerTimes out;
  out.window_us = static_cast<double>(window_end_us - window_start_us);
  const std::vector<double> self = self_times_us(records);
  double total = 0.0;
  for (std::size_t i = 0; i < records.size(); ++i) {
    const std::string layer = layer_of(records[i].name);
    auto it = std::find_if(out.self_us.begin(), out.self_us.end(),
                           [&](const auto& e) { return e.first == layer; });
    if (it == out.self_us.end()) {
      out.self_us.emplace_back(layer, 0.0);
      it = out.self_us.end() - 1;
    }
    it->second += self[i];
    total += self[i];
  }
  out.residual_us = out.window_us - total;
  return out;
}

}  // namespace perfbench
