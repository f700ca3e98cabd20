#pragma once

// Shared scaffolding for the figure/table reproduction harnesses. Every bench
// runs at a laptop-scale default and switches to the paper's full scale
// (256 x 256 grid, 1500 frames, Table I network) with PARPDE_FULL=1 or the
// corresponding --flags. See DESIGN.md §5 for the experiment index.

#include <cstdio>
#include <string>

#include "core/config.hpp"
#include "data/dataset.hpp"
#include "data/normalizer.hpp"
#include "euler/simulate.hpp"
#include "util/options.hpp"
#include "util/table.hpp"

namespace parpde::bench {

struct BenchSetup {
  int grid = 32;           // paper: 256
  int frames = 40;         // paper: 1500 (+1 to get 1500 pairs)
  int steps_per_frame = 4; // physical separation of recorded frames
  int epochs = 12;
  int batch_size = 16;
  double learning_rate = 1e-2;  // the global rate Kingma et al. suggest (Sec. II)
  std::string loss = "mape";
  std::string optimizer = "adam";
  core::BorderMode border = core::BorderMode::kHaloPad;
  double train_fraction = 2.0 / 3.0;
  int threads = 0;  // pool threads per rank; 0 = the hardware share
  bool full_scale = false;
};

inline BenchSetup parse_setup(int argc, const char* const* argv) {
  const util::Options opts(argc, argv);
  BenchSetup s;
  s.full_scale = util::env_flag("PARPDE_FULL") || opts.get_bool("full", false);
  if (s.full_scale) {
    s.grid = 256;
    s.frames = 1500;
    s.epochs = 20;
  }
  s.grid = opts.get_int("grid", s.grid);
  s.frames = opts.get_int("frames", s.frames);
  s.steps_per_frame = opts.get_int("steps-per-frame", s.steps_per_frame);
  s.epochs = opts.get_int("epochs", s.epochs);
  s.batch_size = opts.get_int("batch-size", s.batch_size);
  s.learning_rate = opts.get_double("lr", s.learning_rate);
  s.loss = opts.get_string("loss", s.loss);
  s.optimizer = opts.get_string("optimizer", s.optimizer);
  s.border = core::border_mode_from_string(
      opts.get_string("border", core::border_mode_name(s.border)));
  s.train_fraction = opts.get_double("train-fraction", s.train_fraction);
  s.threads = opts.get_int("threads", s.threads);
  return s;
}

inline core::TrainConfig make_train_config(const BenchSetup& s) {
  core::TrainConfig cfg;  // Table I network by default
  cfg.border = s.border;
  cfg.loss = s.loss;
  cfg.optimizer = s.optimizer;
  cfg.learning_rate = s.learning_rate;
  cfg.epochs = s.epochs;
  cfg.batch_size = s.batch_size;
  cfg.train_fraction = s.train_fraction;
  cfg.num_threads = s.threads;
  return cfg;
}

inline data::FrameDataset generate_dataset(const BenchSetup& s) {
  euler::EulerConfig ec;
  ec.n = s.grid;
  euler::SimulateOptions opts;
  opts.num_frames = s.frames;
  opts.steps_per_frame = s.steps_per_frame;
  std::printf("generating dataset: grid %dx%d, %d frames (RK4, %d solver "
              "steps/frame)...\n",
              s.grid, s.grid, s.frames, s.steps_per_frame);
  std::fflush(stdout);
  auto sim = euler::simulate(ec, opts);
  return data::FrameDataset(std::move(sim.frames));
}

// Normalized view of a dataset: per-channel standardization fitted on the
// training frames only. Training runs in normalized space; predictions are
// inverted before computing physical-space metrics. The paper trains on raw
// fields and balances channels through the MAPE loss instead; the normalized
// variant exists because the raw velocity channels are orders of magnitude
// smaller than the backgrounded pressure/density and otherwise underfit
// (see EXPERIMENTS.md).
struct NormalizedData {
  data::FrameDataset dataset;          // normalized frames
  data::ChannelNormalizer normalizer;  // to invert predictions
};

inline NormalizedData normalize_dataset(const data::FrameDataset& raw,
                                        double train_fraction) {
  const auto split = raw.chronological_split(train_fraction);
  const std::size_t train_frames = split.train.size() + 1;  // pairs + 1
  const auto normalizer = data::ChannelNormalizer::fit(
      std::span<const Tensor>(raw.frames().data(), train_frames));
  std::vector<Tensor> frames;
  frames.reserve(raw.frames().size());
  for (const auto& f : raw.frames()) frames.push_back(normalizer.apply(f));
  return NormalizedData{data::FrameDataset(std::move(frames)), normalizer};
}

inline void print_setup(const char* bench_name, const BenchSetup& s) {
  std::printf("== %s ==\n", bench_name);
  std::printf(
      "scale: %s | grid %d | frames %d | epochs %d | loss %s | opt %s | "
      "border %s | lr %g | threads/rank %s\n",
      s.full_scale ? "FULL (paper)" : "scaled-down (PARPDE_FULL=1 for paper scale)",
      s.grid, s.frames, s.epochs, s.loss.c_str(), s.optimizer.c_str(),
      core::border_mode_name(s.border).c_str(), s.learning_rate,
      s.threads > 0 ? std::to_string(s.threads).c_str() : "auto");
  std::fflush(stdout);
}

}  // namespace parpde::bench
