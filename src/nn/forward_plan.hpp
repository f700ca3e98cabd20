#pragma once

// Pre-sized inference plan for a Sequential of Conv2d + pointwise activation
// layers (the paper's Table-I subdomain network). The plan walks the model
// once at construction, pre-allocates every per-layer activation buffer, asks
// the selected KernelBackend for a PlanContext holding the backend-side state
// (one band of im2col workspace per pool thread for fp32; quantized weights
// and int8 workspaces for int8), and then evaluates forward passes into
// those buffers: the
// steady-state step performs zero heap allocations on either backend
// (verified by the counting-allocator tests in tests/test_rollout_overlap.cpp
// and tests/test_quant_rollout.cpp).
//
// run() accepts any input no larger than the pre-sized maximum, so one plan
// serves every geometry up to the halo-padded tile it was sized for (see
// docs/performance.md). On the fp32 backend results are
// bit-identical to Module::forward: the convs lower to the same im2col + GEMM
// kernels (whose per-element k-reduction order is independent of the matrix
// width and the worker count) and the fused bias/activation epilogue applies
// the layers' exact per-element formulas. On the int8 backend results are
// bit-deterministic (integer accumulation is exact; activation scales are
// fixed by calibration, not derived per call) but intentionally differ from
// fp32 within the documented error budget.
//
// The plan holds non-owning pointers into the Sequential's layers; the model
// must outlive the plan and keep its layer list unchanged.

#include <cstdint>
#include <vector>

#include "backend/kernel_backend.hpp"
#include "nn/sequential.hpp"
#include "util/aligned.hpp"

namespace parpde::nn {

class ForwardPlan {
 public:
  // Walks `model` and pre-sizes all buffers for inputs up to
  // [in_channels, max_h, max_w]. If the model contains a layer type the plan
  // cannot replay (anything but Conv2d / LeakyReLU / ReLU / Tanh), the plan
  // is marked unsupported and run() must not be called — callers fall back
  // to Module::forward. `backend` selects the execution provider
  // (nullptr = the reference fp32 backend). `max_batch` additionally
  // pre-sizes the plan for run_batched() calls of up to that many stacked
  // samples (1 = the classic single-sample plan).
  ForwardPlan(Sequential& model, std::int64_t in_channels, std::int64_t max_h,
              std::int64_t max_w,
              const backend::KernelBackend* backend = nullptr,
              std::int64_t max_batch = 1);

  [[nodiscard]] bool supported() const noexcept { return supported_; }

  [[nodiscard]] const backend::KernelBackend& backend() const noexcept {
    return *backend_;
  }

  // Non-owning view of the result; valid until the next run() call.
  struct Output {
    const float* data = nullptr;
    std::int64_t channels = 0;
    std::int64_t height = 0;
    std::int64_t width = 0;

    [[nodiscard]] std::int64_t size() const { return channels * height * width; }
  };

  // Evaluates the model on a dense CHW input [in_channels, h, w] with
  // h <= max_h and w <= max_w. Never allocates for in-range geometries;
  // out-of-range ones grow the buffers and bump growth_events().
  Output run(const float* x, std::int64_t h, std::int64_t w);

  // Evaluates the model on `batch` stacked samples [B, in_channels, h, w] in
  // one pass per layer: one backend conv_forward_batched call per conv (int8
  // lowers sample groups into one wide GEMM; fp32 streams each sample
  // through the banded lowering). Output::data points at the stacked
  // [B, out_channels, oh, ow] result; the per-sample shape is in the Output
  // fields. Each sample's bytes are identical to a solo run() on that sample
  // — the cross-session coalescing contract SurrogateServer builds on (see
  // docs/serving.md). Never allocates for batch <= max_batch and in-range
  // geometries.
  Output run_batched(const float* x, std::int64_t batch, std::int64_t h,
                     std::int64_t w);

  // --- activation-scale calibration (int8 backend) --------------------------
  // True when the backend quantizes activations and no input ranges have been
  // installed yet; run() must not be called in that state.
  [[nodiscard]] bool needs_calibration() const;
  // One fp32 reference pass over a representative tile [in_channels, h, w]:
  // records each conv layer's input max-abs and installs the ranges into the
  // backend context. Allocates (calibration happens before steady state).
  void calibrate(const float* x, std::int64_t h, std::int64_t w);
  // Installs externally recorded ranges (e.g. the quantized-weights section
  // of a serialized model); one entry per conv layer.
  void set_calibration(std::vector<float> ranges);
  // Ranges installed by calibrate()/set_calibration(); empty before either.
  [[nodiscard]] const std::vector<float>& calibration() const noexcept {
    return ranges_;
  }

  [[nodiscard]] std::int64_t in_channels() const noexcept {
    return in_channels_;
  }
  [[nodiscard]] std::int64_t out_channels() const noexcept {
    return out_channels_;
  }
  // Total spatial shrink of the stack: output is [out_channels, h - s, w - s]
  // for input height/width h, w (0 for "same"-padded nets).
  [[nodiscard]] std::int64_t shrink() const noexcept { return shrink_; }
  // Largest batch the plan pre-sized run_batched() for.
  [[nodiscard]] std::int64_t max_batch() const noexcept { return max_batch_; }

  // Buffer regrowths since construction (plan activation buffers plus the
  // backend context's workspaces); 0 in a pre-sized steady state.
  [[nodiscard]] std::uint64_t growth_events() const noexcept {
    return growth_events_ +
           (ctx_ != nullptr ? ctx_->growth_events() : std::uint64_t{0});
  }

 private:
  enum class Op { kConv, kLeakyReLU, kReLU, kTanh };

  // Post-fusion step list: a kConv step indexes the ConvLayerDesc (which may
  // carry a fused activation); the pointwise ops only appear standalone when
  // they have no conv to fuse into (e.g. an activation-first model).
  struct Step {
    Op op = Op::kConv;
    int conv = -1;       // kConv: index into descs_
    float slope = 0.0f;  // kLeakyReLU only
  };

  float* ensure(util::AlignedVector<float>& buf, std::int64_t floats);

  // One wide pass over `batch` stacked samples through every step. When
  // `final_dst` is non-null the last step writes its [batch, out_channels,
  // oh, ow] result there instead of into a ping-pong buffer, which is what
  // lets run_batched() evaluate a large batch in cache-sized sample groups
  // while still returning one contiguous stacked output.
  Output run_group(const float* x, std::int64_t batch, std::int64_t h,
                   std::int64_t w, float* final_dst);

  const backend::KernelBackend* backend_ = nullptr;
  std::vector<Step> steps_;
  std::vector<backend::ConvLayerDesc> descs_;
  std::unique_ptr<backend::PlanContext> ctx_;
  std::vector<float> ranges_;
  std::int64_t in_channels_ = 0;
  std::int64_t out_channels_ = 0;
  std::int64_t max_h_ = 0;
  std::int64_t max_w_ = 0;
  std::int64_t max_batch_ = 1;
  std::int64_t shrink_ = 0;
  bool supported_ = true;
  std::uint64_t growth_events_ = 0;

  util::AlignedVector<float> ping_;  // activation ping-pong buffers
  util::AlignedVector<float> pong_;
  // Stacked final output for the grouped run_batched() path (only sized when
  // max_batch > 1): sample groups write their last-layer result here at their
  // batch offset so the returned Output spans the whole batch contiguously.
  util::AlignedVector<float> stack_;
};

}  // namespace parpde::nn
