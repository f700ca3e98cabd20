#pragma once

// 2-d convolution layer (stride 1, square kernel, optional symmetric zero
// padding), lowered to GEMM via im2col. This is the layer type of Table I in
// the paper; with pad = (k-1)/2 ("same" padding) the spatial size is
// preserved, with pad = 0 ("valid") the output shrinks by k-1.

#include "nn/conv_ops.hpp"
#include "nn/module.hpp"
#include "tensor/im2col.hpp"
#include "util/random.hpp"

namespace parpde::nn {

class Conv2d final : public Module {
 public:
  // pad < 0 selects "same" padding ((kernel-1)/2) for odd kernels.
  Conv2d(std::int64_t in_channels, std::int64_t out_channels,
         std::int64_t kernel, std::int64_t pad = -1);

  // Glorot-uniform weight init, zero bias.
  void init(util::Rng& rng);

  Tensor forward(const Tensor& x) override;
  Tensor backward(const Tensor& grad_out) override;
  std::vector<ParamRef> parameters() override;
  [[nodiscard]] std::string name() const override;

  [[nodiscard]] std::int64_t in_channels() const { return in_channels_; }
  [[nodiscard]] std::int64_t out_channels() const { return out_channels_; }
  [[nodiscard]] std::int64_t kernel() const { return kernel_; }
  [[nodiscard]] std::int64_t pad() const { return pad_; }

  // Direct access for tests and checkpointing.
  Tensor& weight() { return weight_; }
  Tensor& bias() { return bias_; }
  [[nodiscard]] const Conv2dWorkspace& workspace() const { return ws_; }

 private:
  std::int64_t in_channels_;
  std::int64_t out_channels_;
  std::int64_t kernel_;
  std::int64_t pad_;

  Tensor weight_;       // [Cout, Cin, k, k]
  Tensor bias_;         // [Cout]
  Tensor weight_grad_;  // same shape as weight_
  Tensor bias_grad_;    // same shape as bias_

  Tensor input_;         // cached forward input [N, Cin, H, W]
  Conv2dWorkspace ws_;   // persistent one-band im2col / GEMM scratch
};

}  // namespace parpde::nn
