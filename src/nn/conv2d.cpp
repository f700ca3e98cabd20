#include "nn/conv2d.hpp"

#include <stdexcept>

#include "backend/kernel_backend.hpp"
#include "nn/init.hpp"
#include "util/telemetry.hpp"

namespace parpde::nn {

Conv2d::Conv2d(std::int64_t in_channels, std::int64_t out_channels,
               std::int64_t kernel, std::int64_t pad)
    : in_channels_(in_channels),
      out_channels_(out_channels),
      kernel_(kernel),
      pad_(pad < 0 ? (kernel - 1) / 2 : pad),
      weight_({out_channels, in_channels, kernel, kernel}),
      bias_({out_channels}),
      weight_grad_({out_channels, in_channels, kernel, kernel}),
      bias_grad_({out_channels}) {
  if (in_channels <= 0 || out_channels <= 0 || kernel <= 0) {
    throw std::invalid_argument("Conv2d: bad configuration");
  }
}

void Conv2d::init(util::Rng& rng) {
  glorot_uniform(weight_, in_channels_ * kernel_ * kernel_,
                 out_channels_ * kernel_ * kernel_, rng);
  bias_.fill(0.0f);
}

Tensor Conv2d::forward(const Tensor& x) {
  if (x.ndim() != 4 || x.dim(1) != in_channels_) {
    throw std::invalid_argument("Conv2d::forward: expected [N," +
                                std::to_string(in_channels_) + ",H,W], got " +
                                shape_to_string(x.shape()));
  }
  input_ = x;
  static telemetry::Counter& calls = telemetry::counter("nn.conv2d.forward");
  calls.add(1);
  telemetry::Span span("conv2d.forward", "nn");
  // Banded lowering (nn/conv_ops.hpp). Training is fp32 by design, so the
  // module graph dispatches through the reference backend explicitly (int8
  // applies to the fused inference path only).
  Tensor y;
  backend::blocked_f32().conv2d_forward_batched(x, weight_, bias_, pad_, y,
                                                ws_);
  return y;
}

Tensor Conv2d::backward(const Tensor& grad_out) {
  if (input_.empty()) throw std::logic_error("Conv2d::backward before forward");
  const ConvGeometry g{in_channels_, input_.dim(2), input_.dim(3), kernel_, pad_};
  const std::int64_t oh = g.out_height();
  const std::int64_t ow = g.out_width();
  const std::int64_t n = input_.dim(0);
  if (grad_out.ndim() != 4 || grad_out.dim(0) != n ||
      grad_out.dim(1) != out_channels_ || grad_out.dim(2) != oh ||
      grad_out.dim(3) != ow) {
    throw std::invalid_argument("Conv2d::backward: gradient shape mismatch");
  }

  static telemetry::Counter& calls = telemetry::counter("nn.conv2d.backward");
  calls.add(1);
  telemetry::Span span("conv2d.backward", "nn");
  // Banded backward (nn/conv_ops.hpp); without needs_input_grad() the data
  // gradient is skipped and the returned tensor stays empty.
  Tensor grad_in;
  backend::blocked_f32().conv2d_backward_batched(
      input_, grad_out, weight_, pad_, needs_input_grad() ? &grad_in : nullptr,
      weight_grad_, bias_grad_, ws_);
  return grad_in;
}

std::vector<ParamRef> Conv2d::parameters() {
  return {{&weight_, &weight_grad_, name() + ".weight"},
          {&bias_, &bias_grad_, name() + ".bias"}};
}

std::string Conv2d::name() const {
  return "conv2d(" + std::to_string(in_channels_) + "->" +
         std::to_string(out_channels_) + ",k=" + std::to_string(kernel_) +
         ",p=" + std::to_string(pad_) + ")";
}

}  // namespace parpde::nn
