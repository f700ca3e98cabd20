#include "backend/kernel_backend.hpp"

#include <cmath>
#include <stdexcept>

#include "tensor/gemm.hpp"
#include "util/telemetry.hpp"
#include "util/thread_pool.hpp"

namespace parpde::backend {

namespace {

// Same grain the activation layers have always used, so the dispatched
// elementwise passes chunk identically (values are order-independent anyway).
constexpr std::int64_t kElementwiseGrain = 1 << 14;

// fp32 plan state: one conv workspace shared by every layer of the plan,
// pre-sized for the widest band any layer uses at the plan's maximum
// geometry. Bands are per sample, so the batch size never widens it.
class F32PlanContext final : public PlanContext {
 public:
  F32PlanContext(const std::vector<ConvLayerDesc>& layers, std::int64_t max_h,
                 std::int64_t max_w)
      : layers_(layers) {
    std::int64_t h = max_h, w = max_w;
    for (const ConvLayerDesc& l : layers_) {
      const ConvGeometry g{l.in_channels, h, w, l.kernel, l.pad};
      nn::reserve_forward(ws_, g, l.out_channels);
      h = g.out_height();
      w = g.out_width();
    }
  }

  [[nodiscard]] std::uint64_t growth_events() const noexcept override {
    return growths_;
  }

  // Runs layer `layer` on `batch` stacked samples, counting any regrowth of
  // the workspace (none for in-range geometries).
  void forward(int layer, const float* x, std::int64_t batch, std::int64_t h,
               std::int64_t w, float* y) {
    const ConvLayerDesc& l = layers_[static_cast<std::size_t>(layer)];
    const ConvGeometry g{l.in_channels, h, w, l.kernel, l.pad};
    const std::int64_t plane = g.out_height() * g.out_width();
    if (g.out_height() <= 0 || g.out_width() <= 0) {
      throw std::invalid_argument("conv_forward: input below kernel size");
    }
    static telemetry::Counter& flops =
        telemetry::counter("backend.fp32.gemm_flops");
    flops.add(static_cast<std::uint64_t>(2 * l.out_channels * g.col_rows() *
                                         batch * plane));
    const std::size_t capacity =
        ws_.col.capacity() + ws_.out.capacity() + ws_.taps.capacity();
    nn::conv2d_forward_bands(x, batch, g, l.weight, l.out_channels, l.bias,
                             l.fused, l.slope, y, ws_);
    if (ws_.col.capacity() + ws_.out.capacity() + ws_.taps.capacity() !=
        capacity) {
      ++growths_;
    }
  }

 private:
  std::vector<ConvLayerDesc> layers_;
  nn::Conv2dWorkspace ws_;
  std::uint64_t growths_ = 0;
};

}  // namespace

PlanContext::~PlanContext() = default;
KernelBackend::~KernelBackend() = default;

bool KernelBackend::needs_calibration(const PlanContext&) const { return false; }
void KernelBackend::set_input_ranges(PlanContext&,
                                     const std::vector<float>&) const {}

void BlockedF32Backend::gemm(const float* a, const float* b, float* c,
                             std::int64_t m, std::int64_t k,
                             std::int64_t n) const {
  parpde::gemm(a, b, c, m, k, n);
}
void BlockedF32Backend::gemm_acc(const float* a, const float* b, float* c,
                                 std::int64_t m, std::int64_t k,
                                 std::int64_t n) const {
  parpde::gemm_acc(a, b, c, m, k, n);
}
void BlockedF32Backend::gemm_at(const float* a, const float* b, float* c,
                                std::int64_t m, std::int64_t k,
                                std::int64_t n) const {
  parpde::gemm_at(a, b, c, m, k, n);
}
void BlockedF32Backend::gemm_bt_acc(const float* a, const float* b, float* c,
                                    std::int64_t m, std::int64_t k,
                                    std::int64_t n) const {
  parpde::gemm_bt_acc(a, b, c, m, k, n);
}

void BlockedF32Backend::conv2d_forward_batched(const Tensor& x, const Tensor& w,
                                               const Tensor& b,
                                               std::int64_t pad, Tensor& y,
                                               nn::Conv2dWorkspace& ws) const {
  nn::conv2d_forward_batched(x, w, b, pad, y, ws);
}
void BlockedF32Backend::conv2d_backward_batched(
    const Tensor& x, const Tensor& dy, const Tensor& w, std::int64_t pad,
    Tensor* dx, Tensor& dw, Tensor& db, nn::Conv2dWorkspace& ws) const {
  nn::conv2d_backward_batched(x, dy, w, pad, dx, dw, db, ws);
}
void BlockedF32Backend::conv2d_forward(const Tensor& x, const Tensor& w,
                                       const Tensor& b, std::int64_t pad,
                                       Tensor& y,
                                       nn::Conv2dWorkspace& ws) const {
  nn::conv2d_forward(x, w, b, pad, y, ws);
}
void BlockedF32Backend::conv2d_backward_data(const Tensor& dy, const Tensor& w,
                                             std::int64_t pad, Tensor& dx,
                                             nn::Conv2dWorkspace& ws) const {
  nn::conv2d_backward_data(dy, w, pad, dx, ws);
}
void BlockedF32Backend::conv2d_backward_weights(
    const Tensor& x, const Tensor& dy, std::int64_t pad, Tensor& dw, Tensor& db,
    nn::Conv2dWorkspace& ws) const {
  nn::conv2d_backward_weights(x, dy, pad, dw, db, ws);
}

void BlockedF32Backend::conv_transpose2d_forward(
    const float* x, const float* w, const float* bias, std::int64_t n,
    std::int64_t cin, std::int64_t cout, std::int64_t h, std::int64_t width,
    std::int64_t kernel, float* y) const {
  // Direct scatter loop nest (moved verbatim from nn::ConvTranspose2d): the
  // deconv head is tiny compared with the conv stack, so a GEMM lowering has
  // never been worth its col2im traffic here.
  const std::int64_t oh = h + kernel - 1, ow = width + kernel - 1;
  for (std::int64_t s = 0; s < n; ++s) {
    for (std::int64_t co = 0; co < cout; ++co) {
      float* yplane = y + ((s * cout + co) * oh) * ow;
      const float b = bias != nullptr ? bias[co] : 0.0f;
      for (std::int64_t i = 0; i < oh * ow; ++i) yplane[i] = b;
    }
    for (std::int64_t ci = 0; ci < cin; ++ci) {
      const float* xplane = x + ((s * cin + ci) * h) * width;
      for (std::int64_t co = 0; co < cout; ++co) {
        const float* ker = w + ((ci * cout + co) * kernel) * kernel;
        float* yplane = y + ((s * cout + co) * oh) * ow;
        for (std::int64_t iy = 0; iy < h; ++iy) {
          for (std::int64_t ky = 0; ky < kernel; ++ky) {
            float* yrow = yplane + (iy + ky) * ow;
            const float* krow = ker + ky * kernel;
            const float* xrow = xplane + iy * width;
            for (std::int64_t ix = 0; ix < width; ++ix) {
              const float xv = xrow[ix];
              if (xv == 0.0f) continue;
              for (std::int64_t kx = 0; kx < kernel; ++kx) {
                yrow[ix + kx] += xv * krow[kx];
              }
            }
          }
        }
      }
    }
  }
}

void BlockedF32Backend::leaky_relu(const float* x, float* y, std::int64_t n,
                                   float slope) const {
  util::ThreadPool::global().parallel_for(
      n, kElementwiseGrain, [&](std::int64_t b, std::int64_t e) {
        for (std::int64_t i = b; i < e; ++i) {
          const float v = x[i];
          y[i] = v >= 0.0f ? v : slope * v;
        }
      });
}
void BlockedF32Backend::relu(const float* x, float* y, std::int64_t n) const {
  for (std::int64_t i = 0; i < n; ++i) y[i] = x[i] > 0.0f ? x[i] : 0.0f;
}
void BlockedF32Backend::tanh(const float* x, float* y, std::int64_t n) const {
  for (std::int64_t i = 0; i < n; ++i) y[i] = std::tanh(x[i]);
}

std::unique_ptr<PlanContext> BlockedF32Backend::make_plan_context(
    const std::vector<ConvLayerDesc>& layers, std::int64_t max_h,
    std::int64_t max_w, std::int64_t /*max_batch*/) const {
  return std::make_unique<F32PlanContext>(layers, max_h, max_w);
}

void BlockedF32Backend::conv_forward(PlanContext& ctx, int layer,
                                     const float* x, std::int64_t h,
                                     std::int64_t w, float* y) const {
  telemetry::Span span("conv.fp32", "backend");
  static_cast<F32PlanContext&>(ctx).forward(layer, x, 1, h, w, y);
}

void BlockedF32Backend::conv_forward_batched(PlanContext& ctx, int layer,
                                             const float* x,
                                             std::int64_t batch, std::int64_t h,
                                             std::int64_t w, float* y) const {
  telemetry::Span span("conv.fp32.batched", "backend");
  static_cast<F32PlanContext&>(ctx).forward(layer, x, batch, h, w, y);
}

const KernelBackend& blocked_f32() {
  static const BlockedF32Backend backend;
  return backend;
}

const KernelBackend* by_name(std::string_view name) {
  if (name == "fp32") return &blocked_f32();
  if (name == "int8") return &quantized_int8();
  return nullptr;
}

}  // namespace parpde::backend
