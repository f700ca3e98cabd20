#pragma once

// Convolution primitives (stride 1, square kernel, symmetric zero padding)
// built on im2col + GEMM: one lowering for training and inference.
//
// Every entry point streams each sample in bands of output rows: im2col one
// band into a panel of at most kConvBandBytes (L2-resident), run the GEMM(s)
// on it, consume it, lower the next. No column matrix exists for a whole
// sample or batch, so each im2col -> GEMM -> col2im round trip stays in
// cache. The band height depends on the geometry and that constant alone,
// never on the thread count or the machine.
//
// Forward bits do not depend on the band split: the blocked GEMM's
// per-element k-reduction order is independent of the matrix width, and the
// epilogue is elementwise. Backward accumulates dW band by band into a fixed
// number of sample-group partials and scatters each band into dx, in an
// order fixed by geometry and batch size: bit-identical at any worker count.

#include "tensor/im2col.hpp"
#include "tensor/tensor.hpp"
#include "util/aligned.hpp"

namespace parpde::nn {

// Activation fused into a convolution's epilogue (the ForwardPlan peephole
// merges a conv step with the pointwise layer that follows it).
enum class Fused { kNone, kLeakyReLU, kReLU, kTanh };

// Byte budget of one band's im2col panel. Throughput is flat between 256 KiB
// and 1 MiB panels on the Table-I shapes; the smaller end leaves room for the
// backward-data panel beside it in a 1 MiB L2.
inline constexpr std::int64_t kConvBandBytes = std::int64_t{256} << 10;

// Output rows per band: as many as fit kConvBandBytes, at least one.
std::int64_t conv_band_rows(const ConvGeometry& g);

// Sample groups the backward pass accumulates dW in (fewer when the batch
// is smaller): groups may run on separate threads, and their partials are
// summed in group order, so dW is the same at any thread count.
inline constexpr std::int64_t kConvGradGroups = 4;

// Persistent per-layer scratch: one band's panels per pool thread, plus the
// backward's per-group dW partials. Buffers only grow; a layer reuses them
// for every call, so steady state allocates nothing. All buffers are
// 64-byte aligned so the GEMM micro-kernels get clean vector loads.
struct Conv2dWorkspace {
  util::AlignedVector<float> col;   // [Cin*k*k x band] im2col panels
  util::AlignedVector<float> out;   // [Cout    x band] GEMM output / gathered dY
  util::AlignedVector<float> dcol;  // [Cin*k*k x band] backward-data panels
  util::AlignedVector<float> dw;    // [groups x Cout*Cin*k*k] dW partials
};

// Grows `ws` so forward bands of every input up to g's extent fit without
// regrowing (inference plans pre-size with this).
void reserve_forward(Conv2dWorkspace& ws, const ConvGeometry& g,
                     std::int64_t cout);

// --- the banded lowering -----------------------------------------------------
// Raw-pointer kernels behind every conv entry point; only src/backend and
// this file may call them (tools/parpde_lint.py, rule backend-bypass).

// y [B, Cout, OH, OW] = act(W * im2col(x) + bias) for x [B, Cin, H, W] and
// W [Cout x Cin*k*k]. bias may be nullptr; per element the float sequence
// is t = v + b (b = 0 without bias, skipped for kNone), then the activation.
void conv2d_forward_bands(const float* x, std::int64_t batch,
                          const ConvGeometry& g, const float* w,
                          std::int64_t cout, const float* bias, Fused fused,
                          float slope, float* y, Conv2dWorkspace& ws);

// For x, dx [B, Cin, H, W] and dy [B, Cout, OH, OW]: dx = W^T (*) dy
// (overwritten), dw += dy (*) x and db += sum(dy) (accumulating). A null dx,
// dw or db skips that gradient; x is only read when dw is set.
void conv2d_backward_bands(const float* x, const float* dy, std::int64_t batch,
                           const ConvGeometry& g, const float* w,
                           std::int64_t cout, float* dx, float* dw, float* db,
                           Conv2dWorkspace& ws);

// --- Tensor entry points -----------------------------------------------------

// y [N, Cout, OH, OW] = w (*) x + b for x [N, Cin, H, W], w [Cout, Cin, k, k]
// and b [Cout] (b may be empty to skip the bias).
void conv2d_forward_batched(const Tensor& x, const Tensor& w, const Tensor& b,
                            std::int64_t pad, Tensor& y, Conv2dWorkspace& ws);

// Full backward: dx = w^T (*) dy (overwritten), dw += dy (*) x and
// db += sum(dy) (accumulating, like the single-sample versions).
void conv2d_backward_batched(const Tensor& x, const Tensor& dy,
                             const Tensor& w, std::int64_t pad, Tensor& dx,
                             Tensor& dw, Tensor& db, Conv2dWorkspace& ws);

// Single-sample forms for recurrent cells (ConvLSTM), whose
// backward-through-time pass re-evaluates per timestep.
// y [Cout, OH, OW] = w (*) x + b, where x is [Cin, H, W], w is
// [Cout, Cin, k, k] and b is [Cout] (b may be empty to skip the bias).
void conv2d_forward(const Tensor& x, const Tensor& w, const Tensor& b,
                    std::int64_t pad, Tensor& y, Conv2dWorkspace& ws);

// dx = w^T (*) dy (backward-data). dx is overwritten, shaped like x.
void conv2d_backward_data(const Tensor& dy, const Tensor& w, std::int64_t pad,
                          Tensor& dx, Conv2dWorkspace& ws);

// dw += dy (*) x, db += sum(dy) (backward-weights, accumulating).
void conv2d_backward_weights(const Tensor& x, const Tensor& dy, std::int64_t pad,
                             Tensor& dw, Tensor& db, Conv2dWorkspace& ws);

}  // namespace parpde::nn
