#pragma once

// Convolution primitives (stride 1, square kernel, symmetric zero padding)
// lowered to GEMM: one lowering for training and inference.
//
// Every entry point streams each sample in bands of output rows; a band is
// as tall as a kConvBandBytes column panel allows (L2-resident). No column
// matrix exists for a whole sample or batch. The band height depends on the
// geometry and that constant alone, never on the thread count or the
// machine.
//
// Forward and dW read the input in place: the GEMM's B operand is the
// input at one row offset per tap (gemm_rows, gemm_bt_rows_acc), so
// neither builds an im2col panel. An unpadded conv reads the sample
// itself; a padded one copies the band's input rows into a zero-bordered
// buffer first. The forward's GEMM output keeps the input's row width, and
// its epilogue drops the k-1 junk columns per row.
//
// Backward, per gradient:
//  * dW += dY_band * col^T, per band, into a fixed number of sample-group
//    partials summed in group order. col^T is read in place as one segment
//    of ow pixels per output row and packed with 8 x 8 register transposes
//    (tensor/gemm.cpp, pack_bt), the bytes an im2col panel would give.
//  * dx takes one of two routes, chosen by conv_dx_as_forward() from the
//    geometry alone. Where Cout < Cin, dx is the forward conv of dY at pad
//    k-1-p with W rotated 180 degrees and its channel axes swapped. That
//    GEMM has Cin rows and Cout*k*k depth, and writes dx directly. Otherwise
//    (Cout >= Cin, or p > k-1) dx is dcol = W^T * dY_band, scattered by
//    col2im_rows. There the forward form would run a Cin-row GEMM over the
//    wider Cout*k*k depth; on the Table-I 6 -> 16 layer it measured slower.
//  * A null dx skips the input gradient entirely. The network's first conv
//    (Module::needs_input_grad() false) passes null: nothing reads its dx.
//
// Determinism: forward and dW bits do not depend on the band split or on
// reading the input in place. Each output element's k-reduction runs in
// one fixed order over the values an im2col would hold, whatever the GEMM
// width, and the epilogue is elementwise. The forward-conv dx route
// inherits that. dW partials and the col2im scatter run in an order fixed
// by the geometry and batch size. Every gradient is bit-identical at any
// worker count; the route choice changes only the summation order of dx.

#include "tensor/im2col.hpp"
#include "tensor/tensor.hpp"
#include "util/aligned.hpp"

namespace parpde::nn {

// Activation fused into a convolution's epilogue (the ForwardPlan peephole
// merges a conv step with the pointwise layer that follows it).
enum class Fused { kNone, kLeakyReLU, kReLU, kTanh };

// Byte budget of one band's [Cin*k*k x band] column panel; it sets the band
// height (only the col2im dx route still builds such a panel). Throughput
// was flat between 256 KiB and 1 MiB panels on the Table-I shapes; the
// smaller end leaves room for the backward-data panel beside it in a 1 MiB
// L2.
inline constexpr std::int64_t kConvBandBytes = std::int64_t{256} << 10;

// Output rows per band: as many as fit a kConvBandBytes column panel, at
// least one.
std::int64_t conv_band_rows(const ConvGeometry& g);

// Sample groups the backward pass accumulates dW in (fewer when the batch
// is smaller): groups may run on separate threads, and their partials are
// summed in group order, so dW is the same at any thread count.
inline constexpr std::int64_t kConvGradGroups = 4;

// Persistent per-layer scratch: one band's panels per pool thread, plus the
// backward's per-group dW partials, rotated W and the forward's tap table.
// Buffers only grow; a layer reuses them for every call, so steady state
// allocates nothing. All buffers are 64-byte aligned so the GEMM
// micro-kernels get clean vector loads.
struct Conv2dWorkspace {
  util::AlignedVector<float> col;   // a padded conv's band input rows
  util::AlignedVector<float> out;   // [Cout x band] GEMM output / gathered dY
  util::AlignedVector<float> dcol;  // [Cin*k*k x band] col2im-route dx panels
  util::AlignedVector<float> dw;    // [groups x Cout*Cin*k*k] dW partials
  util::AlignedVector<float> wrot;  // [Cin x Cout*k*k] rotated W, dx as conv
  util::AlignedVector<std::int64_t> taps;  // [Cin*k*k] input tap offsets
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

// True when conv2d_backward_bands computes dx as a forward conv of dy
// (Cout < Cin and pad <= k-1); false selects W^T * dY plus col2im.
bool conv_dx_as_forward(const ConvGeometry& g, std::int64_t cout);

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

// Full backward: dx = w^T (*) dy (overwritten, reshaped like x if needed;
// null skips it), dw += dy (*) x and db += sum(dy) (accumulating, like the
// single-sample versions).
void conv2d_backward_batched(const Tensor& x, const Tensor& dy,
                             const Tensor& w, std::int64_t pad, Tensor* dx,
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
