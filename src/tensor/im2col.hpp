#pragma once

// im2col / col2im lowering for 2-d convolution (stride 1, square kernels,
// symmetric zero padding). The column matrix layout is
//   [Cin * kh * kw,  Hout * Wout]
// so that conv forward is a single GEMM with the [Cout, Cin*kh*kw] weight
// matrix. The row-range variants lower only output rows [y0, y1) into a
// [Cin*kh*kw, (y1-y0) * Wout] band, the unit nn/conv_ops streams.

#include <cstdint>

#include "tensor/tensor.hpp"

namespace parpde {

struct ConvGeometry {
  std::int64_t in_channels = 0;
  std::int64_t height = 0;      // input height (unpadded)
  std::int64_t width = 0;       // input width (unpadded)
  std::int64_t kernel = 0;      // square kernel extent
  std::int64_t pad = 0;         // symmetric zero padding

  [[nodiscard]] std::int64_t out_height() const { return height + 2 * pad - kernel + 1; }
  [[nodiscard]] std::int64_t out_width() const { return width + 2 * pad - kernel + 1; }
  [[nodiscard]] std::int64_t col_rows() const { return in_channels * kernel * kernel; }
  [[nodiscard]] std::int64_t col_cols() const { return out_height() * out_width(); }
};

// Expands output rows [y0, y1) of one CHW sample `x` into the band `col`
// (preallocated, col_rows x (y1-y0)*out_width, row-major). Out-of-range taps
// contribute zeros. `ld` is the row stride (leading dimension) of `col`; the
// default -1 means a dense band. A larger ld lets several samples share one
// wide matrix, each writing its own column window.
void im2col_rows(const float* x, const ConvGeometry& g, std::int64_t y0,
                 std::int64_t y1, float* col, std::int64_t ld = -1);

// Scatters the band of output rows [y0, y1) back into the CHW sample
// gradient, accumulating overlapping contributions. `ld` as in im2col_rows.
void col2im_rows(const float* col, const ConvGeometry& g, std::int64_t y0,
                 std::int64_t y1, float* x_grad, std::int64_t ld = -1);

// Whole-sample forms (all output rows). col2im's `x_grad` must be
// zero-initialized by the caller.
inline void im2col(const float* x, const ConvGeometry& g, float* col,
                   std::int64_t ld = -1) {
  im2col_rows(x, g, 0, g.out_height(), col, ld);
}
inline void col2im(const float* col, const ConvGeometry& g, float* x_grad,
                   std::int64_t ld = -1) {
  col2im_rows(col, g, 0, g.out_height(), x_grad, ld);
}

// Whole-batch lowering: expands `batch` NCHW samples at `x` into one wide
// column matrix col[col_rows x batch*col_cols], sample s occupying columns
// [s*col_cols, (s+1)*col_cols). Samples are processed in parallel on the
// global thread pool; each writes a disjoint column window, so the result is
// bit-identical at any worker count. Reference lowering for benchmarks; the
// convs themselves lower one band at a time (nn/conv_ops.hpp).
void im2col_batched(const float* x, std::int64_t batch, const ConvGeometry& g,
                    float* col);

// Inverse of im2col_batched: scatters the wide column matrix back into the
// NCHW gradient `x_grad` (caller zero-initialized), parallel over samples.
void col2im_batched(const float* col, std::int64_t batch,
                    const ConvGeometry& g, float* x_grad);

}  // namespace parpde
