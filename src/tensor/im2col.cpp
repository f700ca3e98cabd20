#include "tensor/im2col.hpp"

#include <algorithm>
#include <cstring>

#include "util/thread_pool.hpp"

namespace parpde {

void im2col_rows(const float* x, const ConvGeometry& g, std::int64_t y0,
                 std::int64_t y1, float* col, std::int64_t ld) {
  const std::int64_t ow = g.out_width();
  const std::int64_t cols = ld < 0 ? (y1 - y0) * ow : ld;
  std::int64_t row = 0;
  for (std::int64_t c = 0; c < g.in_channels; ++c) {
    const float* plane = x + c * g.height * g.width;
    for (std::int64_t ky = 0; ky < g.kernel; ++ky) {
      for (std::int64_t kx = 0; kx < g.kernel; ++kx, ++row) {
        float* out = col + row * cols;
        for (std::int64_t y = y0; y < y1; ++y) {
          const std::int64_t sy = y + ky - g.pad;
          float* orow = out + (y - y0) * ow;
          if (sy < 0 || sy >= g.height) {
            std::memset(orow, 0, static_cast<std::size_t>(ow) * sizeof(float));
            continue;
          }
          const float* srow = plane + sy * g.width;
          // Valid x-range of the shifted row: sx = x' + kx - pad in [0, W).
          const std::int64_t x_lo = std::max<std::int64_t>(0, g.pad - kx);
          const std::int64_t x_hi =
              std::min<std::int64_t>(ow, g.width + g.pad - kx);
          if (x_lo > 0) {
            std::memset(orow, 0, static_cast<std::size_t>(x_lo) * sizeof(float));
          }
          if (x_hi > x_lo) {
            std::memcpy(orow + x_lo, srow + x_lo + kx - g.pad,
                        static_cast<std::size_t>(x_hi - x_lo) * sizeof(float));
          }
          if (x_hi < ow) {
            std::memset(orow + x_hi, 0,
                        static_cast<std::size_t>(ow - x_hi) * sizeof(float));
          }
        }
      }
    }
  }
}

void col2im_rows(const float* col, const ConvGeometry& g, std::int64_t y0,
                 std::int64_t y1, float* x_grad, std::int64_t ld) {
  const std::int64_t ow = g.out_width();
  const std::int64_t cols = ld < 0 ? (y1 - y0) * ow : ld;
  std::int64_t row = 0;
  for (std::int64_t c = 0; c < g.in_channels; ++c) {
    float* plane = x_grad + c * g.height * g.width;
    for (std::int64_t ky = 0; ky < g.kernel; ++ky) {
      for (std::int64_t kx = 0; kx < g.kernel; ++kx, ++row) {
        const float* in = col + row * cols;
        for (std::int64_t y = y0; y < y1; ++y) {
          const std::int64_t sy = y + ky - g.pad;
          if (sy < 0 || sy >= g.height) continue;
          const float* irow = in + (y - y0) * ow;
          float* drow = plane + sy * g.width;
          const std::int64_t x_lo = std::max<std::int64_t>(0, g.pad - kx);
          const std::int64_t x_hi =
              std::min<std::int64_t>(ow, g.width + g.pad - kx);
          for (std::int64_t xi = x_lo; xi < x_hi; ++xi) {
            drow[xi + kx - g.pad] += irow[xi];
          }
        }
      }
    }
  }
}

void im2col_batched(const float* x, std::int64_t batch, const ConvGeometry& g,
                    float* col) {
  const std::int64_t in_stride = g.in_channels * g.height * g.width;
  const std::int64_t cols = g.col_cols();
  const std::int64_t ld = batch * cols;
  util::ThreadPool::global().parallel_for(
      batch, 1, [&](std::int64_t begin, std::int64_t end) {
        for (std::int64_t s = begin; s < end; ++s) {
          im2col(x + s * in_stride, g, col + s * cols, ld);
        }
      });
}

void col2im_batched(const float* col, std::int64_t batch,
                    const ConvGeometry& g, float* x_grad) {
  const std::int64_t in_stride = g.in_channels * g.height * g.width;
  const std::int64_t cols = g.col_cols();
  const std::int64_t ld = batch * cols;
  util::ThreadPool::global().parallel_for(
      batch, 1, [&](std::int64_t begin, std::int64_t end) {
        for (std::int64_t s = begin; s < end; ++s) {
          col2im(col + s * cols, g, x_grad + s * in_stride, ld);
        }
      });
}

}  // namespace parpde
