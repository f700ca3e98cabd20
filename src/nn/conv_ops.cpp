#include "nn/conv_ops.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <stdexcept>

#include "tensor/gemm.hpp"
#include "util/thread_pool.hpp"

namespace parpde::nn {

namespace {

ConvGeometry batched_geometry(const Tensor& x, const Tensor& w,
                              std::int64_t pad, const char* what) {
  if (x.ndim() != 4 || w.ndim() != 4 || w.dim(1) != x.dim(1)) {
    throw std::invalid_argument(std::string(what) +
                                ": expected x [N,Cin,H,W], w [Cout,Cin,k,k]");
  }
  if (w.dim(2) != w.dim(3)) {
    throw std::invalid_argument(std::string(what) + ": kernel must be square");
  }
  return ConvGeometry{x.dim(1), x.dim(2), x.dim(3), w.dim(2), pad};
}

ConvGeometry geometry_of(const Tensor& x, const Tensor& w, std::int64_t pad,
                         const char* what) {
  if (x.ndim() != 3 || w.ndim() != 4 || w.dim(1) != x.dim(0)) {
    throw std::invalid_argument(std::string(what) +
                                ": expected x [Cin,H,W], w [Cout,Cin,k,k]");
  }
  if (w.dim(2) != w.dim(3)) {
    throw std::invalid_argument(std::string(what) + ": kernel must be square");
  }
  return ConvGeometry{x.dim(0), x.dim(1), x.dim(2), w.dim(2), pad};
}

// Grow-only resize: a shared workspace serving several layer shapes never
// re-zeroes (or reallocates) a tail it already owns. Growth is exact, not
// geometric, so a panel buffer never exceeds the largest panel asked of it
// (the backward's dx-as-forward-conv panels differ from the forward's).
template <typename T>
T* ensure(util::AlignedVector<T>& buf, std::int64_t count) {
  if (static_cast<std::int64_t>(buf.size()) < count) {
    buf.reserve(static_cast<std::size_t>(count));
    buf.resize(static_cast<std::size_t>(count));
  }
  return buf.data();
}

// How a band's GEMMs read the input in place. Rows are wp = W + 2p wide:
// tap (ci, ky, kx) of output pixel (oy, ox) sits at taps[tap] past pixel
// (oy, ox) of the band's first input row, with taps[(ci*k + ky)*k + kx] =
// ci*cstride + ky*wp + kx. So B (or, for dW, B^T) is the input at one row
// offset per tap, and no column matrix exists. The forward's pixel columns
// run wp per output row, and its epilogue skips the last k-1 of each row;
// the dW pass reads ow-pixel segments wp apart. An unpadded conv
// reads the sample itself (cstride = H*W); a padded one reads a
// zero-bordered copy of the band's input rows.
struct BandLayout {
  std::int64_t wp = 0;
  std::int64_t cstride = 0;
  std::int64_t input_floats = 0;  // per-slot padded copy (padded convs only)
};

BandLayout band_layout(const ConvGeometry& g, std::int64_t rows) {
  const std::int64_t wp = g.width + 2 * g.pad;
  const std::int64_t in_rows = rows + g.kernel - 1;
  if (g.pad == 0) return {wp, g.height * g.width, 0};
  return {wp, in_rows * wp, g.in_channels * in_rows * wp};
}

void fill_taps(const ConvGeometry& g, const BandLayout& l, std::int64_t* taps) {
  const std::int64_t k = g.kernel;
  for (std::int64_t ci = 0; ci < g.in_channels; ++ci) {
    for (std::int64_t ky = 0; ky < k; ++ky) {
      for (std::int64_t kx = 0; kx < k; ++kx) {
        taps[(ci * k + ky) * k + kx] = ci * l.cstride + ky * l.wp + kx;
      }
    }
  }
}

// Base pointer of output rows [y0, y1) of CHW sample xs under layout l:
// the sample itself, or its input rows y0-p .. y1-2+k-p copied into `buf`
// with zeros outside the image.
const float* band_input(const float* xs, const ConvGeometry& g,
                        const BandLayout& l, std::int64_t y0, std::int64_t y1,
                        float* buf) {
  const std::int64_t p = g.pad;
  if (p == 0) return xs + y0 * g.width;
  for (std::int64_t ci = 0; ci < g.in_channels; ++ci) {
    for (std::int64_t r = 0; r < y1 - y0 + g.kernel - 1; ++r) {
      float* dst = buf + ci * l.cstride + r * l.wp;
      const std::int64_t iy = y0 - p + r;
      if (iy < 0 || iy >= g.height) {
        std::fill(dst, dst + l.wp, 0.0f);
        continue;
      }
      std::fill(dst, dst + p, 0.0f);
      std::memcpy(dst + p, xs + (ci * g.height + iy) * g.width,
                  static_cast<std::size_t>(g.width) * sizeof(float));
      std::fill(dst + p + g.width, dst + l.wp, 0.0f);
    }
  }
  return buf;
}

// dst[i] = act(src[i] + *bias) over one channel's band (b = 0 without bias).
void epilogue(const float* src, float* dst, std::int64_t n, const float* bias,
              Fused fused, float slope) {
  const float b = bias != nullptr ? *bias : 0.0f;
  switch (fused) {
    case Fused::kNone:
      if (bias == nullptr) {
        std::memcpy(dst, src, static_cast<std::size_t>(n) * sizeof(float));
      } else {
        for (std::int64_t i = 0; i < n; ++i) dst[i] = src[i] + b;
      }
      break;
    case Fused::kLeakyReLU:
      for (std::int64_t i = 0; i < n; ++i) {
        const float v = src[i] + b;
        dst[i] = v >= 0.0f ? v : slope * v;
      }
      break;
    case Fused::kReLU:
      for (std::int64_t i = 0; i < n; ++i) {
        const float v = src[i] + b;
        dst[i] = v > 0.0f ? v : 0.0f;
      }
      break;
    case Fused::kTanh:
      for (std::int64_t i = 0; i < n; ++i) dst[i] = std::tanh(src[i] + b);
      break;
  }
}

}  // namespace

std::int64_t conv_band_rows(const ConvGeometry& g) {
  const std::int64_t row_bytes = g.col_rows() * g.out_width() *
                                 static_cast<std::int64_t>(sizeof(float));
  if (row_bytes <= 0 || g.out_height() <= 0) return 1;
  return std::clamp<std::int64_t>(kConvBandBytes / row_bytes, 1,
                                  g.out_height());
}

void reserve_forward(Conv2dWorkspace& ws, const ConvGeometry& g,
                     std::int64_t cout) {
  if (g.col_rows() <= 0 || g.out_height() <= 0 || g.out_width() <= 0) return;
  // The largest band buffers of any input up to g: band height grows as the
  // output narrows, so take the maximum over every narrower width.
  std::int64_t input = 0, out = 0;
  for (std::int64_t ow = 1; ow <= g.out_width(); ++ow) {
    ConvGeometry gi = g;
    gi.width = ow + g.kernel - 1 - 2 * g.pad;
    if (gi.width < 1) continue;
    const std::int64_t rows = conv_band_rows(gi);
    const BandLayout l = band_layout(gi, rows);
    input = std::max(input, l.input_floats);
    out = std::max(out, cout * rows * l.wp);
  }
  const std::int64_t slots = util::ThreadPool::global().degree();
  ensure(ws.col, slots * input);
  ensure(ws.out, slots * out);
  ensure(ws.taps, g.col_rows());
}

void conv2d_forward_bands(const float* x, std::int64_t batch,
                          const ConvGeometry& g, const float* w,
                          std::int64_t cout, const float* bias, Fused fused,
                          float slope, float* y, Conv2dWorkspace& ws) {
  const std::int64_t ow = g.out_width(), oh = g.out_height();
  const std::int64_t plane = oh * ow;
  const std::int64_t in_stride = g.in_channels * g.height * g.width;
  const std::int64_t rows = conv_band_rows(g);
  const std::int64_t bands = batch * ((oh + rows - 1) / rows);
  // out = W * B with B read in place (BandLayout); the epilogue keeps the
  // first ow of every wp columns.
  const BandLayout l = band_layout(g, rows);
  const std::int64_t out_floats = cout * rows * l.wp;
  std::int64_t* taps = ensure(ws.taps, g.col_rows());
  fill_taps(g, l, taps);
  // Forward bands are independent, so they spread over the pool whole: slot
  // j owns buffer pair j and runs bands j, j + slots, ... start to finish on
  // one thread (nested GEMM fan-out runs inline). With one slot the GEMM
  // fans out instead. Bits are the same either way.
  auto& pool = util::ThreadPool::global();
  const std::int64_t slots = std::min<std::int64_t>(pool.degree(), bands);
  float* xb = ensure(ws.col, slots * l.input_floats);
  float* out = ensure(ws.out, slots * out_floats);
  const std::int64_t per_sample = bands / batch;
  pool.parallel_for(slots, 1, [&](std::int64_t begin, std::int64_t end) {
    for (std::int64_t slot = begin; slot < end; ++slot) {
      float* pxb = xb + slot * l.input_floats;
      float* pout = out + slot * out_floats;
      for (std::int64_t t = slot; t < bands; t += slots) {
        const std::int64_t s = t / per_sample;
        const std::int64_t y0 = (t % per_sample) * rows;
        const std::int64_t y1 = std::min(oh, y0 + rows);
        const float* base = band_input(x + s * in_stride, g, l, y0, y1, pxb);
        // out [Cout x nw] = W [Cout x Cin*k*k] * B: each element's
        // k-reduction runs in the same order, over the same values, as
        // the full-width im2col GEMM's. The last row stops at ow, so no
        // tap reads past the band.
        const std::int64_t nw = (y1 - y0 - 1) * l.wp + ow;
        gemm_rows(w, base, taps, pout, cout, g.col_rows(), nw);
        float* ys = y + s * cout * plane + y0 * ow;
        for (std::int64_t c = 0; c < cout; ++c) {
          for (std::int64_t i = 0; i < y1 - y0; ++i) {
            epilogue(pout + c * nw + i * l.wp, ys + c * plane + i * ow, ow,
                     bias != nullptr ? bias + c : nullptr, fused, slope);
          }
        }
      }
    }
  });
}

bool conv_dx_as_forward(const ConvGeometry& g, std::int64_t cout) {
  return cout < g.in_channels && g.pad <= g.kernel - 1;
}

void conv2d_backward_bands(const float* x, const float* dy, std::int64_t batch,
                           const ConvGeometry& g, const float* w,
                           std::int64_t cout, float* dx, float* dw, float* db,
                           Conv2dWorkspace& ws) {
  const std::int64_t ow = g.out_width(), oh = g.out_height();
  const std::int64_t plane = oh * ow;
  const std::int64_t in_stride = g.in_channels * g.height * g.width;
  const std::int64_t rows = conv_band_rows(g);
  const std::int64_t band = rows * ow;
  const std::int64_t kk = g.col_rows();
  auto& pool = util::ThreadPool::global();
  // db[c] += sum of channel c over the batch, one thread per channel summing
  // left to right: deterministic at any worker count.
  if (db != nullptr) {
    pool.parallel_for(cout, 1, [&](std::int64_t begin, std::int64_t end) {
      for (std::int64_t c = begin; c < end; ++c) {
        float acc = 0.0f;
        for (std::int64_t s = 0; s < batch; ++s) {
          const float* p = dy + (s * cout + c) * plane;
          for (std::int64_t i = 0; i < plane; ++i) acc += p[i];
        }
        db[c] += acc;
      }
    });
  }
  if (dx != nullptr && conv_dx_as_forward(g, cout)) {
    // dx = conv(dY, rot180(W) with Cin and Cout swapped) at pad k-1-p: a
    // Cin-row GEMM over the narrow Cout*k*k depth that writes dx directly,
    // with no col2im, no dcol panel and no memset.
    const std::int64_t k = g.kernel, taps = k * k;
    float* wr = ensure(ws.wrot, cout * kk);
    for (std::int64_t ci = 0; ci < g.in_channels; ++ci) {
      for (std::int64_t co = 0; co < cout; ++co) {
        const float* src = w + (co * g.in_channels + ci) * taps;
        float* dst = wr + (ci * cout + co) * taps;
        for (std::int64_t t = 0; t < taps; ++t) dst[t] = src[taps - 1 - t];
      }
    }
    const ConvGeometry gt{cout, oh, ow, k, k - 1 - g.pad};
    conv2d_forward_bands(dy, batch, gt, wr, g.in_channels, nullptr,
                         Fused::kNone, 0.0f, dx, ws);
    dx = nullptr;
  }
  if (dw == nullptr && dx == nullptr) return;
  // Samples fall into a fixed number of groups (independent of the pool);
  // each group accumulates its own dW partial, and the partials are summed
  // into dw in group order, so groups can run on any threads without
  // touching the result. Slot j owns buffer set j and runs groups
  // j, j + slots, ... on one thread (nested GEMM fan-out runs inline).
  // dW reads the input in place like the forward (BandLayout), one segment
  // of ow pixels per output row, so its k-reduction runs over the band's
  // pixels in the order an im2col panel would hold them.
  const BandLayout l = band_layout(g, rows);
  const std::int64_t groups = std::min(kConvGradGroups, batch);
  const std::int64_t slots = std::min<std::int64_t>(pool.degree(), groups);
  const std::int64_t dw_floats = cout * kk;
  std::int64_t* taps = nullptr;
  float* xb = nullptr;
  float* partial = nullptr;
  if (dw != nullptr) {
    taps = ensure(ws.taps, kk);
    fill_taps(g, l, taps);
    xb = ensure(ws.col, slots * l.input_floats);
    partial = ensure(ws.dw, groups * dw_floats);
    std::memset(partial, 0,
                static_cast<std::size_t>(groups * dw_floats) * sizeof(float));
  }
  float* dyp = ensure(ws.out, slots * cout * band);
  float* dcol = dx != nullptr ? ensure(ws.dcol, slots * kk * band) : nullptr;
  if (dx != nullptr) {
    std::memset(dx, 0,
                static_cast<std::size_t>(batch * in_stride) * sizeof(float));
  }
  pool.parallel_for(slots, 1, [&](std::int64_t begin, std::int64_t end) {
    for (std::int64_t slot = begin; slot < end; ++slot) {
      float* pxb = xb != nullptr ? xb + slot * l.input_floats : nullptr;
      float* pdy = dyp + slot * cout * band;
      float* pdcol = dcol != nullptr ? dcol + slot * kk * band : nullptr;
      for (std::int64_t grp = slot; grp < groups; grp += slots) {
        for (std::int64_t s = grp; s < batch; s += groups) {
          const float* dys = dy + s * cout * plane;
          for (std::int64_t y0 = 0; y0 < oh; y0 += rows) {
            const std::int64_t y1 = std::min(oh, y0 + rows);
            const std::int64_t n = (y1 - y0) * ow;
            // Gather the band of dY into a dense [Cout x n] panel.
            for (std::int64_t c = 0; c < cout; ++c) {
              std::memcpy(pdy + c * n, dys + c * plane + y0 * ow,
                          static_cast<std::size_t>(n) * sizeof(float));
            }
            if (dw != nullptr) {
              // partial += dY_band [Cout x n] * col^T, col read in place.
              const float* base =
                  band_input(x + s * in_stride, g, l, y0, y1, pxb);
              gemm_bt_rows_acc(pdy, base, taps, ow, l.wp,
                               partial + grp * dw_floats, cout, n, kk);
            }
            if (dx != nullptr) {
              // dcol [Cin*k*k x n] = W^T * dY_band, scattered straight back.
              gemm_at(w, pdy, pdcol, kk, cout, n);
              col2im_rows(pdcol, g, y0, y1, dx + s * in_stride);
            }
          }
        }
      }
    }
  });
  if (dw != nullptr) {
    for (std::int64_t grp = 0; grp < groups; ++grp) {
      const float* p = partial + grp * dw_floats;
      for (std::int64_t i = 0; i < dw_floats; ++i) dw[i] += p[i];
    }
  }
}

void conv2d_forward(const Tensor& x, const Tensor& w, const Tensor& b,
                    std::int64_t pad, Tensor& y, Conv2dWorkspace& ws) {
  const ConvGeometry g = geometry_of(x, w, pad, "conv2d_forward");
  const std::int64_t cout = w.dim(0);
  const std::int64_t oh = g.out_height(), ow = g.out_width();
  if (oh <= 0 || ow <= 0) {
    throw std::invalid_argument("conv2d_forward: input smaller than kernel");
  }
  if (!b.empty() && b.size() != cout) {
    throw std::invalid_argument("conv2d_forward: bias size mismatch");
  }
  if (y.ndim() != 3 || y.dim(0) != cout || y.dim(1) != oh || y.dim(2) != ow) {
    y = Tensor({cout, oh, ow});
  }
  conv2d_forward_bands(x.data(), 1, g, w.data(), cout,
                       b.empty() ? nullptr : b.data(), Fused::kNone, 0.0f,
                       y.data(), ws);
}

void conv2d_backward_data(const Tensor& dy, const Tensor& w, std::int64_t pad,
                          Tensor& dx, Conv2dWorkspace& ws) {
  if (dy.ndim() != 3 || w.ndim() != 4 || dy.dim(0) != w.dim(0)) {
    throw std::invalid_argument(
        "conv2d_backward_data: expected dy [Cout,OH,OW], w [Cout,Cin,k,k]");
  }
  if (dx.ndim() != 3 || dx.dim(0) != w.dim(1)) {
    throw std::invalid_argument("conv2d_backward_data: dx must be [Cin,H,W]");
  }
  const ConvGeometry g{w.dim(1), dx.dim(1), dx.dim(2), w.dim(2), pad};
  if (g.out_height() != dy.dim(1) || g.out_width() != dy.dim(2)) {
    throw std::invalid_argument("conv2d_backward_data: shape mismatch");
  }
  conv2d_backward_bands(nullptr, dy.data(), 1, g, w.data(), w.dim(0),
                        dx.data(), nullptr, nullptr, ws);
}

void conv2d_backward_weights(const Tensor& x, const Tensor& dy, std::int64_t pad,
                             Tensor& dw, Tensor& db, Conv2dWorkspace& ws) {
  const ConvGeometry g = geometry_of(x, dw, pad, "conv2d_backward_weights");
  const std::int64_t cout = dw.dim(0);
  if (dy.ndim() != 3 || dy.dim(0) != cout || dy.dim(1) != g.out_height() ||
      dy.dim(2) != g.out_width()) {
    throw std::invalid_argument("conv2d_backward_weights: dy shape mismatch");
  }
  conv2d_backward_bands(x.data(), dy.data(), 1, g, nullptr, cout, nullptr,
                        dw.data(), db.empty() ? nullptr : db.data(), ws);
}

void conv2d_forward_batched(const Tensor& x, const Tensor& w, const Tensor& b,
                            std::int64_t pad, Tensor& y, Conv2dWorkspace& ws) {
  const ConvGeometry g = batched_geometry(x, w, pad, "conv2d_forward_batched");
  const std::int64_t cout = w.dim(0);
  const std::int64_t oh = g.out_height(), ow = g.out_width();
  if (oh <= 0 || ow <= 0) {
    throw std::invalid_argument(
        "conv2d_forward_batched: input smaller than kernel");
  }
  if (!b.empty() && b.size() != cout) {
    throw std::invalid_argument("conv2d_forward_batched: bias size mismatch");
  }
  const std::int64_t n = x.dim(0);
  if (y.ndim() != 4 || y.dim(0) != n || y.dim(1) != cout || y.dim(2) != oh ||
      y.dim(3) != ow) {
    y = Tensor({n, cout, oh, ow});
  }
  conv2d_forward_bands(x.data(), n, g, w.data(), cout,
                       b.empty() ? nullptr : b.data(), Fused::kNone, 0.0f,
                       y.data(), ws);
}

void conv2d_backward_batched(const Tensor& x, const Tensor& dy,
                             const Tensor& w, std::int64_t pad, Tensor* dx,
                             Tensor& dw, Tensor& db, Conv2dWorkspace& ws) {
  const ConvGeometry g = batched_geometry(x, w, pad, "conv2d_backward_batched");
  const std::int64_t cout = w.dim(0);
  const std::int64_t n = x.dim(0);
  if (dy.ndim() != 4 || dy.dim(0) != n || dy.dim(1) != cout ||
      dy.dim(2) != g.out_height() || dy.dim(3) != g.out_width()) {
    throw std::invalid_argument("conv2d_backward_batched: dy shape mismatch");
  }
  if (!dw.same_shape(w)) {
    throw std::invalid_argument("conv2d_backward_batched: dw shape mismatch");
  }
  if (!db.empty() && db.size() != cout) {
    throw std::invalid_argument("conv2d_backward_batched: db size mismatch");
  }
  if (dx != nullptr && !dx->same_shape(x)) *dx = Tensor(x.shape());
  conv2d_backward_bands(x.data(), dy.data(), n, g, w.data(), cout,
                        dx != nullptr ? dx->data() : nullptr, dw.data(),
                        db.empty() ? nullptr : db.data(), ws);
}

}  // namespace parpde::nn
