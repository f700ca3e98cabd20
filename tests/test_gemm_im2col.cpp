// GEMM kernels versus a naive reference, and im2col/col2im consistency with a
// direct convolution. Parameterized over a sweep of problem sizes.

#include <gtest/gtest.h>

#include <algorithm>
#include <tuple>

#include "helpers.hpp"
#include "tensor/gemm.hpp"
#include "tensor/im2col.hpp"
#include "util/random.hpp"

namespace parpde {
namespace {

std::vector<float> random_vec(std::int64_t n, util::Rng& rng) {
  std::vector<float> v(static_cast<std::size_t>(n));
  rng.fill_uniform(v, -1.0f, 1.0f);
  return v;
}

void naive_gemm(const float* a, const float* b, float* c, std::int64_t m,
                std::int64_t k, std::int64_t n) {
  for (std::int64_t i = 0; i < m; ++i) {
    for (std::int64_t j = 0; j < n; ++j) {
      double acc = 0.0;
      for (std::int64_t p = 0; p < k; ++p) {
        acc += static_cast<double>(a[i * k + p]) * b[p * n + j];
      }
      c[i * n + j] = static_cast<float>(acc);
    }
  }
}

class GemmSizes : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(GemmSizes, MatchesNaive) {
  const auto [m, k, n] = GetParam();
  util::Rng rng(m * 10007 + k * 101 + n);
  const auto a = random_vec(m * k, rng);
  const auto b = random_vec(k * n, rng);
  std::vector<float> c(static_cast<std::size_t>(m * n));
  std::vector<float> ref(static_cast<std::size_t>(m * n));
  gemm(a.data(), b.data(), c.data(), m, k, n);
  naive_gemm(a.data(), b.data(), ref.data(), m, k, n);
  for (std::size_t i = 0; i < c.size(); ++i) {
    EXPECT_NEAR(c[i], ref[i], 1e-4) << i;
  }
}

TEST_P(GemmSizes, AccumulateAddsOnTop) {
  const auto [m, k, n] = GetParam();
  util::Rng rng(m + k + n);
  const auto a = random_vec(m * k, rng);
  const auto b = random_vec(k * n, rng);
  std::vector<float> c(static_cast<std::size_t>(m * n), 1.0f);
  std::vector<float> ref(static_cast<std::size_t>(m * n));
  naive_gemm(a.data(), b.data(), ref.data(), m, k, n);
  gemm_acc(a.data(), b.data(), c.data(), m, k, n);
  for (std::size_t i = 0; i < c.size(); ++i) {
    EXPECT_NEAR(c[i], ref[i] + 1.0f, 1e-4) << i;
  }
}

TEST_P(GemmSizes, TransposedAMatches) {
  const auto [m, k, n] = GetParam();
  util::Rng rng(3 * m + k - n);
  // A stored [k x m]; compute with explicit transpose as reference.
  const auto at = random_vec(k * m, rng);
  const auto b = random_vec(k * n, rng);
  std::vector<float> a(static_cast<std::size_t>(m * k));
  for (std::int64_t p = 0; p < k; ++p) {
    for (std::int64_t i = 0; i < m; ++i) a[i * k + p] = at[p * m + i];
  }
  std::vector<float> c(static_cast<std::size_t>(m * n));
  std::vector<float> ref(static_cast<std::size_t>(m * n));
  gemm_at(at.data(), b.data(), c.data(), m, k, n);
  naive_gemm(a.data(), b.data(), ref.data(), m, k, n);
  for (std::size_t i = 0; i < c.size(); ++i) {
    EXPECT_NEAR(c[i], ref[i], 1e-4) << i;
  }
}

TEST_P(GemmSizes, TransposedBAccumulates) {
  const auto [m, k, n] = GetParam();
  util::Rng rng(7 * m + 5 * k + n);
  const auto a = random_vec(m * k, rng);
  const auto bt = random_vec(n * k, rng);  // B stored [n x k]
  std::vector<float> b(static_cast<std::size_t>(k * n));
  for (std::int64_t j = 0; j < n; ++j) {
    for (std::int64_t p = 0; p < k; ++p) b[p * n + j] = bt[j * k + p];
  }
  std::vector<float> c(static_cast<std::size_t>(m * n), 0.0f);
  std::vector<float> ref(static_cast<std::size_t>(m * n));
  gemm_bt_acc(a.data(), bt.data(), c.data(), m, k, n);
  naive_gemm(a.data(), b.data(), ref.data(), m, k, n);
  for (std::size_t i = 0; i < c.size(); ++i) {
    EXPECT_NEAR(c[i], ref[i], 1e-4) << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, GemmSizes,
                         ::testing::Values(std::tuple{1, 1, 1},
                                           std::tuple{3, 5, 7},
                                           std::tuple{8, 8, 8},
                                           std::tuple{16, 100, 9},
                                           std::tuple{6, 150, 64},
                                           std::tuple{32, 17, 33}));

// Direct (definition-level) convolution used to validate im2col.
void direct_conv(const float* x, const ConvGeometry& g, const float* w,
                 std::int64_t cout, float* y) {
  const std::int64_t oh = g.out_height(), ow = g.out_width();
  for (std::int64_t co = 0; co < cout; ++co) {
    for (std::int64_t oy = 0; oy < oh; ++oy) {
      for (std::int64_t ox = 0; ox < ow; ++ox) {
        double acc = 0.0;
        for (std::int64_t ci = 0; ci < g.in_channels; ++ci) {
          for (std::int64_t ky = 0; ky < g.kernel; ++ky) {
            for (std::int64_t kx = 0; kx < g.kernel; ++kx) {
              const std::int64_t sy = oy + ky - g.pad;
              const std::int64_t sx = ox + kx - g.pad;
              if (sy < 0 || sy >= g.height || sx < 0 || sx >= g.width) continue;
              acc += static_cast<double>(
                         x[(ci * g.height + sy) * g.width + sx]) *
                     w[((co * g.in_channels + ci) * g.kernel + ky) * g.kernel +
                       kx];
            }
          }
        }
        y[(co * oh + oy) * ow + ox] = static_cast<float>(acc);
      }
    }
  }
}

class ConvGeoms
    : public ::testing::TestWithParam<std::tuple<int, int, int, int>> {};

TEST_P(ConvGeoms, Im2colGemmMatchesDirectConv) {
  const auto [cin, size, kernel, pad] = GetParam();
  const ConvGeometry g{cin, size, size, kernel, pad};
  if (g.out_height() <= 0) GTEST_SKIP();
  const std::int64_t cout = 3;
  util::Rng rng(cin * 31 + size * 7 + kernel + pad);
  const auto x = random_vec(cin * size * size, rng);
  const auto w = random_vec(cout * cin * kernel * kernel, rng);

  std::vector<float> col(static_cast<std::size_t>(g.col_rows() * g.col_cols()));
  im2col(x.data(), g, col.data());
  std::vector<float> y(static_cast<std::size_t>(cout * g.col_cols()));
  gemm(w.data(), col.data(), y.data(), cout, g.col_rows(), g.col_cols());

  std::vector<float> ref(y.size());
  direct_conv(x.data(), g, w.data(), cout, ref.data());
  for (std::size_t i = 0; i < y.size(); ++i) {
    EXPECT_NEAR(y[i], ref[i], 1e-4) << i;
  }
}

TEST_P(ConvGeoms, Col2imIsAdjointOfIm2col) {
  // <im2col(x), c> == <x, col2im(c)> for all x, c — the adjoint identity that
  // makes the conv backward pass correct.
  const auto [cin, size, kernel, pad] = GetParam();
  const ConvGeometry g{cin, size, size, kernel, pad};
  if (g.out_height() <= 0) GTEST_SKIP();
  util::Rng rng(cin + size + kernel + pad);
  const auto x = random_vec(cin * size * size, rng);
  const auto c = random_vec(g.col_rows() * g.col_cols(), rng);

  std::vector<float> col(static_cast<std::size_t>(g.col_rows() * g.col_cols()));
  im2col(x.data(), g, col.data());
  double lhs = 0.0;
  for (std::size_t i = 0; i < col.size(); ++i) {
    lhs += static_cast<double>(col[i]) * c[i];
  }

  std::vector<float> xg(static_cast<std::size_t>(cin * size * size), 0.0f);
  col2im(c.data(), g, xg.data());
  double rhs = 0.0;
  for (std::size_t i = 0; i < xg.size(); ++i) {
    rhs += static_cast<double>(xg[i]) * x[i];
  }
  EXPECT_NEAR(lhs, rhs, 1e-2 * (std::abs(lhs) + 1.0));
}

TEST_P(ConvGeoms, RowBandsTileTheFullLowering) {
  // im2col_rows over 2-row bands reproduces the full matrix's columns, and
  // col2im_rows over the same bands accumulates to the full col2im.
  const auto [cin, size, kernel, pad] = GetParam();
  const ConvGeometry g{cin, size, size, kernel, pad};
  if (g.out_height() <= 0) GTEST_SKIP();
  util::Rng rng(cin * 5 + size + kernel * 3 + pad);
  const auto x = random_vec(cin * size * size, rng);
  const std::int64_t ow = g.out_width(), plane = g.col_cols();
  std::vector<float> full(static_cast<std::size_t>(g.col_rows() * plane));
  im2col(x.data(), g, full.data());
  std::vector<float> full_back(x.size(), 0.0f);
  col2im(full.data(), g, full_back.data());

  std::vector<float> band(full.size());
  std::vector<float> band_back(x.size(), 0.0f);
  for (std::int64_t y0 = 0; y0 < g.out_height(); y0 += 2) {
    const std::int64_t y1 = std::min(g.out_height(), y0 + 2);
    const std::int64_t n = (y1 - y0) * ow;
    im2col_rows(x.data(), g, y0, y1, band.data());
    for (std::int64_t r = 0; r < g.col_rows(); ++r) {
      for (std::int64_t j = 0; j < n; ++j) {
        ASSERT_EQ(band[static_cast<std::size_t>(r * n + j)],
                  full[static_cast<std::size_t>(r * plane + y0 * ow + j)]);
      }
    }
    col2im_rows(band.data(), g, y0, y1, band_back.data());
  }
  for (std::size_t i = 0; i < x.size(); ++i) {
    EXPECT_NEAR(band_back[i], full_back[i], 1e-5) << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, ConvGeoms,
                         ::testing::Values(std::tuple{1, 5, 3, 0},
                                           std::tuple{1, 5, 3, 1},
                                           std::tuple{2, 8, 5, 2},
                                           std::tuple{4, 12, 5, 0},
                                           std::tuple{3, 7, 1, 0},
                                           std::tuple{2, 6, 5, 4}));

}  // namespace
}  // namespace parpde
