// Functional conv primitives: consistency with the Conv2d layer, adjoint
// identities, and the banded lowering against full-width references.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include "core/model.hpp"
#include "core/trainer.hpp"
#include "helpers.hpp"
#include "nn/conv2d.hpp"
#include "nn/conv_ops.hpp"
#include "tensor/gemm.hpp"
#include "util/random.hpp"
#include "util/thread_pool.hpp"

namespace parpde::nn {
namespace {

using parpde::testing::expect_tensors_close;

Tensor random_tensor(const Shape& shape, std::uint64_t seed) {
  Tensor t(shape);
  util::Rng rng(seed);
  rng.fill_uniform(t.values(), -1.0f, 1.0f);
  return t;
}

TEST(ConvOps, ForwardMatchesConv2dLayer) {
  Conv2d layer(3, 5, 3, 1);
  util::Rng rng(1);
  layer.init(rng);
  const Tensor x = random_tensor({3, 7, 9}, 2);
  const Tensor batched = x.reshaped({1, 3, 7, 9});
  const Tensor expected = layer.forward(batched);

  Tensor y;
  Conv2dWorkspace ws;
  conv2d_forward(x, layer.weight(), layer.bias(), 1, y, ws);
  expect_tensors_close(y.reshaped({1, 5, 7, 9}), expected, 1e-6, 1e-5);
}

TEST(ConvOps, ForwardWithoutBias) {
  const Tensor x = random_tensor({2, 5, 5}, 3);
  const Tensor w = random_tensor({4, 2, 3, 3}, 4);
  Tensor y1, y2;
  Conv2dWorkspace ws;
  Tensor zero_bias({4});
  conv2d_forward(x, w, zero_bias, 1, y1, ws);
  conv2d_forward(x, w, Tensor{}, 1, y2, ws);
  expect_tensors_close(y1, y2, 0.0, 0.0);
}

TEST(ConvOps, BackwardDataMatchesConv2dLayer) {
  Conv2d layer(2, 3, 3, 1);
  util::Rng rng(5);
  layer.init(rng);
  const Tensor x = random_tensor({2, 6, 6}, 6);
  const Tensor dy = random_tensor({3, 6, 6}, 7);

  layer.forward(x.reshaped({1, 2, 6, 6}));
  const Tensor expected = layer.backward(dy.reshaped({1, 3, 6, 6}));

  Tensor dx({2, 6, 6});
  Conv2dWorkspace ws;
  conv2d_backward_data(dy, layer.weight(), 1, dx, ws);
  expect_tensors_close(dx.reshaped({1, 2, 6, 6}), expected, 1e-5, 1e-4);
}

TEST(ConvOps, BackwardWeightsMatchesConv2dLayer) {
  Conv2d layer(2, 3, 3, 1);
  util::Rng rng(8);
  layer.init(rng);
  const Tensor x = random_tensor({2, 6, 6}, 9);
  const Tensor dy = random_tensor({3, 6, 6}, 10);

  layer.zero_grad();
  layer.forward(x.reshaped({1, 2, 6, 6}));
  layer.backward(dy.reshaped({1, 3, 6, 6}));

  Tensor dw({3, 2, 3, 3});
  Tensor db({3});
  Conv2dWorkspace ws;
  conv2d_backward_weights(x, dy, 1, dw, db, ws);
  const auto params = layer.parameters();
  expect_tensors_close(dw, *params[0].grad, 1e-5, 1e-4);
  expect_tensors_close(db, *params[1].grad, 1e-5, 1e-4);
}

TEST(ConvOps, BackwardWeightsAccumulates) {
  const Tensor x = random_tensor({1, 4, 4}, 11);
  const Tensor dy = random_tensor({2, 4, 4}, 12);
  Tensor dw1({2, 1, 3, 3}), db1({2});
  Tensor dw2({2, 1, 3, 3}), db2({2});
  Conv2dWorkspace ws;
  conv2d_backward_weights(x, dy, 1, dw1, db1, ws);
  conv2d_backward_weights(x, dy, 1, dw2, db2, ws);
  conv2d_backward_weights(x, dy, 1, dw2, db2, ws);  // dw2 = 2 * dw1 now? no:
  // dw2 accumulated twice, dw1 once.
  for (std::int64_t i = 0; i < dw1.size(); ++i) {
    EXPECT_NEAR(dw2[i], 2.0f * dw1[i], 1e-5);
  }
}

TEST(ConvOps, OneByOneConvIsChannelMix) {
  // 1x1 conv with identity-like weights passes channels through.
  const Tensor x = random_tensor({2, 3, 3}, 13);
  Tensor w({2, 2, 1, 1});
  w.fill(0.0f);
  w.at(0, 0, 0, 0) = 1.0f;
  w.at(1, 1, 0, 0) = 1.0f;
  Tensor y;
  Conv2dWorkspace ws;
  conv2d_forward(x, w, Tensor{}, 0, y, ws);
  expect_tensors_close(y, x, 1e-7, 1e-6);
}

TEST(ConvOps, RejectsBadShapes) {
  Tensor y;
  Conv2dWorkspace ws;
  EXPECT_THROW(conv2d_forward(Tensor({2, 4, 4}), Tensor({3, 1, 3, 3}), Tensor{},
                              1, y, ws),
               std::invalid_argument);
  Tensor dx({2, 4, 4});
  EXPECT_THROW(conv2d_backward_data(Tensor({5, 4, 4}), Tensor({3, 2, 3, 3}), 1,
                                    dx, ws),
               std::invalid_argument);
}

// 43x43 input, 16 -> 6 channels, 5x5 kernel, pad 2: 3-row bands, the last
// one a single row, and the first and last bands read padding rows.
constexpr std::int64_t kBandCin = 16, kBandCout = 6, kBandSize = 43;
constexpr std::int64_t kBandKernel = 5, kBandPad = 2, kBandBatch = 2;

ConvGeometry band_geometry() {
  const ConvGeometry g{kBandCin, kBandSize, kBandSize, kBandKernel, kBandPad};
  const std::int64_t rows = conv_band_rows(g);
  EXPECT_GT(g.out_height(), 2 * rows);
  EXPECT_NE(g.out_height() % rows, 0);
  return g;
}

TEST(ConvOps, BandedForwardIsBytewiseFullWidthGemm) {
  const ConvGeometry g = band_geometry();
  Conv2d layer(kBandCin, kBandCout, kBandKernel, kBandPad);
  util::Rng rng(21);
  layer.init(rng);
  rng.fill_uniform(layer.bias().values(), -0.5f, 0.5f);
  const Tensor x = random_tensor({kBandBatch, kBandCin, kBandSize, kBandSize}, 22);
  const Tensor y = layer.forward(x);

  // Reference: the whole sample lowered at once, one full-width GEMM, then
  // the bias add.
  const std::int64_t plane = g.col_cols();
  std::vector<float> col(static_cast<std::size_t>(g.col_rows() * plane));
  std::vector<float> ref(static_cast<std::size_t>(kBandCout * plane));
  for (std::int64_t s = 0; s < kBandBatch; ++s) {
    im2col(x.data() + s * kBandCin * kBandSize * kBandSize, g, col.data());
    gemm(layer.weight().data(), col.data(), ref.data(), kBandCout,
         g.col_rows(), plane);
    for (std::int64_t c = 0; c < kBandCout; ++c) {
      for (std::int64_t i = 0; i < plane; ++i) {
        ref[static_cast<std::size_t>(c * plane + i)] += layer.bias()[c];
      }
    }
    ASSERT_EQ(std::memcmp(y.data() + s * kBandCout * plane, ref.data(),
                          ref.size() * sizeof(float)),
              0)
        << "sample " << s;
  }
}

// Banded backward against naive GEMMs on whole-sample column matrices, with
// dx scattered by a naive col2im, for both dx routes: Cin > Cout (dx as a
// forward conv of dY) and Cin < Cout (W^T * dY + col2im), at pad 0, 1 and
// 2. The 43x43 input makes every route stream several bands, the last one
// ragged.
void expect_banded_backward_matches_naive(std::int64_t cin, std::int64_t cout,
                                          std::int64_t pad) {
  SCOPED_TRACE("cin=" + std::to_string(cin) + " cout=" + std::to_string(cout) +
               " pad=" + std::to_string(pad));
  const ConvGeometry g{cin, kBandSize, kBandSize, kBandKernel, pad};
  const bool as_forward = conv_dx_as_forward(g, cout);
  EXPECT_EQ(as_forward, cout < cin);
  // The geometry the dx route bands over.
  const ConvGeometry dx_g =
      as_forward ? ConvGeometry{cout, g.out_height(), g.out_width(),
                                kBandKernel, kBandKernel - 1 - pad}
                 : g;
  const std::int64_t dx_rows = conv_band_rows(dx_g);
  EXPECT_GT(dx_g.out_height(), 2 * dx_rows);
  EXPECT_NE(dx_g.out_height() % dx_rows, 0);
  EXPECT_NE(g.out_height() % conv_band_rows(g), 0);

  const Tensor x = random_tensor({kBandBatch, cin, kBandSize, kBandSize}, 23);
  const Tensor w = random_tensor({cout, cin, kBandKernel, kBandKernel}, 24);
  const std::int64_t plane = g.col_cols();
  const Tensor dy = random_tensor({kBandBatch, cout, g.out_height(),
                                   g.out_width()}, 25);

  Tensor dx, dw(w.shape()), db({cout});
  Conv2dWorkspace ws;
  conv2d_backward_batched(x, dy, w, pad, &dx, dw, db, ws);

  std::vector<float> col(static_cast<std::size_t>(g.col_rows() * plane));
  std::vector<float> dcol(col.size());
  std::vector<float> ref_dw(static_cast<std::size_t>(w.size()), 0.0f);
  std::vector<float> ref_dx(static_cast<std::size_t>(x.size()), 0.0f);
  std::vector<double> ref_db(static_cast<std::size_t>(cout), 0.0);
  const std::int64_t in_stride = cin * kBandSize * kBandSize;
  for (std::int64_t s = 0; s < kBandBatch; ++s) {
    const float* dys = dy.data() + s * cout * plane;
    im2col(x.data() + s * in_stride, g, col.data());
    gemm_naive_bt_acc(dys, col.data(), ref_dw.data(), cout, plane,
                      g.col_rows());
    gemm_naive_at(w.data(), dys, dcol.data(), g.col_rows(), cout, plane);
    col2im(dcol.data(), g, ref_dx.data() + s * in_stride);
    for (std::int64_t c = 0; c < cout; ++c) {
      for (std::int64_t i = 0; i < plane; ++i) {
        ref_db[static_cast<std::size_t>(c)] += dys[c * plane + i];
      }
    }
  }
  for (std::int64_t i = 0; i < dw.size(); ++i) {
    ASSERT_NEAR(dw[i], ref_dw[static_cast<std::size_t>(i)],
                1e-3 * (1.0 + std::abs(ref_dw[static_cast<std::size_t>(i)])))
        << "dw " << i;
  }
  ASSERT_TRUE(dx.same_shape(x));
  for (std::int64_t i = 0; i < dx.size(); ++i) {
    ASSERT_NEAR(dx[i], ref_dx[static_cast<std::size_t>(i)],
                1e-4 * (1.0 + std::abs(ref_dx[static_cast<std::size_t>(i)])))
        << "dx " << i;
  }
  for (std::int64_t c = 0; c < cout; ++c) {
    EXPECT_NEAR(db[c], ref_db[static_cast<std::size_t>(c)],
                1e-3 * (1.0 + std::abs(ref_db[static_cast<std::size_t>(c)])));
  }
}

TEST(ConvOps, BandedBackwardMatchesNaiveReference) {
  for (const std::int64_t pad : {0, 1, 2}) {
    expect_banded_backward_matches_naive(16, 6, pad);  // dx as forward conv
    expect_banded_backward_matches_naive(6, 16, pad);  // dx by col2im
  }
}

// The dW GEMM reads the input in place: stored row `tap` of B is the input
// from taps[tap] on, one segment of ow pixels per output row, wp apart. It
// must equal gemm_bt_acc on the explicit im2col band byte for byte. Output
// widths cover segments that are a multiple of 8, that straddle 8-pixel
// chunks, and that are shorter than 8.
TEST(ConvOps, InPlaceWeightGradientGemmIsBytewiseIm2colGemm) {
  constexpr std::int64_t kCin = 3, kCout = 5, kK = 5, kH = 12;
  for (const std::int64_t width : {20, 13, 11, 9}) {
    SCOPED_TRACE("width " + std::to_string(width));
    const ConvGeometry g{kCin, kH, width, kK, 0};
    const std::int64_t ow = g.out_width(), y0 = 2, y1 = g.out_height();
    const std::int64_t n = (y1 - y0) * ow, kk = g.col_rows();
    const Tensor x = random_tensor({kCin, kH, width}, 41);
    const Tensor dy = random_tensor({kCout, n}, 42);
    std::vector<std::int64_t> taps;
    for (std::int64_t ci = 0; ci < kCin; ++ci) {
      for (std::int64_t ky = 0; ky < kK; ++ky) {
        for (std::int64_t kx = 0; kx < kK; ++kx) {
          taps.push_back((ci * kH + ky) * width + kx);
        }
      }
    }
    std::vector<float> col(static_cast<std::size_t>(kk * n));
    im2col_rows(x.data(), g, y0, y1, col.data());
    const Tensor c0 = random_tensor({kCout, kk}, 43);
    Tensor want = c0, got = c0;
    gemm_bt_acc(dy.data(), col.data(), want.data(), kCout, n, kk);
    gemm_bt_rows_acc(dy.data(), x.data() + y0 * width, taps.data(), ow, width,
                     got.data(), kCout, n, kk);
    EXPECT_EQ(std::memcmp(got.data(), want.data(),
                          static_cast<std::size_t>(got.size()) * sizeof(float)),
              0);
  }
}

// A null dx leaves dW and db exactly as the full backward computes them.
TEST(ConvOps, SkippedInputGradientLeavesWeightGradientsBitIdentical) {
  const ConvGeometry g = band_geometry();
  const Tensor x = random_tensor({kBandBatch, kBandCin, kBandSize, kBandSize}, 31);
  const Tensor w = random_tensor({kBandCout, kBandCin, kBandKernel, kBandKernel}, 32);
  const Tensor dy = random_tensor({kBandBatch, kBandCout, g.out_height(),
                                   g.out_width()}, 33);
  Tensor dx, dw_full(w.shape()), db_full({kBandCout});
  Tensor dw_skip(w.shape()), db_skip({kBandCout});
  Conv2dWorkspace ws;
  conv2d_backward_batched(x, dy, w, kBandPad, &dx, dw_full, db_full, ws);
  conv2d_backward_batched(x, dy, w, kBandPad, nullptr, dw_skip, db_skip, ws);
  EXPECT_EQ(std::memcmp(dw_full.data(), dw_skip.data(),
                        static_cast<std::size_t>(w.size()) * sizeof(float)),
            0);
  EXPECT_EQ(std::memcmp(db_full.data(), db_skip.data(),
                        static_cast<std::size_t>(kBandCout) * sizeof(float)),
            0);
}

// build_model's first conv skips its input gradient (Sequential::backward
// would discard it). Parameter gradients stay bit-identical to a model that
// computes it, at one thread and with the pool fanned out.
TEST(ConvOps, FirstLayerInputGradientSkipKeepsParameterGradients) {
  core::NetworkConfig net;  // Table I: 4 -> 6 -> 16 -> 6 -> 4, 5x5 kernels
  const Tensor x = random_tensor({3, 4, 24, 24}, 34);
  for (const int workers : {0, 3}) {
    util::ThreadPool::configure_global(workers);
    auto grads = [&](bool first_layer_dx) {
      util::Rng rng(35);
      auto model = core::build_model(net, core::BorderMode::kHaloPad, rng);
      EXPECT_FALSE(model->layer(0).needs_input_grad());
      model->layer(0).set_needs_input_grad(first_layer_dx);
      model->zero_grad();
      const Tensor y = model->forward(x);
      const Tensor dx = model->backward(random_tensor(y.shape(), 36));
      EXPECT_EQ(dx.empty(), !first_layer_dx);
      std::vector<Tensor> out;
      for (const auto& p : model->parameters()) out.push_back(*p.grad);
      return out;
    };
    const auto full = grads(true);
    const auto skipped = grads(false);
    ASSERT_EQ(full.size(), skipped.size());
    for (std::size_t i = 0; i < full.size(); ++i) {
      EXPECT_EQ(std::memcmp(full[i].data(), skipped[i].data(),
                            static_cast<std::size_t>(full[i].size()) *
                                sizeof(float)),
                0)
          << "parameter " << i << ", " << workers << " workers";
    }
  }
  util::ThreadPool::configure_global(0);
}

// One training step of the Table-I network leaves every conv layer with a
// one-band workspace: the same capacity at batch 4 and batch 16, within the
// band budget (or one output row, when a row alone exceeds it), plus
// kConvGradGroups dW partials and, for the dx-as-forward-conv layers, one
// rotated copy of W.
TEST(ConvOps, WorkspaceDoesNotGrowWithBatchSize) {
  core::TrainConfig cfg;  // Table I: 4 -> 6 -> 16 -> 6 -> 4, 5x5 kernels
  cfg.border = core::BorderMode::kZeroPad;
  cfg.loss = "mse";
  constexpr std::int64_t kTile = 64;
  auto capacities = [&](std::int64_t batch) {
    core::NetworkTrainer trainer(cfg, 0);
    const Tensor inputs = random_tensor({batch, 4, kTile, kTile}, 26);
    const Tensor targets = random_tensor({batch, 4, kTile, kTile}, 27);
    trainer.train_batch(inputs, targets);
    std::vector<std::size_t> caps;
    Sequential& model = trainer.model();
    for (std::size_t i = 0; i < model.layer_count(); ++i) {
      const auto* conv = dynamic_cast<const Conv2d*>(&model.layer(i));
      if (conv == nullptr) continue;
      const Conv2dWorkspace& ws = conv->workspace();
      const ConvGeometry g{conv->in_channels(), kTile, kTile, conv->kernel(),
                           conv->pad()};
      const auto bound = static_cast<std::size_t>(std::max(
          kConvBandBytes / static_cast<std::int64_t>(sizeof(float)),
          g.col_rows() * g.out_width()));
      EXPECT_GT(ws.col.capacity(), 0u);
      EXPECT_LE(ws.col.capacity(), bound) << conv->name();
      EXPECT_LE(ws.dcol.capacity(), bound) << conv->name();
      EXPECT_EQ(ws.dw.capacity(),
                static_cast<std::size_t>(kConvGradGroups * conv->out_channels() *
                                         g.col_rows()));
      // The rotated weights of the dx-as-forward-conv route: one W, or none.
      EXPECT_EQ(ws.wrot.capacity(),
                conv_dx_as_forward(g, conv->out_channels())
                    ? static_cast<std::size_t>(conv->out_channels() *
                                               g.col_rows())
                    : 0u)
          << conv->name();
      caps.insert(caps.end(), {ws.col.capacity(), ws.out.capacity(),
                               ws.dcol.capacity(), ws.dw.capacity(),
                               ws.wrot.capacity()});
    }
    return caps;
  };
  EXPECT_EQ(capacities(4), capacities(16));
}

}  // namespace
}  // namespace parpde::nn
