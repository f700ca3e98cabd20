// Finite-difference gradient checks for every differentiable layer and loss.
// The scalar objective is <forward(x), G> for a fixed random G, whose layer
// gradient is exactly backward(G).

#include <gtest/gtest.h>

#include <string>
#include <utility>

#include "helpers.hpp"
#include "nn/activation.hpp"
#include "nn/conv2d.hpp"
#include "nn/conv_transpose2d.hpp"
#include "nn/loss.hpp"
#include "nn/sequential.hpp"
#include "util/random.hpp"
#include "util/thread_pool.hpp"

namespace parpde::nn {
namespace {

using parpde::testing::expect_tensors_close;
using parpde::testing::numeric_gradient;

Tensor random_tensor(const Shape& shape, util::Rng& rng, float lo = -1.0f,
                     float hi = 1.0f) {
  Tensor t(shape);
  rng.fill_uniform(t.values(), lo, hi);
  return t;
}

double dot(const Tensor& a, const Tensor& b) {
  double acc = 0.0;
  for (std::int64_t i = 0; i < a.size(); ++i) {
    acc += static_cast<double>(a[i]) * b[i];
  }
  return acc;
}

// Checks d<module(x), G>/dx and d<module(x), G>/dparams against central
// differences.
void check_module_gradients(Module& module, Tensor x, util::Rng& rng,
                            double atol = 2e-3, double rtol = 2e-2) {
  const Tensor y0 = module.forward(x);
  Tensor g(y0.shape());
  rng.fill_uniform(g.values(), -1.0f, 1.0f);

  module.zero_grad();
  module.forward(x);
  const Tensor dx = module.backward(g);

  auto objective = [&] { return dot(module.forward(x), g); };

  const Tensor dx_num = numeric_gradient(objective, x);
  expect_tensors_close(dx, dx_num, atol, rtol);

  for (auto& p : module.parameters()) {
    const Tensor dp_num = numeric_gradient(objective, *p.value);
    SCOPED_TRACE(p.name);
    expect_tensors_close(*p.grad, dp_num, atol, rtol);
  }
}

TEST(GradCheck, Conv2dSamePadding) {
  util::Rng rng(11);
  Conv2d conv(2, 3, 3);
  conv.init(rng);
  check_module_gradients(conv, random_tensor({2, 2, 5, 5}, rng), rng);
}

TEST(GradCheck, Conv2dValidPadding) {
  util::Rng rng(12);
  Conv2d conv(3, 2, 3, 0);
  conv.init(rng);
  check_module_gradients(conv, random_tensor({1, 3, 6, 6}, rng), rng);
}

TEST(GradCheck, Conv2dAsymmetricPad) {
  util::Rng rng(13);
  Conv2d conv(1, 1, 5, 1);
  conv.init(rng);
  check_module_gradients(conv, random_tensor({1, 1, 7, 7}, rng), rng);
}

// A batch of 4 spreads the backward's sample groups over pool threads; both
// dx routes (Cout < Cin: forward conv of dY; Cout > Cin: col2im).
TEST(GradCheck, Conv2dBatchOnPoolThreads) {
  util::ThreadPool::configure_global(3);
  util::Rng rng(19);
  for (const auto& [cin, cout] : {std::pair{4, 2}, std::pair{2, 4}}) {
    SCOPED_TRACE(std::to_string(cin) + " -> " + std::to_string(cout));
    Conv2d conv(cin, cout, 3, 1);
    conv.init(rng);
    check_module_gradients(conv, random_tensor({4, cin, 5, 5}, rng), rng);
  }
  util::ThreadPool::configure_global(0);
}

TEST(GradCheck, ConvTranspose2d) {
  util::Rng rng(14);
  ConvTranspose2d deconv(2, 2, 3);
  deconv.init(rng);
  check_module_gradients(deconv, random_tensor({1, 2, 4, 4}, rng), rng);
}

TEST(GradCheck, LeakyReLU) {
  util::Rng rng(15);
  LeakyReLU act(0.01f);
  // Keep inputs away from the kink at 0 where finite differences disagree.
  Tensor x = random_tensor({2, 3, 4, 4}, rng);
  for (std::int64_t i = 0; i < x.size(); ++i) {
    if (std::abs(x[i]) < 0.1f) x[i] = x[i] < 0 ? -0.2f : 0.2f;
  }
  check_module_gradients(act, x, rng);
}

TEST(GradCheck, Tanh) {
  util::Rng rng(16);
  Tanh act;
  check_module_gradients(act, random_tensor({1, 2, 3, 3}, rng), rng);
}

// The chained gradchecks use tanh between the convs: finite differences on a
// leaky-ReLU chain are polluted whenever a perturbation crosses the kink at 0
// of an intermediate activation. LeakyReLU itself is checked above with
// inputs nudged away from the kink.
TEST(GradCheck, SequentialConvActConv) {
  util::Rng rng(17);
  Sequential model;
  model.emplace<Conv2d>(2, 4, 3).init(rng);
  model.emplace<Tanh>();
  model.emplace<Conv2d>(4, 2, 3).init(rng);
  check_module_gradients(model, random_tensor({1, 2, 6, 6}, rng), rng, 4e-3,
                         4e-2);
}

TEST(GradCheck, SequentialUnpaddedStack) {
  util::Rng rng(18);
  Sequential model;
  model.emplace<Conv2d>(1, 3, 3, 0).init(rng);
  model.emplace<Tanh>();
  model.emplace<Conv2d>(3, 1, 3, 0).init(rng);
  check_module_gradients(model, random_tensor({1, 1, 8, 8}, rng), rng, 4e-3,
                         4e-2);
}

// Loss gradient checks: dL/dprediction against central differences.
void check_loss_gradient(const Loss& loss, Tensor prediction,
                         const Tensor& target, double atol = 2e-3,
                         double rtol = 2e-2) {
  Tensor grad;
  loss.compute(prediction, target, &grad);
  auto objective = [&] { return loss.compute(prediction, target, nullptr); };
  const Tensor grad_num = numeric_gradient(objective, prediction, 5e-3f);
  expect_tensors_close(grad, grad_num, atol, rtol);
}

TEST(GradCheck, MSELoss) {
  util::Rng rng(19);
  check_loss_gradient(MSELoss{}, random_tensor({2, 3, 4, 4}, rng),
                      random_tensor({2, 3, 4, 4}, rng));
}

TEST(GradCheck, MAELoss) {
  util::Rng rng(20);
  Tensor pred = random_tensor({1, 2, 3, 3}, rng);
  Tensor target = random_tensor({1, 2, 3, 3}, rng);
  // Keep prediction-target gaps away from zero (|.| kink).
  for (std::int64_t i = 0; i < pred.size(); ++i) {
    if (std::abs(pred[i] - target[i]) < 0.1f) pred[i] = target[i] + 0.3f;
  }
  check_loss_gradient(MAELoss{}, pred, target);
}

TEST(GradCheck, MAPELoss) {
  util::Rng rng(21);
  // Targets bounded away from zero so the stabilized denominator is smooth.
  Tensor target = random_tensor({1, 2, 3, 3}, rng, 0.5f, 2.0f);
  Tensor pred = random_tensor({1, 2, 3, 3}, rng, 0.5f, 2.0f);
  for (std::int64_t i = 0; i < pred.size(); ++i) {
    if (std::abs(pred[i] - target[i]) < 0.1f) pred[i] = target[i] + 0.3f;
  }
  check_loss_gradient(MAPELoss{}, pred, target, 5e-2, 5e-2);
}

}  // namespace
}  // namespace parpde::nn
