#include "core/model.hpp"

#include <stdexcept>

#include "nn/activation.hpp"
#include "nn/conv2d.hpp"
#include "nn/conv_transpose2d.hpp"

namespace parpde::core {

std::int64_t model_shrink(const NetworkConfig& net, BorderMode mode) {
  switch (mode) {
    case BorderMode::kZeroPad:
    case BorderMode::kDeconv:  // the transpose head restores the size
      return 0;
    case BorderMode::kHaloPad:
    case BorderMode::kValidInner:
      return net.receptive_halo();
  }
  return 0;
}

std::unique_ptr<nn::Sequential> build_model(const NetworkConfig& net,
                                            BorderMode mode, util::Rng& rng) {
  if (net.channels.size() < 2) {
    throw std::invalid_argument("build_model: need at least one layer");
  }
  auto model = std::make_unique<nn::Sequential>();
  const int layers = net.layers();

  if (mode == BorderMode::kDeconv) {
    // Approach 4: the first L-1 convs run unpadded (shrinking the field),
    // the head is a transpose conv whose kernel exactly restores the input
    // size. Needs at least two layers so there is a conv stack to undo.
    if (layers < 2) {
      throw std::invalid_argument("build_model: deconv mode needs >= 2 layers");
    }
    const std::int64_t shrink =
        static_cast<std::int64_t>(layers - 1) * (net.kernel - 1) / 2;
    for (int l = 0; l < layers - 1; ++l) {
      auto& conv = model->emplace<nn::Conv2d>(
          net.channels[static_cast<std::size_t>(l)],
          net.channels[static_cast<std::size_t>(l) + 1], net.kernel, 0);
      conv.init(rng);
      model->emplace<nn::LeakyReLU>(net.leaky_slope);
    }
    model->layer(0).set_needs_input_grad(false);
    auto& head = model->emplace<nn::ConvTranspose2d>(
        net.channels[static_cast<std::size_t>(layers) - 1],
        net.channels.back(), 2 * shrink + 1);
    head.init(rng);
    if (net.final_activation) model->emplace<nn::LeakyReLU>(net.leaky_slope);
    return model;
  }

  const std::int64_t pad = mode == BorderMode::kZeroPad ? -1 /*same*/ : 0;
  for (int l = 0; l < layers; ++l) {
    auto& conv = model->emplace<nn::Conv2d>(net.channels[static_cast<std::size_t>(l)],
                                            net.channels[static_cast<std::size_t>(l) + 1],
                                            net.kernel, pad);
    conv.init(rng);
    if (l + 1 < layers || net.final_activation) {
      model->emplace<nn::LeakyReLU>(net.leaky_slope);
    }
  }
  // Sequential::backward discards the first layer's input gradient.
  model->layer(0).set_needs_input_grad(false);
  return model;
}

std::vector<Tensor> export_parameters(nn::Module& model) {
  std::vector<Tensor> out;
  for (const auto& p : model.parameters()) out.push_back(*p.value);
  return out;
}

void import_parameters(nn::Module& model, const std::vector<Tensor>& values) {
  auto params = model.parameters();
  if (params.size() != values.size()) {
    throw std::invalid_argument("import_parameters: count mismatch");
  }
  for (std::size_t i = 0; i < params.size(); ++i) {
    if (!params[i].value->same_shape(values[i])) {
      throw std::invalid_argument("import_parameters: shape mismatch at " +
                                  params[i].name);
    }
    *params[i].value = values[i];
  }
}

}  // namespace parpde::core
