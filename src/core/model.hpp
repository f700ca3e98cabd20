#pragma once

// Builds the per-subdomain CNN of Table I as a Sequential module. The conv
// padding is derived from the border mode: zero-pad mode pads every layer
// ("same"), halo-pad and valid-inner modes run the convs unpadded and absorb
// the shrinkage in the input overlap or the target crop.

#include <memory>

#include "core/config.hpp"
#include "nn/sequential.hpp"
#include "util/random.hpp"

namespace parpde::core {

// Shrinkage per side of the full conv stack when run unpadded.
[[nodiscard]] std::int64_t model_shrink(const NetworkConfig& net, BorderMode mode);

// Constructs and initializes the network; `rng` drives the weight init.
// The first layer has needs_input_grad() false, so the model's backward()
// returns an empty tensor and skips the one input gradient nothing reads.
std::unique_ptr<nn::Sequential> build_model(const NetworkConfig& net,
                                            BorderMode mode, util::Rng& rng);

// Copies the current parameter values out of / into a model (declaration
// order), used to move trained weights across Environment::run boundaries.
std::vector<Tensor> export_parameters(nn::Module& model);
void import_parameters(nn::Module& model, const std::vector<Tensor>& values);

}  // namespace parpde::core
