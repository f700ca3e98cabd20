#pragma once

// Layer abstraction. Modules are stateful: forward() caches whatever backward()
// needs, and backward() consumes the most recent forward's cache. This mirrors
// the define-by-run training loop the paper uses (PyTorch) without a general
// autograd tape — the per-subdomain model is a plain feed-forward chain.

#include <memory>
#include <string>
#include <vector>

#include "tensor/tensor.hpp"

namespace parpde::nn {

// Non-owning handle to one learnable parameter and its gradient accumulator.
struct ParamRef {
  Tensor* value = nullptr;
  Tensor* grad = nullptr;
  std::string name;
};

class Module {
 public:
  virtual ~Module() = default;

  Module() = default;
  Module(const Module&) = delete;
  Module& operator=(const Module&) = delete;

  // Computes the layer output; caches activations needed by backward().
  virtual Tensor forward(const Tensor& x) = 0;

  // Propagates the loss gradient; accumulates into parameter grads and
  // returns the gradient with respect to the layer input.
  virtual Tensor backward(const Tensor& grad_out) = 0;

  // Learnable parameters (empty for stateless layers).
  virtual std::vector<ParamRef> parameters() { return {}; }

  [[nodiscard]] virtual std::string name() const = 0;

  // Zeroes all parameter gradients.
  void zero_grad() {
    for (auto& p : parameters()) p.grad->fill(0.0f);
  }

  // Total learnable scalar count.
  [[nodiscard]] std::int64_t parameter_count() {
    std::int64_t n = 0;
    for (const auto& p : parameters()) n += p.value->size();
    return n;
  }

  // Whether anything consumes the gradient backward() returns. The model's
  // first layer clears it (core::build_model): a layer that honours it then
  // skips the input-gradient computation and returns an empty tensor.
  // Parameter gradients are unaffected, bit for bit.
  [[nodiscard]] bool needs_input_grad() const { return needs_input_grad_; }
  void set_needs_input_grad(bool needed) { needs_input_grad_ = needed; }

 private:
  bool needs_input_grad_ = true;
};

using ModulePtr = std::unique_ptr<Module>;

}  // namespace parpde::nn
