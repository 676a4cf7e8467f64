#include "nn/sequential.hpp"

#include <algorithm>

namespace cellgan::nn {

Sequential& Sequential::add(LayerPtr layer) {
  CG_EXPECT(layer != nullptr);
  layers_.push_back(std::move(layer));
  return *this;
}

tensor::Tensor Sequential::forward(const tensor::Tensor& input, Cache cache) {
  if (layers_.empty()) return input;
  tensor::Tensor x = layers_.front()->forward(input, cache);
  for (std::size_t i = 1; i < layers_.size(); ++i) x = layers_[i]->forward(x, cache);
  return x;
}

tensor::Tensor Sequential::backward(const tensor::Tensor& grad_output, Grads what) {
  if (layers_.empty()) return wants_input(what) ? grad_output : tensor::Tensor();
  const auto layer_what = [what](std::size_t i) {
    if (!wants_params(what)) return Grads::kInput;
    return wants_input(what) || i > 0 ? Grads::kAll : Grads::kParams;
  };
  std::size_t i = layers_.size() - 1;
  tensor::Tensor g = layers_[i]->backward(grad_output, layer_what(i));
  while (i-- > 0) g = layers_[i]->backward(g, layer_what(i));
  return g;
}

std::vector<tensor::Tensor*> Sequential::parameters() {
  std::vector<tensor::Tensor*> out;
  for (auto& layer : layers_) {
    for (auto* p : layer->parameters()) out.push_back(p);
  }
  return out;
}

std::vector<tensor::Tensor*> Sequential::gradients() {
  std::vector<tensor::Tensor*> out;
  for (auto& layer : layers_) {
    for (auto* g : layer->gradients()) out.push_back(g);
  }
  return out;
}

void Sequential::zero_grad() {
  for (auto& layer : layers_) layer->zero_grad();
}

std::size_t Sequential::parameter_count() {
  std::size_t total = 0;
  for (auto* p : parameters()) total += p->size();
  return total;
}

std::vector<float> Sequential::flatten_parameters() {
  std::vector<float> flat;
  flat.reserve(parameter_count());
  for (auto* p : parameters()) {
    auto d = p->data();
    flat.insert(flat.end(), d.begin(), d.end());
  }
  return flat;
}

void Sequential::load_parameters(std::span<const float> flat) {
  std::size_t offset = 0;
  for (auto* p : parameters()) {
    CG_EXPECT(offset + p->size() <= flat.size());
    std::copy(flat.begin() + offset, flat.begin() + offset + p->size(),
              p->data().begin());
    offset += p->size();
  }
  CG_EXPECT(offset == flat.size());
}

std::size_t Sequential::bind(std::span<const float> flat) {
  std::size_t offset = 0;
  for (auto& layer : layers_) offset += layer->bind(flat.subspan(offset));
  CG_EXPECT(offset == flat.size());
  return offset;
}

}  // namespace cellgan::nn
