// Digit classifier: the in-domain stand-in for the Inception network.
//
// Inception score and FID both need (a) class posteriors p(y|x) and (b) a
// feature embedding. A small MLP trained on the (synthetic or real) MNIST
// training set provides both: softmax outputs for (a), penultimate hidden
// activations for (b).
#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "data/dataset.hpp"
#include "nn/sequential.hpp"

namespace cellgan::metrics {

class Classifier {
 public:
  /// 784 -> hidden (tanh) -> 10 logits.
  explicit Classifier(common::Rng& rng, std::size_t hidden_dim = 64,
                      std::size_t image_dim = data::kImageDim);

  /// Mini-batch SGD training; returns final epoch's mean loss.
  float train(const data::Dataset& dataset, std::size_t epochs,
              std::size_t batch_size, double learning_rate, common::Rng& rng);

  /// Accuracy on a labeled set.
  double accuracy(const data::Dataset& dataset);

  /// p(y|x) rows for a batch of images (n x 10).
  tensor::Tensor predict_probs(const tensor::Tensor& images);

  /// Penultimate (hidden tanh) activations (n x hidden_dim).
  tensor::Tensor features(const tensor::Tensor& images);

  /// Most likely class per image.
  std::vector<std::uint32_t> predict_labels(const tensor::Tensor& images);

  std::size_t hidden_dim() const { return hidden_dim_; }

 private:
  std::size_t hidden_dim_;
  nn::Sequential net_;
};

}  // namespace cellgan::metrics
