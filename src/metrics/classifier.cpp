#include "metrics/classifier.hpp"

#include <memory>

#include "data/dataloader.hpp"
#include "nn/activations.hpp"
#include "nn/init.hpp"
#include "nn/linear.hpp"
#include "nn/optimizer.hpp"
#include "tensor/ops.hpp"

namespace cellgan::metrics {

Classifier::Classifier(common::Rng& rng, std::size_t hidden_dim, std::size_t image_dim)
    : hidden_dim_(hidden_dim) {
  net_.add(std::make_unique<nn::Linear>(image_dim, hidden_dim));
  net_.add(std::make_unique<nn::Tanh>());
  net_.add(std::make_unique<nn::Linear>(hidden_dim, data::kNumClasses));
  nn::xavier_uniform_init(net_, rng);
}

float Classifier::train(const data::Dataset& dataset, std::size_t epochs,
                        std::size_t batch_size, double learning_rate,
                        common::Rng& rng) {
  data::DataLoader loader(dataset, batch_size);
  nn::Adam optimizer(learning_rate);
  float last_epoch_loss = 0.0f;
  for (std::size_t epoch = 0; epoch < epochs; ++epoch) {
    loader.reshuffle(rng);
    float epoch_loss = 0.0f;
    for (std::size_t b = 0; b < loader.batches_per_epoch(); ++b) {
      const tensor::Tensor images = loader.batch(b);
      const auto labels = loader.batch_labels(b);
      net_.zero_grad();
      const tensor::Tensor logits = net_.forward(images);
      auto [loss, dlogits] = tensor::softmax_cross_entropy(logits, labels);
      net_.backward(dlogits);
      optimizer.step(net_);
      epoch_loss += loss;
    }
    last_epoch_loss = epoch_loss / static_cast<float>(loader.batches_per_epoch());
  }
  return last_epoch_loss;
}

double Classifier::accuracy(const data::Dataset& dataset) {
  const auto predicted = predict_labels(dataset.images);
  std::size_t correct = 0;
  for (std::size_t i = 0; i < predicted.size(); ++i) {
    if (predicted[i] == dataset.labels[i]) ++correct;
  }
  return static_cast<double>(correct) / static_cast<double>(predicted.size());
}

tensor::Tensor Classifier::predict_probs(const tensor::Tensor& images) {
  return tensor::softmax(net_.forward(images, nn::Cache::kNone));
}

tensor::Tensor Classifier::features(const tensor::Tensor& images) {
  // Forward through Linear + Tanh only (layers 0 and 1).
  tensor::Tensor x = net_.layer(0).forward(images, nn::Cache::kNone);
  return net_.layer(1).forward(x, nn::Cache::kNone);
}

std::vector<std::uint32_t> Classifier::predict_labels(const tensor::Tensor& images) {
  return tensor::argmax_rows(net_.forward(images, nn::Cache::kNone));
}

}  // namespace cellgan::metrics
