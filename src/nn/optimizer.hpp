// The paper's optimizer, Adam.
//
// The learning rate is mutable at any time: Lipizzaner's hyperparameter
// mutation perturbs the Adam learning rate between epochs (Table I:
// mutation rate 1e-4, probability 0.5), so set_learning_rate() is part of
// the optimizer contract, and Adam moment state survives rate changes.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "nn/module.hpp"

namespace cellgan::nn {

/// Adam (Kingma & Ba, 2015) with bias correction — the paper's optimizer
/// (initial learning rate 2e-4).
class Adam {
 public:
  explicit Adam(double lr, double beta1 = 0.9, double beta2 = 0.999,
                double epsilon = 1e-8);

  /// Apply one update step from the layer's accumulated gradients. The first
  /// step of a fresh or reset() optimizer starts the moments at zero; any
  /// other step requires held moments that fit the layer.
  void step(Layer& layer);

  void set_learning_rate(double lr) { lr_ = lr; }
  double learning_rate() const { return lr_; }

  /// Reset internal state (moments, step counter).
  void reset();

  std::uint64_t steps_taken() const { return t_; }

  /// Moment-state access for checkpointing: resuming a run mid-training must
  /// restore m/v/t exactly or the next update's bias correction (and thus
  /// every parameter after it) diverges from the uninterrupted run. The next
  /// step() aborts unless they fit its layer.
  const std::vector<std::vector<float>>& first_moments() const { return m_; }
  const std::vector<std::vector<float>>& second_moments() const { return v_; }
  void restore_moments(std::uint64_t steps, std::vector<std::vector<float>> m,
                       std::vector<std::vector<float>> v) {
    t_ = steps;
    m_ = std::move(m);
    v_ = std::move(v);
  }

 private:
  double lr_, beta1_, beta2_, epsilon_;
  std::uint64_t t_ = 0;
  // Flat moment buffers, 1:1 with the layer's parameter tensors.
  std::vector<std::vector<float>> m_, v_;
};

}  // namespace cellgan::nn
