#include "evolve/mixture.hpp"

#include <algorithm>

namespace cellgan::evolve {

MixtureWeights::MixtureWeights(std::size_t size)
    : weights_(size, size > 0 ? 1.0 / static_cast<double>(size) : 0.0) {
  CG_EXPECT(size > 0);
}

void MixtureWeights::set_weights(std::vector<double> w) {
  CG_EXPECT(w.size() == weights_.size());
  for (const double v : w) CG_EXPECT(v >= 0.0);
  weights_ = std::move(w);
  normalize();
}

void MixtureWeights::restore_weights(std::vector<double> w) {
  CG_EXPECT(w.size() == weights_.size());
  double total = 0.0;
  for (const double v : w) {
    CG_EXPECT(v >= 0.0);
    total += v;
  }
  CG_EXPECT(total > 0.9 && total < 1.1);  // sanity: already normalized
  weights_ = std::move(w);
}

void MixtureWeights::normalize() {
  double total = 0.0;
  for (const double w : weights_) total += w;
  if (total <= 0.0) {
    // Degenerate after clamping: fall back to uniform.
    std::fill(weights_.begin(), weights_.end(), 1.0 / static_cast<double>(size()));
    return;
  }
  for (auto& w : weights_) w /= total;
}

MixtureWeights MixtureWeights::mutated(double scale, common::Rng& rng) const {
  MixtureWeights copy = *this;
  for (auto& w : copy.weights_) w = std::max(0.0, w + rng.normal(0.0, scale));
  copy.normalize();
  return copy;
}

std::size_t MixtureWeights::sample_index(common::Rng& rng) const {
  const double u = rng.uniform();
  double acc = 0.0;
  for (std::size_t i = 0; i < weights_.size(); ++i) {
    acc += weights_[i];
    if (u < acc) return i;
  }
  return weights_.size() - 1;  // guard against rounding at u ~ 1
}

MixtureDraw plan_mixture_draw(const MixtureWeights& weights,
                              std::size_t generators, std::size_t latent_dim,
                              std::size_t count, common::Rng& rng,
                              std::size_t label_classes) {
  CG_EXPECT(weights.size() == generators);
  CG_EXPECT(generators > 0 && count > 0);

  // Assign each sample to a generator, then batch per generator so each
  // network runs one forward pass.
  MixtureDraw draw;
  draw.count = count;
  draw.rows_of.resize(generators);
  draw.latents.resize(generators);
  if (label_classes > 0) draw.labels_of.resize(generators);
  for (std::size_t i = 0; i < count; ++i) {
    draw.rows_of[weights.sample_index(rng)].push_back(i);
  }
  for (std::size_t g = 0; g < generators; ++g) {
    if (draw.rows_of[g].empty()) continue;
    const std::size_t rows = draw.rows_of[g].size();
    // Conditional draws: uniform class labels BEFORE the latent block (the
    // fixed rng order every conditional sampler shares), appended one-hot.
    std::vector<std::uint32_t> labels;
    if (label_classes > 0) {
      labels.resize(rows);
      for (auto& label : labels) {
        label = static_cast<std::uint32_t>(rng.uniform_int(label_classes));
      }
    }
    tensor::Tensor z = tensor::Tensor::randn(rows, latent_dim, rng, 1.0f);
    if (label_classes > 0) {
      tensor::Tensor conditioned(rows, latent_dim + label_classes);
      for (std::size_t k = 0; k < rows; ++k) {
        const auto src = z.row_span(k);
        auto dst = conditioned.row_span(k);
        std::copy(src.begin(), src.end(), dst.begin());
        std::fill(dst.begin() + static_cast<std::ptrdiff_t>(latent_dim),
                  dst.end(), 0.0f);
        dst[latent_dim + labels[k]] = 1.0f;
      }
      z = std::move(conditioned);
      draw.labels_of[g] = std::move(labels);
    }
    draw.latents[g] = std::move(z);
  }
  return draw;
}

MixtureSample sample_mixture(const MixtureWeights& weights,
                             std::span<const MixtureMember> members,
                             std::size_t latent_dim, std::size_t count,
                             common::Rng& rng, std::size_t label_classes,
                             MixtureRows rows) {
  const MixtureDraw draw = plan_mixture_draw(weights, members.size(), latent_dim,
                                             count, rng, label_classes);
  MixtureSample out;
  if (label_classes > 0) out.labels.resize(count);
  std::size_t next = 0;  // MixtureRows::kByMember: the member's first row
  for (std::size_t g = 0; g < members.size(); ++g) {
    const auto& drawn = draw.rows_of[g];
    if (drawn.empty()) continue;
    const MixtureMember& member = members[g];
    if (!member.params.empty()) member.network->bind(member.params);
    const tensor::Tensor images =
        member.network->forward(draw.latents[g], nn::Cache::kNone);
    if (out.images.empty()) out.images = tensor::Tensor(count, images.cols());
    for (std::size_t k = 0; k < drawn.size(); ++k) {
      const std::size_t row = rows == MixtureRows::kDrawn ? drawn[k] : next + k;
      const auto src = images.row_span(k);
      std::copy(src.begin(), src.end(), out.images.row_span(row).begin());
      if (label_classes > 0) out.labels[row] = draw.labels_of[g][k];
    }
    next += drawn.size();
  }
  return out;
}

}  // namespace cellgan::evolve
