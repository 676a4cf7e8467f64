// Procedural MNIST stand-in.
//
// Each digit 0-9 is a polyline glyph in the unit square, rendered into a
// 28x28 grayscale image with a soft-edged stroke, after a per-sample random
// affine jitter (rotation, scale, translation, shear), stroke-width
// variation and additive pixel noise. The result is a 10-mode image
// distribution with intra-mode variation — structurally the role MNIST plays
// in the paper's evaluation (limited target space, suitable for observing
// mode collapse), with identical tensor shapes and value ranges.
#pragma once

#include <cstdint>

#include "common/rng.hpp"
#include "data/dataset.hpp"

namespace cellgan::data {

/// Rendering knobs; defaults give MNIST-like variability.
struct SyntheticMnistOptions {
  float stroke_width_mean = 0.060f;   ///< stroke half-width in unit-square units
  float stroke_width_jitter = 0.015f;
  float rotation_jitter_rad = 0.18f;
  float scale_jitter = 0.10f;
  float translation_jitter = 0.06f;
  float shear_jitter = 0.08f;
  float pixel_noise = 0.03f;          ///< additive N(0, sigma) per pixel
};

/// Render one sample of `digit` (0..9) into `out` (784 floats, range [-1,1]).
void render_digit(std::uint32_t digit, common::Rng& rng,
                  const SyntheticMnistOptions& options, std::span<float> out);

/// Rasterize at an arbitrary resolution (`out` must hold side*side floats).
/// The glyphs are vector polylines, so this is true re-rendering, not
/// scaling — the hook for the paper's "higher dimensional images" future
/// work (Section V).
void render_digit_sized(std::uint32_t digit, common::Rng& rng,
                        const SyntheticMnistOptions& options, std::size_t side,
                        std::span<float> out);

/// Build a dataset of `count` samples with a balanced label distribution.
Dataset make_synthetic_mnist(std::size_t count, std::uint64_t seed,
                             const SyntheticMnistOptions& options = {});

/// Arbitrary-resolution variant: images are side x side.
Dataset make_synthetic_digits(std::size_t count, std::size_t side,
                              std::uint64_t seed,
                              const SyntheticMnistOptions& options = {});

}  // namespace cellgan::data
