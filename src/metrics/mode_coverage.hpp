// Mode-collapse diagnostics.
//
// MNIST is used in the paper precisely because its ten well-separated modes
// make generator collapse observable. These helpers classify generated
// samples and summarize how many of the ten modes are represented and how
// far the generated class distribution is from the real one.
#pragma once

#include <vector>

#include "metrics/classifier.hpp"
#include "tensor/tensor.hpp"

namespace cellgan::metrics {

struct ModeReport {
  std::vector<std::size_t> class_counts;  ///< per-digit counts among samples
  std::size_t modes_covered = 0;          ///< classes with >= threshold share
  double tvd_from_uniform = 0.0;          ///< total variation vs uniform(10)
};

/// `min_share` is the fraction of samples a class needs to count as covered
/// (default: a tenth of its fair share). An empty batch is defined (no NaN):
/// zero counts, zero modes covered, tvd_from_uniform = 1.0.
ModeReport mode_report(Classifier& classifier, const tensor::Tensor& images,
                       double min_share = 0.01);

}  // namespace cellgan::metrics
