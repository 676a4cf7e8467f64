#include "metrics/mode_coverage.hpp"

#include <cmath>

namespace cellgan::metrics {

ModeReport mode_report(Classifier& classifier, const tensor::Tensor& images,
                       double min_share) {
  ModeReport report;
  report.class_counts.assign(data::kNumClasses, 0);
  if (images.rows() == 0) {
    // No samples: no mode is covered and the (undefined) class distribution
    // is reported at the maximum distance from uniform — defined values
    // instead of 0/0 NaNs.
    report.tvd_from_uniform = 1.0;
    return report;
  }
  const auto labels = classifier.predict_labels(images);
  for (const auto y : labels) ++report.class_counts[y];

  const double n = static_cast<double>(labels.size());
  for (const auto count : report.class_counts) {
    if (static_cast<double>(count) / n >= min_share) ++report.modes_covered;
  }
  double tvd = 0.0;
  for (const auto count : report.class_counts) {
    tvd += std::abs(static_cast<double>(count) / n - 1.0 / data::kNumClasses);
  }
  report.tvd_from_uniform = 0.5 * tvd;
  return report;
}

}  // namespace cellgan::metrics
