#include "stats.h"

#include <algorithm>

namespace perfbench {

double QuantilePerMille(std::vector<double> values, int per_mille) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  // Nearest rank: the smallest value with at least per_mille/1000 of the
  // sample at or below it.
  size_t rank = (n * static_cast<size_t>(per_mille) + 999) / 1000;
  rank = std::clamp<size_t>(rank, 1, n);
  return values[rank - 1];
}

double Median(const std::vector<double>& values) {
  return QuantilePerMille(values, 500);
}

int TailPerMille(size_t n) {
  static constexpr int kCandidates[] = {990, 980, 975, 950, 900, 800, 750};
  for (int pm : kCandidates) {
    if (n * static_cast<size_t>(1000 - pm) / 1000 >= 10) return pm;
  }
  return 500;
}

double TailValue(const std::vector<double>& values) {
  return QuantilePerMille(values, TailPerMille(values.size()));
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

}  // namespace perfbench
