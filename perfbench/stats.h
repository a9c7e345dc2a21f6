#ifndef MTMLF_PERFBENCH_STATS_H_
#define MTMLF_PERFBENCH_STATS_H_

#include <cstddef>
#include <vector>

namespace perfbench {

/// Nearest-rank quantile of `values` at `per_mille` / 1000 (sorts a copy).
/// Returns 0 for an empty sample.
double QuantilePerMille(std::vector<double> values, int per_mille);

double Median(const std::vector<double>& values);

/// The tail percentile reported as lat_p99_us, in per mille: p99 when the
/// sample supports it, else the highest of 980, 975, 950, 900, 800, 750
/// that leaves at least ten samples beyond it; 500 (the median) when none
/// does.
int TailPerMille(size_t n);

/// Value at TailPerMille(values.size()).
double TailValue(const std::vector<double>& values);

double Mean(const std::vector<double>& values);

}  // namespace perfbench

#endif  // MTMLF_PERFBENCH_STATS_H_
