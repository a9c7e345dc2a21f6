#ifndef MTMLF_PERFBENCH_INPUTS_H_
#define MTMLF_PERFBENCH_INPUTS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "optimizer/baseline_card_est.h"
#include "storage/database.h"
#include "workload/dataset.h"
#include "workload/labeler.h"

namespace perfbench {

/// Entries of the server's prediction cache under default Options.
inline constexpr size_t kServerCacheEntries = 4096;
/// serve_cold: distinct plans, cycled; four times the cache.
inline constexpr size_t kColdPoolSize = 4 * kServerCacheEntries;
/// serve_hot: distinct plans under the Zipf stream; a quarter of the cache.
inline constexpr size_t kHotPoolSize = 1024;
inline constexpr double kHotZipfExponent = 1.1;
/// serve_hot: stream length per client (cycled).
inline constexpr size_t kHotStreamPerClient = 1 << 17;
/// plan: user queries in the timed stream (a fixed cycle of 3..8 tables,
/// see inputs.cc), and the labeled quality set.
inline constexpr size_t kPlanStreamSize = 2048;
inline constexpr int kPlanHeldoutQueries = 128;
inline constexpr int kPlanTrainQueries = 150;

/// Everything a workload sends to the program, generated from the seed
/// alone. Pool entries carry a query and its baseline left-deep plan
/// (BestLeftDeepOrder over the BaselineCardEstimator); the labels are
/// filled only for `heldout`.
struct Inputs {
  std::string workload;
  uint64_t seed = 0;
  std::unique_ptr<mtmlf::storage::Database> db;
  std::unique_ptr<mtmlf::optimizer::BaselineCardEstimator> baseline;
  std::vector<mtmlf::workload::LabeledQuery> pool;
  /// Request order as indices into `pool`. serve_hot: one stream per
  /// client, concatenated (client c owns [c * kHotStreamPerClient, ...)).
  std::vector<uint32_t> stream;
  /// plan only: the smoke-scale training workload.
  mtmlf::workload::Dataset train;
  /// plan only: labeled held-out queries for the plan-quality metrics.
  std::vector<mtmlf::workload::LabeledQuery> heldout;

  /// FNV-1a over every generated input: plan fingerprints, stream order,
  /// training and held-out labels. Equal seeds give equal hashes.
  uint64_t Hash() const;
};

bool IsWorkload(const std::string& name);

/// Builds the database and the workload's inputs. `workload` must satisfy
/// IsWorkload().
Inputs MakeInputs(const std::string& workload, uint64_t seed);

/// Misses a single-shard LRU PredictionCache of `capacity` entries takes on
/// the first `n` requests of the stream (cycled).
size_t SimulatedLruMisses(const Inputs& inputs, size_t n, size_t capacity);

}  // namespace perfbench

#endif  // MTMLF_PERFBENCH_INPUTS_H_
