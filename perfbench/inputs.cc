#include "inputs.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <unordered_set>

#include "common/logging.h"
#include "common/rng.h"
#include "datagen/imdb_like.h"
#include "exec/cost_model.h"
#include "optimizer/join_order.h"
#include "serve/cache.h"
#include "workload/generator.h"

namespace perfbench {

using mtmlf::Rng;
using mtmlf::query::PlanPtr;
using mtmlf::query::Query;
using mtmlf::workload::LabeledQuery;

namespace {

// Database scale of every workload (the smoke scale of the paper benches).
constexpr double kDbScale = 0.25;

constexpr int kMinTables = 3;
constexpr int kMaxTables = 8;
// Table counts of one cycle of the plan stream. 6 appears twice so that
// the median query falls inside one size group. With equal shares of
// 3..8 tables the median sits on the border between the 5- and 6-table
// groups, where few queries lie, so the handful of queries nearest the
// border would set lat_p50_us.
constexpr int kPlanSizeCycle[] = {3, 4, 5, 6, 6, 7, 8};

mtmlf::workload::GeneratorOptions JobStyle() {
  mtmlf::workload::GeneratorOptions g;
  g.min_tables = kMinTables;
  g.max_tables = kMaxTables;
  return g;
}

class Fnv {
 public:
  void Bytes(const void* p, size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (size_t i = 0; i < n; ++i) {
      h_ ^= b[i];
      h_ *= 1099511628211ull;
    }
  }
  void Str(const std::string& s) {
    U64(s.size());
    Bytes(s.data(), s.size());
  }
  void U64(uint64_t v) { Bytes(&v, sizeof v); }
  void F64(double v) { Bytes(&v, sizeof v); }
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 1469598103934665603ull;
};

// The baseline optimizer's left-deep plan for `q`.
PlanPtr BaselinePlan(const Query& q, const mtmlf::storage::Database& db,
                     const mtmlf::optimizer::BaselineCardEstimator& baseline) {
  const mtmlf::exec::CostModel cost_model;
  auto order = mtmlf::optimizer::BestLeftDeepOrder(
      q, db, cost_model, [&](uint32_t mask) {
        std::vector<int> subset;
        for (size_t i = 0; i < q.tables.size(); ++i) {
          if (mask & (1u << i)) subset.push_back(q.tables[i]);
        }
        return baseline.EstimateSubset(q, subset);
      });
  MTMLF_CHECK(order.ok(), order.status().ToString().c_str());
  return mtmlf::query::MakeLeftDeepPlan(order.value().order);
}

// Distinct (query, baseline plan) pairs from one generator stream.
std::vector<LabeledQuery> DistinctPlans(const Inputs& in, uint64_t gen_seed,
                                        size_t count) {
  mtmlf::workload::WorkloadGenerator gen(in.db.get(), gen_seed);
  std::unordered_set<std::string> seen;
  std::vector<LabeledQuery> out;
  out.reserve(count);
  while (out.size() < count) {
    LabeledQuery lq;
    lq.query = gen.GenerateQuery(JobStyle());
    lq.plan = BaselinePlan(lq.query, *in.db, *in.baseline);
    if (!seen.insert(mtmlf::serve::PlanFingerprint(0, lq.query, *lq.plan))
             .second) {
      continue;
    }
    out.push_back(std::move(lq));
  }
  return out;
}

// Zipf(exponent) ranks over `n` items, mapped to a seeded permutation so the
// hot plans are spread over the pool.
std::vector<uint32_t> ZipfStream(size_t n, double exponent, size_t length,
                                 Rng* rng) {
  std::vector<double> cdf(n);
  double sum = 0.0;
  for (size_t r = 0; r < n; ++r) {
    sum += 1.0 / std::pow(static_cast<double>(r + 1), exponent);
    cdf[r] = sum;
  }
  std::vector<uint32_t> perm(n);
  for (size_t i = 0; i < n; ++i) perm[i] = static_cast<uint32_t>(i);
  rng->Shuffle(&perm);
  std::vector<uint32_t> stream;
  stream.reserve(length);
  for (size_t i = 0; i < length; ++i) {
    double u = rng->Uniform(0.0, sum);
    size_t r = static_cast<size_t>(
        std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
    stream.push_back(perm[std::min(r, n - 1)]);
  }
  return stream;
}

}  // namespace

bool IsWorkload(const std::string& name) {
  return name == "serve_cold" || name == "serve_hot" || name == "plan";
}

Inputs MakeInputs(const std::string& workload, uint64_t seed) {
  MTMLF_CHECK(IsWorkload(workload), "unknown workload");
  Inputs in;
  in.workload = workload;
  in.seed = seed;
  Rng rng(seed * 0x9E3779B97F4A7C15ull + 1);
  auto db = mtmlf::datagen::BuildImdbLike({.scale = kDbScale}, &rng);
  MTMLF_CHECK(db.ok(), db.status().ToString().c_str());
  in.db = db.take();
  in.baseline =
      std::make_unique<mtmlf::optimizer::BaselineCardEstimator>(in.db.get());

  if (workload == "serve_cold") {
    in.pool = DistinctPlans(in, seed + 101, kColdPoolSize);
    in.stream.resize(kColdPoolSize);
    for (size_t i = 0; i < kColdPoolSize; ++i) {
      in.stream[i] = static_cast<uint32_t>(i);
    }
    rng.Shuffle(&in.stream);
  } else if (workload == "serve_hot") {
    in.pool = DistinctPlans(in, seed + 202, kHotPoolSize);
    in.stream = ZipfStream(kHotPoolSize, kHotZipfExponent,
                           2 * kHotStreamPerClient, &rng);
  } else {
    // Planning time grows steeply with the table count, so the stream
    // cycles through fixed table counts: every seed then plans the same
    // mix of sizes, and only the queries themselves differ.
    in.pool = DistinctPlans(in, seed + 303, 3 * kPlanStreamSize);
    std::vector<std::vector<uint32_t>> by_size(kMaxTables + 1);
    for (size_t i = 0; i < in.pool.size(); ++i) {
      by_size[in.pool[i].query.tables.size()].push_back(
          static_cast<uint32_t>(i));
    }
    std::vector<size_t> taken(kMaxTables + 1, 0);
    while (in.stream.size() < kPlanStreamSize) {
      for (int m : kPlanSizeCycle) {
        MTMLF_CHECK(taken[m] < by_size[m].size(),
                    "too few queries of one size");
        in.stream.push_back(by_size[m][taken[m]++]);
      }
    }
    mtmlf::workload::DatasetOptions train;
    train.num_queries = kPlanTrainQueries;
    train.single_table_queries_per_table = 30;
    train.generator = JobStyle();
    train.seed = seed + 404;
    auto ds = mtmlf::workload::BuildDataset(in.db.get(), in.baseline.get(),
                                            train);
    MTMLF_CHECK(ds.ok(), ds.status().ToString().c_str());
    in.train = ds.take();
    mtmlf::workload::DatasetOptions held;
    held.num_queries = kPlanHeldoutQueries;
    held.single_table_queries_per_table = 0;
    held.generator = JobStyle();
    held.with_optimal_order = false;
    held.seed = seed + 505;
    auto hd = mtmlf::workload::BuildDataset(in.db.get(), in.baseline.get(),
                                            held);
    MTMLF_CHECK(hd.ok(), hd.status().ToString().c_str());
    in.heldout = std::move(hd.value().queries);
  }
  return in;
}

uint64_t Inputs::Hash() const {
  Fnv h;
  h.Str(workload);
  h.U64(seed);
  for (const auto& lq : pool) {
    h.Str(mtmlf::serve::PlanFingerprint(0, lq.query, *lq.plan));
  }
  h.Bytes(stream.data(), stream.size() * sizeof(stream[0]));
  for (const auto* set : {&train.queries, &heldout}) {
    for (const auto& lq : *set) {
      h.Str(mtmlf::serve::PlanFingerprint(0, lq.query, *lq.plan));
      h.F64(lq.true_card);
      h.F64(lq.postgres_latency_ms);
      for (int t : lq.optimal_order) h.U64(static_cast<uint64_t>(t));
    }
  }
  for (const auto& per_table : train.single_table_queries) {
    for (const auto& st : per_table) {
      h.U64(static_cast<uint64_t>(st.table));
      h.F64(st.true_card);
    }
  }
  return h.value();
}

size_t SimulatedLruMisses(const Inputs& inputs, size_t n, size_t capacity) {
  mtmlf::serve::PredictionCache cache(capacity, /*num_shards=*/1);
  size_t misses = 0;
  for (size_t i = 0; i < n; ++i) {
    const LabeledQuery& lq = inputs.pool[inputs.stream[i % inputs.stream.size()]];
    std::string key = mtmlf::serve::PlanFingerprint(0, lq.query, *lq.plan);
    mtmlf::serve::Prediction p;
    if (!cache.Get(key, &p)) {
      ++misses;
      cache.Put(key, p);
    }
  }
  return misses;
}

}  // namespace perfbench
