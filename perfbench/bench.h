#ifndef MTMLF_PERFBENCH_BENCH_H_
#define MTMLF_PERFBENCH_BENCH_H_

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "inputs.h"
#include "model/mtmlf_qo.h"
#include "serve/registry.h"
#include "serve/server.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double UsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}
inline double UsSince(Clock::time_point t0) {
  return UsBetween(t0, Clock::now());
}
inline double MsSince(Clock::time_point t0) { return UsSince(t0) / 1e3; }

/// JoinSel as the plan workload runs it: beam search, then re-ranking of
/// the candidates by predicted cost.
mtmlf::model::BeamSearchOptions JoinSelOptions();

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one run measured. `e2e` holds the end-to-end metrics every
/// workload reports (the BENCHMARK.json set); `extra` the workload-specific
/// end-to-end figures, printed but not part of the JSON line; `layer` the
/// per-layer metrics of a traced run.
struct Report {
  std::vector<Metric> e2e;
  std::vector<Metric> extra;
  std::vector<Metric> layer;
  uint64_t attempted = 0;
  uint64_t failed = 0;      // failed, rejected or expired requests
  uint64_t mismatches = 0;  // output-check failures
  std::vector<std::string> notes;

  void Add(std::vector<Metric>* to, const std::string& name, double value,
           const std::string& unit) {
    to->push_back({name, value, unit});
  }
};

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Directory (relative to the working directory) for the UDS socket and
  /// the span dump.
  std::string workdir = ".";
};

/// A ready-to-measure workload: inputs, models and the registry. Built by
/// Setup(); everything here is set-up cost.
struct Env {
  Inputs inputs;
  /// Two weight sets. serve_hot alternates them on every swap; the others
  /// serve models[0].
  std::shared_ptr<const mtmlf::model::MtmlfQo> models[2];
  std::unique_ptr<mtmlf::serve::ModelRegistry> registry;
};

std::unique_ptr<Env> Setup(const std::string& workload, uint64_t seed);

/// Weight set behind a registry version: odd versions serve models[0],
/// even ones models[1].
const mtmlf::model::MtmlfQo& ModelOfVersion(const Env& env, uint64_t version);

/// Root-node (card, cost_ms) of a direct eager MtmlfQo::Run: the reference
/// the served answers must equal bit for bit.
struct RootPrediction {
  double card = 0.0;
  double cost_ms = 0.0;
};
RootPrediction DirectRoot(const mtmlf::model::MtmlfQo& model,
                          const mtmlf::query::Query& q,
                          const mtmlf::query::PlanNode& plan);
bool SameBits(double a, double b);

/// One optimizer session's DP over a user query: every connected subset of
/// its tables is sent as a sub-plan with its sub-query, one Submit wave per
/// subset size, then BestLeftDeepOrder runs over the predicted
/// cardinalities.
struct DpResult {
  std::vector<int> order;
  int subplans = 0;
  int failed = 0;  // sub-plan requests that did not resolve OK
  std::vector<double> wave_ms;
  double enum_ms = 0.0;
};
DpResult PlanWithDp(mtmlf::serve::InferenceServer* server,
                    const mtmlf::storage::Database& db,
                    const mtmlf::workload::LabeledQuery& lq,
                    uint64_t request_id,
                    std::vector<double>* queue_depth = nullptr);

/// Sub-plans (with their sub-queries) the DP sends for `lq`, in wave order.
std::vector<mtmlf::workload::LabeledQuery> DpSubplans(
    const mtmlf::workload::LabeledQuery& lq);

Report RunServeCold(Env* env, const RunOptions& opts);
Report RunServeHot(Env* env, const RunOptions& opts);
Report RunPlan(Env* env, const RunOptions& opts);

/// Traced-run layer probes: replays the workload's own inputs through the
/// public functions of each layer and appends the per-layer metrics.
/// `requests` are what the workload sends to the server, `queries` its user
/// queries, `key_stream` the request order over `requests`.
struct ProbeInputs {
  std::vector<const mtmlf::workload::LabeledQuery*> requests;
  std::vector<const mtmlf::workload::LabeledQuery*> queries;
  std::vector<const mtmlf::workload::LabeledQuery*> key_stream;
  /// Mean fused group size the workload's traffic produced.
  double fused_group_mean = 1.0;
  /// IPC error counters of the workload's own socket traffic (serve_hot),
  /// added to the probe's.
  uint64_t frames_rejected = 0;
  uint64_t reconnects = 0;
};
void RunLayerProbes(Env* env, mtmlf::serve::InferenceServer* server,
                    const ProbeInputs& in, const RunOptions& opts,
                    Report* report);

/// Per-layer metrics read off the server after the workload's traffic.
void AddServerLayerMetrics(const mtmlf::serve::InferenceServer& server,
                           double queue_depth_mean, Report* report);

/// Peak resident set of this process, MiB.
double PeakRssMb();

}  // namespace perfbench

#endif  // MTMLF_PERFBENCH_BENCH_H_
