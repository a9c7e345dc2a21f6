// The three workloads. Each runs against the library's public API only and
// returns a Report; the timed loops are shared between the untraced
// (end-to-end) run and the traced (per-layer) run.

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <mutex>
#include <thread>

#include "bench.h"
#include "common/logging.h"
#include "common/rng.h"
#include "exec/cost_model.h"
#include "optimizer/join_order.h"
#include "serve/ipc_client.h"
#include "serve/ipc_server.h"
#include "stats.h"
#include "tensor/tensor.h"
#include "trace.h"
#include "train/trainer.h"

namespace perfbench {

using mtmlf::Result;
using mtmlf::model::MtmlfQo;
using mtmlf::serve::InferencePrediction;
using mtmlf::serve::InferenceServer;
using mtmlf::workload::LabeledQuery;
namespace {

int64_t Ns(Clock::time_point t) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             t.time_since_epoch())
      .count();
}

// A served answer kept for the bit-for-bit output check.
struct Sample {
  uint32_t pool_index = 0;
  uint64_t version = 0;
  double card = 0.0;
  double cost_ms = 0.0;
};

// Compares sampled served answers with direct eager Run on the same model
// version. Returns the number of mismatches.
uint64_t CheckSamples(const Env& env, const std::vector<Sample>& samples) {
  uint64_t bad = 0;
  for (const Sample& s : samples) {
    const LabeledQuery& lq = env.inputs.pool[s.pool_index];
    RootPrediction ref = DirectRoot(ModelOfVersion(env, s.version), lq.query,
                                    *lq.plan);
    if (!SameBits(ref.card, s.card) || !SameBits(ref.cost_ms, s.cost_ms)) {
      ++bad;
    }
  }
  return bad;
}

// lat_p50_us goes to the JSON line; lat_p95_us and lat_p99_us (the highest
// percentile up to p99 with ten samples beyond it) are printed beside it.
// On a shared 4-vCPU VM the host stalls all threads for 3-10 ms about once
// a second or more, which moves the tails from run to run by more than the
// 25% a gated metric may spread.
void AddLatencyMetrics(const std::vector<double>& lat_us, Report* r) {
  r->Add(&r->e2e, "lat_p50_us", Median(lat_us), "us");
  r->Add(&r->extra, "lat_p95_us", QuantilePerMille(lat_us, 950), "us");
  r->Add(&r->extra, "lat_p99_us", TailValue(lat_us), "us");
  r->notes.push_back("latency tail percentile p" +
                     std::to_string(TailPerMille(lat_us.size()) / 10.0) +
                     " over " + std::to_string(lat_us.size()) + " samples");
}

double OverheadPct(double untraced, double traced) {
  return untraced > 0.0 ? 100.0 * (traced - untraced) / untraced : 0.0;
}

}  // namespace

// ---------------------------------------------------------------------------
// Set-up and shared helpers
// ---------------------------------------------------------------------------

std::unique_ptr<Env> Setup(const std::string& workload, uint64_t seed) {
  mtmlf::SetLogLevel(0);
  auto env = std::make_unique<Env>();
  env->inputs = MakeInputs(workload, seed);
  mtmlf::featurize::ModelConfig config;
  for (int k = 0; k < 2; ++k) {
    auto m = std::make_shared<MtmlfQo>(config, seed * 131 + k + 1);
    int dbi = m->AddDatabase(env->inputs.db.get(), env->inputs.baseline.get());
    if (workload == "plan" && k == 0) {
      // Smoke-scale training: the model that plans the user queries.
      mtmlf::train::Trainer trainer(m.get());
      mtmlf::train::TrainOptions to;
      to.enc_pretrain_epochs = 2;
      to.joint_epochs = 3;
      to.seed = seed + 7;
      mtmlf::Status st = trainer.PretrainFeaturizer(dbi, env->inputs.train, to);
      MTMLF_CHECK(st.ok(), st.ToString().c_str());
      st = trainer.TrainJoint({{dbi, &env->inputs.train}}, to);
      MTMLF_CHECK(st.ok(), st.ToString().c_str());
    }
    env->models[k] = std::move(m);
  }
  env->registry = std::make_unique<mtmlf::serve::ModelRegistry>();
  MTMLF_CHECK(env->registry->Register(1, env->models[0]).ok(), "register");
  MTMLF_CHECK(env->registry->Publish(1).ok(), "publish");
  return env;
}

const MtmlfQo& ModelOfVersion(const Env& env, uint64_t version) {
  return *env.models[version % 2 == 1 ? 0 : 1];
}

RootPrediction DirectRoot(const MtmlfQo& model, const mtmlf::query::Query& q,
                          const mtmlf::query::PlanNode& plan) {
  mtmlf::tensor::NoGradGuard no_grad;
  MtmlfQo::Forward fwd = model.Run(0, q, plan);
  return {model.NodeCardPredictions(fwd)[0], model.NodeCostPredictions(fwd)[0]};
}

bool SameBits(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

mtmlf::model::BeamSearchOptions JoinSelOptions() {
  mtmlf::model::BeamSearchOptions o;
  o.rerank_by_cost = true;
  return o;
}

double PeakRssMb() {
  struct rusage ru;
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

void AddServerLayerMetrics(const InferenceServer& server,
                           double queue_depth_mean, Report* r) {
  const auto& m = server.metrics();
  r->Add(&r->layer, "server.batch_mean", m.MeanBatchSize(), "count");
  r->Add(&r->layer, "server.fused_group_mean", m.MeanFusedGroupSize(),
         "count");
  r->Add(&r->layer, "server.queue_depth_mean", queue_depth_mean, "count");
  r->Add(&r->layer, "cache.hit_rate",
         server.cache() != nullptr ? server.cache()->HitRate() : 0.0, "ratio");
  const double replays = static_cast<double>(m.tape_replays());
  const double records = static_cast<double>(m.tape_records());
  r->Add(&r->layer, "tape.replay_ratio",
         replays + records > 0 ? replays / (replays + records) : 0.0, "ratio");
  r->Add(&r->layer, "tape.records", records, "count");
  r->Add(&r->layer, "arena.high_water_kb",
         static_cast<double>(m.arena_high_water()) / 1024.0, "KiB");
}

// ---------------------------------------------------------------------------
// DP session (plan workload, and the optimizer probes of every workload)
// ---------------------------------------------------------------------------

namespace {

struct SubPlan {
  uint32_t mask = 0;
  LabeledQuery lq;
};

bool MaskConnected(const std::vector<std::vector<bool>>& adj, uint32_t mask) {
  const int m = static_cast<int>(adj.size());
  int first = -1;
  for (int i = 0; i < m; ++i) {
    if (mask & (1u << i)) {
      first = i;
      break;
    }
  }
  if (first < 0) return false;
  uint32_t seen = 1u << first;
  std::vector<int> stack{first};
  while (!stack.empty()) {
    int u = stack.back();
    stack.pop_back();
    for (int v = 0; v < m; ++v) {
      if ((mask & (1u << v)) && !(seen & (1u << v)) && adj[u][v]) {
        seen |= 1u << v;
        stack.push_back(v);
      }
    }
  }
  return seen == mask;
}

// Sub-plans of every connected subset, grouped by subset size. Each carries
// its sub-query (the subset's tables, JoinsWithin, the subset's filters)
// and an executable left-deep plan that follows the baseline order.
std::vector<std::vector<SubPlan>> DpLevels(const LabeledQuery& lq) {
  const mtmlf::query::Query& q = lq.query;
  const int m = static_cast<int>(q.tables.size());
  const auto adj = q.AdjacencyMatrix();
  std::vector<int> base_order = mtmlf::query::LeftDeepOrderOf(*lq.plan);
  if (base_order.size() != q.tables.size()) base_order = q.tables;
  std::vector<std::vector<SubPlan>> levels(m);
  for (uint32_t mask = 1; mask < (1u << m); ++mask) {
    if (!MaskConnected(adj, mask)) continue;
    SubPlan sp;
    sp.mask = mask;
    std::vector<int> subset;
    for (int i = 0; i < m; ++i) {
      if (mask & (1u << i)) subset.push_back(q.tables[i]);
    }
    sp.lq.query.tables = subset;
    sp.lq.query.joins = q.JoinsWithin(subset);
    for (const auto& f : q.filters) {
      if (std::find(subset.begin(), subset.end(), f.table) != subset.end()) {
        sp.lq.query.filters.push_back(f);
      }
    }
    // Executable order: baseline order restricted to the subset, each next
    // table the earliest one that joins the set built so far.
    std::vector<int> order;
    std::vector<bool> used(subset.size(), false);
    while (order.size() < subset.size()) {
      for (int t : base_order) {
        auto it = std::find(subset.begin(), subset.end(), t);
        if (it == subset.end()) continue;
        size_t si = static_cast<size_t>(it - subset.begin());
        if (used[si]) continue;
        bool joins = order.empty();
        for (int o : order) {
          if (adj[q.PositionOf(t)][q.PositionOf(o)]) joins = true;
        }
        if (!joins) continue;
        used[si] = true;
        order.push_back(t);
        break;
      }
    }
    sp.lq.plan = mtmlf::query::MakeLeftDeepPlan(order);
    levels[std::popcount(mask) - 1].push_back(std::move(sp));
  }
  return levels;
}

}  // namespace

std::vector<LabeledQuery> DpSubplans(const LabeledQuery& lq) {
  std::vector<LabeledQuery> out;
  for (auto& level : DpLevels(lq)) {
    for (auto& sp : level) out.push_back(std::move(sp.lq));
  }
  return out;
}

DpResult PlanWithDp(InferenceServer* server, const mtmlf::storage::Database& db,
                    const LabeledQuery& lq, uint64_t request_id,
                    std::vector<double>* queue_depth) {
  DpResult res;
  const mtmlf::query::Query& q = lq.query;
  std::vector<double> cards(1u << q.tables.size(), 1.0);
  // Sub-queries must outlive their futures: the server borrows them.
  std::vector<std::vector<SubPlan>> levels = DpLevels(lq);
  for (const auto& level : levels) {
    Span span("dp.wave", request_id);
    auto t0 = Clock::now();
    std::vector<std::future<Result<InferencePrediction>>> futs;
    futs.reserve(level.size());
    for (const SubPlan& sp : level) {
      futs.push_back(server->Submit({0, &sp.lq.query, sp.lq.plan.get()}));
    }
    if (queue_depth != nullptr) {
      queue_depth->push_back(
          static_cast<double>(server->metrics().queue_depth()));
    }
    for (size_t i = 0; i < futs.size(); ++i) {
      Result<InferencePrediction> r = futs[i].get();
      if (r.ok()) {
        cards[level[i].mask] = std::max(1.0, r.value().card);
      } else {
        ++res.failed;
      }
    }
    res.subplans += static_cast<int>(level.size());
    res.wave_ms.push_back(MsSince(t0));
  }
  Span span("dp.enum", request_id);
  auto t0 = Clock::now();
  const mtmlf::exec::CostModel cost_model;
  auto best = mtmlf::optimizer::BestLeftDeepOrder(
      q, db, cost_model, [&](uint32_t mask) { return cards[mask]; });
  res.enum_ms = MsSince(t0);
  if (best.ok()) res.order = best.value().order;
  return res;
}

// ---------------------------------------------------------------------------
// serve_cold: open loop over the cold pool, a fixed ladder of offered rates
// ---------------------------------------------------------------------------

namespace {

// Offered rates (requests/s), ascending, climbed from above the reference
// rate. Fixed across commits so slo_qps stays comparable; picked around the
// capacity of the seed commit on a 4-core machine (perfbench/README.md).
constexpr double kColdLadder[] = {750,  1000, 1150, 1250, 1350, 1450,
                                  1550, 1650, 1800, 1950, 2100, 2300,
                                  2500, 2800, 3200, 3600, 4000};
// The untraced run is one cycle per second of --seconds. Each cycle runs a
// short reference window at this rate, well below capacity, for the
// latency metrics; then a saturated stretch for throughput_qps; then, while
// the ladder climbs, one rung. On a shared host the cores slow down and
// speed up again every second or so, so every metric is taken in many
// short windows spread over the whole run and reported as a median over
// them.
constexpr double kColdReferenceRate = 500;
// throughput_qps: completion rate with this many requests outstanding (well
// under the server's 1024-deep queue, so nothing is rejected).
constexpr size_t kColdSaturationInflight = 64;
// Each saturated stretch starts with an untimed ramp: after a light window
// the first few hundred ms run slower, as the host hands the cores back.
// Then one timed window follows. It must not be shorter: 0.25 s windows,
// each filling and draining the 64 outstanding requests, read about 25%
// below 1 s ones in interleaved runs.
constexpr double kColdSaturationRampS = 0.5;
constexpr double kColdSaturationWindowS = 1.0;
// throughput_qps is the fastest saturated window's rate, not the windows'
// median. Neighbours on a shared host slow some windows by up to a third,
// and how many they slow changes from run to run; they never speed one
// up. The fastest window is the one they disturbed least, so what the
// program itself costs sets its rate.
// Shares of --seconds: each reference window and each rung.
constexpr double kColdWindowShare = 0.02;
constexpr double kColdRungShare = 0.06;
constexpr double kSloP99Us = 5000.0;
constexpr double kGenLateLimitMs = 2.5;
constexpr size_t kBacklogAbort = 512;
constexpr size_t kColdSampleEvery = 53;
constexpr size_t kColdMaxSamples = 400;

struct RungResult {
  double rate = 0.0;
  size_t sent = 0;
  size_t completed = 0;
  size_t failed = 0;
  double achieved_qps = 0.0;
  std::vector<double> lat_us;
  std::vector<double> late_ms;
  double drain_ms = 0.0;
  bool aborted = false;
  bool valid = false;  // the generator kept its schedule
  bool pass = false;
};

struct ColdState {
  size_t cursor = 0;   // next stream position
  size_t flagged = 0;  // requests marked for the output check
  std::vector<Sample> samples;
  std::vector<double> queue_depth;
};

RungResult RunRung(Env* env, InferenceServer* server, double rate,
                   double seconds, ColdState* st) {
  struct InFlight {
    std::future<Result<InferencePrediction>> fut;
    Clock::time_point due;
    uint32_t pool_index = 0;
    bool sample = false;
  };
  RungResult rr;
  rr.rate = rate;
  const size_t n = std::max<size_t>(1, static_cast<size_t>(rate * seconds));
  std::mutex mu;
  std::condition_variable cv;
  std::deque<InFlight> inflight;  // guarded by mu
  bool done = false;              // guarded by mu
  std::atomic<size_t> completed{0};
  Clock::time_point last_done;
  std::vector<Sample> samples;

  std::thread collector([&] {
    for (;;) {
      InFlight f;
      {
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [&] { return done || !inflight.empty(); });
        if (inflight.empty()) return;
        f = std::move(inflight.front());
        inflight.pop_front();
      }
      Result<InferencePrediction> r = f.fut.get();
      Clock::time_point t = Clock::now();
      last_done = t;
      if (!r.ok()) {
        ++rr.failed;
      } else {
        rr.lat_us.push_back(UsBetween(f.due, t));
        Tracer::Record("serve.request", Ns(f.due), Ns(t), f.pool_index + 1);
        if (f.sample) {
          samples.push_back({f.pool_index, r.value().model_version,
                             r.value().card, r.value().cost_ms});
        }
      }
      completed.fetch_add(1, std::memory_order_relaxed);
    }
  });

  const Inputs& in = env->inputs;
  const auto period = std::chrono::duration<double>(1.0 / rate);
  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(1);
  Clock::time_point last_send = start;
  for (size_t i = 0; i < n; ++i) {
    Clock::time_point due =
        start + std::chrono::duration_cast<Clock::duration>(period * i);
    // Sleep rather than spin: the 4-core box runs two workers and the
    // collector beside this thread, and a spinning generator would take
    // their core. Wake-up delay is counted, since latency runs from `due`.
    std::this_thread::sleep_until(due);
    const Clock::time_point now = Clock::now();
    rr.late_ms.push_back(UsBetween(due, now) / 1e3);
    if (rr.sent - completed.load(std::memory_order_relaxed) > kBacklogAbort) {
      rr.aborted = true;
      break;
    }
    const size_t pos = st->cursor++;
    const uint32_t idx = in.stream[pos % in.stream.size()];
    const LabeledQuery& lq = in.pool[idx];
    InFlight f;
    f.due = due;
    f.pool_index = idx;
    f.sample = pos % kColdSampleEvery == 0 && st->flagged < kColdMaxSamples;
    if (f.sample) ++st->flagged;
    if (Tracer::enabled()) {
      st->queue_depth.push_back(
          static_cast<double>(server->metrics().queue_depth()));
    }
    f.fut = server->Submit({0, &lq.query, lq.plan.get()});
    ++rr.sent;
    last_send = Clock::now();
    {
      std::lock_guard<std::mutex> lock(mu);
      inflight.push_back(std::move(f));
    }
    cv.notify_one();
  }
  {
    std::lock_guard<std::mutex> lock(mu);
    done = true;
  }
  cv.notify_one();
  collector.join();
  rr.completed = completed.load();
  rr.drain_ms = std::max(
      0.0, std::chrono::duration<double, std::milli>(last_done - last_send)
               .count());
  const double span_s =
      std::chrono::duration<double>(last_done - start).count();
  rr.achieved_qps = span_s > 0 ? static_cast<double>(rr.completed) / span_s
                               : 0.0;
  st->samples.insert(st->samples.end(), samples.begin(), samples.end());
  rr.valid = QuantilePerMille(rr.late_ms, 990) <= kGenLateLimitMs;
  rr.pass = rr.valid && !rr.aborted && rr.failed == 0 &&
            TailValue(rr.lat_us) <= kSloP99Us && rr.drain_ms <= kSloP99Us / 1e3;
  return rr;
}

// Keeps `inflight` cold requests outstanding for `seconds`; returns the
// completion rate.
double RunSaturated(Env* env, InferenceServer* server, size_t inflight,
                    double seconds, ColdState* st, Report* rep) {
  const Inputs& in = env->inputs;
  std::deque<std::future<Result<InferencePrediction>>> pending;
  size_t completed = 0;
  const Clock::time_point t0 = Clock::now();
  const Clock::time_point end =
      t0 + std::chrono::duration_cast<Clock::duration>(
               std::chrono::duration<double>(seconds));
  while (Clock::now() < end || !pending.empty()) {
    if (Clock::now() < end && pending.size() < inflight) {
      const LabeledQuery& lq =
          in.pool[in.stream[st->cursor++ % in.stream.size()]];
      pending.push_back(server->Submit({0, &lq.query, lq.plan.get()}));
      ++rep->attempted;
      continue;
    }
    if (!pending.front().get().ok()) ++rep->failed;
    pending.pop_front();
    ++completed;
  }
  const double secs = std::chrono::duration<double>(Clock::now() - t0).count();
  return static_cast<double>(completed) / secs;
}

void PrintRung(const RungResult& r) {
  std::printf(
      "  rung %6.0f req/s: sent=%zu done=%zu failed=%zu achieved=%.1f/s "
      "p50=%.0fus p%.1f=%.0fus gen_late_p99=%.3fms drain=%.2fms%s%s -> %s\n",
      r.rate, r.sent, r.completed, r.failed, r.achieved_qps, Median(r.lat_us),
      TailPerMille(r.lat_us.size()) / 10.0, TailValue(r.lat_us),
      QuantilePerMille(r.late_ms, 990), r.drain_ms,
      r.aborted ? " backlog-abort" : "", r.valid ? "" : " INVALID(generator late)",
      r.pass ? "pass" : "fail");
}

}  // namespace

Report RunServeCold(Env* env, const RunOptions& opts) {
  Report rep;
  InferenceServer server(env->registry.get(), InferenceServer::Options{});
  MTMLF_CHECK(server.Start().ok(), "server start");
  ColdState st;
  {
    // Warm-up before anything is measured: tapes and arenas fill, and a VM
    // that was idle gets its full CPU share back only after about a second
    // of load on all its cores.
    RunSaturated(env, &server, kColdSaturationInflight, 1.0, &st, &rep);
    RungResult warm = RunRung(env, &server, kColdReferenceRate, 1.0, &st);
    rep.attempted += warm.sent;
    rep.failed += warm.failed;
  }
  const double rung_s = kColdRungShare * opts.seconds;
  auto account = [&](const RungResult& r) {
    rep.attempted += r.sent;
    rep.failed += r.failed;
  };

  if (!opts.trace) {
    const int cycles =
        std::max(1, static_cast<int>(std::lround(opts.seconds)));
    const double window_s = kColdWindowShare * opts.seconds;
    std::printf("serve_cold (p99 limit %.0f us): %d cycles of a %.2f s "
                "reference window, %.2f s of saturated ramp, a %.2f s "
                "saturated window and a %.2f s ladder rung\n",
                kSloP99Us, cycles, window_s, kColdSaturationRampS,
                kColdSaturationWindowS, rung_s);
    std::vector<RungResult> windows;
    std::vector<double> capacity;
    // The ladder climbs one rate per cycle until a rate fails twice in a
    // row; the retry absorbs a stall of the shared machine that is not the
    // server's doing.
    size_t rung = 0;
    bool climbing = true;
    double best = 0.0;
    for (int c = 0; c < cycles; ++c) {
      windows.push_back(
          RunRung(env, &server, kColdReferenceRate, window_s, &st));
      account(windows.back());
      RunSaturated(env, &server, kColdSaturationInflight, kColdSaturationRampS,
                   &st, &rep);
      capacity.push_back(RunSaturated(env, &server, kColdSaturationInflight,
                                      kColdSaturationWindowS, &st, &rep));
      if (!climbing) continue;
      bool passed = false;
      for (int attempt = 0; attempt < 2 && !passed; ++attempt) {
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        RungResult r = RunRung(env, &server, kColdLadder[rung], rung_s, &st);
        account(r);
        PrintRung(r);
        passed = r.pass;
      }
      if (passed) best = kColdLadder[rung];
      climbing = passed && ++rung < std::size(kColdLadder);
    }
    if (climbing) {
      rep.notes.push_back("the ladder ran out of cycles before a rate failed");
    }
    std::vector<double> ref_lat, ref_p95, ref_late;
    size_t invalid = 0;
    for (const RungResult& w : windows) {
      ref_lat.insert(ref_lat.end(), w.lat_us.begin(), w.lat_us.end());
      ref_late.insert(ref_late.end(), w.late_ms.begin(), w.late_ms.end());
      ref_p95.push_back(QuantilePerMille(w.lat_us, 950));
      if (!w.valid) ++invalid;
    }
    std::printf("  reference windows at %.0f req/s: %zu, %zu requests, "
                "p50=%.0fus, %zu INVALID(generator late)\n",
                kColdReferenceRate, windows.size(), ref_lat.size(),
                Median(ref_lat), invalid);
    std::printf("  saturated windows (%zu outstanding): %zu, min/median/max "
                "%.0f/%.0f/%.0f per s:",
                kColdSaturationInflight, capacity.size(),
                QuantilePerMille(capacity, 0), Median(capacity),
                QuantilePerMille(capacity, 1000));
    for (double c : capacity) std::printf(" %.0f", c);
    std::printf("\n");
    rep.Add(&rep.e2e, "lat_p50_us", Median(ref_lat), "us");
    rep.Add(&rep.extra, "lat_p95_us", Median(ref_p95), "us");
    rep.Add(&rep.extra, "lat_p99_us", TailValue(ref_lat), "us");
    rep.Add(&rep.extra, "slo_qps", best, "req/s");
    // Capacity: the completion rate with kColdSaturationInflight requests
    // outstanding, in the fastest saturated window. A time average, so
    // host stalls move it little, unlike slo_qps, which one stall can drop
    // by a rung.
    rep.Add(&rep.e2e, "throughput_qps", QuantilePerMille(capacity, 1000),
            "1/s");
    rep.Add(&rep.extra, "gen_late_ms", QuantilePerMille(ref_late, 990), "ms");
    rep.Add(&rep.extra, "reference_rate", kColdReferenceRate, "req/s");
  } else {
    const double rate = kColdReferenceRate;
    RungResult plain = RunRung(env, &server, rate, opts.seconds / 2, &st);
    account(plain);
    Tracer::Enable(true);
    RungResult traced = RunRung(env, &server, rate, opts.seconds / 2, &st);
    account(traced);
    PrintRung(plain);
    PrintRung(traced);
    AddServerLayerMetrics(server, Mean(st.queue_depth), &rep);
    rep.Add(&rep.layer, "trace.overhead_pct",
            OverheadPct(Median(plain.lat_us), Median(traced.lat_us)), "%");
    ProbeInputs pin;
    for (size_t i = 0; i < 20000; ++i) {
      pin.key_stream.push_back(
          &env->inputs.pool[env->inputs.stream[i % env->inputs.stream.size()]]);
    }
    for (size_t i = 0; i < 64; ++i) pin.requests.push_back(pin.key_stream[i]);
    for (size_t i = 0; i < 16; ++i) pin.queries.push_back(pin.key_stream[i]);
    pin.fused_group_mean = server.metrics().MeanFusedGroupSize();
    RunLayerProbes(env, &server, pin, opts, &rep);
  }
  server.Shutdown();
  rep.mismatches += CheckSamples(*env, st.samples);
  rep.notes.push_back("output check: " + std::to_string(st.samples.size()) +
                      " sampled answers vs direct MtmlfQo::Run");
  return rep;
}

// ---------------------------------------------------------------------------
// serve_hot: closed loop, 2 IPC clients, Zipf over a cache-resident pool,
// a model swap every kHotSwapEvery requests
// ---------------------------------------------------------------------------

namespace {

constexpr int kHotClients = 2;
constexpr uint64_t kHotSwapEvery = 16384;
// Between replies each client spends a seeded random 0..kHotThinkMaxUs of
// its own CPU, as an optimizer enumerates between callouts. Without it the
// two clients lock into a phase against the server's 200 us batching
// window, either riding each other's batch or each waiting out its own.
// Which lock a run fell into set throughput_qps: over six seeds its
// quartile spread was 0.23 without the think time and 0.05 with it. The
// think time is spun, not slept, because a sleep's overshoot depends on
// the host.
constexpr double kHotThinkMaxUs = 200.0;
constexpr size_t kHotSampleEvery = 61;
constexpr size_t kHotMaxSamples = 300;

struct HotLoop {
  std::vector<double> lat_us;
  uint64_t requests = 0;
  uint64_t failed = 0;
  uint64_t swaps = 0;
  uint64_t reconnects = 0;
  double seconds = 0.0;
  std::vector<Sample> samples;
  std::vector<double> queue_depth;
};

struct HotShared {
  std::atomic<uint64_t> total{0};
  std::mutex swap_mu;
  uint64_t version = 1;  // guarded by swap_mu
  size_t cursor[kHotClients] = {0, 0};
};

// Registers the other weight set under a fresh version and publishes it, so
// both the version-keyed cache and the worker tapes start cold.
void SwapVersion(Env* env, HotShared* sh) {
  std::lock_guard<std::mutex> lock(sh->swap_mu);
  const uint64_t next = sh->version + 1;
  Span span("registry.swap");
  MTMLF_CHECK(env->registry->Register(next, env->models[next % 2 == 1 ? 0 : 1])
                  .ok(),
              "register");
  MTMLF_CHECK(env->registry->Publish(next).ok(), "publish");
  if (next >= 3) env->registry->Drop(next - 2);
  sh->version = next;
}

HotLoop RunHotLoop(Env* env, InferenceServer* server, const std::string& sock,
                   double seconds, HotShared* sh) {
  HotLoop out;
  std::mutex out_mu;
  std::atomic<bool> stop{false};
  const Inputs& in = env->inputs;
  auto client = [&](int c) {
    mtmlf::serve::IpcClient::Options co;
    co.unix_path = sock;
    mtmlf::serve::IpcClient ipc(co);
    MTMLF_CHECK(ipc.Connect().ok(), "ipc connect");
    HotLoop mine;
    size_t& cursor = sh->cursor[c];
    mtmlf::Rng think(in.seed * 0x9E3779B97F4A7C15ull + 17 + c);
    while (!stop.load(std::memory_order_relaxed)) {
      const size_t pos = cursor++;
      const uint32_t idx =
          in.stream[c * kHotStreamPerClient + pos % kHotStreamPerClient];
      const LabeledQuery& lq = in.pool[idx];
      if (Tracer::enabled()) {
        mine.queue_depth.push_back(
            static_cast<double>(server->metrics().queue_depth()));
      }
      Clock::time_point t0 = Clock::now();
      Result<InferencePrediction> r = [&] {
        Span span("ipc.predict", idx + 1);
        return ipc.Predict(0, lq.query, *lq.plan);
      }();
      Clock::time_point t1 = Clock::now();
      ++mine.requests;
      if (!r.ok()) {
        ++mine.failed;
      } else {
        mine.lat_us.push_back(UsBetween(t0, t1));
        if (pos % kHotSampleEvery == 0 && mine.samples.size() < kHotMaxSamples) {
          mine.samples.push_back(
              {idx, r.value().model_version, r.value().card, r.value().cost_ms});
        }
      }
      if (sh->total.fetch_add(1, std::memory_order_relaxed) % kHotSwapEvery ==
          kHotSwapEvery - 1) {
        SwapVersion(env, sh);
        ++mine.swaps;
      }
      const Clock::time_point resume =
          Clock::now() + std::chrono::duration_cast<Clock::duration>(
                             std::chrono::duration<double, std::micro>(
                                 think.Uniform(0.0, kHotThinkMaxUs)));
      while (Clock::now() < resume) {
      }
    }
    mine.reconnects = ipc.reconnects();
    std::lock_guard<std::mutex> lock(out_mu);
    out.lat_us.insert(out.lat_us.end(), mine.lat_us.begin(), mine.lat_us.end());
    out.requests += mine.requests;
    out.failed += mine.failed;
    out.swaps += mine.swaps;
    out.reconnects += mine.reconnects;
    out.samples.insert(out.samples.end(), mine.samples.begin(),
                       mine.samples.end());
    out.queue_depth.insert(out.queue_depth.end(), mine.queue_depth.begin(),
                           mine.queue_depth.end());
  };
  Clock::time_point t0 = Clock::now();
  std::vector<std::thread> threads;
  for (int c = 0; c < kHotClients; ++c) threads.emplace_back(client, c);
  std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
  stop = true;
  for (auto& t : threads) t.join();
  out.seconds = std::chrono::duration<double>(Clock::now() - t0).count();
  return out;
}

// UDS answers must equal the in-process ones for the same plan and version.
uint64_t CompareIpcWithInProcess(Env* env, InferenceServer* server,
                                 const std::string& sock, size_t count) {
  mtmlf::serve::IpcClient::Options co;
  co.unix_path = sock;
  mtmlf::serve::IpcClient ipc(co);
  MTMLF_CHECK(ipc.Connect().ok(), "ipc connect");
  uint64_t bad = 0;
  for (size_t i = 0; i < count; ++i) {
    const LabeledQuery& lq = env->inputs.pool[env->inputs.stream[i]];
    auto a = server->Submit({0, &lq.query, lq.plan.get()}).get();
    auto b = ipc.Predict(0, lq.query, *lq.plan);
    if (!a.ok() || !b.ok() || !SameBits(a.value().card, b.value().card) ||
        !SameBits(a.value().cost_ms, b.value().cost_ms) ||
        a.value().model_version != b.value().model_version) {
      ++bad;
    }
  }
  return bad;
}

}  // namespace

Report RunServeHot(Env* env, const RunOptions& opts) {
  Report rep;
  InferenceServer server(env->registry.get(), InferenceServer::Options{});
  MTMLF_CHECK(server.Start().ok(), "server start");
  const std::string sock = opts.workdir + "/hot-" +
                           std::to_string(static_cast<long>(getpid())) +
                           ".sock";
  mtmlf::serve::SocketFrontEnd::Options fo;
  fo.unix_path = sock;
  mtmlf::serve::SocketFrontEnd front(&server, env->registry.get(), fo);
  MTMLF_CHECK(front.Start().ok(), "front end start");
  HotShared sh;
  {
    // Warm-up: fill the cache with version 1 and reach steady state.
    HotLoop warm = RunHotLoop(env, &server, sock, 1.0, &sh);
    rep.attempted += warm.requests;
    rep.failed += warm.failed;
  }
  std::vector<Sample> samples;
  auto account = [&](const HotLoop& l) {
    rep.attempted += l.requests;
    rep.failed += l.failed;
    samples.insert(samples.end(), l.samples.begin(), l.samples.end());
  };
  auto print = [](const char* tag, const HotLoop& l) {
    std::printf("  %s: %llu requests in %.2f s, %llu swaps, p50=%.0fus "
                "p%.1f=%.0fus\n",
                tag, static_cast<unsigned long long>(l.requests), l.seconds,
                static_cast<unsigned long long>(l.swaps), Median(l.lat_us),
                TailPerMille(l.lat_us.size()) / 10.0, TailValue(l.lat_us));
  };
  if (!opts.trace) {
    HotLoop l = RunHotLoop(env, &server, sock, opts.seconds, &sh);
    account(l);
    print("serve_hot", l);
    AddLatencyMetrics(l.lat_us, &rep);
    rep.Add(&rep.e2e, "throughput_qps",
            static_cast<double>(l.requests) / l.seconds, "1/s");
    rep.Add(&rep.extra, "swaps", static_cast<double>(l.swaps), "count");
    rep.Add(&rep.extra, "cache_hit_rate", server.cache()->HitRate(), "ratio");
  } else {
    HotLoop plain = RunHotLoop(env, &server, sock, opts.seconds / 2, &sh);
    account(plain);
    Tracer::Enable(true);
    HotLoop traced = RunHotLoop(env, &server, sock, opts.seconds / 2, &sh);
    account(traced);
    print("untraced", plain);
    print("traced", traced);
    AddServerLayerMetrics(server, Mean(traced.queue_depth), &rep);
    rep.Add(&rep.layer, "trace.overhead_pct",
            OverheadPct(Median(plain.lat_us), Median(traced.lat_us)), "%");
    ProbeInputs pin;
    for (size_t i = 0; i < 20000; ++i) {
      pin.key_stream.push_back(&env->inputs.pool[env->inputs.stream[i]]);
    }
    for (size_t i = 0; i < 64; ++i) pin.requests.push_back(pin.key_stream[i]);
    for (size_t i = 0; i < 16; ++i) pin.queries.push_back(pin.key_stream[i]);
    pin.fused_group_mean = server.metrics().MeanFusedGroupSize();
    pin.frames_rejected = front.frames_rejected();
    pin.reconnects = plain.reconnects + traced.reconnects;
    RunLayerProbes(env, &server, pin, opts, &rep);
  }
  const uint64_t ipc_bad = CompareIpcWithInProcess(env, &server, sock, 128);
  front.Shutdown();
  server.Shutdown();
  rep.mismatches += ipc_bad + CheckSamples(*env, samples);
  rep.notes.push_back("output check: " + std::to_string(samples.size()) +
                      " sampled answers vs direct MtmlfQo::Run, 128 UDS "
                      "answers vs in-process");
  return rep;
}

// ---------------------------------------------------------------------------
// plan: closed loop of 2 planner sessions (DP callouts + JoinSel)
// ---------------------------------------------------------------------------

namespace {

constexpr int kPlanSessions = 2;

struct PlanLoop {
  std::vector<double> plan_ms;
  std::vector<double> queue_depth;
  uint64_t planned = 0;
  uint64_t failed = 0;
  uint64_t illegal = 0;
  double seconds = 0.0;
};

PlanLoop RunPlanLoop(Env* env, InferenceServer* server, double seconds,
                     std::atomic<size_t>* next) {
  PlanLoop out;
  std::mutex out_mu;
  std::atomic<bool> stop{false};
  const Inputs& in = env->inputs;
  const MtmlfQo& model = *env->models[0];
  auto session = [&] {
    PlanLoop mine;
    while (!stop.load(std::memory_order_relaxed)) {
      const size_t qi = next->fetch_add(1);
      const LabeledQuery& lq = in.pool[in.stream[qi % in.stream.size()]];
      Clock::time_point t0 = Clock::now();
      Span span("plan.query", qi + 1);
      DpResult dp = PlanWithDp(server, *in.db, lq, qi + 1,
                               Tracer::enabled() ? &mine.queue_depth : nullptr);
      Result<std::vector<int>> jo = [&] {
        Span js("jo.predict", qi + 1);
        return model.PredictJoinOrder(0, lq, JoinSelOptions());
      }();
      mine.plan_ms.push_back(MsSince(t0));
      ++mine.planned;
      if (dp.failed > 0 || !jo.ok()) {
        ++mine.failed;
      } else if (!mtmlf::optimizer::IsExecutableOrder(lq.query, dp.order) ||
                 !mtmlf::optimizer::IsExecutableOrder(lq.query, jo.value())) {
        ++mine.illegal;
      }
    }
    std::lock_guard<std::mutex> lock(out_mu);
    out.plan_ms.insert(out.plan_ms.end(), mine.plan_ms.begin(),
                       mine.plan_ms.end());
    out.planned += mine.planned;
    out.failed += mine.failed;
    out.illegal += mine.illegal;
    out.queue_depth.insert(out.queue_depth.end(), mine.queue_depth.begin(),
                           mine.queue_depth.end());
  };
  Clock::time_point t0 = Clock::now();
  std::vector<std::thread> threads;
  for (int s = 0; s < kPlanSessions; ++s) threads.emplace_back(session);
  std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
  stop = true;
  for (auto& t : threads) t.join();
  out.seconds = std::chrono::duration<double>(Clock::now() - t0).count();
  return out;
}

// Plan quality on the labeled held-out set, outside the timed region: the
// simulated latency of each chosen order over the baseline plan's.
void PlanQuality(Env* env, InferenceServer* server, Report* rep) {
  const Inputs& in = env->inputs;
  mtmlf::workload::QueryLabeler labeler(in.db.get(), in.baseline.get(),
                                        mtmlf::workload::QueryLabeler::Options{});
  double log_jo = 0.0, log_dp = 0.0;
  int n = 0, regressions = 0;
  for (size_t i = 0; i < in.heldout.size(); ++i) {
    const LabeledQuery& lq = in.heldout[i];
    DpResult dp = PlanWithDp(server, *in.db, lq, 0);
    auto jo = env->models[0]->PredictJoinOrder(0, lq, JoinSelOptions());
    if (dp.failed > 0 || !jo.ok() ||
        !mtmlf::optimizer::IsExecutableOrder(lq.query, dp.order) ||
        !mtmlf::optimizer::IsExecutableOrder(lq.query, jo.value())) {
      ++rep->mismatches;
      continue;
    }
    auto pg = labeler.SimulateOrderLatencyMs(lq.query, lq.postgres_order);
    auto l_jo = labeler.SimulateOrderLatencyMs(lq.query, jo.value());
    auto l_dp = labeler.SimulateOrderLatencyMs(lq.query, dp.order);
    if (!pg.ok() || !l_jo.ok() || !l_dp.ok() || pg.value() <= 0.0) {
      ++rep->mismatches;
      continue;
    }
    const double r_jo = l_jo.value() / pg.value();
    log_jo += std::log(r_jo);
    log_dp += std::log(l_dp.value() / pg.value());
    if (r_jo > 2.0) ++regressions;
    ++n;
  }
  rep->Add(&rep->extra, "quality_jo_gmean", n > 0 ? std::exp(log_jo / n) : 0.0,
           "ratio");
  rep->Add(&rep->extra, "quality_dp_gmean", n > 0 ? std::exp(log_dp / n) : 0.0,
           "ratio");
  rep->Add(&rep->extra, "regressions_jo", regressions, "count");
  rep->Add(&rep->extra, "quality_queries", n, "count");
}

}  // namespace

Report RunPlan(Env* env, const RunOptions& opts) {
  Report rep;
  InferenceServer server(env->registry.get(), InferenceServer::Options{});
  MTMLF_CHECK(server.Start().ok(), "server start");
  std::atomic<size_t> next{0};
  {
    PlanLoop warm = RunPlanLoop(env, &server, 1.0, &next);
    rep.attempted += warm.planned;
    rep.failed += warm.failed;
    rep.mismatches += warm.illegal;
  }
  auto account = [&](const PlanLoop& l) {
    rep.attempted += l.planned;
    rep.failed += l.failed;
    rep.mismatches += l.illegal;
  };
  auto print = [](const char* tag, const PlanLoop& l) {
    std::printf("  %s: %llu queries in %.2f s, plan p50=%.2fms p%.1f=%.2fms\n",
                tag, static_cast<unsigned long long>(l.planned), l.seconds,
                Median(l.plan_ms), TailPerMille(l.plan_ms.size()) / 10.0,
                TailValue(l.plan_ms));
  };
  if (!opts.trace) {
    PlanLoop l = RunPlanLoop(env, &server, opts.seconds, &next);
    account(l);
    print("plan", l);
    std::vector<double> us;
    for (double ms : l.plan_ms) us.push_back(ms * 1e3);
    AddLatencyMetrics(us, &rep);
    const double per_s = static_cast<double>(l.planned) / l.seconds;
    rep.Add(&rep.e2e, "throughput_qps", per_s, "1/s");
    rep.Add(&rep.extra, "plan_ms_p50", Median(l.plan_ms), "ms");
    rep.Add(&rep.extra, "plan_ms_p95", QuantilePerMille(l.plan_ms, 950), "ms");
    rep.Add(&rep.extra, "plans_per_s", per_s, "1/s");
    PlanQuality(env, &server, &rep);
  } else {
    PlanLoop plain = RunPlanLoop(env, &server, opts.seconds / 2, &next);
    account(plain);
    Tracer::Enable(true);
    PlanLoop traced = RunPlanLoop(env, &server, opts.seconds / 2, &next);
    account(traced);
    print("untraced", plain);
    print("traced", traced);
    AddServerLayerMetrics(server, Mean(traced.queue_depth), &rep);
    rep.Add(&rep.layer, "trace.overhead_pct",
            OverheadPct(Median(plain.plan_ms), Median(traced.plan_ms)), "%");
    ProbeInputs pin;
    std::vector<LabeledQuery> subplans;
    for (size_t i = 0; i < 16; ++i) {
      const LabeledQuery& lq = env->inputs.pool[env->inputs.stream[i]];
      pin.queries.push_back(&lq);
      for (auto& sp : DpSubplans(lq)) subplans.push_back(std::move(sp));
    }
    for (const auto& sp : subplans) pin.key_stream.push_back(&sp);
    for (size_t i = 0; i < std::min<size_t>(64, subplans.size()); ++i) {
      pin.requests.push_back(&subplans[i * subplans.size() / 64]);
    }
    pin.fused_group_mean = server.metrics().MeanFusedGroupSize();
    RunLayerProbes(env, &server, pin, opts, &rep);
    for (const Metric& m : rep.layer) {
      if (m.name != "beam.search_ms") continue;
      const double p50 = Median(traced.plan_ms);
      rep.notes.push_back(
          "beam.search_ms is " + std::to_string(100.0 * m.value / p50) +
          "% of the traced plan p50 (" + std::to_string(p50) + " ms)");
    }
  }
  server.Shutdown();
  return rep;
}

}  // namespace perfbench
