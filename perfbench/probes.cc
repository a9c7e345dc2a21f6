// Layer probes of the traced run. Each probe replays the workload's own
// inputs through one layer's public functions, timed from outside with a
// span around every call.

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <map>
#include <optional>

#include "bench.h"
#include "common/logging.h"
#include "featurize/plan_encoder.h"
#include "model/beam_search.h"
#include "serve/cache.h"
#include "serve/ipc_client.h"
#include "serve/ipc_server.h"
#include "stats.h"
#include "tensor/tape.h"
#include "tensor/tensor.h"
#include "tensor/workspace.h"
#include "trace.h"

namespace perfbench {

using mtmlf::model::MtmlfQo;
using mtmlf::serve::InferenceServer;
using mtmlf::workload::LabeledQuery;
namespace {

// Registers models[0] under the next odd version and publishes it: every
// version-keyed cache entry and worker tape is cold afterwards, and
// ModelOfVersion still maps the served version to models[0].
uint64_t PublishFreshVersion(Env* env) {
  std::vector<uint64_t> versions = env->registry->Versions();
  uint64_t v = versions.empty() ? 1 : versions.back() + 1;
  if (v % 2 == 0) ++v;
  MTMLF_CHECK(env->registry->Register(v, env->models[0]).ok(), "register");
  MTMLF_CHECK(env->registry->Publish(v).ok(), "publish");
  return v;
}

// Inference context of a serving worker: no-grad plus a private arena.
struct InferenceScope {
  mtmlf::tensor::NoGradGuard no_grad;
  mtmlf::tensor::Workspace ws;
  mtmlf::tensor::WorkspaceScope scope{&ws};
};

void ProbeCache(const ProbeInputs& in, Report* r) {
  mtmlf::serve::PredictionCache cache(kServerCacheEntries);
  std::vector<std::string> keys;
  keys.reserve(in.key_stream.size());
  Clock::time_point t0 = Clock::now();
  {
    Span span("cache.fingerprint");
    for (const LabeledQuery* lq : in.key_stream) {
      keys.push_back(mtmlf::serve::PlanFingerprint(0, lq->query, *lq->plan));
    }
  }
  const double fp_us = UsSince(t0) / static_cast<double>(keys.size());
  double get_us_total = 0.0;
  {
    Span span("cache.get");
    for (const std::string& k : keys) {
      mtmlf::serve::Prediction p;
      Clock::time_point g0 = Clock::now();
      bool hit = cache.Get(k, &p);
      get_us_total += UsSince(g0);
      if (!hit) cache.Put(k, p);
    }
  }
  r->Add(&r->layer, "cache.fingerprint_us", fp_us, "us");
  r->Add(&r->layer, "cache.get_us", get_us_total / keys.size(), "us");
}

void ProbeRegistry(Env* env, Report* r) {
  const uint64_t a = env->registry->CurrentVersion();
  const uint64_t b = PublishFreshVersion(env);
  std::vector<double> us;
  for (int i = 0; i < 2000; ++i) {
    Span span("registry.publish");
    Clock::time_point t0 = Clock::now();
    MTMLF_CHECK(env->registry->Publish(i % 2 == 0 ? a : b).ok(), "publish");
    us.push_back(UsSince(t0));
  }
  r->Add(&r->layer, "registry.publish_us", Median(us), "us");
}

// Lone requests on a cold version: the first Submit of each plan misses,
// the second hits. Then the refill time of the sample after a swap.
void ProbeServer(Env* env, InferenceServer* server, const ProbeInputs& in,
                 Report* r) {
  PublishFreshVersion(env);
  std::vector<double> miss_us, hit_us;
  uint64_t id = 0;
  for (const LabeledQuery* lq : in.requests) {
    ++id;
    for (int pass = 0; pass < 2; ++pass) {
      Span span(pass == 0 ? "server.submit_first" : "server.submit_again", id);
      Clock::time_point t0 = Clock::now();
      auto res = server->Submit({0, &lq->query, lq->plan.get()}).get();
      const double us = UsSince(t0);
      if (!res.ok()) continue;
      (res.value().cache_hit ? hit_us : miss_us).push_back(us);
    }
  }
  r->Add(&r->layer, "server.hit_lat_us_p50", Median(hit_us), "us");
  r->Add(&r->layer, "server.miss_lat_us_p50", Median(miss_us), "us");

  std::vector<double> refill_ms;
  for (int rep = 0; rep < 3; ++rep) {
    Span span("cache.refill");
    Clock::time_point t0 = Clock::now();
    PublishFreshVersion(env);
    // Re-send the sample as pipelined waves until a wave is all hits; the
    // refill ends with the last wave that still missed.
    double last_miss_wave_end = 0.0;
    for (int wave = 0; wave < 8; ++wave) {
      std::vector<std::future<mtmlf::Result<mtmlf::serve::InferencePrediction>>>
          futs;
      for (const LabeledQuery* lq : in.requests) {
        futs.push_back(server->Submit({0, &lq->query, lq->plan.get()}));
      }
      bool all_hit = true;
      for (auto& f : futs) {
        auto res = f.get();
        if (!res.ok() || !res.value().cache_hit) all_hit = false;
      }
      if (all_hit) break;
      last_miss_wave_end = UsSince(t0) / 1e3;
    }
    refill_ms.push_back(last_miss_wave_end);
  }
  r->Add(&r->layer, "cache.refill_ms", Median(refill_ms), "ms");
}

// The socket hop on hits: IpcClient::Predict minus in-process Submit. Both
// go to a private server with no batching wait over the same registry,
// because a lone request on the workload's server waits out max_wait_us
// only some of the time, which would swamp a ~20 us difference.
void ProbeIpc(Env* env, const ProbeInputs& in, const RunOptions& opts,
              Report* r) {
  InferenceServer::Options so;
  so.max_wait_us = 0;
  InferenceServer probe_server(env->registry.get(), so);
  MTMLF_CHECK(probe_server.Start().ok(), "probe server");
  InferenceServer* server = &probe_server;
  const std::string sock = opts.workdir + "/probe-" +
                           std::to_string(static_cast<long>(getpid())) +
                           ".sock";
  mtmlf::serve::SocketFrontEnd::Options fo;
  fo.unix_path = sock;
  mtmlf::serve::SocketFrontEnd front(server, nullptr, fo);
  MTMLF_CHECK(front.Start().ok(), "probe front end");
  mtmlf::serve::IpcClient::Options co;
  co.unix_path = sock;
  mtmlf::serve::IpcClient ipc(co);
  MTMLF_CHECK(ipc.Connect().ok(), "probe connect");
  std::vector<double> local_us, ipc_us;
  for (int pass = 0; pass < 3; ++pass) {
    for (const LabeledQuery* lq : in.requests) {
      Clock::time_point t0 = Clock::now();
      {
        Span span("server.submit_hit");
        server->Submit({0, &lq->query, lq->plan.get()}).get();
      }
      Clock::time_point t1 = Clock::now();
      {
        Span span("ipc.predict_hit");
        auto res = ipc.Predict(0, lq->query, *lq->plan);
        if (!res.ok()) {
          std::printf("ipc probe: %s\n", res.status().ToString().c_str());
          ++r->failed;
        }
      }
      if (pass == 0) continue;  // first pass warms the cache and socket
      local_us.push_back(UsBetween(t0, t1));
      ipc_us.push_back(UsSince(t1));
    }
  }
  r->Add(&r->layer, "ipc.hop_us_p50", Median(ipc_us) - Median(local_us), "us");
  r->Add(&r->layer, "ipc.frames_rejected",
         static_cast<double>(front.frames_rejected() + in.frames_rejected),
         "count");
  r->Add(&r->layer, "ipc.reconnects",
         static_cast<double>(ipc.reconnects() + in.reconnects), "count");
  ipc.Close();
  front.Shutdown();
  probe_server.Shutdown();
}

void ProbeModel(const MtmlfQo& model, const ProbeInputs& in, Report* r) {
  InferenceScope ctx;
  const auto& encoder = model.plan_encoder(0);
  const auto* featurizer = encoder.featurizer();
  const double n = static_cast<double>(in.requests.size());

  // Fused Enc_i over the filtered tables of the sample, per table.
  std::map<int, std::vector<std::vector<mtmlf::query::FilterPredicate>>> sets;
  for (const LabeledQuery* lq : in.requests) {
    for (int t : lq->query.tables) {
      auto f = lq->query.FiltersOf(t);
      if (!f.empty()) sets[t].push_back(std::move(f));
    }
  }
  std::vector<double> enc_rounds;
  for (int round = 0; round < 5; ++round) {
    Clock::time_point t0 = Clock::now();
    for (const auto& [table, fs] : sets) {
      Span span("featurize.enc_batch");
      std::vector<const std::vector<mtmlf::query::FilterPredicate>*> ptrs;
      for (const auto& f : fs) ptrs.push_back(&f);
      auto out = featurizer->EncodeTableFiltersBatch(table, ptrs);
    }
    enc_rounds.push_back(UsSince(t0) / n);
    ctx.ws.Reset();
  }
  const double enc_us = Median(enc_rounds);
  r->Add(&r->layer, "featurize.enc_us_per_plan", enc_us, "us");

  // Plan serialization with the Enc_i memo already filled.
  std::vector<double> encode_us;
  for (const LabeledQuery* lq : in.requests) {
    {
      mtmlf::featurize::PlanEncodingCache memo;
      std::vector<const mtmlf::query::PlanNode*> nodes;
      auto warm = encoder.EncodePlan(lq->query, *lq->plan, &nodes, &memo);
      Span span("featurize.encode_plan");
      Clock::time_point t0 = Clock::now();
      auto rows = encoder.EncodePlan(lq->query, *lq->plan, &nodes, &memo);
      encode_us.push_back(UsSince(t0));
    }
    ctx.ws.Reset();
  }
  const double encode_plan_us = Median(encode_us);
  r->Add(&r->layer, "featurize.encode_plan_us", encode_plan_us, "us");

  // Eager Run, with the process-wide tensor counters around it.
  std::vector<double> run_us;
  const auto before = mtmlf::tensor::ReadAllocCounters();
  for (const LabeledQuery* lq : in.requests) {
    {
      Span span("model.run");
      Clock::time_point t0 = Clock::now();
      MtmlfQo::Forward fwd = model.Run(0, lq->query, *lq->plan);
      run_us.push_back(UsSince(t0));
    }
    ctx.ws.Reset();
  }
  const auto after = mtmlf::tensor::ReadAllocCounters();
  r->Add(&r->layer, "model.run_us", Median(run_us), "us");
  r->Add(&r->layer, "tensor.ops_per_plan",
         static_cast<double>(after.ops - before.ops) / n, "count");
  r->Add(&r->layer, "tensor.heap_nodes_per_req",
         static_cast<double>(after.heap_nodes - before.heap_nodes) / n,
         "count");

  // RunBatch at the workload's mean fused group size, eager and taped.
  const size_t g = static_cast<size_t>(
      std::clamp(std::lround(in.fused_group_mean), 1L, 8L));
  std::vector<std::vector<MtmlfQo::PlanRef>> groups;
  for (size_t i = 0; i + g <= in.requests.size(); i += g) {
    std::vector<MtmlfQo::PlanRef> refs;
    for (size_t j = i; j < i + g; ++j) {
      refs.push_back({&in.requests[j]->query, in.requests[j]->plan.get()});
    }
    groups.push_back(std::move(refs));
  }
  mtmlf::tensor::TapeCache tapes;
  tapes.SetModelVersion(1);
  std::vector<double> batch_us, tape_us;
  for (const auto& refs : groups) {
    {
      Span span("model.runbatch");
      Clock::time_point t0 = Clock::now();
      auto out = model.RunBatch(0, refs);
      batch_us.push_back(UsSince(t0) / static_cast<double>(g));
    }
    ctx.ws.Reset();
    { auto record = model.RunBatch(0, refs, &tapes); }
    ctx.ws.Reset();
    {
      Span span("model.runbatch_tape");
      Clock::time_point t0 = Clock::now();
      auto out = model.RunBatch(0, refs, &tapes);
      tape_us.push_back(UsSince(t0) / static_cast<double>(g));
    }
    ctx.ws.Reset();
  }
  const double batch_per_plan = Median(batch_us);
  r->notes.push_back("model.runbatch_* ran at fused group size " +
                     std::to_string(g));
  r->Add(&r->layer, "model.runbatch_us_per_plan", batch_per_plan, "us");
  r->Add(&r->layer, "model.runbatch_tape_us_per_plan", Median(tape_us), "us");
  // The forward's self time: RunBatch less its featurize share.
  r->Add(&r->layer, "model.tail_us_per_plan",
         std::max(0.0, batch_per_plan - enc_us - encode_plan_us), "us");
}

void ProbeJoinSel(const MtmlfQo& model, const ProbeInputs& in, Report* r) {
  InferenceScope ctx;
  std::vector<double> beam_ms, rerank_ms, cands;
  double legal = 0.0, total = 0.0;
  uint64_t id = 0;
  for (const LabeledQuery* lq : in.queries) {
    ++id;
    Span parent("probe.joinsel", id);
    double run_ms = 0.0, search_ms = 0.0, predict_ms = 0.0;
    {
      Clock::time_point t0 = Clock::now();
      MtmlfQo::Forward fwd = [&] {
        Span span("jo.run", id);
        return model.Run(0, lq->query, *lq->plan);
      }();
      Clock::time_point t1 = Clock::now();
      std::vector<mtmlf::model::ScoredOrder> out;
      {
        Span span("beam.search", id);
        out = mtmlf::model::BeamSearchJoinOrder(
            model.trans_jo(), fwd.jo_memory, lq->query.AdjacencyMatrix(),
            JoinSelOptions());
      }
      search_ms = UsSince(t1) / 1e3;
      run_ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
      cands.push_back(static_cast<double>(out.size()));
      for (const auto& o : out) legal += o.legal ? 1.0 : 0.0;
      total += static_cast<double>(out.size());
    }
    ctx.ws.Reset();
    {
      Span span("jo.predict", id);
      Clock::time_point t0 = Clock::now();
      auto order = model.PredictJoinOrder(0, *lq, JoinSelOptions());
      predict_ms = UsSince(t0) / 1e3;
    }
    ctx.ws.Reset();
    beam_ms.push_back(search_ms);
    rerank_ms.push_back(std::max(0.0, predict_ms - run_ms - search_ms));
  }
  r->Add(&r->layer, "beam.search_ms", Median(beam_ms), "ms");
  r->Add(&r->layer, "beam.candidates", Mean(cands), "count");
  r->Add(&r->layer, "beam.legal_ratio", total > 0 ? legal / total : 0.0,
         "ratio");
  r->Add(&r->layer, "jo.rerank_ms", Median(rerank_ms), "ms");
}

void ProbeOptimizer(Env* env, InferenceServer* server, const ProbeInputs& in,
                    Report* r) {
  std::vector<double> subplans, wave_ms, enum_ms, est_us;
  uint64_t id = 1000000;
  for (const LabeledQuery* lq : in.queries) {
    DpResult dp = PlanWithDp(server, *env->inputs.db, *lq, ++id);
    subplans.push_back(dp.subplans);
    wave_ms.insert(wave_ms.end(), dp.wave_ms.begin(), dp.wave_ms.end());
    enum_ms.push_back(dp.enum_ms);
    for (const LabeledQuery& sp : DpSubplans(*lq)) {
      Span span("baseline.estimate_subset", id);
      Clock::time_point t0 = Clock::now();
      volatile double card =
          env->inputs.baseline->EstimateSubset(lq->query, sp.query.tables);
      (void)card;
      est_us.push_back(UsSince(t0));
    }
  }
  r->Add(&r->layer, "dp.subplans_per_query", Mean(subplans), "count");
  r->Add(&r->layer, "dp.wave_ms", Median(wave_ms), "ms");
  r->Add(&r->layer, "dp.enum_ms", Median(enum_ms), "ms");
  r->Add(&r->layer, "baseline.estimate_subset_us", Mean(est_us), "us");
}

void PrintLedger(const std::vector<SpanRecord>& spans) {
  std::printf("layer ledger (%zu spans; self = span minus its children):\n",
              spans.size());
  std::printf("  %-28s %8s %12s %12s %12s\n", "span", "count", "total_ms",
              "self_ms", "median_us");
  for (const LedgerRow& row : Ledger(spans)) {
    std::printf("  %-28s %8llu %12.2f %12.2f %12.1f\n", row.name.c_str(),
                static_cast<unsigned long long>(row.count), row.total_ms,
                row.self_ms, row.median_us);
  }
}

}  // namespace

void RunLayerProbes(Env* env, InferenceServer* server, const ProbeInputs& in,
                    const RunOptions& opts, Report* r) {
  Tracer::Enable(true);
  const MtmlfQo& model = *env->models[0];
  ProbeCache(in, r);
  ProbeRegistry(env, r);
  ProbeServer(env, server, in, r);
  ProbeIpc(env, in, opts, r);
  ProbeModel(model, in, r);
  ProbeJoinSel(model, in, r);
  ProbeOptimizer(env, server, in, r);
  Tracer::Enable(false);

  std::vector<SpanRecord> spans = Tracer::Collect();
  PrintLedger(spans);
  const std::string path = opts.workdir + "/spans-" + opts.workload + "-" +
                           std::to_string(opts.seed) + ".json";
  if (WriteSpansJson(spans, path)) {
    std::printf("spans written to %s\n", path.c_str());
  } else {
    r->notes.push_back("could not write " + path);
  }
}

}  // namespace perfbench
