// The repository benchmark binary. perfbench/run.py builds and runs it:
//
//   perfbench --workload <serve_cold|serve_hot|plan> --seed <n>
//             --seconds <s> --trace <0|1> [--workdir <dir>]
//
// It prints a human-readable report, then one JSON line with the
// end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1).
// Exits 1 when an output check fails.

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "bench.h"
#include "stats.h"

namespace {

using namespace perfbench;  // NOLINT

// Set-ups per run: at least kMinSetups, and more until they have taken
// kMinSetupSeconds in all, so a cheap set-up (serve_hot: ~0.2 s) is
// sampled often enough that one host stall cannot move the median.
// setup_s is their median.
constexpr int kMinSetups = 5;
constexpr double kMinSetupSeconds = 4.0;

bool ParseArgs(int argc, char** argv, RunOptions* o) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const char* v = argv[i + 1];
    if (k == "--workload") {
      o->workload = v;
    } else if (k == "--seed") {
      o->seed = std::strtoull(v, nullptr, 10);
    } else if (k == "--seconds") {
      o->seconds = std::atof(v);
    } else if (k == "--trace") {
      o->trace = std::atoi(v) != 0;
    } else if (k == "--workdir") {
      o->workdir = v;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && IsWorkload(o->workload) && o->seconds > 0.0;
}

void PrintMetrics(const char* title, const std::vector<Metric>& ms) {
  std::printf("%s:\n", title);
  for (const Metric& m : ms) {
    std::printf("  %-32s %16.4f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
}

void PrintJson(bool correct, const Report& r, const std::vector<Metric>& ms) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed + r.mismatches));
  for (size_t i = 0; i < ms.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", ms[i].name.c_str(), ms[i].value,
                ms[i].unit.c_str());
  }
  std::printf("}}\n");
}

}  // namespace

int main(int argc, char** argv) {
  RunOptions opts;
  if (!ParseArgs(argc, argv, &opts)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload serve_cold|serve_hot|plan "
                 "--seed N --seconds S --trace 0|1 [--workdir DIR]\n");
    return 2;
  }
  std::printf("perfbench workload=%s seed=%llu seconds=%.1f trace=%d\n",
              opts.workload.c_str(),
              static_cast<unsigned long long>(opts.seed), opts.seconds,
              opts.trace ? 1 : 0);

  std::unique_ptr<Env> env;
  std::vector<double> setup_s;
  double setup_total_s = 0.0;
  while (static_cast<int>(setup_s.size()) < kMinSetups ||
         setup_total_s < kMinSetupSeconds) {
    env.reset();  // one set-up alive at a time
    const Clock::time_point t0 = Clock::now();
    env = Setup(opts.workload, opts.seed);
    setup_s.push_back(UsSince(t0) / 1e6);
    setup_total_s += setup_s.back();
  }
  std::printf("set-up: %zu runs, median %.3f s\n", setup_s.size(),
              Median(setup_s));
  std::printf("inputs: %zu pool entries, %zu stream entries, hash %016llx\n",
              env->inputs.pool.size(), env->inputs.stream.size(),
              static_cast<unsigned long long>(env->inputs.Hash()));

  Report rep;
  if (opts.workload == "serve_cold") {
    rep = RunServeCold(env.get(), opts);
  } else if (opts.workload == "serve_hot") {
    rep = RunServeHot(env.get(), opts);
  } else {
    rep = RunPlan(env.get(), opts);
  }
  rep.Add(&rep.e2e, "setup_s", Median(setup_s), "s");
  // Printed, not in the JSON line: across ten seeds plan's peak resident
  // set read either ~110 or ~140 MiB, too bimodal to gate on.
  rep.Add(&rep.extra, "rss_mb", PeakRssMb(), "MiB");
  const double error_rate =
      rep.attempted > 0
          ? static_cast<double>(rep.failed + rep.mismatches) / rep.attempted
          : 1.0;
  rep.Add(&rep.extra, "error_rate", error_rate, "ratio");

  PrintMetrics("end-to-end", rep.e2e);
  PrintMetrics("workload-specific", rep.extra);
  if (opts.trace) PrintMetrics("per-layer", rep.layer);
  for (const std::string& n : rep.notes) std::printf("note: %s\n", n.c_str());
  std::printf("attempted=%llu failed=%llu output-mismatches=%llu\n",
              static_cast<unsigned long long>(rep.attempted),
              static_cast<unsigned long long>(rep.failed),
              static_cast<unsigned long long>(rep.mismatches));

  const bool correct = rep.mismatches == 0 && rep.attempted > 0;
  PrintJson(correct, rep, opts.trace ? rep.layer : rep.e2e);
  std::fflush(stdout);
  return correct ? 0 : 1;
}
