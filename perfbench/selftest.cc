// The benchmark's own tests: input determinism, the tail-percentile picker,
// span self-time arithmetic, and the working-set sizes of the two serve
// pools against the server cache. Run with `python3 perfbench/run.py
// --self-test`; exits non-zero on the first failure.

#include <cstdio>
#include <cstdlib>
#include <vector>

#include "inputs.h"
#include "stats.h"
#include "trace.h"

namespace {

int g_failures = 0;

#define EXPECT(cond)                                                 \
  do {                                                               \
    if (!(cond)) {                                                   \
      std::fprintf(stderr, "FAIL %s:%d: %s\n", __FILE__, __LINE__,   \
                   #cond);                                           \
      ++g_failures;                                                  \
    }                                                                \
  } while (0)

using namespace perfbench;  // NOLINT

void SameSeedSameInputs() {
  for (const char* w : {"serve_cold", "serve_hot", "plan"}) {
    const uint64_t a = MakeInputs(w, 7).Hash();
    const uint64_t b = MakeInputs(w, 7).Hash();
    const uint64_t c = MakeInputs(w, 8).Hash();
    EXPECT(a == b);
    EXPECT(a != c);
  }
}

void TailPicker() {
  EXPECT(TailPerMille(100000) == 990);  // capped at p99
  EXPECT(TailPerMille(1000) == 990);    // 10 beyond p99
  EXPECT(TailPerMille(999) == 980);
  EXPECT(TailPerMille(400) == 975);
  EXPECT(TailPerMille(100) == 900);
  EXPECT(TailPerMille(50) == 800);
  EXPECT(TailPerMille(10) == 500);
  std::vector<double> v;
  for (int i = 1; i <= 1000; ++i) v.push_back(i);
  EXPECT(QuantilePerMille(v, 990) == 990.0);
  EXPECT(TailValue(v) == 990.0);
  EXPECT(Median(v) == 500.0);
  // Exactly ten samples lie beyond the picked value.
  size_t beyond = 0;
  for (double x : v) beyond += x > TailValue(v) ? 1 : 0;
  EXPECT(beyond == 10);
}

void SpanSelfTime() {
  // parent [0, 100) with children [10, 30) and [20, 50) (overlapping, merged
  // to 40) and a grandchild inside the first child; a child running past
  // the parent's end is clipped.
  std::vector<SpanRecord> s = {
      {"parent", 0, 100, 1, 0, 9},  {"a", 10, 30, 2, 1, 9},
      {"b", 20, 50, 3, 1, 9},       {"a.inner", 12, 18, 4, 2, 9},
      {"late", 90, 130, 5, 1, 9},   {"other", 0, 70, 6, 0, 8},
  };
  std::vector<int64_t> self = SelfTimesNs(s);
  EXPECT(self[0] == 100 - 40 - 10);  // [10,50) and clipped [90,100)
  EXPECT(self[1] == 20 - 6);
  EXPECT(self[2] == 30);
  EXPECT(self[3] == 6);
  EXPECT(self[4] == 40);
  EXPECT(self[5] == 70);

  // Live spans nest through the thread-local stack.
  Tracer::Clear();
  Tracer::Enable(true);
  {
    Span outer("outer", 3);
    { Span inner("inner", 3); }
  }
  Tracer::Enable(false);
  std::vector<SpanRecord> live = Tracer::Collect();
  EXPECT(live.size() == 2);
  if (live.size() == 2) {
    EXPECT(live[0].name == "outer" && live[1].name == "inner");
    EXPECT(live[1].parent == live[0].id);
    EXPECT(live[0].request == 3 && live[1].request == 3);
    std::vector<int64_t> ls = SelfTimesNs(live);
    EXPECT(ls[0] == live[0].duration_ns() - live[1].duration_ns());
  }
  Tracer::Clear();
}

void PoolsAgainstCache() {
  Inputs hot = MakeInputs("serve_hot", 3);
  EXPECT(hot.pool.size() == kHotPoolSize);
  EXPECT(hot.pool.size() < kServerCacheEntries);
  // Once warm, the Zipf stream never misses: every plan stays resident.
  const size_t n = 4 * kServerCacheEntries;
  EXPECT(SimulatedLruMisses(hot, n, kServerCacheEntries) <= kHotPoolSize);

  Inputs cold = MakeInputs("serve_cold", 3);
  EXPECT(cold.pool.size() >= 4 * kServerCacheEntries);
  // Cycling the cold pool misses on every request, every lap.
  EXPECT(SimulatedLruMisses(cold, 2 * cold.stream.size(),
                            kServerCacheEntries) == 2 * cold.stream.size());
}

}  // namespace

int main() {
  SameSeedSameInputs();
  TailPicker();
  SpanSelfTime();
  PoolsAgainstCache();
  if (g_failures == 0) std::printf("perfbench self-test: all checks passed\n");
  return g_failures == 0 ? 0 : 1;
}
