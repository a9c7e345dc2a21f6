#ifndef MTMLF_PERFBENCH_TRACE_H_
#define MTMLF_PERFBENCH_TRACE_H_

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// One finished span: a timed call into a layer, recorded by the benchmark
/// around the library's public functions. Times are steady-clock
/// nanoseconds; `parent` is the id of the span that was open on the same
/// thread when this one began (0 = none); spans of one request share
/// `request`.
struct SpanRecord {
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  uint64_t id = 0;
  uint64_t parent = 0;
  uint64_t request = 0;

  int64_t duration_ns() const { return end_ns - start_ns; }
};

/// Process-wide span recorder. Off by default: a Span then costs one
/// relaxed load. When on, spans go to per-thread in-memory buffers and are
/// gathered by Collect() when the run ends.
class Tracer {
 public:
  static void Enable(bool on);
  static bool enabled();
  /// Every span finished so far, from all threads, ordered by start.
  static std::vector<SpanRecord> Collect();
  static void Clear();
  /// Records a span whose start and end were observed on different
  /// threads (e.g. an open-loop request sent by the generator and resolved
  /// on the collector). Its parent is the span open on the calling thread.
  static void Record(const char* name, int64_t start_ns, int64_t end_ns,
                     uint64_t request = 0);
  static int64_t NowNs();
};

/// RAII span. Nested Spans on one thread form a parent/child tree.
class Span {
 public:
  explicit Span(const char* name, uint64_t request = 0);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  const char* name_;
  uint64_t request_;
  uint64_t id_ = 0;
  uint64_t parent_ = 0;
  int64_t start_ns_ = 0;
};

/// Self time of every span: its duration minus the part of its interval
/// covered by its children (overlapping children are merged, and children
/// are clipped to the parent's interval). Indexed like `spans`.
std::vector<int64_t> SelfTimesNs(const std::vector<SpanRecord>& spans);

/// Per-name totals over a span list: the layer ledger.
struct LedgerRow {
  std::string name;
  uint64_t count = 0;
  double total_ms = 0.0;
  double self_ms = 0.0;
  double median_us = 0.0;
};
std::vector<LedgerRow> Ledger(const std::vector<SpanRecord>& spans);

/// Writes the spans as a JSON array of objects. Returns false on I/O error.
bool WriteSpansJson(const std::vector<SpanRecord>& spans,
                    const std::string& path);

}  // namespace perfbench

#endif  // MTMLF_PERFBENCH_TRACE_H_
