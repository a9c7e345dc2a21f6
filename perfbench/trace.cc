#include "trace.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <unordered_map>

#include "stats.h"

namespace perfbench {
namespace {

std::atomic<bool> g_enabled{false};
std::atomic<uint64_t> g_next_id{1};

struct ThreadBuffer {
  std::mutex mu;  // guards spans against a concurrent Collect()
  std::vector<SpanRecord> spans;
};

std::mutex g_buffers_mu;
std::vector<std::shared_ptr<ThreadBuffer>>& Buffers() {
  static std::vector<std::shared_ptr<ThreadBuffer>> buffers;
  return buffers;
}

ThreadBuffer& LocalBuffer() {
  thread_local std::shared_ptr<ThreadBuffer> buffer = [] {
    auto b = std::make_shared<ThreadBuffer>();
    std::lock_guard<std::mutex> lock(g_buffers_mu);
    Buffers().push_back(b);
    return b;
  }();
  return *buffer;
}

// Ids of the spans currently open on this thread, innermost last.
thread_local std::vector<uint64_t> t_open;

void Push(SpanRecord rec) {
  ThreadBuffer& buf = LocalBuffer();
  std::lock_guard<std::mutex> lock(buf.mu);
  buf.spans.push_back(std::move(rec));
}

}  // namespace

int64_t Tracer::NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void Tracer::Record(const char* name, int64_t start_ns, int64_t end_ns,
                    uint64_t request) {
  if (!enabled()) return;
  SpanRecord rec;
  rec.name = name;
  rec.start_ns = start_ns;
  rec.end_ns = end_ns;
  rec.id = g_next_id.fetch_add(1, std::memory_order_relaxed);
  rec.parent = t_open.empty() ? 0 : t_open.back();
  rec.request = request;
  Push(std::move(rec));
}

void Tracer::Enable(bool on) { g_enabled.store(on, std::memory_order_relaxed); }

bool Tracer::enabled() { return g_enabled.load(std::memory_order_relaxed); }

std::vector<SpanRecord> Tracer::Collect() {
  std::vector<SpanRecord> all;
  std::lock_guard<std::mutex> lock(g_buffers_mu);
  for (const auto& b : Buffers()) {
    std::lock_guard<std::mutex> block(b->mu);
    all.insert(all.end(), b->spans.begin(), b->spans.end());
  }
  std::sort(all.begin(), all.end(),
            [](const SpanRecord& a, const SpanRecord& b) {
              return a.start_ns != b.start_ns ? a.start_ns < b.start_ns
                                              : a.id < b.id;
            });
  return all;
}

void Tracer::Clear() {
  std::lock_guard<std::mutex> lock(g_buffers_mu);
  for (const auto& b : Buffers()) {
    std::lock_guard<std::mutex> block(b->mu);
    b->spans.clear();
  }
}

Span::Span(const char* name, uint64_t request)
    : name_(name), request_(request) {
  if (!Tracer::enabled()) return;
  id_ = g_next_id.fetch_add(1, std::memory_order_relaxed);
  parent_ = t_open.empty() ? 0 : t_open.back();
  t_open.push_back(id_);
  start_ns_ = Tracer::NowNs();
}

Span::~Span() {
  if (id_ == 0) return;
  SpanRecord rec;
  rec.end_ns = Tracer::NowNs();
  rec.name = name_;
  rec.start_ns = start_ns_;
  rec.id = id_;
  rec.parent = parent_;
  rec.request = request_;
  t_open.pop_back();
  Push(std::move(rec));
}

std::vector<int64_t> SelfTimesNs(const std::vector<SpanRecord>& spans) {
  std::unordered_map<uint64_t, size_t> index;
  for (size_t i = 0; i < spans.size(); ++i) index[spans[i].id] = i;
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(spans.size());
  for (const auto& s : spans) {
    auto it = index.find(s.parent);
    if (s.parent == 0 || it == index.end()) continue;
    const SpanRecord& p = spans[it->second];
    int64_t lo = std::max(s.start_ns, p.start_ns);
    int64_t hi = std::min(s.end_ns, p.end_ns);
    if (hi > lo) children[it->second].push_back({lo, hi});
  }
  std::vector<int64_t> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    auto& iv = children[i];
    std::sort(iv.begin(), iv.end());
    int64_t covered = 0;
    int64_t cur_lo = 0, cur_hi = 0;
    bool open = false;
    for (const auto& [lo, hi] : iv) {
      if (open && lo <= cur_hi) {
        cur_hi = std::max(cur_hi, hi);
        continue;
      }
      if (open) covered += cur_hi - cur_lo;
      cur_lo = lo;
      cur_hi = hi;
      open = true;
    }
    if (open) covered += cur_hi - cur_lo;
    self[i] = spans[i].duration_ns() - covered;
  }
  return self;
}

std::vector<LedgerRow> Ledger(const std::vector<SpanRecord>& spans) {
  std::vector<int64_t> self = SelfTimesNs(spans);
  std::map<std::string, std::vector<size_t>> by_name;
  for (size_t i = 0; i < spans.size(); ++i) by_name[spans[i].name].push_back(i);
  std::vector<LedgerRow> rows;
  for (const auto& [name, idx] : by_name) {
    LedgerRow row;
    row.name = name;
    row.count = idx.size();
    std::vector<double> durs;
    durs.reserve(idx.size());
    for (size_t i : idx) {
      row.total_ms += spans[i].duration_ns() / 1e6;
      row.self_ms += self[i] / 1e6;
      durs.push_back(spans[i].duration_ns() / 1e3);
    }
    row.median_us = Median(durs);
    rows.push_back(row);
  }
  std::sort(rows.begin(), rows.end(),
            [](const LedgerRow& a, const LedgerRow& b) {
              return a.self_ms > b.self_ms;
            });
  return rows;
}

bool WriteSpansJson(const std::vector<SpanRecord>& spans,
                    const std::string& path) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "[\n");
  for (size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& s = spans[i];
    std::fprintf(f,
                 "{\"name\":\"%s\",\"start_ns\":%lld,\"end_ns\":%lld,"
                 "\"id\":%llu,\"parent\":%llu,\"request\":%llu}%s\n",
                 s.name.c_str(), static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns),
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.request),
                 i + 1 < spans.size() ? "," : "");
  }
  std::fprintf(f, "]\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench
