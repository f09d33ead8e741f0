#ifndef HETDB_PERFBENCH_SPANS_H_
#define HETDB_PERFBENCH_SPANS_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace hetdb::perfbench {

/// One timed call into a layer, recorded by the benchmark around the call.
struct Span {
  int64_t id = 0;
  int64_t parent = 0;  ///< span open on this thread at the start; 0 = root
  uint64_t query = 0;   ///< shared by every span of one query; 0 = setup
  const char* name = "";  ///< "<layer>.<step>", a string literal
  int64_t start_ns = 0;   ///< since the recorder was created
  int64_t end_ns = 0;
  int thread = 0;
};

/// Per-name totals over all recorded spans. Self time is a span's duration
/// minus the time its child spans cover; children run on the parent's thread,
/// strictly inside it, so that is the sum of the children's durations.
struct SpanTotals {
  int64_t count = 0;
  int64_t total_ns = 0;
  int64_t self_ns = 0;
  /// Per-span self times, for medians of spans that run a few times.
  std::vector<int64_t> self_samples_ns;
};

/// In-memory span log. Disabled, opening a span costs one branch: no clock
/// read, no lock. Spans are kept until the run ends and written out then.
class SpanRecorder {
 public:
  using Clock = std::chrono::steady_clock;

  explicit SpanRecorder(bool enabled)
      : enabled_(enabled), origin_(Clock::now()) {}
  SpanRecorder(const SpanRecorder&) = delete;
  SpanRecorder& operator=(const SpanRecorder&) = delete;

  /// RAII span: open at construction, recorded at destruction.
  class Scope {
   public:
    Scope(SpanRecorder& recorder, const char* name, uint64_t query)
        : recorder_(recorder.enabled_ ? &recorder : nullptr) {
      if (recorder_ == nullptr) return;
      std::vector<int64_t>& open = OpenStack();
      span_.parent = open.empty() ? 0 : open.back();
      span_.id = recorder_->next_id_.fetch_add(1) + 1;
      open.push_back(span_.id);
      span_.query = query;
      span_.name = name;
      span_.thread = ThreadIndex();
      span_.start_ns = recorder_->Now();
    }
    ~Scope() {
      if (recorder_ == nullptr) return;
      span_.end_ns = recorder_->Now();
      OpenStack().pop_back();
      std::lock_guard<std::mutex> lock(recorder_->mutex_);
      recorder_->spans_.push_back(span_);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanRecorder* recorder_;
    Span span_;
  };

  /// Totals by span name, with self time, over the spans `keep` accepts.
  std::map<std::string, SpanTotals> Totals(
      const std::function<bool(const Span&)>& keep) const {
    std::lock_guard<std::mutex> lock(mutex_);
    const std::map<int64_t, int64_t> child_ns = ChildNsLocked();
    std::map<std::string, SpanTotals> totals;
    for (const Span& span : spans_) {
      if (!keep(span)) continue;
      const int64_t self = SelfNs(span, child_ns);
      SpanTotals& entry = totals[span.name];
      ++entry.count;
      entry.total_ns += span.end_ns - span.start_ns;
      entry.self_ns += self;
      entry.self_samples_ns.push_back(self);
    }
    return totals;
  }

  /// Writes every span as Chrome trace-event JSON (loadable in Perfetto);
  /// each event carries its query id, parent span and self time.
  bool WriteChromeTrace(const std::string& path) const {
    std::FILE* out = std::fopen(path.c_str(), "w");
    if (out == nullptr) return false;
    std::lock_guard<std::mutex> lock(mutex_);
    const std::map<int64_t, int64_t> child_ns = ChildNsLocked();
    std::fprintf(out, "{\"traceEvents\":[");
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& span = spans_[i];
      const int64_t duration = span.end_ns - span.start_ns;
      const int64_t self = SelfNs(span, child_ns);
      std::fprintf(out,
                   "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,"
                   "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%lld,"
                   "\"parent\":%lld,\"query\":%llu,\"self_us\":%.3f}}",
                   i == 0 ? "" : ",", span.name, span.thread,
                   static_cast<double>(span.start_ns) / 1e3,
                   static_cast<double>(duration) / 1e3,
                   static_cast<long long>(span.id),
                   static_cast<long long>(span.parent),
                   static_cast<unsigned long long>(span.query),
                   static_cast<double>(self) / 1e3);
    }
    std::fprintf(out, "\n]}\n");
    return std::fclose(out) == 0;
  }

 private:
  /// Parent span id -> nanoseconds its children cover.
  std::map<int64_t, int64_t> ChildNsLocked() const {
    std::map<int64_t, int64_t> child_ns;
    for (const Span& span : spans_) {
      if (span.parent == 0) continue;
      child_ns[span.parent] += span.end_ns - span.start_ns;
    }
    return child_ns;
  }
  static int64_t SelfNs(const Span& span,
                        const std::map<int64_t, int64_t>& child_ns) {
    const auto covered = child_ns.find(span.id);
    return span.end_ns - span.start_ns -
           (covered == child_ns.end() ? 0 : covered->second);
  }

  int64_t Now() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                origin_)
        .count();
  }
  static std::vector<int64_t>& OpenStack() {
    thread_local std::vector<int64_t> open;
    return open;
  }
  static int ThreadIndex() {
    static std::atomic<int> next{0};
    thread_local const int index = next.fetch_add(1);
    return index;
  }

  const bool enabled_;
  const Clock::time_point origin_;
  std::atomic<int64_t> next_id_{0};
  mutable std::mutex mutex_;
  std::vector<Span> spans_;  // guarded by mutex_
};

}  // namespace hetdb::perfbench

#endif  // HETDB_PERFBENCH_SPANS_H_
