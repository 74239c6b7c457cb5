#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

// Measurement pieces of the serving benchmark that do not depend on a
// workload: statistics, the Zipf query sampler, process-resource readers,
// the phase clock, the fixed-rate writer schedule, the scalar-oracle check,
// the input digest and the in-memory span log. Each is covered by
// harness_test.cc.

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "serve/backend.h"
#include "tensor/tensor.h"
#include "util/rng.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;
using TimePoint = Clock::time_point;

inline double MillisBetween(TimePoint a, TimePoint b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

// ---------------------------------------------------------------- statistics

/// Nearest-rank percentile: the smallest sample such that at least p percent
/// of the samples are <= it, i.e. sorted[ceil(p/100 * n) - 1]. Always an
/// observed value. 0 for an empty sample; p is clamped to [0, 100].
double NearestRank(std::vector<double> samples, double p);

inline double Median(std::vector<double> samples) {
  return NearestRank(std::move(samples), 50.0);
}

/// Samples ranks in [0, n) with P(rank r) proportional to 1 / (r + 1)^s,
/// by binary search over the cumulative distribution.
class ZipfSampler {
 public:
  ZipfSampler(int64_t n, double s);

  int64_t Sample(adamine::Rng& rng) const;
  double Probability(int64_t rank) const;
  int64_t size() const { return static_cast<int64_t>(cdf_.size()); }

 private:
  std::vector<double> cdf_;  // cdf_[r] = P(rank <= r); cdf_.back() == 1.
};

// ------------------------------------------------------- process resources

/// CPU time (user + sys) of every thread the process has run, including
/// threads that already exited, and its context switches (voluntary +
/// involuntary), from getrusage(RUSAGE_SELF).
struct ProcessUsage {
  double cpu_ms = 0.0;
  int64_t ctx_switches = 0;
};
ProcessUsage ReadProcessUsage();

/// Integer value of a "Key:   123 kB"-style line of a /proc text file, or -1
/// when the key is absent.
int64_t ParseProcField(const std::string& text, const std::string& key);

/// Peak resident set (VmHWM) in MiB, or -1 when /proc is unavailable.
double PeakRssMiB();

/// Current thread count of the process, or -1 when /proc is unavailable.
int64_t ThreadCount();

/// Bytes this process caused to be sent to storage (/proc/self/io
/// write_bytes), or -1 when the kernel does not expose it.
int64_t IoWriteBytes();

/// Wall time and process CPU of a timed phase. Pause / Resume bracket
/// off-clock work done by the timing thread (input generation, trace
/// replays): its wall time, CPU and context switches are excluded. CPU of
/// other threads running during a pause is excluded too.
class PhaseClock {
 public:
  void Start();
  void Pause();
  void Resume();
  void Stop();

  double wall_s() const { return wall_s_; }
  double cpu_ms() const { return cpu_ms_; }
  int64_t ctx_switches() const { return ctx_switches_; }
  /// Seconds on the clock so far.
  double Elapsed() const;

 private:
  TimePoint segment_start_{};
  ProcessUsage usage_start_{};
  double wall_s_ = 0.0;
  double cpu_ms_ = 0.0;
  int64_t ctx_switches_ = 0;
  bool running_ = false;
};

// ------------------------------------------------------ fixed-rate writer

/// An open-loop schedule: operation i is due at start + i * period. The
/// writer never skips an operation, so after a stall every following
/// operation is late until the backlog drains.
class FixedRateSchedule {
 public:
  FixedRateSchedule(TimePoint start, double period_ms);
  TimePoint Due(int64_t i) const;

 private:
  TimePoint start_;
  double period_ms_;
};

/// How late each scheduled operation started: max(0, started - due).
class LatenessLog {
 public:
  void Record(TimePoint due, TimePoint started);
  const std::vector<double>& lateness_ms() const { return lateness_ms_; }
  double Percentile(double p) const { return NearestRank(lateness_ms_, p); }
  double Max() const { return NearestRank(lateness_ms_, 100.0); }

 private:
  std::vector<double> lateness_ms_;
};

// ------------------------------------------------------------------ oracle

/// Exact answers from the registry's "scalar" backend over `rows`, and the
/// bitwise comparison every workload's answers must pass. `ids[r]` is the
/// id the system under test uses for row r (empty = the row index); rows
/// must be in ascending id order so the scalar tie-break (score desc, row
/// asc) equals the system's (score desc, id asc).
class Oracle {
 public:
  Oracle(adamine::Tensor rows, std::vector<int64_t> ids = {});

  /// Top-k hits of every row of `queries`, ids mapped, computed on up to
  /// `threads` threads.
  std::vector<std::vector<adamine::serve::ScoredHit>> TopK(
      const adamine::Tensor& queries, int64_t k, int threads) const;

 private:
  std::unique_ptr<adamine::serve::ScoringBackend> scalar_;
  std::vector<int64_t> ids_;
};

/// True when both lists hold the same ids with bit-identical scores, in the
/// same order.
bool SameHits(const std::vector<adamine::serve::ScoredHit>& got,
              const std::vector<adamine::serve::ScoredHit>& want);

/// True when `got` lists exactly the ids of `want`, in order.
bool SameIds(const std::vector<int64_t>& got,
             const std::vector<adamine::serve::ScoredHit>& want);

// ------------------------------------------------------------------ digest

/// 64-bit FNV-1a over bytes, for the printed input and answer digests.
class Digest {
 public:
  void Add(const void* data, size_t bytes);
  void Add(const adamine::Tensor& t);
  void Add(const std::string& s) { Add(s.data(), s.size()); }
  void AddInt(int64_t v) { Add(&v, sizeof(v)); }
  uint64_t value() const { return h_; }
  std::string Hex() const;

 private:
  uint64_t h_ = 1469598103934665603ull;
};

// ----------------------------------------------------------------- tracing

/// One timed call into a layer. `parent` indexes the same SpanLog (-1 for a
/// request's root span); every span of one request carries its id.
struct Span {
  const char* name = "";
  int64_t request = 0;
  int32_t parent = -1;
  int64_t start_ns = 0;  // Since the log's origin.
  int64_t end_ns = 0;

  double ms() const { return static_cast<double>(end_ns - start_ns) * 1e-6; }
};

/// Spans of one thread, kept in memory and written out when the run ends.
class SpanLog {
 public:
  SpanLog(TimePoint origin, int thread) : origin_(origin), thread_(thread) {}

  int32_t Begin(const char* name, int64_t request, int32_t parent);
  void End(int32_t span);
  /// Records an already-finished interval.
  int32_t Add(const char* name, int64_t request, int32_t parent,
              TimePoint start, TimePoint end);

  const std::vector<Span>& spans() const { return spans_; }
  int thread() const { return thread_; }
  TimePoint origin() const { return origin_; }

  /// Self time of span i: its duration minus the part of it covered by the
  /// union of its direct children. A log records one request at a time, so
  /// children are looked up among the spans that follow i with its request
  /// id; replayed children, which start after i ended, cover none of it.
  double SelfMs(int32_t i) const;

  /// Appends one JSON object per span to `out`; "replay" marks a span that
  /// started after its parent ended.
  void WriteJsonLines(std::string* out) const;

 private:
  int64_t Ns(TimePoint t) const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin_)
        .count();
  }

  TimePoint origin_;
  int thread_;
  std::vector<Span> spans_;
};

/// RAII span on an optional log: a null log records nothing.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name, int64_t request, int32_t parent)
      : log_(log), id_(log ? log->Begin(name, request, parent) : -1) {}
  ~ScopedSpan() {
    if (log_ != nullptr) log_->End(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int32_t id() const { return id_; }

 private:
  SpanLog* log_;
  int32_t id_;
};

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
