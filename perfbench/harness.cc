#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <thread>

#include "tensor/ops.h"
#include "util/check.h"

namespace perfbench {

namespace {

std::string ReadFile(const char* path) {
  std::ifstream in(path);
  if (!in) return {};
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

}  // namespace

double NearestRank(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  p = std::clamp(p, 0.0, 100.0);
  std::sort(samples.begin(), samples.end());
  const double n = static_cast<double>(samples.size());
  int64_t rank = static_cast<int64_t>(std::ceil(p / 100.0 * n));
  rank = std::clamp<int64_t>(rank, 1, static_cast<int64_t>(samples.size()));
  return samples[static_cast<size_t>(rank - 1)];
}

ZipfSampler::ZipfSampler(int64_t n, double s) {
  ADAMINE_CHECK_GT(n, 0);
  cdf_.resize(static_cast<size_t>(n));
  double total = 0.0;
  for (int64_t r = 0; r < n; ++r) {
    total += 1.0 / std::pow(static_cast<double>(r + 1), s);
    cdf_[static_cast<size_t>(r)] = total;
  }
  for (double& c : cdf_) c /= total;
  cdf_.back() = 1.0;
}

int64_t ZipfSampler::Sample(adamine::Rng& rng) const {
  const double u = rng.Uniform();
  const auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u);
  return std::min<int64_t>(it - cdf_.begin(), size() - 1);
}

double ZipfSampler::Probability(int64_t rank) const {
  const size_t r = static_cast<size_t>(rank);
  return r == 0 ? cdf_[0] : cdf_[r] - cdf_[r - 1];
}

ProcessUsage ReadProcessUsage() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto ms = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) * 1e3 +
           static_cast<double>(tv.tv_usec) * 1e-3;
  };
  ProcessUsage usage;
  usage.cpu_ms = ms(ru.ru_utime) + ms(ru.ru_stime);
  usage.ctx_switches = ru.ru_nvcsw + ru.ru_nivcsw;
  return usage;
}

int64_t ParseProcField(const std::string& text, const std::string& key) {
  size_t pos = 0;
  while (pos < text.size()) {
    const size_t eol = std::min(text.find('\n', pos), text.size());
    if (text.compare(pos, key.size(), key) == 0) {
      const char* begin = text.c_str() + pos + key.size();
      char* end = nullptr;
      const long long value = std::strtoll(begin, &end, 10);
      if (end != begin) return value;
    }
    pos = eol + 1;
  }
  return -1;
}

double PeakRssMiB() {
  const int64_t kib = ParseProcField(ReadFile("/proc/self/status"), "VmHWM:");
  return kib < 0 ? -1.0 : static_cast<double>(kib) / 1024.0;
}

int64_t ThreadCount() {
  return ParseProcField(ReadFile("/proc/self/status"), "Threads:");
}

int64_t IoWriteBytes() {
  return ParseProcField(ReadFile("/proc/self/io"), "write_bytes:");
}

void PhaseClock::Start() {
  wall_s_ = 0.0;
  cpu_ms_ = 0.0;
  ctx_switches_ = 0;
  Resume();
}

void PhaseClock::Pause() {
  if (!running_) return;
  const ProcessUsage now = ReadProcessUsage();
  wall_s_ += std::chrono::duration<double>(Clock::now() - segment_start_)
                 .count();
  cpu_ms_ += now.cpu_ms - usage_start_.cpu_ms;
  ctx_switches_ += now.ctx_switches - usage_start_.ctx_switches;
  running_ = false;
}

void PhaseClock::Resume() {
  if (running_) return;
  usage_start_ = ReadProcessUsage();
  segment_start_ = Clock::now();
  running_ = true;
}

void PhaseClock::Stop() { Pause(); }

double PhaseClock::Elapsed() const {
  if (!running_) return wall_s_;
  return wall_s_ +
         std::chrono::duration<double>(Clock::now() - segment_start_).count();
}

FixedRateSchedule::FixedRateSchedule(TimePoint start, double period_ms)
    : start_(start), period_ms_(period_ms) {}

TimePoint FixedRateSchedule::Due(int64_t i) const {
  return start_ + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double, std::milli>(
                          period_ms_ * static_cast<double>(i)));
}

void LatenessLog::Record(TimePoint due, TimePoint started) {
  lateness_ms_.push_back(std::max(0.0, MillisBetween(due, started)));
}

Oracle::Oracle(adamine::Tensor rows, std::vector<int64_t> ids)
    : ids_(std::move(ids)) {
  ADAMINE_CHECK(ids_.empty() ||
                static_cast<int64_t>(ids_.size()) == rows.rows());
  ADAMINE_CHECK(std::is_sorted(ids_.begin(), ids_.end()));
  adamine::serve::BackendConfig config;
  config.items = std::move(rows);
  auto backend = adamine::serve::CreateBackend("scalar", config);
  ADAMINE_CHECK_MSG(backend.ok(), backend.status().ToString());
  scalar_ = std::move(backend.value());
}

std::vector<std::vector<adamine::serve::ScoredHit>> Oracle::TopK(
    const adamine::Tensor& queries, int64_t k, int threads) const {
  const int64_t n = queries.rows();
  std::vector<std::vector<adamine::serve::ScoredHit>> out(
      static_cast<size_t>(n));
  const int64_t workers =
      std::clamp<int64_t>(threads, 1, std::max<int64_t>(n, 1));
  const int64_t per = (n + workers - 1) / workers;
  std::vector<std::thread> pool;
  for (int64_t w = 0; w < workers; ++w) {
    const int64_t lo = w * per;
    const int64_t hi = std::min(n, lo + per);
    if (lo >= hi) break;
    pool.emplace_back([&, lo, hi] {
      const adamine::Tensor slice = adamine::SliceRows(queries, lo, hi);
      auto result = scalar_->ScoreTopK({slice}, nullptr, k, {});
      ADAMINE_CHECK_MSG(result.ok(), result.status().ToString());
      for (int64_t i = lo; i < hi; ++i) {
        auto& hits = result->hits[static_cast<size_t>(i - lo)];
        if (!ids_.empty()) {
          for (auto& hit : hits) {
            hit.index = ids_[static_cast<size_t>(hit.index)];
          }
        }
        out[static_cast<size_t>(i)] = std::move(hits);
      }
    });
  }
  for (auto& t : pool) t.join();
  return out;
}

bool SameHits(const std::vector<adamine::serve::ScoredHit>& got,
              const std::vector<adamine::serve::ScoredHit>& want) {
  if (got.size() != want.size()) return false;
  for (size_t i = 0; i < got.size(); ++i) {
    if (got[i].index != want[i].index ||
        std::memcmp(&got[i].score, &want[i].score, sizeof(float)) != 0) {
      return false;
    }
  }
  return true;
}

bool SameIds(const std::vector<int64_t>& got,
             const std::vector<adamine::serve::ScoredHit>& want) {
  if (got.size() != want.size()) return false;
  for (size_t i = 0; i < got.size(); ++i) {
    if (got[i] != want[i].index) return false;
  }
  return true;
}

void Digest::Add(const void* data, size_t bytes) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < bytes; ++i) {
    h_ ^= p[i];
    h_ *= 1099511628211ull;
  }
}

void Digest::Add(const adamine::Tensor& t) {
  for (int64_t d : t.shape()) AddInt(d);
  if (t.defined()) {
    Add(t.data(), static_cast<size_t>(t.numel()) * sizeof(float));
  }
}

std::string Digest::Hex() const {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(h_));
  return buf;
}

int32_t SpanLog::Begin(const char* name, int64_t request, int32_t parent) {
  Span span;
  span.name = name;
  span.request = request;
  span.parent = parent;
  span.start_ns = Ns(Clock::now());
  spans_.push_back(span);
  return static_cast<int32_t>(spans_.size() - 1);
}

void SpanLog::End(int32_t span) {
  spans_[static_cast<size_t>(span)].end_ns = Ns(Clock::now());
}

int32_t SpanLog::Add(const char* name, int64_t request, int32_t parent,
                     TimePoint start, TimePoint end) {
  Span span;
  span.name = name;
  span.request = request;
  span.parent = parent;
  span.start_ns = Ns(start);
  span.end_ns = Ns(end);
  spans_.push_back(span);
  return static_cast<int32_t>(spans_.size() - 1);
}

double SpanLog::SelfMs(int32_t i) const {
  const Span& self = spans_[static_cast<size_t>(i)];
  std::vector<std::pair<int64_t, int64_t>> covered;
  // A thread logs one request at a time, so its children follow it.
  for (size_t c = static_cast<size_t>(i) + 1;
       c < spans_.size() && spans_[c].request == self.request; ++c) {
    const Span& child = spans_[c];
    if (child.parent != i) continue;
    const int64_t lo = std::max(child.start_ns, self.start_ns);
    const int64_t hi = std::min(child.end_ns, self.end_ns);
    if (lo < hi) covered.emplace_back(lo, hi);
  }
  std::sort(covered.begin(), covered.end());
  int64_t covered_ns = 0;
  int64_t reach = self.start_ns;
  for (const auto& [lo, hi] : covered) {
    const int64_t from = std::max(lo, reach);
    if (hi > from) {
      covered_ns += hi - from;
      reach = hi;
    }
  }
  return static_cast<double>(self.end_ns - self.start_ns - covered_ns) * 1e-6;
}

void SpanLog::WriteJsonLines(std::string* out) const {
  char buf[320];
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const bool replay =
        s.parent >= 0 &&
        s.start_ns >= spans_[static_cast<size_t>(s.parent)].end_ns;
    std::snprintf(buf, sizeof(buf),
                  "{\"thread\":%d,\"span\":%zu,\"parent\":%d,\"request\":%lld,"
                  "\"name\":\"%s\",\"start_us\":%.3f,\"end_us\":%.3f,"
                  "\"self_us\":%.3f,\"replay\":%s}\n",
                  thread_, i, s.parent, static_cast<long long>(s.request),
                  s.name, static_cast<double>(s.start_ns) * 1e-3,
                  static_cast<double>(s.end_ns) * 1e-3,
                  SelfMs(static_cast<int32_t>(i)) * 1e3,
                  replay ? "true" : "false");
    out->append(buf);
  }
}

}  // namespace perfbench
