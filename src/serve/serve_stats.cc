#include "serve/serve_stats.h"

#include <algorithm>
#include <cstdio>

namespace adamine::serve {

const char* HealthStateName(HealthState state) {
  switch (state) {
    case HealthState::kHealthy:
      return "healthy";
    case HealthState::kDegraded:
      return "degraded";
    case HealthState::kUnhealthy:
      return "unhealthy";
  }
  return "unknown";
}

namespace {

/// Bucket b holds observations in [2^(b-1), 2^b) microseconds (bucket 0:
/// anything below 1us; the last bucket also absorbs overflow).
int BucketOf(double ms) {
  const double us = ms * 1000.0;
  int b = 0;
  double bound = 1.0;
  while (b < StageStats::kBuckets - 1 && us >= bound) {
    bound *= 2.0;
    ++b;
  }
  return b;
}

double BucketUpperMs(int b) {
  double bound = 1.0;  // Upper bound of bucket 0, in microseconds.
  for (int i = 0; i < b; ++i) bound *= 2.0;
  return bound / 1000.0;
}

}  // namespace

void StageStats::Record(double ms) {
  ++count;
  total_ms += ms;
  max_ms = std::max(max_ms, ms);
  ++buckets[static_cast<size_t>(BucketOf(ms))];
}

double StageStats::PercentileMs(double p) const {
  if (count == 0) return 0.0;
  p = std::min(100.0, std::max(0.0, p));
  // Smallest bucket whose cumulative count covers the percentile.
  const double target = p / 100.0 * static_cast<double>(count);
  int64_t cumulative = 0;
  // The bucket's upper bound can lie above every observation (a stage whose
  // samples all sit in [4.1, 5.2] ms would report 8.192 ms), and the last
  // bucket absorbs overflow, so the answer is clamped to the observed max.
  for (int b = 0; b < kBuckets - 1; ++b) {
    cumulative += buckets[static_cast<size_t>(b)];
    if (static_cast<double>(cumulative) >= target && cumulative > 0) {
      return std::min(BucketUpperMs(b), max_ms);
    }
  }
  return max_ms;
}

void CoverageHistogram::Record(double coverage) {
  if (coverage < 0.0) coverage = 0.0;
  if (coverage > 1.0) coverage = 1.0;
  ++count;
  total += coverage;
  const int b = std::min(kBuckets - 1, static_cast<int>(coverage * 10.0));
  ++buckets[static_cast<size_t>(b)];
}

std::string CoverageHistogram::ToString() const {
  char head[64];
  std::snprintf(head, sizeof(head), "cov mean %.3f [", mean());
  std::string out = head;
  for (int b = 0; b < kBuckets; ++b) {
    if (b > 0) out += " ";
    out += std::to_string(buckets[static_cast<size_t>(b)]);
  }
  out += "]";
  return out;
}

std::string ServeStats::ToString() const {
  char line[256];
  std::string out;
  std::snprintf(line, sizeof(line),
                "queries %lld  batches %lld  cache hit-rate %.1f%% "
                "(%lld hits / %lld misses)\n",
                static_cast<long long>(queries),
                static_cast<long long>(batches), 100.0 * cache_hit_rate(),
                static_cast<long long>(cache_hits),
                static_cast<long long>(cache_misses));
  out += line;
  std::snprintf(line, sizeof(line),
                "health %s  probes %lld  shed %lld  queue-timeouts %lld  "
                "deadline-misses %lld  dial %lld down / %lld up\n",
                HealthStateName(health), static_cast<long long>(probes),
                static_cast<long long>(shed),
                static_cast<long long>(queue_timeouts),
                static_cast<long long>(deadline_misses),
                static_cast<long long>(probe_dial_downs),
                static_cast<long long>(probe_dial_ups));
  out += line;
  // Immutable backends keep the classic three-line header; the mutation
  // line only appears once there is a mutable backend behind the service
  // (any gauge nonzero, or the read-only latch set).
  const bool mutating =
      mutation.mem_rows != 0 || mutation.mem_bytes != 0 ||
      mutation.seal_lag != 0 || mutation.backpressure_sheds != 0 ||
      mutation.wal_transient_failures != 0 || mutation.scrubs != 0 ||
      mutation.quarantined_segments != 0 || mutation.quarantined_rows != 0 ||
      mutation.last_scrub_unix_ms != 0 || mutation.read_only;
  if (mutating) {
    std::snprintf(line, sizeof(line),
                  "mutate mem %lld rows / %lld B  seal-lag %lld  "
                  "sheds %lld  wal-transients %lld%s\n",
                  static_cast<long long>(mutation.mem_rows),
                  static_cast<long long>(mutation.mem_bytes),
                  static_cast<long long>(mutation.seal_lag),
                  static_cast<long long>(mutation.backpressure_sheds),
                  static_cast<long long>(mutation.wal_transient_failures),
                  mutation.read_only ? "  READ-ONLY" : "");
    out += line;
    std::snprintf(line, sizeof(line),
                  "scrub  passes %lld  quarantined %lld segs / %lld rows  "
                  "last %lld\n",
                  static_cast<long long>(mutation.scrubs),
                  static_cast<long long>(mutation.quarantined_segments),
                  static_cast<long long>(mutation.quarantined_rows),
                  static_cast<long long>(mutation.last_scrub_unix_ms));
    out += line;
  }
  const auto stage = [&](const char* name, const StageStats& s) {
    std::snprintf(line, sizeof(line),
                  "%-6s count %-7lld mean %8.3f ms  p50 %8.3f ms  "
                  "p95 %8.3f ms  max %8.3f ms\n",
                  name, static_cast<long long>(s.count), s.mean_ms(),
                  s.PercentileMs(50), s.PercentileMs(95), s.max_ms);
    out += line;
  };
  stage("embed", embed);
  stage("score", score);
  stage("rank", rank);
  return out;
}

}  // namespace adamine::serve
