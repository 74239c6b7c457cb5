#ifndef ADAMINE_SERVE_SERVE_STATS_H_
#define ADAMINE_SERVE_SERVE_STATS_H_

#include <array>
#include <cstdint>
#include <string>

namespace adamine::serve {

/// Coarse service health, driven by the degradation controller (see
/// DESIGN.md, "Overload behavior"): kHealthy while serving at full
/// accuracy within the latency target, kDegraded while accuracy has been
/// dialled down to protect latency, kUnhealthy when the dial is at its
/// floor and the latency target is still being missed.
enum class HealthState {
  kHealthy,
  kDegraded,
  kUnhealthy,
};

const char* HealthStateName(HealthState state);

/// Per-stage latency accounting: count / total / max plus a fixed
/// power-of-two-microsecond histogram ([<1us, <2us, ..., <~2s, overflow])
/// cheap enough to update on every batch and rich enough for p50/p95
/// estimates in a stats snapshot.
struct StageStats {
  static constexpr int kBuckets = 22;

  int64_t count = 0;
  double total_ms = 0.0;
  double max_ms = 0.0;
  std::array<int64_t, kBuckets> buckets{};

  void Record(double ms);

  double mean_ms() const { return count == 0 ? 0.0 : total_ms / count; }

  /// Upper bound (in ms) of the histogram bucket containing the p-th
  /// nearest-rank observation, clamped to max_ms, p in [0, 100]: never
  /// below that observation and, above 1 us, at most twice it. 0 when
  /// nothing was recorded.
  double PercentileMs(double p) const;
};

/// Histogram of per-request corpus coverage for the sharded serving layer:
/// bucket i counts requests whose coverage fell in [i/10, (i+1)/10), with
/// full coverage (exactly 1.0) in the last bucket. Cheap enough to update
/// on every fan-in; rich enough to show whether degraded answers are rare
/// blips or the steady state.
struct CoverageHistogram {
  static constexpr int kBuckets = 11;

  int64_t count = 0;
  double total = 0.0;
  std::array<int64_t, kBuckets> buckets{};

  void Record(double coverage);

  double mean() const { return count == 0 ? 0.0 : total / count; }

  /// "cov mean 0.97 [0 0 ... 12]" — the one-line form used in snapshots.
  std::string ToString() const;
};

/// Mutable-backend pressure gauges (see DESIGN.md, "Resource pressure and
/// scrubbing"), surfaced through ServeStats so an operator sees
/// backpressure building (memtable growth, seal lag) before it turns into
/// sheds — and scrubber health (quarantines, last pass) before a restart
/// discovers rot the hard way. All zero on immutable backends.
struct MutationPressure {
  int64_t mem_rows = 0;
  int64_t mem_bytes = 0;
  int64_t seal_lag = 0;  // Un-sealed generations behind.
  int64_t backpressure_sheds = 0;    // Mutations refused kResourceExhausted.
  int64_t wal_transient_failures = 0;  // Rolled-back ENOSPC-class appends.
  int64_t scrubs = 0;
  int64_t quarantined_segments = 0;
  int64_t quarantined_rows = 0;
  int64_t last_scrub_unix_ms = 0;  // 0 = never scrubbed.
  bool read_only = false;          // The sticky latch: mutations refused.
};

/// One consistent snapshot of a RetrievalService's counters: stage
/// latencies for query embedding (recorded by the caller running the model
/// forward), similarity scoring, and top-k ranking, plus query/batch/cache
/// counters. For the IVF backend the score stage covers the whole batched
/// search (centroid scan, candidate scoring and per-query ranking are one
/// fused pass); the rank stage is populated by the exhaustive backend's
/// top-k selection.
struct ServeStats {
  int64_t queries = 0;       // Query rows served (cache hits included).
  int64_t batches = 0;       // Scoring micro-batches dispatched.
  int64_t cache_hits = 0;
  int64_t cache_misses = 0;
  int64_t cache_bytes = 0;      // Current resident cache footprint.
  int64_t cache_evictions = 0;  // Entries dropped by either capacity limit.

  // Overload counters (see AdmissionStats and the degradation controller).
  int64_t admitted = 0;         // Requests granted a scoring slot.
  int64_t shed = 0;             // Rejected fast with kUnavailable.
  int64_t queue_timeouts = 0;   // Deadline expired while queued.
  int64_t deadline_misses = 0;  // Deadline expired during scoring.
  int64_t inflight_peak = 0;
  int64_t queue_peak = 0;
  int64_t probe_dial_downs = 0;  // Degradation steps taken / undone.
  int64_t probe_dial_ups = 0;
  int64_t probes = 0;  // Current probe dial (0 on the exhaustive backend).
  HealthState health = HealthState::kHealthy;

  /// Mutable-backend ingest pressure; all zero on immutable backends.
  MutationPressure mutation;

  StageStats embed;
  StageStats score;
  StageStats rank;

  double cache_hit_rate() const {
    const int64_t looked_up = cache_hits + cache_misses;
    return looked_up == 0 ? 0.0
                          : static_cast<double>(cache_hits) / looked_up;
  }

  /// Multi-line human-readable snapshot for the CLI / bench output.
  std::string ToString() const;
};

}  // namespace adamine::serve

#endif  // ADAMINE_SERVE_SERVE_STATS_H_
