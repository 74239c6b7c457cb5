#ifndef ADAMINE_SERVE_SHARD_CLIENT_H_
#define ADAMINE_SERVE_SHARD_CLIENT_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "serve/circuit_breaker.h"
#include "serve/retrieval_service.h"
#include "serve/shard_transport.h"
#include "tensor/tensor.h"
#include "util/status.h"

namespace adamine::serve {

/// Retry knobs for transient shard failures. Backoff grows exponentially
/// from backoff_base_ms, capped at backoff_max_ms, with *deterministic*
/// jitter: the jitter fraction is a hash of (jitter_seed, salt, retry), so
/// replays of the same workload back off identically while distinct shards
/// still desynchronise (no thundering retry herd).
struct RetryPolicy {
  /// Additional attempt rounds after the first (0 = never retry).
  int64_t retry_max = 2;
  double backoff_base_ms = 1.0;
  double backoff_max_ms = 50.0;
  uint64_t jitter_seed = 0;

  Status Validate() const;

  /// Backoff before 0-based retry round `retry`, in [backoff/2, backoff)
  /// where backoff = min(base * 2^retry, max). `salt` (the shard index)
  /// decorrelates shards.
  double BackoffMs(int64_t retry, uint64_t salt) const;
};

struct ShardClientConfig {
  /// Per-attempt wait bound in ms; a replica that has not answered by then
  /// is treated as a transient failure (breaker feedback included) and the
  /// round moves on. 0 waits until the request deadline.
  double shard_timeout_ms = 0.0;
  /// Hedging: if the primary attempt has not answered after hedge_ms, fire
  /// one duplicate attempt at the next allowed replica and take whichever
  /// answers first. 0 disables hedging.
  double hedge_ms = 0.0;
  RetryPolicy retry;
  CircuitBreakerConfig breaker;

  Status Validate() const;
};

/// Everything one shard's client decided since construction / ResetStats.
struct ShardClientStats {
  int64_t queries = 0;       // Fan-out calls received.
  int64_t retries = 0;       // Retry rounds entered (after backoff).
  int64_t hedges_fired = 0;  // Duplicate attempts launched.
  int64_t hedges_won = 0;    // Queries answered by the hedge, not the primary.
  int64_t timeouts = 0;      // Rounds that hit shard_timeout_ms.
  int64_t exhausted = 0;     // Queries that failed all replicas/rounds.
  std::vector<CircuitBreakerStats> replicas;  // Breaker per replica.
};

/// Fault-tolerant client for one shard: owns R replica ShardTransports
/// (all serving the same row range — in-process services, remote RPC
/// channels, or a mix) plus one circuit breaker per replica, and turns a
/// fan-out call into at most 1 + retry_max attempt rounds of
/// timeout-bounded, breaker-gated, optionally hedged replica queries (see
/// DESIGN.md, "Sharded serving and failover"). The failover machinery sees
/// only the transport interface, so a replica behind a TCP hop gets
/// exactly the same retry/hedge/breaker treatment as a local one.
///
/// Each attempt runs on its own thread so a wedged replica can never block
/// the caller past its timeout; abandoned attempts discard their results
/// but still deliver their outcome to their replica's circuit breaker
/// (releasing any half-open probe slot they held), and are joined
/// opportunistically, or at destruction at the latest — never detached, so
/// sanitizer runs see every thread retired.
///
/// Thread safety: Query / Snapshot / ResetStats may be called concurrently.
class ShardClient {
 public:
  using TimePoint = std::chrono::steady_clock::time_point;

  /// `global_offset` maps this shard's local row ids back to corpus row
  /// ids (the shard serves corpus rows [global_offset, global_offset +
  /// size())). Replica configs, validation and construction are the
  /// owner's job (ShardedRetrievalService).
  ShardClient(int64_t shard_index, int64_t global_offset,
              std::vector<std::shared_ptr<ShardTransport>> replicas,
              const ShardClientConfig& config);

  /// Joins every attempt thread still in flight (bounded by the slowest
  /// armed stall / replica scoring, not by the caller's deadline).
  ~ShardClient();

  ShardClient(const ShardClient&) = delete;
  ShardClient& operator=(const ShardClient&) = delete;

  /// Runs `queries` [B, D] against the shard, returning per-row top-k hits
  /// with *global* row ids, most similar first. Transient replica failures
  /// (kUnavailable, kDeadlineExceeded — see Status::IsTransient) rotate to
  /// the next breaker-approved replica with backoff between rounds;
  /// anything else fails the call immediately (a corrupt query is corrupt
  /// on every replica). Returns the last transient error when all rounds
  /// fail — the shard is then "exhausted" and the fan-in layer decides
  /// whether partial coverage is acceptable.
  StatusOr<std::vector<std::vector<ScoredHit>>> Query(const Tensor& queries,
                                                      int64_t k,
                                                      TimePoint deadline);

  int64_t shard_index() const { return shard_index_; }
  int64_t global_offset() const { return global_offset_; }
  int64_t size() const { return size_; }
  int64_t num_replicas() const {
    return static_cast<int64_t>(replicas_.size());
  }

  ShardClientStats Snapshot() const;
  void ResetStats();

 private:
  /// One replica attempt, shared between its worker thread and the
  /// coordinating Query call. `completed`, `status`, `results`,
  /// `resolved` and `abandoned` are guarded by the owning QueryState's
  /// mutex. Every attempt resolves its replica's breaker exactly once:
  /// `resolved` marks that the verdict has been delivered — by the
  /// coordinator charging a timed-out round as a failure, by the
  /// coordinator consuming the outcome, or by the worker thread itself
  /// when the coordinator returned first and set `abandoned` (a hedge
  /// loser, or any attempt in flight at an early return). Without the
  /// abandonment path, an attempt holding a breaker's half-open probe
  /// slot would leave the slot occupied forever. `probe` records whether
  /// this attempt's Allow() consumed that slot.
  struct Attempt {
    int64_t replica = 0;
    bool hedge = false;
    bool probe = false;
    bool completed = false;
    bool resolved = false;
    bool abandoned = false;
    Status status;
    std::vector<std::vector<ScoredHit>> results;
  };

  /// Per-Query rendezvous: attempt threads push themselves onto `done` and
  /// signal; the coordinator consumes under the same mutex. Heap-allocated
  /// and shared so attempts abandoned by a timed-out round can still land
  /// safely after Query returned.
  struct QueryState {
    std::mutex mu;
    std::condition_variable cv;
    std::vector<std::shared_ptr<Attempt>> done;
  };

  /// The retry/hedge round loop behind Query. Factored out so Query can
  /// resolve outstanding attempts on *every* return path.
  StatusOr<std::vector<std::vector<ScoredHit>>> QueryRounds(
      const Tensor& queries, int64_t k, TimePoint deadline,
      const std::shared_ptr<QueryState>& state,
      std::vector<std::shared_ptr<Attempt>>* inflight);

  /// Launches one attempt thread against `replica` and registers it with
  /// the reaper. `attempt_deadline` bounds the replica's own scoring;
  /// `probe` says whether this attempt holds its breaker's half-open
  /// probe slot.
  std::shared_ptr<Attempt> Launch(const std::shared_ptr<QueryState>& state,
                                  int64_t replica, bool hedge, bool probe,
                                  const Tensor& queries, int64_t k,
                                  TimePoint attempt_deadline);

  /// Next replica in rotation whose breaker admits traffic at `now`, or -1
  /// when every replica is open (and no half-open probe slot is free).
  /// `probe` reports whether the admission consumed a half-open probe slot.
  int64_t NextAllowedReplica(int64_t* cursor, TimePoint now, bool* probe);

  /// Called once per Query, after the round loop returned: every attempt
  /// the query still owns gets its breaker verdict delivered. Attempts
  /// that completed but were never consumed report their real outcome
  /// here; attempts still running are marked `abandoned` and report their
  /// own outcome from the worker thread when they finish.
  void AbandonOutstanding(
      const std::shared_ptr<QueryState>& state,
      const std::vector<std::shared_ptr<Attempt>>& inflight);

  /// Joins attempt threads that have finished since the last call.
  void Reap();

  const int64_t shard_index_;
  const int64_t global_offset_;
  const int64_t size_;
  const ShardClientConfig config_;
  std::vector<std::shared_ptr<ShardTransport>> replicas_;
  std::vector<std::unique_ptr<CircuitBreaker>> breakers_;

  mutable std::mutex stats_mu_;
  ShardClientStats stats_;

  struct ReaperEntry {
    std::thread thread;
    std::shared_ptr<std::atomic<bool>> finished;
  };
  std::mutex reaper_mu_;
  std::vector<ReaperEntry> outstanding_;
};

}  // namespace adamine::serve

#endif  // ADAMINE_SERVE_SHARD_CLIENT_H_
