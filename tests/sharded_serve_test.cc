// Sharded-serving suite: the circuit-breaker state machine (driven with
// fake time points, no sleeping), retry-policy determinism, sharded-vs-
// unsharded bit-identity of the fan-out/fan-in merge across shard and
// kernel-thread counts (including cosine ties split across shards, shards
// smaller than k, and more shards than rows-per-shard), and the failure
// battery — replica failover through serve.shard.fail, whole-shard loss
// with honest partial coverage, require_full_coverage, timeout budgets
// under serve.shard.delay, hedged requests, and abandoned half-open probe
// attempts resolving their breaker. ShardedConcurrencyTest and
// ShardedFaultTest also run under the tsan ctest label (see
// tests/CMakeLists.txt).

#include "serve/sharded_service.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <thread>
#include <vector>

#include "kernel/kernel.h"
#include "serve/circuit_breaker.h"
#include "serve/retrieval_service.h"
#include "serve/shard_client.h"
#include "tensor/ops.h"
#include "util/fault.h"
#include "util/rng.h"

namespace adamine {
namespace {

namespace serve = adamine::serve;

class ThreadGuard {
 public:
  explicit ThreadGuard(int num_threads) { kernel::SetNumThreads(num_threads); }
  ~ThreadGuard() { kernel::SetNumThreads(1); }
};

/// Well-separated clusters of unit rows (same generator as serve_test.cc).
Tensor ClusteredUnitRows(int64_t clusters, int64_t per_cluster, int64_t dim,
                         uint64_t seed) {
  Rng rng(seed);
  Tensor anchors = L2NormalizeRows(Tensor::Randn({clusters, dim}, rng));
  Tensor points({clusters * per_cluster, dim});
  for (int64_t c = 0; c < clusters; ++c) {
    for (int64_t i = 0; i < per_cluster; ++i) {
      const int64_t row = c * per_cluster + i;
      for (int64_t j = 0; j < dim; ++j) {
        points.At(row, j) =
            anchors.At(c, j) + static_cast<float>(rng.Normal(0, 0.05));
      }
    }
  }
  return L2NormalizeRows(points);
}

serve::ShardedServeConfig ShardedConfig(int64_t shards, int64_t replicas) {
  serve::ShardedServeConfig config;
  config.num_shards = shards;
  config.num_replicas = replicas;
  config.shard.backend = serve::Backend::kExhaustive;
  return config;
}

/// The unsharded exhaustive answer, as (index, score) rows.
std::vector<std::vector<serve::ScoredHit>> UnshardedScored(
    const Tensor& items, const Tensor& queries, int64_t k) {
  serve::ServeConfig config;
  config.backend = serve::Backend::kExhaustive;
  config.cache_capacity = 0;
  auto service = serve::RetrievalService::Create(items, config);
  EXPECT_TRUE(service.ok());
  auto got = (*service)->QueryBatchScored(queries, k, serve::QueryOptions{});
  EXPECT_TRUE(got.ok());
  return std::move(got).value();
}

// --- Circuit breaker state machine (fake clock, no sleeping) -------------

serve::CircuitBreaker::TimePoint At(double ms) {
  return serve::CircuitBreaker::TimePoint{} +
         std::chrono::duration_cast<std::chrono::steady_clock::duration>(
             std::chrono::duration<double, std::milli>(ms));
}

TEST(CircuitBreakerTest, ConfigValidation) {
  serve::CircuitBreakerConfig config;
  EXPECT_TRUE(config.Validate().ok());
  config.failure_threshold = 0;
  EXPECT_FALSE(config.Validate().ok());
  config = serve::CircuitBreakerConfig{};
  config.open_ms = -1.0;
  EXPECT_FALSE(config.Validate().ok());
}

TEST(CircuitBreakerTest, TripsAfterConsecutiveFailuresAndRecovers) {
  serve::CircuitBreakerConfig config;
  config.failure_threshold = 3;
  config.open_ms = 100.0;
  serve::CircuitBreaker breaker(config);

  EXPECT_EQ(breaker.state(), serve::BreakerState::kClosed);
  EXPECT_TRUE(breaker.Allow(At(0)));
  breaker.OnFailure(At(1));
  breaker.OnFailure(At(2));
  // Two failures: still closed, still passing traffic.
  EXPECT_EQ(breaker.state(), serve::BreakerState::kClosed);
  EXPECT_TRUE(breaker.Allow(At(3)));
  breaker.OnFailure(At(4));
  // Third consecutive failure trips the breaker.
  EXPECT_EQ(breaker.state(), serve::BreakerState::kOpen);
  EXPECT_FALSE(breaker.Allow(At(50)));
  EXPECT_FALSE(breaker.Allow(At(103.9)));
  // open_ms elapsed: exactly one half-open probe is admitted.
  EXPECT_TRUE(breaker.Allow(At(104.1)));
  EXPECT_EQ(breaker.state(), serve::BreakerState::kHalfOpen);
  EXPECT_FALSE(breaker.Allow(At(105)));  // Probe already out.
  breaker.OnSuccess();
  EXPECT_EQ(breaker.state(), serve::BreakerState::kClosed);
  EXPECT_TRUE(breaker.Allow(At(106)));

  const serve::CircuitBreakerStats stats = breaker.Snapshot();
  EXPECT_EQ(stats.opens, 1);
  EXPECT_EQ(stats.half_opens, 1);
  EXPECT_EQ(stats.closes, 1);
  EXPECT_EQ(stats.consecutive_failures, 0);
}

TEST(CircuitBreakerTest, HalfOpenProbeFailureReopens) {
  serve::CircuitBreakerConfig config;
  config.failure_threshold = 1;
  config.open_ms = 10.0;
  serve::CircuitBreaker breaker(config);

  breaker.OnFailure(At(0));
  EXPECT_EQ(breaker.state(), serve::BreakerState::kOpen);
  EXPECT_TRUE(breaker.Allow(At(11)));  // Half-open probe.
  breaker.OnFailure(At(12));
  // Probe failed: re-opened for another full open_ms window.
  EXPECT_EQ(breaker.state(), serve::BreakerState::kOpen);
  EXPECT_FALSE(breaker.Allow(At(21)));
  EXPECT_TRUE(breaker.Allow(At(23)));  // 12 + 10 elapsed.
  breaker.OnSuccess();
  EXPECT_EQ(breaker.state(), serve::BreakerState::kClosed);

  const serve::CircuitBreakerStats stats = breaker.Snapshot();
  EXPECT_EQ(stats.opens, 2);
  EXPECT_EQ(stats.half_opens, 2);
  EXPECT_EQ(stats.closes, 1);
}

TEST(CircuitBreakerTest, AllowReportsProbeAdmissions) {
  serve::CircuitBreakerConfig config;
  config.failure_threshold = 1;
  config.open_ms = 10.0;
  serve::CircuitBreaker breaker(config);
  bool probe = true;
  EXPECT_TRUE(breaker.Allow(At(0), &probe));
  EXPECT_FALSE(probe);  // Closed: a normal admission, not a probe.
  breaker.OnFailure(At(1));
  EXPECT_FALSE(breaker.Allow(At(5), &probe));
  EXPECT_FALSE(probe);  // Open: nothing admitted at all.
  EXPECT_TRUE(breaker.Allow(At(12), &probe));
  EXPECT_TRUE(probe);  // The half-open probe slot.
  EXPECT_FALSE(breaker.Allow(At(13), &probe));
  EXPECT_FALSE(probe);  // Slot already out.
}

TEST(CircuitBreakerTest, ReleaseProbeFreesTheSlotWithoutAVerdict) {
  serve::CircuitBreakerConfig config;
  config.failure_threshold = 1;
  config.open_ms = 10.0;
  serve::CircuitBreaker breaker(config);
  breaker.OnFailure(At(0));
  bool probe = false;
  EXPECT_TRUE(breaker.Allow(At(11), &probe));
  EXPECT_TRUE(probe);
  EXPECT_FALSE(breaker.Allow(At(12)));  // Slot occupied.
  // The probe attempt ended in a non-transient error — no health verdict.
  // The slot must come back so a future attempt can still probe.
  breaker.ReleaseProbe();
  EXPECT_EQ(breaker.state(), serve::BreakerState::kHalfOpen);
  EXPECT_TRUE(breaker.Allow(At(13), &probe));
  EXPECT_TRUE(probe);
  breaker.OnSuccess();
  EXPECT_EQ(breaker.state(), serve::BreakerState::kClosed);
}

TEST(CircuitBreakerTest, SuccessResetsTheFailureStreak) {
  serve::CircuitBreakerConfig config;
  config.failure_threshold = 2;
  serve::CircuitBreaker breaker(config);
  breaker.OnFailure(At(0));
  breaker.OnSuccess();
  breaker.OnFailure(At(1));
  // Never two *consecutive* failures: still closed.
  EXPECT_EQ(breaker.state(), serve::BreakerState::kClosed);
}

// --- Retry policy --------------------------------------------------------

TEST(RetryPolicyTest, Validation) {
  serve::RetryPolicy policy;
  EXPECT_TRUE(policy.Validate().ok());
  policy.retry_max = -1;
  EXPECT_FALSE(policy.Validate().ok());
  policy = serve::RetryPolicy{};
  policy.backoff_max_ms = policy.backoff_base_ms / 2.0;
  EXPECT_FALSE(policy.Validate().ok());
}

TEST(RetryPolicyTest, BackoffIsCappedExponentialWithDeterministicJitter) {
  serve::RetryPolicy policy;
  policy.backoff_base_ms = 1.0;
  policy.backoff_max_ms = 50.0;
  for (int64_t retry = 0; retry < 10; ++retry) {
    for (uint64_t salt = 0; salt < 3; ++salt) {
      const double cap =
          std::min(policy.backoff_max_ms,
                   policy.backoff_base_ms * static_cast<double>(1 << retry));
      const double ms = policy.BackoffMs(retry, salt);
      EXPECT_GE(ms, cap / 2.0) << "retry " << retry << " salt " << salt;
      EXPECT_LT(ms, cap) << "retry " << retry << " salt " << salt;
      // No RNG state: the same (seed, salt, retry) always backs off the
      // same amount.
      EXPECT_EQ(ms, policy.BackoffMs(retry, salt));
    }
  }
  // Distinct shards desynchronise.
  EXPECT_NE(policy.BackoffMs(3, 0), policy.BackoffMs(3, 1));
}

// --- Config / construction ----------------------------------------------

TEST(ShardedServeConfigTest, Validation) {
  EXPECT_TRUE(ShardedConfig(3, 2).Validate().ok());
  serve::ShardedServeConfig bad = ShardedConfig(0, 1);
  EXPECT_FALSE(bad.Validate().ok());
  bad = ShardedConfig(1, 0);
  EXPECT_FALSE(bad.Validate().ok());
  bad = ShardedConfig(2, 1);
  bad.shard.backend = serve::Backend::kIvf;  // Merge needs scores.
  EXPECT_FALSE(bad.Validate().ok());
  bad = ShardedConfig(2, 1);
  bad.shard_timeout_ms = -1.0;
  EXPECT_FALSE(bad.Validate().ok());
  bad = ShardedConfig(2, 1);
  bad.retry.retry_max = -1;
  EXPECT_FALSE(bad.Validate().ok());
  bad = ShardedConfig(2, 1);
  bad.breaker.failure_threshold = 0;
  EXPECT_FALSE(bad.Validate().ok());
}

TEST(ShardedServeConfigTest, CreateRejectsMoreShardsThanRows) {
  Tensor items = ClusteredUnitRows(2, 4, 8, 1);  // 8 rows.
  auto service = serve::ShardedRetrievalService::Create(
      items, ShardedConfig(9, 1));
  EXPECT_FALSE(service.ok());
}

// --- Merge determinism ---------------------------------------------------
//
// The merge bit-identity battery (unsharded-vs-sharded across shard counts
// and thread widths, cross-shard score ties breaking on global id, shards
// returning fewer than k hits, shard counts up to one row per shard) moved
// into the registry-driven golden suite: the "sharded" backend in
// tests/backend_golden_test.cc (ctest label `golden`) runs every registered
// backend — this topology included — against the scalar reference over the
// corpus × k × threads × shards × probes matrix. This file keeps what the
// golden harness cannot see: the failover machinery (breakers, retries,
// hedging, partial coverage) and the concurrent sharded suites below.

// --- Fault tolerance -----------------------------------------------------

class ShardedFaultTest : public ::testing::Test {
 protected:
  void SetUp() override { fault::Reset(); }
  void TearDown() override { fault::Reset(); }
};

TEST_F(ShardedFaultTest, KilledReplicaFailsOverThroughRetries) {
  Tensor items = ClusteredUnitRows(6, 40, 16, 3);
  Tensor queries = ClusteredUnitRows(6, 2, 16, 5);
  const int64_t k = 10;
  const auto expect = UnshardedScored(items, queries, k);

  serve::ShardedServeConfig config = ShardedConfig(3, 2);
  config.retry.backoff_base_ms = 0.5;
  config.retry.backoff_max_ms = 2.0;
  config.breaker.failure_threshold = 3;
  auto service = serve::ShardedRetrievalService::Create(items, config);
  ASSERT_TRUE(service.ok());

  // Kill shard 1's replica 0 for good; replica 1 keeps serving, so every
  // query must still succeed at full coverage with exact results.
  fault::Arm(fault::ShardReplicaPoint(fault::kServeShardFail, 1, 0));
  for (int pass = 0; pass < 5; ++pass) {
    auto got = (*service)->QueryBatch(queries, k);
    ASSERT_TRUE(got.ok()) << "pass " << pass;
    EXPECT_FALSE(got->partial);
    EXPECT_EQ(got->coverage, 1.0);
    for (size_t i = 0; i < expect.size(); ++i) {
      EXPECT_EQ(got->results[i], expect[i]) << "pass " << pass;
    }
  }

  const serve::ShardedServeStats stats = (*service)->Snapshot();
  EXPECT_EQ(stats.full_results, 5);
  // The dead replica cost at least one retry before its breaker opened...
  EXPECT_GE(stats.shards[1].retries, 1);
  EXPECT_GE(stats.retries, 1);
  // ...and three consecutive failures then tripped it open, after which
  // queries go straight to the healthy replica.
  EXPECT_GE(stats.breaker_opens, 1);
  EXPECT_EQ(stats.shards[1].replicas[0].state, serve::BreakerState::kOpen);
  // The healthy shards never retried.
  EXPECT_EQ(stats.shards[0].retries, 0);
  EXPECT_EQ(stats.shards[2].retries, 0);
}

TEST_F(ShardedFaultTest, WholeShardDownDegradesToPartialCoverage) {
  Tensor items = ClusteredUnitRows(6, 40, 16, 3);  // 240 rows, chunk 80.
  Tensor queries = ClusteredUnitRows(6, 2, 16, 5);
  const int64_t k = 10;

  serve::ShardedServeConfig config = ShardedConfig(3, 1);
  config.retry.retry_max = 1;
  config.retry.backoff_base_ms = 0.5;
  config.retry.backoff_max_ms = 1.0;
  auto service = serve::ShardedRetrievalService::Create(items, config);
  ASSERT_TRUE(service.ok());

  // Shard 0 has a single replica; killing it takes the whole shard down.
  fault::Arm(fault::ShardReplicaPoint(fault::kServeShardFail, 0, 0));
  auto got = (*service)->QueryBatch(queries, k);
  ASSERT_TRUE(got.ok());
  EXPECT_TRUE(got->partial);
  EXPECT_DOUBLE_EQ(got->coverage, 160.0 / 240.0);

  // The partial answer is the *exact* top-k over the surviving rows: the
  // unsharded answer on rows [80, 240) with ids shifted back to global.
  Tensor rest = SliceRows(items, 80, 240);
  auto expect = UnshardedScored(rest, queries, k);
  for (auto& row : expect) {
    for (serve::ScoredHit& hit : row) hit.index += 80;
  }
  ASSERT_EQ(got->results.size(), expect.size());
  for (size_t i = 0; i < expect.size(); ++i) {
    EXPECT_EQ(got->results[i], expect[i]) << "query " << i;
  }

  const serve::ShardedServeStats stats = (*service)->Snapshot();
  EXPECT_EQ(stats.partial_results, 1);
  EXPECT_EQ(stats.full_results, 0);
  EXPECT_GE(stats.exhausted, 1);
  EXPECT_EQ(stats.coverage.count, 1);
}

TEST_F(ShardedFaultTest, RequireFullCoverageTurnsPartialIntoFailure) {
  Tensor items = ClusteredUnitRows(6, 40, 16, 3);
  Tensor queries = ClusteredUnitRows(6, 1, 16, 5);

  serve::ShardedServeConfig config = ShardedConfig(3, 1);
  config.retry.retry_max = 0;
  config.require_full_coverage = true;
  auto service = serve::ShardedRetrievalService::Create(items, config);
  ASSERT_TRUE(service.ok());

  fault::Arm(fault::ShardReplicaPoint(fault::kServeShardFail, 0, 0));
  auto got = (*service)->QueryBatch(queries, 5);
  ASSERT_FALSE(got.ok());
  EXPECT_TRUE(got.status().IsTransient());
  EXPECT_EQ((*service)->Snapshot().failed, 1);
}

TEST_F(ShardedFaultTest, EveryShardDownFailsTheRequest) {
  Tensor items = ClusteredUnitRows(4, 10, 8, 3);
  Tensor queries = ClusteredUnitRows(4, 1, 8, 5);

  serve::ShardedServeConfig config = ShardedConfig(2, 1);
  config.retry.retry_max = 0;
  auto service = serve::ShardedRetrievalService::Create(items, config);
  ASSERT_TRUE(service.ok());

  fault::Arm(fault::kServeShardFail);  // Bare point: the whole fleet.
  auto got = (*service)->QueryBatch(queries, 5);
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), StatusCode::kUnavailable);
}

TEST_F(ShardedFaultTest, StalledReplicaCannotHoldTheQueryPastItsBudget) {
  Tensor items = ClusteredUnitRows(4, 10, 8, 3);
  Tensor queries = ClusteredUnitRows(4, 1, 8, 5);

  serve::ShardedServeConfig config = ShardedConfig(1, 1);
  config.shard_timeout_ms = 10.0;
  config.retry.retry_max = 1;
  config.retry.backoff_base_ms = 0.5;
  config.retry.backoff_max_ms = 2.0;
  auto service = serve::ShardedRetrievalService::Create(items, config);
  ASSERT_TRUE(service.ok());

  // The only replica stalls 400 ms per attempt — far past the 10 ms
  // per-attempt budget. Both rounds must time out without ever waiting for
  // the stalled threads: the caller's wall time is bounded by
  // 2 * shard_timeout + backoff, nowhere near one 400 ms stall.
  fault::Arm(fault::ShardReplicaPoint(fault::kServeShardDelay, 0, 0),
             /*skip=*/400);
  const auto start = std::chrono::steady_clock::now();
  auto got = (*service)->QueryBatch(queries, 5);
  const double elapsed_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - start)
          .count();
  ASSERT_FALSE(got.ok());
  EXPECT_TRUE(got.status().IsTransient());
  EXPECT_LT(elapsed_ms, 200.0);

  const serve::ShardedServeStats stats = (*service)->Snapshot();
  EXPECT_GE(stats.timeouts, 1);
  // (The service destructor joins the stalled attempt threads, so the test
  // still exits cleanly under tsan.)
}

TEST_F(ShardedFaultTest, HedgeWinsAgainstASlowPrimary) {
  Tensor items = ClusteredUnitRows(4, 10, 8, 3);
  Tensor queries = ClusteredUnitRows(4, 1, 8, 5);
  const int64_t k = 5;
  const auto expect = UnshardedScored(items, queries, k);

  serve::ShardedServeConfig config = ShardedConfig(1, 2);
  config.hedge_ms = 2.0;
  auto service = serve::ShardedRetrievalService::Create(items, config);
  ASSERT_TRUE(service.ok());

  // Replica 0 (always tried first) stalls 400 ms; after hedge_ms the
  // client fires a duplicate at replica 1, which answers immediately and
  // wins — exact results, long before the primary would have answered.
  fault::Arm(fault::ShardReplicaPoint(fault::kServeShardDelay, 0, 0),
             /*skip=*/400);
  const auto start = std::chrono::steady_clock::now();
  auto got = (*service)->QueryBatch(queries, k);
  const double elapsed_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - start)
          .count();
  ASSERT_TRUE(got.ok());
  EXPECT_FALSE(got->partial);
  for (size_t i = 0; i < expect.size(); ++i) {
    EXPECT_EQ(got->results[i], expect[i]) << "query " << i;
  }
  EXPECT_LT(elapsed_ms, 300.0);

  const serve::ShardedServeStats stats = (*service)->Snapshot();
  EXPECT_GE(stats.hedges_fired, 1);
  EXPECT_GE(stats.hedges_won, 1);
}

TEST_F(ShardedFaultTest, AbandonedProbeAttemptStillResolvesTheBreaker) {
  Tensor items = ClusteredUnitRows(4, 10, 8, 3);  // 40 rows.
  Tensor queries = ClusteredUnitRows(4, 1, 8, 5);
  const int64_t k = 5;

  serve::ShardedServeConfig config = ShardedConfig(1, 2);
  config.hedge_ms = 2.0;
  config.retry.backoff_base_ms = 0.5;
  config.retry.backoff_max_ms = 2.0;
  config.breaker.failure_threshold = 1;
  config.breaker.open_ms = 20.0;
  auto service = serve::ShardedRetrievalService::Create(items, config);
  ASSERT_TRUE(service.ok());

  // Trip replica 0's breaker: one transient failure (threshold 1), then
  // the fault disarms itself and replica 1 answers the query.
  fault::Arm(fault::ShardReplicaPoint(fault::kServeShardFail, 0, 0),
             /*skip=*/0, /*fire=*/1);
  auto got = (*service)->QueryBatch(queries, k);
  ASSERT_TRUE(got.ok());
  // The attempt that consumes the failure may still be running when the
  // hedge's answer returns the query, so its verdict can land after
  // QueryBatch; wait for it the same bounded way as below.
  serve::BreakerState opened = serve::BreakerState::kClosed;
  for (int i = 0; i < 400; ++i) {
    opened = (*service)->Snapshot().shards[0].replicas[0].state;
    if (opened == serve::BreakerState::kOpen) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_EQ(opened, serve::BreakerState::kOpen);

  // Let the cool-off elapse and make replica 0 slow. The next query's
  // primary attempt is the half-open *probe*; after hedge_ms the hedge to
  // replica 1 wins and the probe attempt is abandoned mid-stall.
  fault::Arm(fault::ShardReplicaPoint(fault::kServeShardDelay, 0, 0),
             /*skip=*/100);
  std::this_thread::sleep_for(std::chrono::milliseconds(25));
  got = (*service)->QueryBatch(queries, k);
  ASSERT_TRUE(got.ok());
  EXPECT_FALSE(got->partial);

  // The abandoned probe still answers once its stall ends, and its worker
  // thread must deliver that verdict — closing the breaker — instead of
  // leaving the replica half-open with the probe slot occupied forever
  // (which would exclude it from rotation until process restart).
  serve::BreakerState state = serve::BreakerState::kHalfOpen;
  for (int i = 0; i < 400; ++i) {
    state = (*service)->Snapshot().shards[0].replicas[0].state;
    if (state == serve::BreakerState::kClosed) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(state, serve::BreakerState::kClosed);
}

// --- Concurrency (runs under `ctest -L tsan` too) ------------------------

class ShardedConcurrencyTest : public ::testing::Test {
 protected:
  void SetUp() override { fault::Reset(); }
  void TearDown() override { fault::Reset(); }
};

TEST_F(ShardedConcurrencyTest, ConcurrentBatchesStayExact) {
  Tensor items = ClusteredUnitRows(6, 40, 16, 3);
  Tensor queries = ClusteredUnitRows(6, 2, 16, 5);
  const int64_t k = 5;
  const auto expect = UnshardedScored(items, queries, k);

  ThreadGuard guard(2);
  auto service = serve::ShardedRetrievalService::Create(
      items, ShardedConfig(3, 2));
  ASSERT_TRUE(service.ok());

  std::vector<std::thread> clients;
  std::atomic<int> mismatches{0};
  for (int t = 0; t < 4; ++t) {
    clients.emplace_back([&] {
      for (int pass = 0; pass < 5; ++pass) {
        auto got = (*service)->QueryBatch(queries, k);
        if (!got.ok() || got->partial || got->results.size() != expect.size()) {
          ++mismatches;
          continue;
        }
        for (size_t i = 0; i < expect.size(); ++i) {
          if (got->results[i] != expect[i]) ++mismatches;
        }
        (void)(*service)->Snapshot();  // Stats race check.
      }
    });
  }
  for (std::thread& client : clients) client.join();
  EXPECT_EQ(mismatches.load(), 0);
}

TEST_F(ShardedConcurrencyTest, ConcurrentFailoverStaysExact) {
  Tensor items = ClusteredUnitRows(6, 20, 16, 3);
  Tensor queries = ClusteredUnitRows(6, 1, 16, 5);
  const int64_t k = 5;
  const auto expect = UnshardedScored(items, queries, k);

  serve::ShardedServeConfig config = ShardedConfig(2, 2);
  config.retry.backoff_base_ms = 0.5;
  config.retry.backoff_max_ms = 2.0;
  auto service = serve::ShardedRetrievalService::Create(items, config);
  ASSERT_TRUE(service.ok());

  // One replica of shard 0 is dead the whole time: every concurrent query
  // exercises the breaker + retry path and must still come back exact.
  fault::Arm(fault::ShardReplicaPoint(fault::kServeShardFail, 0, 0));
  std::vector<std::thread> clients;
  std::atomic<int> mismatches{0};
  for (int t = 0; t < 4; ++t) {
    clients.emplace_back([&] {
      for (int pass = 0; pass < 3; ++pass) {
        auto got = (*service)->QueryBatch(queries, k);
        if (!got.ok() || got->partial || got->results.size() != expect.size()) {
          ++mismatches;
          continue;
        }
        for (size_t i = 0; i < expect.size(); ++i) {
          if (got->results[i] != expect[i]) ++mismatches;
        }
      }
    });
  }
  for (std::thread& client : clients) client.join();
  EXPECT_EQ(mismatches.load(), 0);
}

}  // namespace
}  // namespace adamine
