// Serving-layer suite: the policy shell around a registry-created scoring
// backend — micro-batch splitting pinned to the scalar path (backend-level
// bit-identity lives in tests/backend_golden_test.cc, ctest label
// `golden`), LRU cache correctness under eviction (entries and bytes),
// stats accounting, concurrent use, and the overload-safety layer —
// deadlines, admission control and the serve-path fault points (the
// RetrievalServiceConcurrencyTest / AdmissionTest / OverloadTest suites
// also run under the tsan ctest label, and the overload battery under the
// `overload` label; see tests/CMakeLists.txt).

#include "serve/retrieval_service.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <limits>
#include <thread>
#include <vector>

#include "io/serialize.h"
#include "kernel/kernel.h"
#include "serve/admission.h"
#include "tensor/ops.h"
#include "util/fault.h"
#include "util/percentile.h"
#include "util/rng.h"

namespace adamine {
namespace {

namespace serve = adamine::serve;

class ThreadGuard {
 public:
  explicit ThreadGuard(int num_threads) { kernel::SetNumThreads(num_threads); }
  ~ThreadGuard() { kernel::SetNumThreads(1); }
};

/// Well-separated clusters of unit rows.
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

Tensor RowOf(const Tensor& m, int64_t i) {
  Tensor row({m.cols()});
  std::copy(m.data() + i * m.cols(), m.data() + (i + 1) * m.cols(),
            row.data());
  return row;
}

std::vector<int64_t> IdsOf(const std::vector<serve::ScoredHit>& hits) {
  std::vector<int64_t> ids;
  for (const serve::ScoredHit& hit : hits) ids.push_back(hit.index);
  return ids;
}

serve::ServeConfig ExhaustiveConfig(int64_t micro_batch = 32,
                                    int64_t cache = 0) {
  serve::ServeConfig config;
  config.backend = serve::Backend::kExhaustive;
  config.micro_batch = micro_batch;
  config.cache_capacity = cache;
  return config;
}

TEST(ServeConfigTest, Validation) {
  EXPECT_TRUE(ExhaustiveConfig().Validate().ok());
  serve::ServeConfig bad = ExhaustiveConfig();
  bad.micro_batch = 0;
  EXPECT_FALSE(bad.Validate().ok());
  bad = ExhaustiveConfig();
  bad.cache_capacity = -1;
  EXPECT_FALSE(bad.Validate().ok());
}

// Backend-vs-scalar bit-identity now lives in the registry-driven golden
// suite (tests/backend_golden_test.cc, ctest label `golden`), which
// auto-compares every registered backend across the corpus × k × threads ×
// shards matrix. This thin wrapper keeps the *service*-level
// micro-batching (cache rows + GEMM split widths) pinned to the scalar
// path — the one dimension the backend-level harness does not sweep.
TEST(RetrievalServiceTest, MicroBatchSplitsMatchScalarPath) {
  Tensor items = ClusteredUnitRows(6, 10, 16, 3);
  Tensor queries = ClusteredUnitRows(6, 2, 16, 5);
  serve::BackendConfig scalar_config;
  scalar_config.items = items;
  auto scalar = serve::CreateBackend("scalar", scalar_config);
  ASSERT_TRUE(scalar.ok());
  auto scored = (*scalar)->ScoreTopK(serve::QueryBatch{queries}, nullptr, 10,
                                     serve::QueryOptions());
  ASSERT_TRUE(scored.ok());
  std::vector<std::vector<int64_t>> expect;
  for (const auto& hits : scored->hits) expect.push_back(IdsOf(hits));
  for (int64_t micro_batch : {1, 7, 64}) {
    auto service = serve::RetrievalService::Create(
        items, ExhaustiveConfig(micro_batch));
    ASSERT_TRUE(service.ok());
    auto got = (*service)->QueryBatch(queries, 10);
    EXPECT_EQ(got, expect) << "micro-batch " << micro_batch;
  }
}

TEST(ScalarBackendTest, FindsNearestByConstruction) {
  serve::BackendConfig config;
  config.items = Tensor::FromVector({3, 2}, {1, 0, 0, 1, -1, 0});
  auto scalar = serve::CreateBackend("scalar", config);
  ASSERT_TRUE(scalar.ok());
  const serve::QueryBatch batch{Tensor::FromVector({1, 2}, {0.9f, 0.1f})};
  auto top = (*scalar)->ScoreTopK(batch, nullptr, 2, serve::QueryOptions());
  ASSERT_TRUE(top.ok());
  EXPECT_EQ(IdsOf(top->hits[0]), (std::vector<int64_t>{0, 1}));
  // k larger than the corpus is capped.
  auto all = (*scalar)->ScoreTopK(batch, nullptr, 10, serve::QueryOptions());
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(all->hits[0].size(), 3u);
}

TEST(RetrievalServiceTest, CacheServesRepeatsAndEvictsLru) {
  Tensor items = ClusteredUnitRows(4, 20, 8, 19);
  auto service = serve::RetrievalService::Create(
      items, ExhaustiveConfig(/*micro_batch=*/8, /*cache=*/2));
  ASSERT_TRUE(service.ok());
  Tensor q0 = RowOf(items, 0);
  Tensor q1 = RowOf(items, 25);
  Tensor q2 = RowOf(items, 50);

  auto r0 = (*service)->Query(q0, 5);
  auto r1 = (*service)->Query(q1, 5);
  // Cache full {q1, q0}. A repeat is a hit and returns identical results.
  EXPECT_EQ((*service)->Query(q0, 5), r0);
  serve::ServeStats stats = (*service)->Snapshot();
  EXPECT_EQ(stats.cache_hits, 1);
  EXPECT_EQ(stats.cache_misses, 2);

  // q2 evicts the least-recently-used entry (q1).
  auto r2 = (*service)->Query(q2, 5);
  EXPECT_EQ((*service)->Query(q1, 5), r1);  // Miss: was evicted, rescored.
  stats = (*service)->Snapshot();
  EXPECT_EQ(stats.cache_hits, 1);
  EXPECT_EQ(stats.cache_misses, 4);

  // Evicted-and-rescored results stay correct (scoring is deterministic).
  EXPECT_EQ((*service)->Query(q2, 5), r2);  // Hit again.
  stats = (*service)->Snapshot();
  EXPECT_EQ(stats.cache_hits, 2);
  EXPECT_GT(stats.cache_hit_rate(), 0.0);
}

TEST(RetrievalServiceTest, CacheKeyedByK) {
  Tensor items = ClusteredUnitRows(4, 20, 8, 23);
  auto service = serve::RetrievalService::Create(
      items, ExhaustiveConfig(/*micro_batch=*/8, /*cache=*/64));
  ASSERT_TRUE(service.ok());
  Tensor q = RowOf(items, 3);
  auto k5 = (*service)->Query(q, 5);
  // Same query at a different k must not reuse the cached entry.
  auto k3 = (*service)->Query(q, 3);
  EXPECT_EQ(k3.size(), 3u);
  EXPECT_EQ(k5.size(), 5u);
  EXPECT_EQ((*service)->Query(q, 5), k5);  // Hit under its own k.
  serve::ServeStats stats = (*service)->Snapshot();
  EXPECT_EQ(stats.cache_hits, 1);
  EXPECT_EQ(stats.cache_misses, 2);
}

TEST(RetrievalServiceTest, LoadsExportedBundleAndRejectsMissingName) {
  Tensor items = ClusteredUnitRows(3, 10, 8, 37);
  const std::string path = testing::TempDir() + "/serve_bundle.bin";
  ASSERT_TRUE(io::SaveTensorBundle(path, {{"image_emb", items}}).ok());
  auto service = serve::RetrievalService::Load(path, "image_emb",
                                               ExhaustiveConfig());
  ASSERT_TRUE(service.ok());
  EXPECT_EQ((*service)->size(), items.rows());
  EXPECT_EQ((*service)->dim(), items.cols());
  auto top = (*service)->Query(RowOf(items, 4), 1);
  ASSERT_EQ(top.size(), 1u);
  EXPECT_EQ(top[0], 4);  // A stored row's nearest neighbour is itself.

  auto missing = serve::RetrievalService::Load(path, "no_such_tensor",
                                               ExhaustiveConfig());
  EXPECT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);
  std::remove(path.c_str());
}

TEST(RetrievalServiceTest, StatsCountStagesAndBatches) {
  Tensor items = ClusteredUnitRows(4, 16, 8, 43);
  auto service = serve::RetrievalService::Create(
      items, ExhaustiveConfig(/*micro_batch=*/16, /*cache=*/0));
  ASSERT_TRUE(service.ok());
  Tensor queries = ClusteredUnitRows(4, 8, 8, 47);  // 32 queries.
  (*service)->QueryBatch(queries, 5);
  (*service)->RecordEmbedMillis(1.5);
  serve::ServeStats stats = (*service)->Snapshot();
  EXPECT_EQ(stats.queries, 32);
  EXPECT_EQ(stats.batches, 2);  // 32 queries / micro-batch 16.
  EXPECT_EQ(stats.score.count, 2);
  EXPECT_EQ(stats.rank.count, 2);
  EXPECT_EQ(stats.embed.count, 1);
  EXPECT_NEAR(stats.embed.total_ms, 1.5, 1e-12);
  EXPECT_GE(stats.embed.PercentileMs(50), 1.5);
  EXPECT_GE(stats.score.PercentileMs(95), stats.score.PercentileMs(50));
  EXPECT_NE(stats.ToString().find("\nrank   count 2 "), std::string::npos)
      << stats.ToString();
  (*service)->ResetStats();
  EXPECT_EQ((*service)->Snapshot().queries, 0);

  // The scalar backend ranks inside its score stage (rank_ms < 0): the
  // rank row says so instead of printing an all-zero stage.
  serve::ServeConfig fused_config = ExhaustiveConfig(/*micro_batch=*/16);
  fused_config.backend = serve::Backend::kScalar;
  auto fused = serve::RetrievalService::Create(items, fused_config);
  ASSERT_TRUE(fused.ok());
  (*fused)->QueryBatch(queries, 5);
  stats = (*fused)->Snapshot();
  EXPECT_EQ(stats.score.count, 2);
  EXPECT_EQ(stats.rank.count, 0);
  const std::string text = stats.ToString();
  EXPECT_NE(text.find("\nrank   fused\n"), std::string::npos) << text;
  EXPECT_EQ(text.find("rank   count"), std::string::npos) << text;
}

// The stats histogram reports log-linear bucket bounds (8 per octave);
// pinned against the exact nearest-rank percentile of a known sample. One
// sample spreads over ten octaves; the other sits inside the one octave
// above 4.096 ms, so only the sub-buckets separate its p50 from its p95.
TEST(StageStatsTest, PercentilesBoundTheExactRankAndNeverExceedTheMax) {
  std::vector<std::vector<double>> samples(2);
  for (int i = 0; i < 1000; ++i) {
    samples[0].push_back(0.01 * std::pow(1.0071, i));
    samples[1].push_back(4.2 + 0.001 * i);
  }
  for (const std::vector<double>& sample : samples) {
    serve::StageStats stats;
    for (const double ms : sample) stats.Record(ms);
    const std::vector<double>& sorted = sample;  // Generated ascending.
    for (const double p : {0.0, 1.0, 10.0, 25.0, 50.0, 75.0, 90.0, 95.0,
                           99.0, 99.9, 100.0}) {
      const double exact = util::SortedPercentile(sorted, p);
      const double got = stats.PercentileMs(p);
      EXPECT_LE(got, stats.max_ms) << "p" << p;
      EXPECT_GE(got, exact) << "p" << p;
      EXPECT_LE(got, 1.125 * exact) << "p" << p;
    }
    EXPECT_EQ(stats.PercentileMs(100), stats.max_ms);
    EXPECT_EQ(stats.max_ms, sorted.back());
  }
}

TEST(RetrievalServiceConcurrencyTest, ConcurrentQueriesAreConsistent) {
  Tensor items = ClusteredUnitRows(6, 20, 12, 59);
  Tensor queries = ClusteredUnitRows(6, 4, 12, 61);
  auto service = serve::RetrievalService::Create(
      items, ExhaustiveConfig(/*micro_batch=*/8, /*cache=*/16));
  ASSERT_TRUE(service.ok());
  auto expect = (*service)->QueryBatch(queries, 6);
  (*service)->ResetStats();  // Count only the concurrent phase below.
  std::atomic<int> mismatches{0};
  std::vector<std::thread> workers;
  for (int t = 0; t < 4; ++t) {
    workers.emplace_back([&, t] {
      for (int iter = 0; iter < 8; ++iter) {
        if ((t + iter) % 2 == 0) {
          auto got = (*service)->QueryBatch(queries, 6);
          if (got != expect) mismatches.fetch_add(1);
        } else {
          const int64_t i = (t * 8 + iter) % queries.rows();
          auto got = (*service)->Query(RowOf(queries, i), 6);
          if (got != expect[static_cast<size_t>(i)]) mismatches.fetch_add(1);
        }
      }
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(mismatches.load(), 0);
  serve::ServeStats stats = (*service)->Snapshot();
  EXPECT_EQ(stats.queries, 4 * 8 / 2 * static_cast<int64_t>(queries.rows()) +
                               4 * 8 / 2);
}

// --- Overload-safety layer ---------------------------------------------

/// Fixture for everything that arms fault points: a leaked schedule must
/// never bleed into the determinism suites above.
class ServeFaultTest : public ::testing::Test {
 protected:
  void SetUp() override { fault::Reset(); }
  void TearDown() override { fault::Reset(); }
};

using AdmissionTest = ServeFaultTest;
using OverloadTest = ServeFaultTest;
using RetrievalServiceFaultTest = ServeFaultTest;
using RetrievalServiceDeadlineTest = ServeFaultTest;

TEST(ServeConfigOverloadTest, ValidatesOverloadFields) {
  serve::ServeConfig config = ExhaustiveConfig();
  config.cache_capacity_bytes = -1;
  EXPECT_FALSE(config.Validate().ok());
  config = ExhaustiveConfig();
  config.max_inflight = -1;
  EXPECT_FALSE(config.Validate().ok());
  config = ExhaustiveConfig();
  config.max_queue = 2;  // Queueing without admission control.
  EXPECT_FALSE(config.Validate().ok());
  config.max_inflight = 1;
  EXPECT_TRUE(config.Validate().ok());
}

TEST(RetrievalServiceValidationTest, RejectsNonFiniteEmbeddings) {
  Tensor items = ClusteredUnitRows(3, 10, 8, 73);
  items.At(7, 2) = std::numeric_limits<float>::quiet_NaN();
  auto service = serve::RetrievalService::Create(items, ExhaustiveConfig());
  ASSERT_FALSE(service.ok());
  EXPECT_EQ(service.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(service.status().message().find("non-finite"),
            std::string::npos);
  EXPECT_NE(service.status().message().find("row 7"), std::string::npos);
}

TEST(RetrievalServiceValidationTest, RejectsUnnormalisedEmbeddings) {
  Tensor items = ClusteredUnitRows(3, 10, 8, 79);
  for (int64_t j = 0; j < items.cols(); ++j) items.At(4, j) *= 3.0f;
  auto service = serve::RetrievalService::Create(items, ExhaustiveConfig());
  ASSERT_FALSE(service.ok());
  EXPECT_EQ(service.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(service.status().message().find("L2 norm"), std::string::npos);
}

TEST(RetrievalServiceValidationTest, LoadRejectsTruncatedBundle) {
  Tensor items = ClusteredUnitRows(3, 10, 8, 83);
  const std::string path = testing::TempDir() + "/serve_truncated.bin";
  ASSERT_TRUE(io::SaveTensorBundle(path, {{"image_emb", items}}).ok());
  // Tear the file in half on disk: Load must return a descriptive Status.
  {
    std::ifstream in(path, std::ios::binary);
    std::string bytes((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(),
              static_cast<std::streamsize>(bytes.size() / 2));
  }
  auto service = serve::RetrievalService::Load(path, "image_emb",
                                               ExhaustiveConfig());
  EXPECT_FALSE(service.ok());
  std::remove(path.c_str());
}

TEST_F(RetrievalServiceFaultTest, ArmedLoadReadFaultReturnsStatus) {
  Tensor items = ClusteredUnitRows(3, 10, 8, 89);
  const std::string path = testing::TempDir() + "/serve_fault_bundle.bin";
  ASSERT_TRUE(io::SaveTensorBundle(path, {{"image_emb", items}}).ok());
  fault::Arm(fault::kServeLoadRead);
  auto torn = serve::RetrievalService::Load(path, "image_emb",
                                            ExhaustiveConfig());
  ASSERT_FALSE(torn.ok());
  EXPECT_EQ(torn.status().code(), StatusCode::kDataLoss);
  fault::Reset();
  auto service = serve::RetrievalService::Load(path, "image_emb",
                                               ExhaustiveConfig());
  EXPECT_TRUE(service.ok());
  std::remove(path.c_str());
}

TEST_F(AdmissionTest, AdmitsUpToLimitAndShedsBeyondQueue) {
  serve::AdmissionController controller(/*max_inflight=*/1, /*max_queue=*/1);
  ASSERT_TRUE(controller.Admit(serve::AdmissionController::TimePoint::max())
                  .ok());
  // Fill the queue from a second thread, then the third request must shed.
  std::atomic<bool> queued_done{false};
  std::thread waiter([&] {
    const auto status =
        controller.Admit(serve::AdmissionController::TimePoint::max());
    queued_done.store(true);
    if (status.ok()) controller.Release();
  });
  while (controller.queued() < 1) std::this_thread::yield();
  const auto shed =
      controller.Admit(serve::AdmissionController::TimePoint::max());
  EXPECT_EQ(shed.code(), StatusCode::kUnavailable);
  controller.Release();  // Frees the slot; the queued waiter proceeds.
  waiter.join();
  EXPECT_TRUE(queued_done.load());
  const serve::AdmissionStats stats = controller.Snapshot();
  EXPECT_EQ(stats.admitted, 2);
  EXPECT_EQ(stats.shed, 1);
  EXPECT_EQ(stats.queue_peak, 1);
  EXPECT_EQ(stats.inflight_peak, 1);
  EXPECT_EQ(controller.inflight(), 0);
}

TEST_F(AdmissionTest, QueuedRequestTimesOutAtItsDeadline) {
  serve::AdmissionController controller(/*max_inflight=*/1, /*max_queue=*/4);
  ASSERT_TRUE(controller.Admit(serve::AdmissionController::TimePoint::max())
                  .ok());
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(5);
  const auto status = controller.Admit(deadline);
  EXPECT_EQ(status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(controller.Snapshot().queue_timeouts, 1);
  controller.Release();
}

TEST_F(AdmissionTest, ArmedQueueRejectFaultShedsEveryRequest) {
  serve::AdmissionController controller(/*max_inflight=*/8, /*max_queue=*/8);
  fault::Arm(fault::kServeQueueReject, /*skip=*/1, /*fire=*/1);
  EXPECT_TRUE(controller.Admit(serve::AdmissionController::TimePoint::max())
                  .ok());  // Skipped hit.
  const auto status =
      controller.Admit(serve::AdmissionController::TimePoint::max());
  EXPECT_EQ(status.code(), StatusCode::kUnavailable);
  controller.Release();
}

TEST_F(RetrievalServiceDeadlineTest, GenerousDeadlineMatchesNoDeadline) {
  Tensor items = ClusteredUnitRows(4, 20, 8, 97);
  auto service = serve::RetrievalService::Create(items, ExhaustiveConfig());
  ASSERT_TRUE(service.ok());
  Tensor q = RowOf(items, 3);
  const auto plain = (*service)->Query(q, 5);
  serve::QueryOptions options;
  options.deadline_ms = 60'000.0;
  auto bounded = (*service)->QueryWithOptions(q, 5, options);
  ASSERT_TRUE(bounded.ok());
  EXPECT_EQ(bounded.value(), plain);
}

TEST_F(RetrievalServiceDeadlineTest, SlowScoringFailsBetweenMicroBatches) {
  Tensor items = ClusteredUnitRows(4, 20, 8, 101);
  Tensor queries = ClusteredUnitRows(4, 2, 8, 103);  // 8 rows.
  auto service = serve::RetrievalService::Create(
      items, ExhaustiveConfig(/*micro_batch=*/1, /*cache=*/0));
  ASSERT_TRUE(service.ok());
  // Every micro-batch stalls 25 ms; the budget covers at most a couple of
  // the 8 needed, so the between-batches check must fire.
  fault::Arm(fault::kServeScoreDelay, /*skip=*/25);
  serve::QueryOptions options;
  options.deadline_ms = 40.0;
  auto result = (*service)->QueryBatchWithOptions(queries, 5, options);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_GE((*service)->Snapshot().deadline_misses, 1);
  fault::Reset();
  // Without the stall the same request fits its budget again.
  auto recovered = (*service)->QueryBatchWithOptions(queries, 5, options);
  EXPECT_TRUE(recovered.ok());
}

TEST_F(RetrievalServiceDeadlineTest, ExpiredDeadlineFailsBeforeScoring) {
  Tensor items = ClusteredUnitRows(4, 20, 8, 107);
  auto service = serve::RetrievalService::Create(
      items, ExhaustiveConfig(/*micro_batch=*/8, /*cache=*/0));
  ASSERT_TRUE(service.ok());
  serve::QueryOptions options;
  options.deadline_ms = 1e-6;  // Effectively already expired on entry.
  auto result = (*service)->QueryWithOptions(RowOf(items, 0), 5, options);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded);
}

TEST(RetrievalServiceCacheBytesTest, EvictsByByteBudget) {
  Tensor items = ClusteredUnitRows(4, 20, 8, 109);
  serve::ServeConfig config = ExhaustiveConfig(/*micro_batch=*/8,
                                               /*cache=*/1000);
  // One entry costs key (8 floats + 2 int64 = 48 bytes) + 5 results
  // (40 bytes) = 88 bytes; a 200-byte budget holds exactly two entries.
  config.cache_capacity_bytes = 200;
  auto service = serve::RetrievalService::Create(items, config);
  ASSERT_TRUE(service.ok());
  Tensor q0 = RowOf(items, 0);
  Tensor q1 = RowOf(items, 25);
  Tensor q2 = RowOf(items, 50);
  (*service)->Query(q0, 5);
  (*service)->Query(q1, 5);
  serve::ServeStats stats = (*service)->Snapshot();
  EXPECT_EQ(stats.cache_bytes, 176);
  EXPECT_EQ(stats.cache_evictions, 0);
  // The third entry overflows the byte budget long before the 1000-entry
  // limit: the LRU entry (q0) goes.
  (*service)->Query(q2, 5);
  stats = (*service)->Snapshot();
  EXPECT_EQ(stats.cache_bytes, 176);
  EXPECT_EQ(stats.cache_evictions, 1);
  (*service)->Query(q1, 5);  // Still cached.
  (*service)->Query(q0, 5);  // Evicted: rescored.
  stats = (*service)->Snapshot();
  EXPECT_EQ(stats.cache_hits, 1);
  EXPECT_EQ(stats.cache_misses, 4);
}

TEST(RetrievalServiceCacheBytesTest, OversizedEntryIsServedUncached) {
  Tensor items = ClusteredUnitRows(4, 20, 8, 113);
  serve::ServeConfig config = ExhaustiveConfig(/*micro_batch=*/8,
                                               /*cache=*/1000);
  config.cache_capacity_bytes = 64;  // Below any single entry's cost.
  auto service = serve::RetrievalService::Create(items, config);
  ASSERT_TRUE(service.ok());
  Tensor q = RowOf(items, 0);
  const auto first = (*service)->Query(q, 5);
  EXPECT_EQ((*service)->Query(q, 5), first);
  serve::ServeStats stats = (*service)->Snapshot();
  EXPECT_EQ(stats.cache_hits, 0);  // Nothing was ever admitted to the cache.
  EXPECT_EQ(stats.cache_bytes, 0);
}

TEST_F(OverloadTest, ShedsAndRecoversUnderOverload) {
  Tensor items = ClusteredUnitRows(8, 15, 12, 149);
  Tensor queries = ClusteredUnitRows(8, 2, 12, 151);
  serve::ServeConfig config =
      ExhaustiveConfig(/*micro_batch=*/4, /*cache=*/0);
  config.max_inflight = 1;
  config.max_queue = 1;
  auto service = serve::RetrievalService::Create(items, config);
  ASSERT_TRUE(service.ok());

  // The un-overloaded reference from the scalar oracle, checked at several
  // thread counts (the bit-identity contract holds under overload
  // machinery too).
  serve::BackendConfig scalar_config;
  scalar_config.items = items;
  auto scalar = serve::CreateBackend("scalar", scalar_config);
  ASSERT_TRUE(scalar.ok());
  auto scored = (*scalar)->ScoreTopK(serve::QueryBatch{queries}, nullptr, 5,
                                     serve::QueryOptions());
  ASSERT_TRUE(scored.ok());
  std::vector<std::vector<int64_t>> expect;
  for (const auto& hits : scored->hits) expect.push_back(IdsOf(hits));
  for (int width : {1, 2, 4}) {
    ThreadGuard guard(width);
    EXPECT_EQ((*service)->QueryBatch(queries, 5), expect)
        << "width " << width;
  }
  (*service)->ResetStats();

  // Offered load far above capacity: every micro-batch stalls 15 ms, four
  // clients offer concurrent requests with 60 ms budgets into a queue of
  // depth 1. The excess must shed fast or miss its deadline — it must NOT
  // pile up (queue_peak stays within max_queue).
  fault::Arm(fault::kServeScoreDelay, /*skip=*/15);
  std::atomic<int64_t> ok_count{0};
  std::atomic<int64_t> shed_count{0};
  std::atomic<int64_t> deadline_count{0};
  std::atomic<int64_t> other_count{0};
  std::atomic<int64_t> wrong_count{0};
  std::vector<std::thread> clients;
  for (int t = 0; t < 4; ++t) {
    clients.emplace_back([&, t] {
      for (int iter = 0; iter < 6; ++iter) {
        serve::QueryOptions options;
        options.deadline_ms = 60.0;
        const int64_t row = (t * 6 + iter) % queries.rows();
        auto result =
            (*service)->QueryWithOptions(RowOf(queries, row), 5, options);
        if (result.ok()) {
          ok_count.fetch_add(1);
          if (*result != expect[static_cast<size_t>(row)]) {
            wrong_count.fetch_add(1);
          }
        } else if (result.status().code() == StatusCode::kUnavailable) {
          shed_count.fetch_add(1);
        } else if (result.status().code() ==
                   StatusCode::kDeadlineExceeded) {
          deadline_count.fetch_add(1);
        } else {
          other_count.fetch_add(1);
        }
      }
    });
  }
  for (auto& c : clients) c.join();
  serve::ServeStats stats = (*service)->Snapshot();
  EXPECT_EQ(other_count.load(), 0);
  EXPECT_GT(ok_count.load(), 0);  // The service kept serving...
  EXPECT_EQ(wrong_count.load(), 0);  // ...exact answers...
  EXPECT_GT(shed_count.load() + deadline_count.load(), 0)  // ...and shed.
      << "offered load above capacity must shed or deadline-fail";
  EXPECT_LE(stats.queue_peak, config.max_queue);
  EXPECT_LE(stats.inflight_peak, config.max_inflight);
  EXPECT_EQ(stats.shed, shed_count.load());
  // Shedding is load control, not impairment: the corpus is whole.
  EXPECT_EQ(stats.health, serve::HealthState::kHealthy);

  // Recovery: disarm the stall and the same stream is served in full,
  // within its budget, bit-identical to the reference.
  fault::Reset();
  serve::QueryOptions options;
  options.deadline_ms = 60'000.0;
  auto recovered = (*service)->QueryBatchWithOptions(queries, 5, options);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ(*recovered, expect);
}

}  // namespace
}  // namespace adamine
