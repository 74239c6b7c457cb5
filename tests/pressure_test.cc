// Resource-pressure suite: admission control, the transient-vs-permanent
// IO error taxonomy, maintenance retry, and the integrity scrubber (see
// DESIGN.md, "Resource pressure and scrubbing").
//
//  1. A memtable budget (rows, bytes, or seal-lag watermark) sheds
//     over-budget mutations with kResourceExhausted — or blocks up to
//     admit_wait_ms and admits once maintenance drains the backlog. An
//     empty memtable always admits (no batch can wedge forever).
//  2. ENOSPC-class WAL failures are TRANSIENT: the batch rolls back to
//     the last acknowledged record, nothing is acked, the corpus stays
//     writable, and the retry re-assigns the same ids. Reopen after the
//     outage is bit-identical to the acknowledged history.
//  3. A failing seal is retried with capped jittered backoff; after
//     maintenance_retry_max consecutive failures the corpus escalates to
//     the sticky read-only latch instead of retrying forever.
//  4. The scrubber quarantines bit-rotted sealed segments (rename to
//     .quarantine, drop from the next manifest generation) and the corpus
//     keeps serving the surviving rows — queries never abort, reopen
//     preserves the quarantine, and a torn live manifest self-heals.
//  5. The pressure gauges flow end to end: corpus stats -> backend
//     pressure() -> ServeStats.mutation -> degraded service health.

#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "mutate/manifest.h"
#include "mutate/mutable_backend.h"
#include "mutate/mutable_corpus.h"
#include "mutate/segment.h"
#include "mutate_testlib.h"
#include "serve/backend.h"
#include "serve/retrieval_service.h"
#include "tensor/tensor.h"
#include "util/fault.h"
#include "util/status.h"

namespace adamine {
namespace {

namespace fs = std::filesystem;
using mutate::CorpusSnapshot;
using mutate::MutableCorpus;
using mutate::MutableCorpusConfig;
using mutate_testlib::RowForId;

constexpr int64_t kDim = 8;

Tensor RowTensor(int64_t id) {
  return Tensor::FromVector({kDim}, RowForId(id, kDim));
}

Tensor ItemsForIds(const std::vector<int64_t>& ids) {
  Tensor items({static_cast<int64_t>(ids.size()), kDim});
  for (size_t i = 0; i < ids.size(); ++i) {
    const auto row = RowForId(ids[i], kDim);
    std::memcpy(items.data() + static_cast<int64_t>(i) * kDim, row.data(),
                sizeof(float) * kDim);
  }
  return items;
}

std::vector<int64_t> LiveIdsOf(const CorpusSnapshot& snap) {
  std::vector<int64_t> ids;
  for (const auto& segment : snap.sealed) {
    for (const int64_t id : segment->ids) {
      if (!snap.deleted(id)) ids.push_back(id);
    }
  }
  for (int64_t r = 0; r < snap.mem_rows; ++r) {
    const auto& chunk =
        *snap.mem[static_cast<size_t>(r / mutate::MemChunk::kRows)];
    const int64_t id =
        chunk.ids[static_cast<size_t>(r % mutate::MemChunk::kRows)];
    if (!snap.deleted(id)) ids.push_back(id);
  }
  std::sort(ids.begin(), ids.end());
  return ids;
}

class PressureTest : public ::testing::Test {
 protected:
  void SetUp() override {
    fault::Reset();
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    // Pid-qualified: the pressure_suite battery and the discovered
    // per-test entries may run this test concurrently in two processes
    // (ctest -j), and they must not remove_all each other's corpus.
    dir_ = (fs::temp_directory_path() /
            (std::string("adamine_pressure_") + info->name() + "_" +
             std::to_string(::getpid())))
               .string();
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }

  void TearDown() override {
    fault::Reset();
    fs::remove_all(dir_);
  }

  std::string Path(const std::string& name) const { return dir_ + "/" + name; }

  /// Deterministic (foreground-maintenance) corpus with the given budgets.
  StatusOr<std::unique_ptr<MutableCorpus>> OpenCorpus(
      const MutableCorpusConfig& overrides) {
    MutableCorpusConfig config = overrides;
    config.dim = kDim;
    return MutableCorpus::Open(dir_, config);
  }

  std::string dir_;
};

// --- Admission control ----------------------------------------------------

using BackpressureTest = PressureTest;

TEST_F(BackpressureTest, RowBudgetShedsImmediatelyWhenWaitIsZero) {
  MutableCorpusConfig config;
  config.background = false;
  config.seal_threshold = 4;
  config.memtable_max_rows = 4;
  auto corpus = OpenCorpus(config);
  ASSERT_TRUE(corpus.ok()) << corpus.status().ToString();
  for (int64_t id = 0; id < 4; ++id) {
    ASSERT_TRUE((*corpus)->Add(RowTensor(id)).ok());
  }
  // Over budget: shed, NOT acked, transient so the caller may retry.
  auto shed = (*corpus)->Add(RowTensor(4));
  ASSERT_FALSE(shed.ok());
  EXPECT_EQ(shed.status().code(), StatusCode::kResourceExhausted);
  EXPECT_TRUE(shed.status().IsTransient());
  EXPECT_EQ((*corpus)->live_rows(), 4);
  EXPECT_EQ((*corpus)->GetStats().backpressure_sheds, 1);

  // Draining the memtable (a seal) restores capacity; the retry succeeds
  // and is assigned the id the shed attempt never consumed.
  ASSERT_TRUE((*corpus)->Flush().ok());
  auto retried = (*corpus)->Add(RowTensor(4));
  ASSERT_TRUE(retried.ok()) << retried.status().ToString();
  EXPECT_EQ(*retried, 4);
  EXPECT_EQ((*corpus)->live_rows(), 5);
}

TEST_F(BackpressureTest, ByteBudgetGatesLikeTheRowBudget) {
  const int64_t row_bytes = kDim * static_cast<int64_t>(sizeof(float)) +
                            static_cast<int64_t>(sizeof(int64_t));
  MutableCorpusConfig config;
  config.background = false;
  config.seal_threshold = 1024;
  config.memtable_max_bytes = 3 * row_bytes;
  auto corpus = OpenCorpus(config);
  ASSERT_TRUE(corpus.ok()) << corpus.status().ToString();
  for (int64_t id = 0; id < 3; ++id) {
    ASSERT_TRUE((*corpus)->Add(RowTensor(id)).ok());
  }
  EXPECT_EQ((*corpus)->GetStats().mem_bytes, 3 * row_bytes);
  auto shed = (*corpus)->Add(RowTensor(3));
  ASSERT_FALSE(shed.ok());
  EXPECT_EQ(shed.status().code(), StatusCode::kResourceExhausted);
  ASSERT_TRUE((*corpus)->Flush().ok());
  EXPECT_TRUE((*corpus)->Add(RowTensor(3)).ok());
}

TEST_F(BackpressureTest, EmptyMemtableAdmitsAnOversizedBatch) {
  MutableCorpusConfig config;
  config.background = false;
  config.seal_threshold = 8;
  config.memtable_max_rows = 8;
  auto corpus = OpenCorpus(config);
  ASSERT_TRUE(corpus.ok()) << corpus.status().ToString();
  // A 20-row batch can never fit an 8-row budget, but the empty-memtable
  // escape hatch admits it whole — otherwise it would wedge forever.
  std::vector<int64_t> batch_ids(20);
  for (int64_t i = 0; i < 20; ++i) batch_ids[static_cast<size_t>(i)] = i;
  auto batch = (*corpus)->AddBatch(ItemsForIds(batch_ids));
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  EXPECT_EQ((*corpus)->live_rows(), 20);
  // With the memtable non-empty, even one more row is over budget.
  auto shed = (*corpus)->Add(RowTensor(20));
  ASSERT_FALSE(shed.ok());
  EXPECT_EQ(shed.status().code(), StatusCode::kResourceExhausted);
}

TEST_F(BackpressureTest, SealLagWatermarkGatesBothAddAndDelete) {
  MutableCorpusConfig config;
  config.background = false;
  config.seal_threshold = 2;
  config.max_seal_lag = 1;
  auto corpus = OpenCorpus(config);
  ASSERT_TRUE(corpus.ok()) << corpus.status().ToString();
  // mem_rows / seal_threshold must stay <= max_seal_lag: 4 rows (lag 2)
  // trips the watermark.
  for (int64_t id = 0; id < 4; ++id) {
    ASSERT_TRUE((*corpus)->Add(RowTensor(id)).ok());
  }
  EXPECT_EQ((*corpus)->GetStats().seal_lag, 2);
  auto shed_add = (*corpus)->Add(RowTensor(4));
  ASSERT_FALSE(shed_add.ok());
  EXPECT_EQ(shed_add.status().code(), StatusCode::kResourceExhausted);
  // Deletes append WAL records the next seal must re-log, so the lag
  // watermark gates them too — even for a row that is live.
  Status shed_delete = (*corpus)->Delete(0);
  ASSERT_FALSE(shed_delete.ok());
  EXPECT_EQ(shed_delete.code(), StatusCode::kResourceExhausted);
  EXPECT_GE((*corpus)->GetStats().backpressure_sheds, 2);

  // A seal drains the lag; both verbs are admitted again.
  ASSERT_TRUE((*corpus)->Flush().ok());
  EXPECT_EQ((*corpus)->GetStats().seal_lag, 0);
  EXPECT_TRUE((*corpus)->Delete(0).ok());
  EXPECT_TRUE((*corpus)->Add(RowTensor(4)).ok());
}

TEST_F(BackpressureTest, BlockedAdmissionWakesWhenMaintenanceDrains) {
  MutableCorpusConfig config;
  config.background = false;
  config.seal_threshold = 4;
  config.memtable_max_rows = 4;
  config.admit_wait_ms = 10000.0;  // Far longer than the helper's delay.
  auto corpus = OpenCorpus(config);
  ASSERT_TRUE(corpus.ok()) << corpus.status().ToString();
  for (int64_t id = 0; id < 4; ++id) {
    ASSERT_TRUE((*corpus)->Add(RowTensor(id)).ok());
  }
  // The add blocks in WaitForAdmissionLocked; a helper thread seals,
  // which frees capacity and releases the waiter well before the 10 s
  // admission deadline.
  std::atomic<bool> admitted{false};
  std::thread helper([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    EXPECT_FALSE(admitted.load());  // Still blocked: no capacity yet.
    ASSERT_TRUE((*corpus)->Flush().ok());
  });
  const auto start = std::chrono::steady_clock::now();
  auto added = (*corpus)->Add(RowTensor(4));
  admitted.store(true);
  helper.join();
  ASSERT_TRUE(added.ok()) << added.status().ToString();
  EXPECT_EQ(*added, 4);
  const double waited_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - start)
          .count();
  EXPECT_LT(waited_ms, 9000.0) << "the admission wait never woke";
  EXPECT_EQ((*corpus)->GetStats().backpressure_sheds, 0);
}

TEST_F(BackpressureTest, BlockedAdmissionTimesOutToAShed) {
  MutableCorpusConfig config;
  config.background = false;
  config.seal_threshold = 4;
  config.memtable_max_rows = 4;
  config.admit_wait_ms = 30.0;
  auto corpus = OpenCorpus(config);
  ASSERT_TRUE(corpus.ok());
  for (int64_t id = 0; id < 4; ++id) {
    ASSERT_TRUE((*corpus)->Add(RowTensor(id)).ok());
  }
  // Nobody seals: the wait must expire into a kResourceExhausted shed
  // rather than blocking forever.
  auto shed = (*corpus)->Add(RowTensor(4));
  ASSERT_FALSE(shed.ok());
  EXPECT_EQ(shed.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ((*corpus)->GetStats().backpressure_sheds, 1);
}

TEST_F(BackpressureTest, BudgetConfigIsValidated) {
  MutableCorpusConfig config;
  config.background = false;
  config.memtable_max_rows = -1;
  EXPECT_FALSE(OpenCorpus(config).ok());
  config.memtable_max_rows = 0;
  config.admit_wait_ms = -5.0;
  EXPECT_FALSE(OpenCorpus(config).ok());
  config.admit_wait_ms = 0.0;
  config.maintenance_retry_max = 0;
  EXPECT_FALSE(OpenCorpus(config).ok());
  config.maintenance_retry_max = 8;
  // A row budget below the seal threshold could never fill a seal.
  config.memtable_max_rows = 4;
  config.seal_threshold = 8;
  EXPECT_FALSE(OpenCorpus(config).ok());
}

// --- Transient WAL exhaustion (ENOSPC) ------------------------------------

using WalEnospcTest = PressureTest;

TEST_F(WalEnospcTest, EnospcRollsBackAndTheCorpusResumesAcking) {
  MutableCorpusConfig config;
  config.background = false;
  config.seal_threshold = 4096;
  auto corpus = OpenCorpus(config);
  ASSERT_TRUE(corpus.ok()) << corpus.status().ToString();
  for (int64_t id = 0; id < 3; ++id) {
    ASSERT_TRUE((*corpus)->Add(RowTensor(id)).ok());
  }

  // The disk "fills": the append half-writes and fails with
  // kResourceExhausted. The mutation is NOT acked, the corpus is NOT
  // latched, and the torn bytes are rolled back off the file.
  fault::Arm(fault::kMutateWalEnospc, /*skip=*/0, /*fire=*/1);
  auto shed = (*corpus)->Add(RowTensor(3));
  ASSERT_FALSE(shed.ok());
  EXPECT_EQ(shed.status().code(), StatusCode::kResourceExhausted);
  EXPECT_TRUE(shed.status().IsTransient());
  EXPECT_EQ((*corpus)->live_rows(), 3);
  EXPECT_EQ((*corpus)->GetStats().wal_transient_failures, 1);
  EXPECT_FALSE((*corpus)->GetStats().read_only);

  // Space freed (the point exhausted itself): the retry is acked and gets
  // the id the failed attempt never consumed.
  auto retried = (*corpus)->Add(RowTensor(3));
  ASSERT_TRUE(retried.ok()) << retried.status().ToString();
  EXPECT_EQ(*retried, 3);
  EXPECT_EQ((*corpus)->live_rows(), 4);
  EXPECT_EQ(LiveIdsOf(*(*corpus)->snapshot()),
            (std::vector<int64_t>{0, 1, 2, 3}));
}

TEST_F(WalEnospcTest, MidBatchEnospcRollsTheWholeBatchBack) {
  MutableCorpusConfig config;
  config.background = false;
  config.seal_threshold = 4096;
  auto corpus = OpenCorpus(config);
  ASSERT_TRUE(corpus.ok());
  ASSERT_TRUE((*corpus)->AddBatch(ItemsForIds({0, 1})).ok());

  // The 3rd record of the next batch hits ENOSPC: records 1-2 of the
  // batch are already in the file (sync=false) and must be truncated away
  // with the torn half-record — the batch acks all-or-nothing.
  fault::Arm(fault::kMutateWalEnospc, /*skip=*/2, /*fire=*/1);
  auto shed = (*corpus)->AddBatch(ItemsForIds({2, 3, 4, 5}));
  ASSERT_FALSE(shed.ok());
  EXPECT_EQ(shed.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ((*corpus)->live_rows(), 2);

  auto retried = (*corpus)->AddBatch(ItemsForIds({2, 3, 4, 5}));
  ASSERT_TRUE(retried.ok()) << retried.status().ToString();
  EXPECT_EQ(*retried, 2);  // Same first id: nothing was consumed.
  EXPECT_EQ((*corpus)->live_rows(), 6);
}

TEST_F(WalEnospcTest, ReopenAfterTheOutageIsBitIdentical) {
  {
    MutableCorpusConfig config;
    config.background = false;
    config.seal_threshold = 4096;
    auto corpus = OpenCorpus(config);
    ASSERT_TRUE(corpus.ok());
    ASSERT_TRUE((*corpus)->Add(RowTensor(0)).ok());
    fault::Arm(fault::kMutateWalEnospc, /*skip=*/0, /*fire=*/1);
    ASSERT_EQ((*corpus)->Add(RowTensor(1)).status().code(),
              StatusCode::kResourceExhausted);
    ASSERT_TRUE((*corpus)->Add(RowTensor(1)).ok());
    ASSERT_TRUE((*corpus)->Delete(0).ok());
  }  // No flush: the WAL (with its rolled-back scar healed) is the truth.
  MutableCorpusConfig config;
  config.background = false;
  auto corpus = OpenCorpus(config);
  ASSERT_TRUE(corpus.ok()) << corpus.status().ToString();
  auto snap = (*corpus)->snapshot();
  EXPECT_EQ(LiveIdsOf(*snap), (std::vector<int64_t>{1}));
  EXPECT_FALSE((*corpus)->GetStats().read_only);
  // The replayed row is bit-exact.
  const auto want = RowForId(1, kDim);
  const auto& chunk = *snap->mem[0];
  for (int64_t r = 0; r < snap->mem_rows; ++r) {
    if (chunk.ids[static_cast<size_t>(r)] != 1) continue;
    EXPECT_EQ(std::memcmp(chunk.data.data() + r * kDim, want.data(),
                          sizeof(float) * kDim),
              0);
  }
}

TEST_F(WalEnospcTest, EnospcDuringDeleteRollsBackAndRetries) {
  MutableCorpusConfig config;
  config.background = false;
  auto corpus = OpenCorpus(config);
  ASSERT_TRUE(corpus.ok());
  ASSERT_TRUE((*corpus)->Add(RowTensor(0)).ok());
  fault::Arm(fault::kMutateWalEnospc, /*skip=*/0, /*fire=*/1);
  Status shed = (*corpus)->Delete(0);
  ASSERT_FALSE(shed.ok());
  EXPECT_EQ(shed.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ((*corpus)->live_rows(), 1);  // NOT tombstoned: nothing acked.
  ASSERT_TRUE((*corpus)->Delete(0).ok());
  EXPECT_EQ((*corpus)->live_rows(), 0);
}

TEST_F(WalEnospcTest, ReadsStayBitIdenticalToScalarWhileTheWindowIsOpen) {
  MutableCorpusConfig config;
  config.background = false;
  auto corpus = OpenCorpus(config);
  ASSERT_TRUE(corpus.ok()) << corpus.status().ToString();
  // Reads cover a sealed segment, memtable rows and a tombstone.
  ASSERT_TRUE((*corpus)->AddBatch(ItemsForIds({0, 1, 2, 3, 4, 5, 6, 7})).ok());
  ASSERT_TRUE((*corpus)->Flush().ok());
  ASSERT_TRUE((*corpus)->AddBatch(ItemsForIds({8, 9, 10, 11})).ok());
  ASSERT_TRUE((*corpus)->Delete(2).ok());
  ASSERT_EQ((*corpus)->snapshot()->sealed.size(), 1u);
  mutate::MutableBackend backend(std::move(corpus).value(), "");

  serve::QueryBatch batch;
  batch.queries = ItemsForIds({100, 101, 102, 103});
  const int64_t k = 5;
  // The scalar oracle over the acked live rows; its hit i is live_ids[i].
  const auto expect_scalar_answers = [&](const std::vector<int64_t>& live) {
    ASSERT_EQ(backend.size(), static_cast<int64_t>(live.size()));
    serve::BackendConfig oracle_config;
    oracle_config.items = ItemsForIds(live);
    auto oracle = serve::CreateBackend("scalar", oracle_config);
    ASSERT_TRUE(oracle.ok()) << oracle.status().ToString();
    auto want = (*oracle)->ScoreTopK(batch, nullptr, k, {});
    auto got = backend.ScoreTopK(batch, nullptr, k, {});
    ASSERT_TRUE(want.ok() && got.ok());
    ASSERT_EQ(got->hits.size(), want->hits.size());
    for (size_t q = 0; q < want->hits.size(); ++q) {
      ASSERT_EQ(got->hits[q].size(), want->hits[q].size());
      for (size_t i = 0; i < want->hits[q].size(); ++i) {
        EXPECT_EQ(got->hits[q][i].index,
                  live[static_cast<size_t>(want->hits[q][i].index)]);
        EXPECT_EQ(got->hits[q][i].score, want->hits[q][i].score);  // Bitwise.
      }
    }
  };
  const std::vector<int64_t> before = {0, 1, 3, 4, 5, 6, 7, 8, 9, 10, 11};
  expect_scalar_answers(before);

  // The disk stays full for three appends: an Add, a Delete and a batch
  // are each shed, and every read in between answers from the acked rows.
  fault::Arm(fault::kMutateWalEnospc, /*skip=*/0, /*fire=*/3);
  EXPECT_EQ(backend.Add(RowTensor(12)).status().code(),
            StatusCode::kResourceExhausted);
  expect_scalar_answers(before);
  EXPECT_EQ(backend.Delete(0).code(), StatusCode::kResourceExhausted);
  expect_scalar_answers(before);
  EXPECT_EQ(backend.corpus()->AddBatch(ItemsForIds({12, 13})).status().code(),
            StatusCode::kResourceExhausted);
  expect_scalar_answers(before);

  // Space freed: the retry is acked and reads see it at once.
  auto retried = backend.Add(RowTensor(12));
  ASSERT_TRUE(retried.ok()) << retried.status().ToString();
  EXPECT_EQ(*retried, 12);
  expect_scalar_answers({0, 1, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12});
}

TEST_F(WalEnospcTest, PermanentWalFailureStillLatchesReadOnly) {
  MutableCorpusConfig config;
  config.background = false;
  auto corpus = OpenCorpus(config);
  ASSERT_TRUE(corpus.ok());
  ASSERT_TRUE((*corpus)->Add(RowTensor(0)).ok());
  // The torn-tail point models a fault with an unknown on-disk extent —
  // that one must stay sticky, taxonomy unchanged.
  fault::Arm(fault::kMutateWalTorn, /*skip=*/0, /*fire=*/1);
  ASSERT_FALSE((*corpus)->Add(RowTensor(1)).ok());
  EXPECT_TRUE((*corpus)->GetStats().read_only);
  auto refused = (*corpus)->Add(RowTensor(2));
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_FALSE(refused.status().IsTransient());
}

// --- Delete semantics pinned across recovery ------------------------------

using DeleteSemanticsTest = PressureTest;

TEST_F(DeleteSemanticsTest, DoubleDeleteIsNotFoundEvenAcrossReopen) {
  {
    MutableCorpusConfig config;
    config.background = false;
    auto corpus = OpenCorpus(config);
    ASSERT_TRUE(corpus.ok());
    ASSERT_TRUE((*corpus)->AddBatch(ItemsForIds({0, 1, 2})).ok());
    EXPECT_EQ((*corpus)->Delete(99).code(), StatusCode::kNotFound);
    ASSERT_TRUE((*corpus)->Delete(1).ok());
    EXPECT_EQ((*corpus)->Delete(1).code(), StatusCode::kNotFound);
  }
  // After WAL replay the tombstone must hold exactly the same semantics:
  // the id is still known (never reused) but not live.
  MutableCorpusConfig config;
  config.background = false;
  auto corpus = OpenCorpus(config);
  ASSERT_TRUE(corpus.ok()) << corpus.status().ToString();
  EXPECT_EQ((*corpus)->Delete(1).code(), StatusCode::kNotFound);
  EXPECT_EQ((*corpus)->Delete(99).code(), StatusCode::kNotFound);
  EXPECT_EQ((*corpus)->live_rows(), 2);
  // A failed Delete acks nothing: replay again and nothing changed.
  auto next = (*corpus)->Add(RowTensor(3));
  ASSERT_TRUE(next.ok());
  EXPECT_EQ(*next, 3) << "a rejected Delete must not burn an id";
}

TEST_F(DeleteSemanticsTest, DoubleDeleteIsNotFoundAfterFlushAndReopen) {
  {
    MutableCorpusConfig config;
    config.background = false;
    auto corpus = OpenCorpus(config);
    ASSERT_TRUE(corpus.ok());
    ASSERT_TRUE((*corpus)->AddBatch(ItemsForIds({0, 1, 2})).ok());
    ASSERT_TRUE((*corpus)->Delete(1).ok());
    ASSERT_TRUE((*corpus)->Flush().ok());  // Tombstone now manifest-borne.
  }
  MutableCorpusConfig config;
  config.background = false;
  auto corpus = OpenCorpus(config);
  ASSERT_TRUE(corpus.ok()) << corpus.status().ToString();
  EXPECT_EQ((*corpus)->Delete(1).code(), StatusCode::kNotFound);
  EXPECT_EQ(LiveIdsOf(*(*corpus)->snapshot()), (std::vector<int64_t>{0, 2}));
}

// --- Maintenance retry and escalation -------------------------------------

using MaintenanceRetryTest = PressureTest;

TEST_F(MaintenanceRetryTest, TransientSealFailureRetriesAndRecovers) {
  MutableCorpusConfig config;
  config.seal_threshold = 2;
  config.background = true;
  config.maintenance_retry_max = 8;
  config.maintenance_backoff_base_ms = 1.0;
  config.maintenance_backoff_max_ms = 4.0;
  auto corpus = OpenCorpus(config);
  ASSERT_TRUE(corpus.ok()) << corpus.status().ToString();
  // The first two seal attempts die at the crash boundary (the segment is
  // written but the manifest never names it — an orphan, not an ack
  // loss); the third succeeds after backoff.
  fault::Arm(fault::kMutateSealCrash, /*skip=*/0, /*fire=*/2);
  for (int64_t id = 0; id < 4; ++id) {
    ASSERT_TRUE((*corpus)->Add(RowTensor(id)).ok());
  }
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while ((*corpus)->GetStats().seals < 1 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  const auto stats = (*corpus)->GetStats();
  EXPECT_GE(stats.seals, 1) << "the retried seal never landed";
  EXPECT_FALSE(stats.read_only);
  EXPECT_EQ((*corpus)->live_rows(), 4);
}

TEST_F(MaintenanceRetryTest, PersistentSealFailureEscalatesToReadOnly) {
  MutableCorpusConfig config;
  config.seal_threshold = 2;
  config.background = true;
  config.maintenance_retry_max = 3;
  config.maintenance_backoff_base_ms = 1.0;
  config.maintenance_backoff_max_ms = 2.0;
  auto corpus = OpenCorpus(config);
  ASSERT_TRUE(corpus.ok()) << corpus.status().ToString();
  // Every seal attempt fails: after maintenance_retry_max consecutive
  // failures the corpus must latch read-only rather than retry forever.
  fault::Arm(fault::kMutateSealCrash, /*skip=*/0);
  for (int64_t id = 0; id < 2; ++id) {
    ASSERT_TRUE((*corpus)->Add(RowTensor(id)).ok());
  }
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (!(*corpus)->GetStats().read_only &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_TRUE((*corpus)->GetStats().read_only)
      << "persistent failure never escalated";
  // Reads still serve; mutations are refused crisply.
  EXPECT_EQ((*corpus)->live_rows(), 2);
  EXPECT_EQ((*corpus)->Add(RowTensor(9)).status().code(),
            StatusCode::kFailedPrecondition);
  fault::Reset();
  // The latch is sticky: clearing the fault does not un-latch; reopen
  // does (and every acknowledged row survived the whole episode).
  EXPECT_EQ((*corpus)->Add(RowTensor(9)).status().code(),
            StatusCode::kFailedPrecondition);
  corpus->reset();
  MutableCorpusConfig reopen;
  reopen.background = false;
  auto recovered = OpenCorpus(reopen);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ(LiveIdsOf(*(*recovered)->snapshot()),
            (std::vector<int64_t>{0, 1}));
  EXPECT_TRUE((*recovered)->Add(RowTensor(2)).ok());
}

// --- The integrity scrubber -----------------------------------------------

using ScrubTest = PressureTest;

/// Seeds a corpus with `n` rows sealed into one segment plus `mem` rows
/// left in the memtable, foreground maintenance.
std::unique_ptr<MutableCorpus> SealedCorpus(const std::string& dir,
                                            int64_t n, int64_t mem) {
  MutableCorpusConfig config;
  config.dim = kDim;
  config.background = false;
  auto corpus = MutableCorpus::Open(dir, config);
  EXPECT_TRUE(corpus.ok()) << corpus.status().ToString();
  std::vector<int64_t> ids(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) ids[static_cast<size_t>(i)] = i;
  EXPECT_TRUE((*corpus)->AddBatch(ItemsForIds(ids)).ok());
  EXPECT_TRUE((*corpus)->Flush().ok());
  for (int64_t i = 0; i < mem; ++i) {
    EXPECT_TRUE((*corpus)->Add(RowTensor(n + i)).ok());
  }
  return std::move(corpus.value());
}

TEST_F(ScrubTest, CleanScrubStampsThePassAndChangesNothing) {
  auto corpus = SealedCorpus(dir_, 4, 2);
  const int64_t epoch_before = corpus->epoch();
  ASSERT_TRUE(corpus->Scrub().ok());
  const auto stats = corpus->GetStats();
  EXPECT_EQ(stats.scrubs, 1);
  EXPECT_GT(stats.last_scrub_unix_ms, 0);
  EXPECT_EQ(stats.quarantined_segments, 0);
  EXPECT_EQ(corpus->epoch(), epoch_before);  // Results unchanged: no bump.
  EXPECT_EQ(corpus->live_rows(), 6);
}

TEST_F(ScrubTest, RealByteCorruptionIsQuarantinedAndServingContinues) {
  auto corpus = SealedCorpus(dir_, 4, 2);
  const std::string segment = mutate::SegmentFileName(0);
  // Flip one payload byte on disk: the in-memory copy is still fine, so
  // only a scrub that re-reads the file can catch it.
  {
    std::fstream f(Path(segment),
                   std::ios::binary | std::ios::in | std::ios::out);
    ASSERT_TRUE(f.good());
    f.seekp(32);
    char byte = 0;
    f.seekg(32);
    f.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0x40);
    f.seekp(32);
    f.write(&byte, 1);
  }
  const int64_t epoch_before = corpus->epoch();
  ASSERT_TRUE(corpus->Scrub().ok());  // Ok: partial but healthy.
  const auto stats = corpus->GetStats();
  EXPECT_EQ(stats.quarantined_segments, 1);
  EXPECT_EQ(stats.quarantined_rows, 4);
  EXPECT_GT(corpus->epoch(), epoch_before);  // Rows vanished: caches drop.
  // The file was renamed out of the way, not deleted: forensics intact.
  EXPECT_FALSE(fs::exists(Path(segment)));
  EXPECT_TRUE(fs::exists(Path(segment + ".quarantine")));
  // Serving continues over the survivors — the memtable rows.
  EXPECT_EQ(LiveIdsOf(*corpus->snapshot()), (std::vector<int64_t>{4, 5}));
  // Mutations still flow: the corpus is degraded, not read-only.
  EXPECT_TRUE(corpus->Add(RowTensor(6)).ok());
}

TEST_F(ScrubTest, FaultInjectedBitrotRunsTheSameQuarantineProtocol) {
  auto corpus = SealedCorpus(dir_, 3, 0);
  fault::Arm(fault::kMutateSegmentBitrot, /*skip=*/0, /*fire=*/1);
  ASSERT_TRUE(corpus->Scrub().ok());
  EXPECT_EQ(corpus->GetStats().quarantined_segments, 1);
  EXPECT_EQ(corpus->live_rows(), 0);
  EXPECT_TRUE(
      fs::exists(Path(mutate::SegmentFileName(0) + ".quarantine")));
  // The next pass is clean: the quarantined segment is out of the set.
  ASSERT_TRUE(corpus->Scrub().ok());
  EXPECT_EQ(corpus->GetStats().quarantined_segments, 1);
  EXPECT_EQ(corpus->GetStats().scrubs, 2);
}

TEST_F(ScrubTest, QuarantineSurvivesReopen) {
  {
    auto corpus = SealedCorpus(dir_, 3, 1);
    fault::Arm(fault::kMutateSegmentBitrot, /*skip=*/0, /*fire=*/1);
    ASSERT_TRUE(corpus->Scrub().ok());
    ASSERT_TRUE(corpus->Add(RowTensor(9)).ok());  // Acked post-quarantine.
  }
  MutableCorpusConfig config;
  config.background = false;
  auto corpus = OpenCorpus(config);
  ASSERT_TRUE(corpus.ok()) << corpus.status().ToString();
  // The quarantined file is neither resurrected nor swept as an orphan,
  // and every row acked after the quarantine replays.
  EXPECT_TRUE(
      fs::exists(Path(mutate::SegmentFileName(0) + ".quarantine")));
  EXPECT_EQ((*corpus)->GetStats().quarantined_segments, 1);
  // Ids stay contiguous: the post-quarantine add was assigned id 4 (ids
  // 0-2 died with the segment, they are not holes to refill).
  EXPECT_EQ(LiveIdsOf(*(*corpus)->snapshot()), (std::vector<int64_t>{3, 4}));
  // The burned sequence number is never reused for a fresh segment.
  ASSERT_TRUE((*corpus)->Flush().ok());
  EXPECT_FALSE(fs::exists(Path(mutate::SegmentFileName(0))));
}

TEST_F(ScrubTest, TornLiveManifestSelfHeals) {
  auto corpus = SealedCorpus(dir_, 3, 0);
  const int64_t generation = corpus->GetStats().generation;
  const std::string manifest = Path(mutate::ManifestFileName(generation));
  // Tear the live manifest on disk. Nothing notices until a restart —
  // except the scrubber, which re-validates and rewrites it in place.
  {
    std::ofstream f(manifest, std::ios::binary | std::ios::trunc);
    f << "to";
  }
  ASSERT_TRUE(corpus->Scrub().ok());
  EXPECT_EQ(corpus->GetStats().generation, generation);  // Same generation.
  ASSERT_TRUE(mutate::LoadManifestFile(manifest).ok())
      << "the scrub did not heal the torn manifest";
  // Proof it healed correctly: a fresh recovery sees every row.
  corpus.reset();
  MutableCorpusConfig config;
  config.background = false;
  auto recovered = OpenCorpus(config);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ(LiveIdsOf(*(*recovered)->snapshot()),
            (std::vector<int64_t>{0, 1, 2}));
}

TEST_F(ScrubTest, BackgroundScrubCadenceQuarantinesWithoutExplicitCalls) {
  MutableCorpusConfig config;
  config.dim = kDim;
  config.background = true;
  config.seal_threshold = 2;
  config.scrub_interval_ms = 20.0;
  auto opened = MutableCorpus::Open(dir_, config);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  auto& corpus = *opened.value();
  ASSERT_TRUE(corpus.AddBatch(ItemsForIds({0, 1})).ok());
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (corpus.GetStats().sealed_segments < 1 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_GE(corpus.GetStats().sealed_segments, 1);
  fault::Arm(fault::kMutateSegmentBitrot, /*skip=*/0, /*fire=*/1);
  while (corpus.GetStats().quarantined_segments < 1 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(corpus.GetStats().quarantined_segments, 1)
      << "the background scrubber never quarantined";
  EXPECT_GE(corpus.GetStats().scrubs, 1);
}

// --- Pressure gauges through the serving stack ----------------------------

using PressureStatsTest = PressureTest;

TEST_F(PressureStatsTest, BackendPressureMirrorsCorpusStats) {
  serve::BackendConfig config;
  config.items = ItemsForIds({0, 1, 2, 3});
  config.wal_dir = dir_;
  config.seal_threshold = 8;
  config.memtable_max_rows = 8;
  auto backend = serve::CreateBackend("mutable", config);
  ASSERT_TRUE(backend.ok()) << backend.status().ToString();
  ASSERT_TRUE((*backend)->Add(RowTensor(4)).ok());
  const serve::MutationPressure pressure = (*backend)->pressure();
  EXPECT_EQ(pressure.mem_rows, 5);
  EXPECT_GT(pressure.mem_bytes, 0);
  EXPECT_FALSE(pressure.read_only);
  // Immutable backends report the all-zero default.
  serve::BackendConfig immutable;
  immutable.items = ItemsForIds({0, 1});
  auto exhaustive = serve::CreateBackend("exhaustive", immutable);
  ASSERT_TRUE(exhaustive.ok());
  EXPECT_EQ((*exhaustive)->pressure().mem_rows, 0);
  EXPECT_FALSE((*exhaustive)->pressure().read_only);
}

TEST_F(PressureStatsTest, ServiceSnapshotCarriesTheGaugesAndSheds) {
  serve::ServeConfig config;
  config.backend = serve::Backend::kMutable;
  config.wal_dir = dir_;
  config.seal_threshold = 2;
  config.memtable_max_rows = 4;
  // Seals fail while armed, so the background thread cannot drain the
  // seeded memtable out from under the assertion — the shed below is
  // deterministic, not a race against maintenance.
  fault::Arm(fault::kMutateSealCrash, /*skip=*/0);
  auto service =
      serve::RetrievalService::Create(ItemsForIds({0, 1, 2, 3}), config);
  ASSERT_TRUE(service.ok()) << service.status().ToString();
  // The seed filled the memtable to its budget: the next row sheds.
  auto shed = (*service)->Add(RowTensor(4));
  ASSERT_FALSE(shed.ok());
  EXPECT_EQ(shed.status().code(), StatusCode::kResourceExhausted);
  const serve::ServeStats stats = (*service)->Snapshot();
  EXPECT_EQ(stats.mutation.mem_rows, 4);
  EXPECT_EQ(stats.mutation.backpressure_sheds, 1);
  EXPECT_FALSE(stats.mutation.read_only);
  // The human-readable dump (what the serve CLI prints) shows the line.
  const std::string text = stats.ToString();
  EXPECT_NE(text.find("mutate mem"), std::string::npos);
  EXPECT_NE(text.find("sheds 1"), std::string::npos);
}

TEST_F(PressureStatsTest, QuarantineDegradesServiceHealth) {
  serve::ServeConfig config;
  config.backend = serve::Backend::kMutable;
  config.wal_dir = dir_;
  config.seal_threshold = 4;
  config.scrub_interval_ms = 10.0;  // Background scrubbing, through config.
  auto service =
      serve::RetrievalService::Create(ItemsForIds({0, 1, 2, 3}), config);
  ASSERT_TRUE(service.ok()) << service.status().ToString();
  // The 4-row seed reaches the seal threshold; wait for the background
  // seal to drain the memtable into a sealed segment.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while ((*service)->Snapshot().mutation.mem_rows > 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_EQ((*service)->Snapshot().mutation.mem_rows, 0);
  // Condemn the sealed segment at the next scrub pass.
  fault::Arm(fault::kMutateSegmentBitrot, /*skip=*/0, /*fire=*/1);
  while ((*service)->Snapshot().mutation.quarantined_segments < 1 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  const serve::ServeStats stats = (*service)->Snapshot();
  EXPECT_EQ(stats.mutation.quarantined_segments, 1);
  EXPECT_EQ(stats.health, serve::HealthState::kDegraded);
  // Queries never abort against the quarantined corpus: coverage is
  // partial (the memtable is empty and the only segment is gone).
  const auto hits = (*service)->Query(RowTensor(0), 2);
  EXPECT_TRUE(hits.empty());  // 0 live rows, but a clean empty result.
  // Text dump shows the scrub line.
  EXPECT_NE(stats.ToString().find("quarantined 1 segs"), std::string::npos);
}

// --- Concurrency (runs under tsan via -L tsan) ----------------------------

using PressureConcurrencyTest = PressureTest;

TEST_F(PressureConcurrencyTest, ConcurrentIngestUnderBudgetNeverLosesAnAck) {
  MutableCorpusConfig config;
  config.seal_threshold = 16;
  config.memtable_max_rows = 32;
  config.max_seal_lag = 4;
  config.admit_wait_ms = 2000.0;
  config.background = true;
  auto corpus = OpenCorpus(config);
  ASSERT_TRUE(corpus.ok()) << corpus.status().ToString();

  constexpr int kThreads = 4;
  constexpr int kPerThread = 64;
  std::atomic<int64_t> acked{0};
  std::atomic<int64_t> shed{0};
  std::vector<std::thread> writers;
  writers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        const auto added =
            (*corpus)->Add(RowTensor(t * kPerThread + i));
        if (added.ok()) {
          acked.fetch_add(1);
        } else if (added.status().IsTransient()) {
          shed.fetch_add(1);
        } else {
          ADD_FAILURE() << added.status().ToString();
        }
      }
    });
  }
  // A reader hammers snapshots while the writers run.
  std::atomic<bool> stop{false};
  std::thread reader([&] {
    while (!stop.load()) {
      auto snap = (*corpus)->snapshot();
      (void)LiveIdsOf(*snap);
    }
  });
  for (auto& w : writers) w.join();
  stop.store(true);
  reader.join();

  // Every ack is a live row; sheds lost nothing that was promised.
  EXPECT_EQ((*corpus)->live_rows(), acked.load());
  EXPECT_EQ(acked.load() + shed.load(), kThreads * kPerThread);
  EXPECT_EQ((*corpus)->GetStats().backpressure_sheds, shed.load());
}

TEST_F(PressureConcurrencyTest, ScrubRacesMutationsSafely) {
  MutableCorpusConfig config;
  config.seal_threshold = 8;
  config.background = true;
  config.scrub_interval_ms = 1.0;  // Scrub as fast as the loop allows.
  auto corpus = OpenCorpus(config);
  ASSERT_TRUE(corpus.ok()) << corpus.status().ToString();
  for (int64_t id = 0; id < 200; ++id) {
    ASSERT_TRUE((*corpus)->Add(RowTensor(id)).ok());
    if (id % 3 == 0) {
      ASSERT_TRUE((*corpus)->Delete(id).ok());
    }
  }
  // Quiesce and verify: nothing was lost to a scrub racing the ingest.
  ASSERT_TRUE((*corpus)->Flush().ok());
  std::vector<int64_t> want;
  for (int64_t id = 0; id < 200; ++id) {
    if (id % 3 != 0) want.push_back(id);
  }
  EXPECT_EQ(LiveIdsOf(*(*corpus)->snapshot()), want);
  EXPECT_EQ((*corpus)->GetStats().quarantined_segments, 0);
}

}  // namespace
}  // namespace adamine
