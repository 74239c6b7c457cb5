// Determinism suite for the kernel execution layer: every kernel must
// produce bit-identical results for every thread-pool width, because the
// chunk decomposition depends only on the problem size and partials are
// combined in ascending chunk order (see DESIGN.md, "Kernel execution
// layer"). The tests sweep widths {1, 2, 4, 7} — powers of two plus an odd
// width that leaves ragged chunk-to-thread assignments — over the GEMM
// variants, the reductions, the batch losses on a realistic batch, the
// retrieval ranking, and one full training epoch. The TopKTest cases pin
// the one ranking rule (kernel/topk.h) every retrieval path selects with.

#include "kernel/kernel.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <thread>
#include <vector>

#include "core/losses.h"
#include "core/pipeline.h"
#include "eval/metrics.h"
#include "kernel/gemm.h"
#include "kernel/reduce.h"
#include "kernel/topk.h"
#include "tensor/ops.h"
#include "util/rng.h"

namespace adamine {
namespace {

const int kWidths[] = {1, 2, 4, 7};

// Pins the kernel pool width for one scope and restores the
// single-threaded default afterwards, so tests never leak a width into
// each other.
class ThreadGuard {
 public:
  explicit ThreadGuard(int num_threads) { kernel::SetNumThreads(num_threads); }
  ~ThreadGuard() { kernel::SetNumThreads(1); }
};

bool SameBits(const Tensor& a, const Tensor& b) {
  if (a.numel() != b.numel()) return false;
  return std::memcmp(a.data(), b.data(),
                     sizeof(float) * static_cast<size_t>(a.numel())) == 0;
}

TEST(ParallelForTest, CoversEveryIndexExactlyOnce) {
  for (int width : kWidths) {
    ThreadGuard guard(width);
    std::vector<int> hits(1001, 0);
    kernel::ParallelFor(1001, 7, [&](int64_t begin, int64_t end) {
      for (int64_t i = begin; i < end; ++i) ++hits[static_cast<size_t>(i)];
    });
    for (int h : hits) ASSERT_EQ(h, 1);
  }
}

TEST(ParallelForTest, ChunkDecompositionIgnoresThreadCount) {
  // The chunk a given index lands in is a pure function of (n, grain).
  for (int width : kWidths) {
    ThreadGuard guard(width);
    std::vector<int64_t> chunk_of(100, -1);
    kernel::ParallelForChunks(100, 9, [&](int64_t c, int64_t begin,
                                          int64_t end) {
      for (int64_t i = begin; i < end; ++i) chunk_of[static_cast<size_t>(i)] = c;
    });
    for (int64_t i = 0; i < 100; ++i) {
      ASSERT_EQ(chunk_of[static_cast<size_t>(i)], i / 9);
    }
  }
}

TEST(ParallelForTest, NestedCallsRunInlineWithoutDeadlock) {
  ThreadGuard guard(4);
  std::vector<int> hits(64 * 64, 0);
  kernel::ParallelFor(64, 8, [&](int64_t begin, int64_t end) {
    for (int64_t i = begin; i < end; ++i) {
      kernel::ParallelFor(64, 8, [&](int64_t b2, int64_t e2) {
        for (int64_t j = b2; j < e2; ++j) ++hits[static_cast<size_t>(i * 64 + j)];
      });
    }
  });
  for (int h : hits) ASSERT_EQ(h, 1);
}

TEST(ParallelForTest, ConcurrentDispatchesFromManyThreadsStayExact) {
  // The pool accepts concurrent jobs (the sharded serving layer dispatches
  // one GEMM per shard from its fan-out threads): every caller must see
  // every one of its own chunks run exactly once, with no cross-job
  // interference. Runs under `ctest -L tsan` with the rest of
  // ParallelForTest.
  ThreadGuard guard(4);
  constexpr int kCallers = 4;
  constexpr int kPasses = 8;
  constexpr int64_t kN = 1001;
  std::vector<std::vector<int>> hits(
      kCallers, std::vector<int>(static_cast<size_t>(kN), 0));
  std::vector<std::thread> callers;
  for (int t = 0; t < kCallers; ++t) {
    callers.emplace_back([&hits, t] {
      for (int pass = 0; pass < kPasses; ++pass) {
        kernel::ParallelFor(kN, 7, [&hits, t](int64_t begin, int64_t end) {
          for (int64_t i = begin; i < end; ++i) {
            ++hits[static_cast<size_t>(t)][static_cast<size_t>(i)];
          }
        });
      }
    });
  }
  for (std::thread& caller : callers) caller.join();
  for (const auto& per_caller : hits) {
    for (int h : per_caller) ASSERT_EQ(h, kPasses);
  }
}

TEST(ParallelForTest, ConfigureZeroKeepsCurrentWidth) {
  ThreadGuard guard(3);
  kernel::Configure(kernel::KernelConfig{0});
  EXPECT_EQ(kernel::NumThreads(), 3);
  kernel::Configure(kernel::KernelConfig{2});
  EXPECT_EQ(kernel::NumThreads(), 2);
}

TEST(ParallelReduceTest, OrderedFoldIsWidthInvariant) {
  Rng rng(17);
  Tensor values = Tensor::Randn({99991}, rng);  // prime => ragged last chunk
  ThreadGuard baseline(1);
  const double expect =
      kernel::ParallelPairwiseSum(values.data(), values.numel());
  for (int width : kWidths) {
    ThreadGuard guard(width);
    const double got =
        kernel::ParallelPairwiseSum(values.data(), values.numel());
    EXPECT_EQ(got, expect) << "width " << width;
  }
}

TEST(ParallelReduceTest, PairwiseSumTracksDoubleReference) {
  // Pairwise summation should land within a few ulps of the sequential
  // double sum even on ill-conditioned input (many small terms after a
  // large one).
  std::vector<float> values(100000, 1e-4f);
  values[0] = 1e6f;
  double reference = 0.0;
  for (float v : values) reference += static_cast<double>(v);
  const double got =
      kernel::PairwiseSum(values.data(), static_cast<int64_t>(values.size()));
  EXPECT_NEAR(got, reference, 1e-4);
}

TEST(ParallelReduceTest, PairwiseDotBaseCaseIsLeftFold) {
  // For n <= the pairwise base case, PairwiseDot must be the exact
  // sequential left fold — word2vec's SGD loop relies on this to reproduce
  // the pre-kernel-layer bits.
  Rng rng(23);
  Tensor a = Tensor::Randn({64}, rng);
  Tensor b = Tensor::Randn({64}, rng);
  double fold = 0.0;
  for (int64_t i = 0; i < 64; ++i) {
    fold += static_cast<double>(a.data()[i]) * static_cast<double>(b.data()[i]);
  }
  EXPECT_EQ(kernel::PairwiseDot(a.data(), b.data(), 64), fold);
}

// Naive triple-loop reference with float accumulation in ascending k order —
// the contract the tiled kernel promises to match bit-for-bit.
Tensor NaiveGemm(const Tensor& a, bool trans_a, const Tensor& b, bool trans_b,
                 int64_t m, int64_t n, int64_t k) {
  Tensor c = Tensor::Zeros({m, n});
  for (int64_t i = 0; i < m; ++i) {
    for (int64_t j = 0; j < n; ++j) {
      float acc = 0.0f;
      for (int64_t p = 0; p < k; ++p) {
        const float av = trans_a ? a.At(p, i) : a.At(i, p);
        const float bv = trans_b ? b.At(j, p) : b.At(p, j);
        acc += av * bv;
      }
      c.At(i, j) = acc;
    }
  }
  return c;
}

/// NaiveGemm over raw row-major buffers: op(A) is a [m, k] (or its [k, m]
/// transpose), op(B) is b [k, n] (or its [n, k] transpose). Unlike Tensor,
/// raw buffers can express k = 0.
std::vector<float> NaiveGemm(const std::vector<float>& a, bool trans_a,
                             const std::vector<float>& b, bool trans_b,
                             int64_t m, int64_t n, int64_t k) {
  std::vector<float> c(static_cast<size_t>(m * n));
  for (int64_t i = 0; i < m; ++i) {
    for (int64_t j = 0; j < n; ++j) {
      float acc = 0.0f;
      for (int64_t p = 0; p < k; ++p) {
        const float av = trans_a ? a[p * m + i] : a[i * k + p];
        const float bv = trans_b ? b[j * k + p] : b[p * n + j];
        acc += av * bv;
      }
      c[i * n + j] = acc;
    }
  }
  return c;
}

std::vector<float> RandomBuffer(int64_t size, Rng& rng) {
  // One spare element keeps data() dereferenceable when size is 0.
  std::vector<float> v(static_cast<size_t>(size + 1));
  for (float& x : v) x = static_cast<float>(rng.Normal());
  return v;
}

TEST(GemmPackedTest, MatchesNaiveAndOneShotBitsAcrossShapesAndWidths) {
  // m spans partial register tiles (1..5), partial and whole row chunks
  // (31, 33, 64); n spans a lone column, ragged and exact panels, and
  // many panel groups (1000); k = 0 is the empty chain. One packed operand
  // per (k, n, trans_b) serves every m, trans_a and width.
  const int64_t ms[] = {1, 2, 3, 4, 5, 31, 33, 64};
  const int64_t ns[] = {1, 15, 16, 17, 1000};
  const int64_t ks[] = {0, 1, 7, 128};
  const int widths[] = {1, 2, 4};
  Rng rng(11);
  for (const int64_t k : ks) {
    for (const int64_t n : ns) {
      for (const bool trans_b : {false, true}) {
        const std::vector<float> b = RandomBuffer(k * n, rng);
        const int64_t ldb = trans_b ? k : n;
        const kernel::PackedB packed = kernel::PackB(b.data(), ldb, trans_b,
                                                     k, n);
        ASSERT_EQ(packed.k(), k);
        ASSERT_EQ(packed.n(), n);
        ASSERT_EQ(packed.bytes(), static_cast<int64_t>(sizeof(float)) *
                                      packed.num_panels() * k *
                                      kernel::PackedB::kPanelWidth);
        for (const int64_t m : ms) {
          for (const bool trans_a : {false, true}) {
            const std::vector<float> a = RandomBuffer(m * k, rng);
            const int64_t lda = trans_a ? m : k;
            const std::vector<float> want =
                NaiveGemm(a, trans_a, b, trans_b, m, n, k);
            for (const int width : widths) {
              ThreadGuard guard(width);
              std::vector<float> got(want.size(), -1.0f);
              kernel::GemmPacked(a.data(), lda, trans_a, packed, m,
                                 got.data());
              std::vector<float> one_shot(want.size(), -1.0f);
              kernel::Gemm(a.data(), lda, trans_a, b.data(), ldb, trans_b,
                           m, n, k, one_shot.data());
              const size_t bytes = want.size() * sizeof(float);
              ASSERT_EQ(std::memcmp(got.data(), want.data(), bytes), 0)
                  << "GemmPacked m=" << m << " n=" << n << " k=" << k
                  << " trans_a=" << trans_a << " trans_b=" << trans_b
                  << " width=" << width;
              ASSERT_EQ(std::memcmp(one_shot.data(), want.data(), bytes), 0)
                  << "Gemm m=" << m << " n=" << n << " k=" << k
                  << " trans_a=" << trans_a << " trans_b=" << trans_b
                  << " width=" << width;
            }
          }
        }
      }
    }
  }
}

TEST(GemmTest, AllTransposeVariantsMatchNaiveBitsAtEveryWidth) {
  // Odd sizes exercise the partial register tiles and the zero-padded panel
  // tails of the packed kernel.
  const int64_t m = 33, n = 29, k = 47;
  Rng rng(3);
  Tensor a = Tensor::Randn({m, k}, rng);
  Tensor at = Transpose2D(a);
  Tensor b = Tensor::Randn({k, n}, rng);
  Tensor bt = Transpose2D(b);
  struct Variant {
    const Tensor* a;
    bool trans_a;
    const Tensor* b;
    bool trans_b;
  };
  const Variant variants[] = {{&a, false, &b, false},
                              {&a, false, &bt, true},
                              {&at, true, &b, false},
                              {&at, true, &bt, true}};
  for (const Variant& v : variants) {
    const Tensor reference = NaiveGemm(*v.a, v.trans_a, *v.b, v.trans_b, m, n, k);
    for (int width : kWidths) {
      ThreadGuard guard(width);
      const Tensor got = Gemm(*v.a, v.trans_a, *v.b, v.trans_b);
      ASSERT_TRUE(SameBits(got, reference))
          << "trans_a=" << v.trans_a
          << " trans_b=" << v.trans_b << " width=" << width;
    }
  }
}

TEST(GemmTest, LargeSquareIsWidthInvariant) {
  const int64_t n = 192;
  Rng rng(5);
  Tensor a = Tensor::Randn({n, n}, rng);
  Tensor b = Tensor::Randn({n, n}, rng);
  ThreadGuard baseline(1);
  const Tensor expect = Gemm(a, false, b, false);
  for (int width : kWidths) {
    ThreadGuard guard(width);
    ASSERT_TRUE(SameBits(Gemm(a, false, b, false), expect))
        << "width " << width;
  }
}

TEST(GemmTest, ZeroInnerDimensionZeroesTheOutput) {
  // Tensor forbids zero dims, so exercise the raw kernel entry point: an
  // empty accumulation chain must still define C.
  float dummy = 0.0f;
  std::vector<float> c(12, 7.0f);
  kernel::Gemm(&dummy, 0, false, &dummy, 4, false, 3, 4, 0, c.data());
  for (float v : c) EXPECT_EQ(v, 0.0f);
}

// The one ranking rule (kernel/topk.h): (score desc, id asc) through both
// selectors, and the reference dot that feeds them.

std::vector<int64_t> IdsOf(const std::vector<kernel::ScoredHit>& hits) {
  std::vector<int64_t> ids;
  for (const kernel::ScoredHit& hit : hits) ids.push_back(hit.index);
  return ids;
}

/// Full-sort reference of the rule over a dense row.
std::vector<kernel::ScoredHit> SortedRow(const std::vector<float>& scores) {
  std::vector<kernel::ScoredHit> all;
  for (size_t i = 0; i < scores.size(); ++i) {
    all.push_back(kernel::ScoredHit{static_cast<int64_t>(i), scores[i]});
  }
  std::sort(all.begin(), all.end(), kernel::RanksBefore);
  return all;
}

TEST(TopKTest, EqualScoresOrderById) {
  const std::vector<float> scores = {0.5f, 0.7f, 0.5f, 0.7f, 0.5f};
  std::vector<int64_t> order;
  std::vector<kernel::ScoredHit> dense;
  kernel::TopKOfRow(scores.data(), 5, 5, &order, &dense);
  EXPECT_EQ(IdsOf(dense), (std::vector<int64_t>{1, 3, 0, 2, 4}));
  std::vector<kernel::ScoredHit> list = {
      {4, 0.5f}, {3, 0.7f}, {2, 0.5f}, {1, 0.7f}, {0, 0.5f}};
  kernel::KeepTopK(&list, 3);
  EXPECT_EQ(IdsOf(list), (std::vector<int64_t>{1, 3, 0}));
}

TEST(TopKTest, SignedZerosTieAndKeepTheirBits) {
  const std::vector<float> scores = {0.0f, -0.0f, 0.0f, -0.0f};
  std::vector<int64_t> order;
  std::vector<kernel::ScoredHit> dense;
  kernel::TopKOfRow(scores.data(), 4, 4, &order, &dense);
  EXPECT_EQ(IdsOf(dense), (std::vector<int64_t>{0, 1, 2, 3}));
  EXPECT_TRUE(std::signbit(dense[1].score));
  EXPECT_FALSE(std::signbit(dense[2].score));
  std::vector<kernel::ScoredHit> list = {{3, -0.0f}, {2, 0.0f}, {1, -0.0f}};
  kernel::KeepTopK(&list, 2);
  EXPECT_EQ(IdsOf(list), (std::vector<int64_t>{1, 2}));
  EXPECT_TRUE(std::signbit(list[0].score));
}

TEST(TopKTest, KOfOneAllAndMoreThanAll) {
  Rng rng(53);
  std::vector<float> scores(37);
  for (float& v : scores) v = static_cast<float>(rng.Normal(0, 1));
  scores[7] = scores[20];  // One exact tie among the random scores.
  const std::vector<kernel::ScoredHit> sorted = SortedRow(scores);
  for (int64_t k : {1, 37, 100}) {
    const size_t take = std::min<size_t>(static_cast<size_t>(k), 37);
    const std::vector<kernel::ScoredHit> want(sorted.begin(),
                                              sorted.begin() + take);
    std::vector<int64_t> order;
    std::vector<kernel::ScoredHit> dense;
    kernel::TopKOfRow(scores.data(), 37, k, &order, &dense);
    EXPECT_EQ(dense, want) << "k " << k;
    std::vector<kernel::ScoredHit> list(sorted.rbegin(), sorted.rend());
    kernel::KeepTopK(&list, k);
    EXPECT_EQ(list, want) << "k " << k;
  }
}

TEST(TopKTest, KeepOnMergedSourcesMatchesDenseSelection) {
  // Per-source top-k lists over contiguous id ranges (the sharded merge,
  // the mutable backend's segments + memtable), concatenated and kept, must
  // equal one dense selection over the whole row — including ties that
  // straddle source boundaries.
  Rng rng(59);
  std::vector<float> scores(60);
  for (float& v : scores) {
    v = static_cast<float>(std::round(rng.Normal(0, 1) * 4.0) / 4.0);
  }
  const int64_t k = 9;
  std::vector<kernel::ScoredHit> merged;
  std::vector<int64_t> order;
  for (int64_t begin : {0, 17, 40}) {
    const int64_t end = begin == 40 ? 60 : (begin == 0 ? 17 : 40);
    std::vector<kernel::ScoredHit> local;
    kernel::TopKOfRow(scores.data() + begin, end - begin, k, &order, &local);
    for (kernel::ScoredHit hit : local) {
      hit.index += begin;  // Global ids.
      merged.push_back(hit);
    }
  }
  kernel::KeepTopK(&merged, k);
  std::vector<kernel::ScoredHit> dense;
  kernel::TopKOfRow(scores.data(), 60, k, &order, &dense);
  EXPECT_EQ(merged, dense);
}

TEST(TopKTest, DotAscendingMatchesGemmBits) {
  Rng rng(61);
  Tensor a = Tensor::Randn({1, 67}, rng);
  Tensor b = Tensor::Randn({5, 67}, rng);
  Tensor c({1, 5});
  kernel::Gemm(a.data(), 67, false, b.data(), 67, true, 1, 5, 67, c.data());
  for (int64_t j = 0; j < 5; ++j) {
    const float dot = kernel::DotAscending(a.data(), b.data() + j * 67, 67);
    EXPECT_EQ(std::memcmp(&dot, c.data() + j, sizeof(float)), 0) << j;
  }
}

TEST(ElementwiseGuardDeathTest, UndefinedOperandsAreRejected) {
  Tensor ok = Tensor::Zeros({2, 2});
  Tensor undefined;
  EXPECT_DEATH(Add(undefined, ok), "defined");
  EXPECT_DEATH(Mul(ok, undefined), "defined");
  EXPECT_DEATH(Relu(undefined), "defined");
  EXPECT_DEATH(Scale(undefined, 2.0f), "defined");
}

TEST(LossDeterminismTest, InstanceTripletLossIsWidthInvariant) {
  // A realistic batch: 100 unit rows per modality, as the trainer mines.
  Rng rng(31);
  Tensor img = L2NormalizeRows(Tensor::Randn({100, 32}, rng));
  Tensor rec = L2NormalizeRows(Tensor::Randn({100, 32}, rng));
  ThreadGuard baseline(1);
  const auto expect = core::InstanceTripletLoss(
      img, rec, 0.3f, core::MiningStrategy::kAdaptive);
  for (int width : kWidths) {
    ThreadGuard guard(width);
    const auto got = core::InstanceTripletLoss(
        img, rec, 0.3f, core::MiningStrategy::kAdaptive);
    EXPECT_EQ(got.loss, expect.loss) << "width " << width;
    EXPECT_EQ(got.active_triplets, expect.active_triplets);
    EXPECT_EQ(got.total_triplets, expect.total_triplets);
    ASSERT_TRUE(SameBits(got.grad_image, expect.grad_image));
    ASSERT_TRUE(SameBits(got.grad_recipe, expect.grad_recipe));
  }
}

TEST(LossDeterminismTest, SemanticTripletLossIsWidthInvariant) {
  // The semantic loss draws random positives; the kernel layer hoists those
  // draws into a sequential pre-pass, so reseeding the Rng identically must
  // reproduce identical bits at every width.
  Rng rng(37);
  Tensor img = L2NormalizeRows(Tensor::Randn({100, 32}, rng));
  Tensor rec = L2NormalizeRows(Tensor::Randn({100, 32}, rng));
  std::vector<int64_t> labels;
  for (int64_t i = 0; i < 100; ++i) {
    labels.push_back(i % 3 == 0 ? -1 : i % 7);
  }
  ThreadGuard baseline(1);
  Rng loss_rng(41);
  const auto expect = core::SemanticTripletLoss(
      img, rec, labels, 0.3f, core::MiningStrategy::kAdaptive, loss_rng);
  for (int width : kWidths) {
    ThreadGuard guard(width);
    Rng widths_rng(41);
    const auto got = core::SemanticTripletLoss(
        img, rec, labels, 0.3f, core::MiningStrategy::kAdaptive, widths_rng);
    EXPECT_EQ(got.loss, expect.loss) << "width " << width;
    EXPECT_EQ(got.active_triplets, expect.active_triplets);
    EXPECT_EQ(got.total_triplets, expect.total_triplets);
    ASSERT_TRUE(SameBits(got.grad_image, expect.grad_image));
    ASSERT_TRUE(SameBits(got.grad_recipe, expect.grad_recipe));
  }
}

TEST(LossDeterminismTest, PairwiseLossIsWidthInvariant) {
  Rng rng(43);
  Tensor img = L2NormalizeRows(Tensor::Randn({80, 24}, rng));
  Tensor rec = L2NormalizeRows(Tensor::Randn({80, 24}, rng));
  ThreadGuard baseline(1);
  const auto expect = core::PairwiseLoss(img, rec, 0.3f, 0.9f);
  for (int width : kWidths) {
    ThreadGuard guard(width);
    const auto got = core::PairwiseLoss(img, rec, 0.3f, 0.9f);
    EXPECT_EQ(got.loss, expect.loss) << "width " << width;
    ASSERT_TRUE(SameBits(got.grad_image, expect.grad_image));
    ASSERT_TRUE(SameBits(got.grad_recipe, expect.grad_recipe));
  }
}

TEST(MatchRanksDeterminismTest, RanksAreWidthInvariant) {
  Rng rng(47);
  Tensor queries = Tensor::Randn({200, 16}, rng);
  Tensor candidates = Tensor::Randn({200, 16}, rng);
  ThreadGuard baseline(1);
  const auto expect = eval::MatchRanks(queries, candidates);
  for (int width : kWidths) {
    ThreadGuard guard(width);
    EXPECT_EQ(eval::MatchRanks(queries, candidates), expect)
        << "width " << width;
  }
}

TEST(PipelineDeterminismTest, FullTrainingRunIsWidthInvariant) {
  // End-to-end: data generation, word2vec pretraining, two epochs of
  // AdaMine training and the test-set embedding must come out bit-identical
  // whether the kernel layer runs on one thread or four.
  auto run_with = [](int num_threads) {
    core::PipelineConfig config;
    config.generator.num_recipes = 150;
    config.generator.num_classes = 8;
    config.generator.seed = 5;
    config.word2vec.epochs = 1;
    config.model.word_dim = 8;
    config.model.ingredient_hidden = 6;
    config.model.word_hidden = 6;
    config.model.sentence_hidden = 8;
    config.model.latent_dim = 12;
    config.model.seed = 2;
    config.kernel.num_threads = num_threads;
    auto pipeline = core::Pipeline::Create(config);
    EXPECT_TRUE(pipeline.ok()) << pipeline.status().ToString();
    core::TrainConfig train;
    train.scenario = core::Scenario::kAdaMine;
    train.epochs = 2;
    train.batch_size = 50;
    train.learning_rate = 2e-3;
    train.val_bag_size = 20;
    train.val_num_bags = 2;
    train.seed = 4;
    auto result = (*pipeline)->Run(train);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    return std::move(result.value());
  };
  const auto baseline = run_with(1);
  const auto threaded = run_with(4);
  kernel::SetNumThreads(1);
  const auto params_a = baseline.model->SnapshotParams();
  const auto params_b = threaded.model->SnapshotParams();
  ASSERT_EQ(params_a.size(), params_b.size());
  for (size_t i = 0; i < params_a.size(); ++i) {
    ASSERT_TRUE(SameBits(params_a[i], params_b[i])) << "param " << i;
  }
  ASSERT_TRUE(SameBits(baseline.test_embeddings.image_emb,
                       threaded.test_embeddings.image_emb));
  ASSERT_TRUE(SameBits(baseline.test_embeddings.recipe_emb,
                       threaded.test_embeddings.recipe_emb));
}

}  // namespace
}  // namespace adamine
