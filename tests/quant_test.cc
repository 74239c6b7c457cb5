// The quantized-scoring suite (ctest label `quant`): ref-vs-fast diffing of
// the int8 dot kernels in the ggml test-backend-ops style — every length
// around the vector width, misaligned starts, adversarial code patterns —
// plus the row-quantizer's error-bound contract on hostile rows (denormal,
// max-magnitude, all-equal, wildly mixed), the ADMQ on-disk format's
// corruption behaviour, and end-to-end bit-identity of the quantized
// backend against the scalar reference across k x threads x rerank_factor
// on a quantization-hostile corpus. The backend also auto-inherits the full
// golden matrix by registration (tests/backend_golden_test.cc).

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "kernel/int8dot.h"
#include "kernel/kernel.h"
#include "quant/int8_corpus.h"
#include "serve/backend.h"
#include "tensor/ops.h"
#include "tensor/tensor.h"
#include "util/check.h"
#include "util/rng.h"

namespace adamine {
namespace {

class ThreadGuard {
 public:
  explicit ThreadGuard(int num_threads) { kernel::SetNumThreads(num_threads); }
  ~ThreadGuard() { kernel::SetNumThreads(1); }
};

// --- Int8 dot kernels: fast path diffed against the scalar reference -----

std::vector<int8_t> RandomCodes(int64_t n, Rng* rng) {
  std::vector<int8_t> v(static_cast<size_t>(n));
  for (auto& c : v) c = static_cast<int8_t>(rng->UniformInt(255) - 127);
  return v;
}

TEST(Int8DotTest, MatchesReferenceAcrossLengths) {
  // Every length through a few vector widths (the AVX2 kernel consumes 32
  // elements per step, so 0..67 covers empty, sub-width, exact-width and
  // tail-remainder shapes), plus wider power-of-two and off-by-one sizes.
  Rng rng(101);
  std::vector<int64_t> lengths;
  for (int64_t n = 0; n <= 67; ++n) lengths.push_back(n);
  for (int64_t n : {96, 127, 128, 129, 255, 256, 1000}) lengths.push_back(n);
  for (int64_t n : lengths) {
    const std::vector<int8_t> a = RandomCodes(n, &rng);
    const std::vector<int8_t> b = RandomCodes(n, &rng);
    EXPECT_EQ(kernel::Int8Dot(a.data(), b.data(), n),
              kernel::Int8DotRef(a.data(), b.data(), n))
        << "n=" << n << " isa=" << kernel::Int8DotIsa();
  }
}

TEST(Int8DotTest, MatchesReferenceOnMisalignedStarts) {
  // The kernel takes raw pointers, so it must be correct (and bit-equal)
  // from any byte offset, not just 32-byte-aligned ones.
  Rng rng(103);
  const int64_t n = 200;
  const std::vector<int8_t> a = RandomCodes(n + 33, &rng);
  const std::vector<int8_t> b = RandomCodes(n + 33, &rng);
  for (int64_t off_a : {0, 1, 7, 31}) {
    for (int64_t off_b : {0, 3, 17}) {
      EXPECT_EQ(kernel::Int8Dot(a.data() + off_a, b.data() + off_b, n),
                kernel::Int8DotRef(a.data() + off_a, b.data() + off_b, n))
          << "offsets " << off_a << ", " << off_b;
    }
  }
}

TEST(Int8DotTest, AdversarialCodePatternsAtMaxLength) {
  // Saturated codes at the maximum supported length drive the accumulator
  // to its extremes: +-127 * +-127 * 131072 stays inside int32 by the
  // kInt8DotMaxElems contract, and the madd_epi16 pairing in the AVX2
  // kernel must not wrap intermediate i16 sums.
  const int64_t n = kernel::kInt8DotMaxElems;
  std::vector<int8_t> all_max(static_cast<size_t>(n), int8_t{127});
  std::vector<int8_t> all_min(static_cast<size_t>(n), int8_t{-127});
  std::vector<int8_t> alternating(static_cast<size_t>(n));
  std::vector<int8_t> zeros(static_cast<size_t>(n), int8_t{0});
  for (int64_t i = 0; i < n; ++i) {
    alternating[static_cast<size_t>(i)] = (i % 2 == 0) ? 127 : -127;
  }
  const std::vector<int8_t>* patterns[] = {&all_max, &all_min, &alternating,
                                           &zeros};
  for (const auto* a : patterns) {
    for (const auto* b : patterns) {
      EXPECT_EQ(kernel::Int8Dot(a->data(), b->data(), n),
                kernel::Int8DotRef(a->data(), b->data(), n));
    }
  }
  // Spot-check one closed form: 127 * 127 * n.
  EXPECT_EQ(kernel::Int8DotRef(all_max.data(), all_max.data(), n),
            static_cast<int32_t>(127 * 127 * n));
}

TEST(Int8ScanRowsTest, MatchesPerRowReferenceAtEveryThreadCount) {
  Rng rng(107);
  const int64_t rows = 97, dim = 60;  // Deliberately not multiples of 32.
  const std::vector<int8_t> codes = RandomCodes(rows * dim, &rng);
  const std::vector<int8_t> query = RandomCodes(dim, &rng);
  std::vector<int32_t> expect(static_cast<size_t>(rows));
  for (int64_t r = 0; r < rows; ++r) {
    expect[static_cast<size_t>(r)] =
        kernel::Int8DotRef(codes.data() + r * dim, query.data(), dim);
  }
  for (int threads : {1, 2, 4, 8}) {
    ThreadGuard guard(threads);
    std::vector<int32_t> got(static_cast<size_t>(rows), -1);
    kernel::Int8ScanRows(codes.data(), rows, dim, query.data(), got.data());
    EXPECT_EQ(got, expect) << "threads=" << threads;
  }
}

// --- QuantizeRows: the per-row error-bound contract ----------------------

/// The quantizer's whole value is this invariant: for every element,
/// |x - (scale * code + bias)| <= recon_error, and |x| <= max_abs.
void CheckBoundsHold(const Tensor& items, const quant::QuantizedCorpus& q) {
  ASSERT_EQ(q.rows, items.rows());
  ASSERT_EQ(q.dim, items.cols());
  for (int64_t r = 0; r < q.rows; ++r) {
    const size_t s = static_cast<size_t>(r);
    int32_t sum_abs = 0;
    for (int64_t j = 0; j < q.dim; ++j) {
      const double x = items.At(r, j);
      const double code = q.codes[static_cast<size_t>(r * q.dim + j)];
      const double recon =
          static_cast<double>(q.scales[s]) * code + q.biases[s];
      EXPECT_LE(std::fabs(x - recon), q.recon_errors[s])
          << "row " << r << " col " << j;
      EXPECT_LE(std::fabs(x), q.max_abs[s]) << "row " << r << " col " << j;
      sum_abs += static_cast<int32_t>(std::abs(static_cast<int>(code)));
    }
    EXPECT_EQ(q.sum_abs_codes[s], sum_abs) << "row " << r;
  }
}

TEST(QuantizeRowsTest, BoundsHoldOnHostileRows) {
  // One tensor, five hostile rows: all-zero (scale 0), all-equal (zero
  // range at a nonzero bias), denormal range (scale underflows to 0),
  // max-magnitude floats, and wildly mixed magnitudes within one row (the
  // scale is set by the large values, crushing the small ones to code 0).
  const int64_t dim = 8;
  Tensor items({5, dim});
  for (int64_t j = 0; j < dim; ++j) {
    items.At(0, j) = 0.0f;
    items.At(1, j) = 3.25f;
    items.At(2, j) = std::numeric_limits<float>::denorm_min() *
                     static_cast<float>(j);
    items.At(3, j) = (j % 2 == 0) ? std::numeric_limits<float>::max()
                                  : std::numeric_limits<float>::lowest();
    items.At(4, j) = (j % 2 == 0) ? 1.0e6f : 1.0e-6f;
  }
  auto q = quant::QuantizeRows(items);
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  CheckBoundsHold(items, *q);
  // Degenerate rows still describe themselves honestly: the all-zero row
  // reconstructs exactly, the all-equal row via its bias.
  EXPECT_EQ(q->recon_errors[0], 0.0f);
  EXPECT_EQ(q->sum_abs_codes[0], 0);
  EXPECT_EQ(q->biases[1], 3.25f);
}

TEST(QuantizeRowsTest, BoundsHoldOnRandomRows) {
  Rng rng(109);
  Tensor items = Tensor::Randn({17, 24}, rng);
  auto q = quant::QuantizeRows(items);
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  CheckBoundsHold(items, *q);
  // Sanity on the advertised memory accounting: codes plus per-row stats.
  EXPECT_EQ(quant::QuantizedBytes(*q),
            17 * 24 + 17 * (4 + 4 + 4 + 4 + 4));
}

TEST(QuantizeRowsTest, RejectsNonFiniteAndOversizedInput) {
  Rng rng(113);
  Tensor nan_items = Tensor::Randn({3, 4}, rng);
  nan_items.At(1, 2) = std::numeric_limits<float>::quiet_NaN();
  auto q = quant::QuantizeRows(nan_items);
  ASSERT_FALSE(q.ok());
  EXPECT_EQ(q.status().code(), StatusCode::kInvalidArgument);

  Tensor inf_items = Tensor::Randn({3, 4}, rng);
  inf_items.At(0, 0) = std::numeric_limits<float>::infinity();
  EXPECT_FALSE(quant::QuantizeRows(inf_items).ok());

  Tensor flat({4});  // 1-D: not a row corpus.
  EXPECT_FALSE(quant::QuantizeRows(flat).ok());
}

// --- ADMQ serialization --------------------------------------------------

quant::QuantizedCorpus RoundTripCorpus() {
  Rng rng(127);
  Tensor items = Tensor::Randn({9, 12}, rng);
  auto q = quant::QuantizeRows(items);
  ADAMINE_CHECK(q.ok());
  return std::move(q).value();
}

void ExpectSameCorpus(const quant::QuantizedCorpus& a,
                      const quant::QuantizedCorpus& b) {
  EXPECT_EQ(a.rows, b.rows);
  EXPECT_EQ(a.dim, b.dim);
  EXPECT_EQ(a.codes, b.codes);
  EXPECT_EQ(a.scales, b.scales);
  EXPECT_EQ(a.biases, b.biases);
  EXPECT_EQ(a.sum_abs_codes, b.sum_abs_codes);
  EXPECT_EQ(a.recon_errors, b.recon_errors);
  EXPECT_EQ(a.max_abs, b.max_abs);
}

TEST(QuantizedCorpusIoTest, RoundTripsBitExact) {
  const quant::QuantizedCorpus corpus = RoundTripCorpus();
  std::stringstream ss;
  ASSERT_TRUE(quant::WriteQuantizedCorpus(ss, corpus).ok());
  auto back = quant::ReadQuantizedCorpus(ss);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  ExpectSameCorpus(corpus, *back);
}

TEST(QuantizedCorpusIoTest, FileRoundTripAndMissingFile) {
  const quant::QuantizedCorpus corpus = RoundTripCorpus();
  const std::string path = testing::TempDir() + "/corpus.admq";
  ASSERT_TRUE(quant::SaveQuantizedCorpus(path, corpus).ok());
  auto back = quant::LoadQuantizedCorpus(path);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  ExpectSameCorpus(corpus, *back);
  std::remove(path.c_str());
  EXPECT_FALSE(quant::LoadQuantizedCorpus(path).ok());
}

TEST(QuantizedCorpusIoTest, EveryTruncationIsRejected) {
  const quant::QuantizedCorpus corpus = RoundTripCorpus();
  std::stringstream ss;
  ASSERT_TRUE(quant::WriteQuantizedCorpus(ss, corpus).ok());
  const std::string bytes = ss.str();
  for (size_t cut = 0; cut < bytes.size(); cut += 7) {
    std::stringstream truncated(bytes.substr(0, cut));
    auto result = quant::ReadQuantizedCorpus(truncated);
    EXPECT_FALSE(result.ok()) << "prefix of " << cut << " bytes parsed";
  }
}

TEST(QuantizedCorpusIoTest, BitFlipsAreCaughtByTheCrc) {
  const quant::QuantizedCorpus corpus = RoundTripCorpus();
  std::stringstream ss;
  ASSERT_TRUE(quant::WriteQuantizedCorpus(ss, corpus).ok());
  const std::string bytes = ss.str();
  for (size_t pos = 0; pos < bytes.size(); pos += 13) {
    std::string corrupt = bytes;
    corrupt[pos] = static_cast<char>(corrupt[pos] ^ 0x40);
    std::stringstream in(corrupt);
    auto result = quant::ReadQuantizedCorpus(in);
    EXPECT_FALSE(result.ok()) << "flip at byte " << pos << " parsed";
    if (!result.ok()) {
      EXPECT_EQ(result.status().code(), StatusCode::kDataLoss) << pos;
    }
  }
}

// --- End-to-end: quantized backend vs the scalar reference ---------------

/// Unit rows whose coordinates span seven orders of magnitude — the
/// geometry int8 quantization is worst at (the golden suite runs the same
/// shape through every backend; this sweep adds the rerank_factor axis).
Tensor MixedMagnitudeUnitRows(int64_t rows, int64_t dim, uint64_t seed) {
  Rng rng(seed);
  Tensor out({rows, dim});
  for (int64_t r = 0; r < rows; ++r) {
    for (int64_t j = 0; j < dim; ++j) {
      const double mag = std::pow(10.0, -static_cast<double>((j + r) % 7));
      out.At(r, j) = static_cast<float>(rng.Normal(0.0, 1.0) * mag);
    }
    out.At(r, rng.UniformInt(dim)) += 1.0f;
  }
  return L2NormalizeRows(out);
}

TEST(QuantizedBackendTest, BitIdenticalToScalarOnHostileCorpus) {
  const Tensor items = MixedMagnitudeUnitRows(60, 16, 131);
  const Tensor queries = MixedMagnitudeUnitRows(6, 16, 137);
  serve::BackendConfig config;
  config.items = items;
  auto scalar = serve::CreateBackend("scalar", config);
  ASSERT_TRUE(scalar.ok()) << scalar.status().ToString();
  for (int64_t rerank_factor : {1, 4, 64}) {
    config.rerank_factor = rerank_factor;
    auto quantized = serve::CreateBackend("quantized", config);
    ASSERT_TRUE(quantized.ok()) << quantized.status().ToString();
    for (int64_t k : {1, 7, 60}) {
      auto expect = (*scalar)->ScoreTopK(serve::QueryBatch{queries}, nullptr,
                                         k, serve::QueryOptions());
      ASSERT_TRUE(expect.ok()) << expect.status().ToString();
      for (int threads : {1, 4}) {
        ThreadGuard guard(threads);
        auto got = (*quantized)->ScoreTopK(serve::QueryBatch{queries},
                                           nullptr, k, serve::QueryOptions());
        ASSERT_TRUE(got.ok()) << got.status().ToString();
        ASSERT_EQ(got->hits.size(), expect->hits.size());
        for (size_t i = 0; i < got->hits.size(); ++i) {
          ASSERT_EQ(got->hits[i].size(), expect->hits[i].size())
              << "query " << i << " k=" << k << " rerank=" << rerank_factor
              << " threads=" << threads;
          for (size_t j = 0; j < got->hits[i].size(); ++j) {
            EXPECT_EQ(got->hits[i][j].index, expect->hits[i][j].index)
                << "query " << i << " rank " << j;
            // Bit-identical, not approximately equal.
            EXPECT_EQ(std::memcmp(&got->hits[i][j].score,
                                  &expect->hits[i][j].score, sizeof(float)),
                      0)
                << "query " << i << " rank " << j;
          }
        }
      }
    }
  }
}

TEST(QuantizedBackendTest, RejectsBadRerankFactorAndReportsExact) {
  serve::BackendConfig config;
  config.items = MixedMagnitudeUnitRows(8, 8, 139);
  config.rerank_factor = 0;
  auto bad = serve::CreateBackend("quantized", config);
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);

  config.rerank_factor = 4;
  auto backend = serve::CreateBackend("quantized", config);
  ASSERT_TRUE(backend.ok()) << backend.status().ToString();
  EXPECT_STREQ((*backend)->name(), "quantized");
}

}  // namespace
}  // namespace adamine
