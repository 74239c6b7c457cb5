// The two-stage quantized scoring backend.
//
// Stage 1 scans the int8 codes (kernel::Int8ScanRows, AVX2-dispatched) and
// turns each integer dot into a *score interval* [approx - E, approx + E]
// that provably contains the reference float-chain score. Stage 2 gathers
// every row whose interval upper bound reaches the k-th best lower bound
// (floored at rerank_factor * k rows) and reranks just those with the exact
// reference dot (kernel::DotAscending, compiled in kernel/topk.cc under
// -ffp-contract=off). Because no excluded row can beat the k-th best lower
// bound, the final top-k is bit-identical to the exhaustive path, and the
// backend passes the golden-diff matrix.
//
// The interval derivation, with per-row stats from QuantizeRows:
//   x[j] = scale*c[j] + bias + e[j],        |e[j]| <= recon_error   (measured)
//   q[j] = qs*qc[j] + f[j],                 |f[j]| <= fq_err        (measured)
//   S    = sum_j q[j]*x[j]
//        = qs*scale*dot + bias*sum_q  +  scale*sum_j f[j]*c[j] + sum_j q[j]*e[j]
//          \------ approx (double) -/     \------------- error -------------/
//   |S - approx| <= scale*fq_err*sum_abs_codes + sum_abs_q*recon_error
// and the reference score F is the *float* accumulation chain of S, off by
// at most the standard chain bound gamma_d * sum|q[j]*x[j]| <=
// gamma_d * max_abs * sum_abs_q (plus a subnormal absolute term). Every
// ingredient is computed in double and the total is inflated by a relative
// margin dwarfing double rounding, so the interval is conservative, never
// optimistic.

#include "quant/quantized_backend.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "kernel/int8dot.h"
#include "kernel/kernel.h"
#include "kernel/topk.h"
#include "quant/int8_corpus.h"
#include "util/stopwatch.h"

namespace adamine::quant {

namespace {

using serve::BackendConfig;
using serve::QueryBatch;
using serve::QueryOptions;
using serve::ScoredHit;
using serve::ScoringBackend;
using serve::TopKResult;

/// Relative inflation applied to the assembled error bound: ~1e7 times the
/// double rounding it needs to cover, and still invisible next to the int8
/// quantization error it rides on.
constexpr double kBoundMargin = 1e-9;

/// k-th largest value of a stream via a size-k min-heap: the common case is
/// a single compare against the heap root per element, so a 40k-row corpus
/// costs ~n compares where std::nth_element's introselect costs a full
/// O(n) partition pass plus the copy into scratch (measured ~10x slower on
/// the serving bench shape). The selected *value* is identical to
/// nth_element's, so candidate selection — and the bit-exact result — is
/// unchanged.
class KthLargest {
 public:
  explicit KthLargest(int64_t k) : k_(static_cast<size_t>(k)) {
    heap_.reserve(k_);
  }

  void Push(double v) {
    if (heap_.size() < k_) {
      heap_.push_back(v);
      std::push_heap(heap_.begin(), heap_.end(), std::greater<double>());
    } else if (v > heap_.front()) {
      std::pop_heap(heap_.begin(), heap_.end(), std::greater<double>());
      heap_.back() = v;
      std::push_heap(heap_.begin(), heap_.end(), std::greater<double>());
    }
  }

  /// The k-th largest seen so far; requires at least k pushes.
  double Value() const { return heap_.front(); }

 private:
  size_t k_;
  std::vector<double> heap_;
};

class QuantizedBackend final : public ScoringBackend {
 public:
  QuantizedBackend(Tensor items, QuantizedCorpus corpus,
                   int64_t rerank_factor)
      : items_(std::move(items)),
        corpus_(std::move(corpus)),
        rerank_factor_(rerank_factor) {
    // Float-chain rounding envelope for this dimension, hoisted out of the
    // per-row loop: gamma_{d+2} with unit roundoff 2^-24, plus a subnormal
    // absolute term (underflowed products round absolutely, not
    // relatively).
    const double u = std::ldexp(1.0, -24);
    const double du = static_cast<double>(corpus_.dim + 2) * u;
    chain_gamma_ = du / (1.0 - du);
    chain_abs_ = static_cast<double>(corpus_.dim) *
                 static_cast<double>(std::numeric_limits<float>::min());
  }

  const char* name() const override { return "quantized"; }
  int64_t size() const override { return corpus_.rows; }
  int64_t dim() const override { return corpus_.dim; }

 protected:
  StatusOr<TopKResult> ScoreTopKImpl(const QueryBatch& batch, int64_t k,
                                     const QueryOptions& /*options*/)
      override {
    const int64_t b = batch.queries.rows();
    const int64_t d = corpus_.dim;
    const int64_t n = corpus_.rows;
    const int64_t take = std::min(k, n);
    TopKResult out;
    out.hits.resize(static_cast<size_t>(b));
    Stopwatch watch;

    // Queries are independent, so the batch spreads over the kernel pool
    // with per-chunk scratch; each query writes only its own hits row, and
    // its whole pipeline (scan runs inline when nested — see
    // kernel::internal::RunChunks) is sequential within the chunk, so
    // results are bit-identical at every thread count.
    kernel::ParallelFor(b, 1, [&](int64_t qb, int64_t qe) {
      std::vector<int8_t> qcodes(static_cast<size_t>(d));
      std::vector<int32_t> dots(static_cast<size_t>(n));
      std::vector<double> lower(static_cast<size_t>(n));
      std::vector<double> upper(static_cast<size_t>(n));
      std::vector<ScoredHit> cands;
      for (int64_t i = qb; i < qe; ++i) {
        const float* q = batch.queries.data() + i * d;

      // Query statistics in double, ascending j (determinism: sequential).
      double sum_q = 0.0;
      double sum_abs_q = 0.0;
      double qmax = 0.0;
      for (int64_t j = 0; j < d; ++j) {
        const double v = q[j];
        sum_q += v;
        sum_abs_q += std::fabs(v);
        qmax = std::max(qmax, std::fabs(v));
      }

      bool all_candidates = !std::isfinite(sum_abs_q);
      if (!all_candidates) {
        // Symmetric query quantization: q[j] ~= qs * qc[j].
        const double qs = qmax / 127.0;
        double fq_err = 0.0;
        for (int64_t j = 0; j < d; ++j) {
          int32_t c = 0;
          if (qs > 0.0) {
            const double rounded = std::nearbyint(q[j] / qs);
            c = static_cast<int32_t>(
                std::max(-127.0, std::min(127.0, rounded)));
          }
          qcodes[static_cast<size_t>(j)] = static_cast<int8_t>(c);
          fq_err = std::max(fq_err, std::fabs(q[j] - qs * c));
        }

        kernel::Int8ScanRows(corpus_.codes.data(), n, d, qcodes.data(),
                             dots.data());

        for (int64_t r = 0; r < n; ++r) {
          const size_t s = static_cast<size_t>(r);
          const double scale = corpus_.scales[s];
          const double approx = qs * scale * dots[s] +
                                static_cast<double>(corpus_.biases[s]) *
                                    sum_q;
          double err = scale * fq_err * corpus_.sum_abs_codes[s] +
                       sum_abs_q * corpus_.recon_errors[s] +
                       chain_gamma_ * corpus_.max_abs[s] * sum_abs_q +
                       chain_abs_;
          err = err * (1.0 + kBoundMargin) + kBoundMargin * std::fabs(approx);
          lower[s] = approx - err;
          upper[s] = approx + err;
          if (!std::isfinite(lower[s]) || !std::isfinite(upper[s])) {
            all_candidates = true;
            break;
          }
        }
      }

      double cutoff = -std::numeric_limits<double>::infinity();
      if (!all_candidates && take < n) {
        // k-th best lower bound: at least `take` rows score >= it, so any
        // row whose upper bound misses it is strictly out of the top-k.
        KthLargest kth_lower(take);
        for (int64_t r = 0; r < n; ++r) {
          kth_lower.Push(lower[static_cast<size_t>(r)]);
        }
        cutoff = kth_lower.Value();
        // rerank_factor floors the candidate set at m rows (by upper
        // bound), the conventional two-stage knob; it can only widen the
        // verified set, never narrow it. The guard keeps the product from
        // overflowing for absurd factors: anything past n means "rerank
        // the whole corpus".
        const int64_t m =
            rerank_factor_ > n / take ? n : rerank_factor_ * take;
        if (m >= n) {
          cutoff = -std::numeric_limits<double>::infinity();
        } else if (m > take) {
          KthLargest mth_upper(m);
          for (int64_t r = 0; r < n; ++r) {
            mth_upper.Push(upper[static_cast<size_t>(r)]);
          }
          cutoff = std::min(cutoff, mth_upper.Value());
        }
      }

      // Gather + exact rerank: ascending row order, reference float chain.
      cands.clear();
      for (int64_t r = 0; r < n; ++r) {
        if (!all_candidates && upper[static_cast<size_t>(r)] < cutoff) {
          continue;
        }
        cands.push_back(ScoredHit{
            r, kernel::DotAscending(items_.data() + r * d, q, d)});
      }
      kernel::KeepTopK(&cands, take);
        out.hits[static_cast<size_t>(i)] = cands;
      }
    });
    out.score_ms = watch.ElapsedMillis();  // Scan, bounds and rerank fused.
    return out;
  }

 private:
  Tensor items_;             // [N, D] float rows, cold until the rerank.
  QuantizedCorpus corpus_;   // What the approximate scan reads.
  const int64_t rerank_factor_;
  double chain_gamma_ = 0.0;
  double chain_abs_ = 0.0;
};

}  // namespace

StatusOr<std::unique_ptr<serve::ScoringBackend>> CreateQuantizedBackend(
    const serve::BackendConfig& config) {
  if (config.rerank_factor < 1) {
    return Status::InvalidArgument(
        "quantized backend needs rerank_factor >= 1, got " +
        std::to_string(config.rerank_factor));
  }
  auto corpus = QuantizeRows(config.items);
  if (!corpus.ok()) return corpus.status();
  // The Tensor copy aliases the caller's buffer: the float rows stay
  // resident for the exact rerank but are never touched by the scan.
  return std::unique_ptr<serve::ScoringBackend>(new QuantizedBackend(
      config.items, std::move(corpus).value(), config.rerank_factor));
}

}  // namespace adamine::quant
