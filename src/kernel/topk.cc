// Compiled with -O3;-ffp-contract=off (src/CMakeLists.txt): DotAscending's
// mul and add must round separately, exactly like kernel::Gemm's
// per-element chain.

#include "kernel/topk.h"

#include <algorithm>
#include <numeric>

namespace adamine::kernel {

float DotAscending(const float* a, const float* b, int64_t d) {
  float acc = 0.0f;
  for (int64_t j = 0; j < d; ++j) acc += a[j] * b[j];
  return acc;
}

void TopKOfRow(const float* scores, int64_t n, int64_t k,
               std::vector<int64_t>* order, std::vector<ScoredHit>* out) {
  const int64_t take = std::min(k, n);
  order->resize(static_cast<size_t>(n));
  std::iota(order->begin(), order->end(), 0);
  std::partial_sort(order->begin(), order->begin() + take, order->end(),
                    [scores](int64_t a, int64_t b) {
                      return RanksBefore(ScoredHit{a, scores[a]},
                                         ScoredHit{b, scores[b]});
                    });
  out->clear();
  out->reserve(static_cast<size_t>(take));
  for (int64_t j = 0; j < take; ++j) {
    const int64_t id = (*order)[static_cast<size_t>(j)];
    out->push_back(ScoredHit{id, scores[id]});
  }
}

void KeepTopK(std::vector<ScoredHit>* hits, int64_t k) {
  const int64_t take =
      std::min<int64_t>(k, static_cast<int64_t>(hits->size()));
  // A lambda, not the function pointer, so the comparator inlines.
  std::partial_sort(hits->begin(), hits->begin() + take, hits->end(),
                    [](const ScoredHit& a, const ScoredHit& b) {
                      return RanksBefore(a, b);
                    });
  hits->resize(static_cast<size_t>(take));
}

}  // namespace adamine::kernel
