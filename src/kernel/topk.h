#ifndef ADAMINE_KERNEL_TOPK_H_
#define ADAMINE_KERNEL_TOPK_H_

#include <cstdint>
#include <vector>

namespace adamine::kernel {

/// The one ranking rule. Every exact scorer (the scalar, exhaustive,
/// quantized and mutable backends), the IVF search and the sharded merge
/// score an item by DotAscending's bits and rank by (score desc, id asc)
/// through the selectors below, so "bit-identical to the scalar oracle"
/// reduces to "same scores in, same selector" (see DESIGN.md, "Kernel
/// execution layer").

/// Inner product as a single float accumulation chain in ascending j — the
/// per-element order of kernel::Gemm. This is *the* reference similarity:
/// every exact path must produce scores with these bits. Defined in
/// topk.cc, which is on the -ffp-contract=off list, so callers in other TUs
/// get the un-fused chain regardless of their own compile flags.
float DotAscending(const float* a, const float* b, int64_t d);

/// One retrieved item with its cosine score.
struct ScoredHit {
  int64_t index = 0;  // Row id in the scorer's item set.
  float score = 0.0f;

  bool operator==(const ScoredHit& other) const {
    return index == other.index && score == other.score;
  }
};

/// The ranking order: higher score first, lower id breaking ties. The
/// comparison is IEEE ==, so -0.0 and +0.0 tie and fall back to the id.
inline bool RanksBefore(const ScoredHit& a, const ScoredHit& b) {
  return a.score > b.score || (a.score == b.score && a.index < b.index);
}

/// Dense selection over one row of scores, ids 0..n-1: fills `out` with
/// the best min(k, n) in ranking order. `order` is caller-owned scratch
/// (resized to n), so a loop over many rows allocates it once.
void TopKOfRow(const float* scores, int64_t n, int64_t k,
               std::vector<int64_t>* order, std::vector<ScoredHit>* out);

/// In-place selection over a candidate list (probed lists, a rerank set,
/// segments + memtable, per-shard answers): keeps the best min(k, size)
/// of `hits`, in ranking order.
void KeepTopK(std::vector<ScoredHit>* hits, int64_t k);

}  // namespace adamine::kernel

#endif  // ADAMINE_KERNEL_TOPK_H_
