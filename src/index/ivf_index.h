#ifndef ADAMINE_INDEX_IVF_INDEX_H_
#define ADAMINE_INDEX_IVF_INDEX_H_

#include <cstdint>
#include <vector>

#include "kernel/topk.h"
#include "tensor/tensor.h"
#include "util/status.h"

namespace adamine::index {

/// Inverted-file approximate nearest-neighbour index over unit-norm rows
/// (cosine similarity). Items are partitioned by a k-means coarse
/// quantiser; a query scans only the `num_probes` lists whose centroids are
/// most similar. The classic accuracy/speed dial for retrieval at the
/// paper's 10k-and-beyond scale.
struct IvfConfig {
  /// Number of inverted lists (k of the coarse quantiser).
  int64_t num_lists = 16;
  /// Lists scanned per query, the seed of a caller's probe dial.
  /// num_probes == num_lists gives exact search.
  int64_t num_probes = 4;
  int64_t kmeans_iterations = 20;
  uint64_t seed = 3;

  Status Validate() const;
};

class IvfIndex {
 public:
  /// Builds the index over `items` [N, D] (rows should be L2-normalised,
  /// as model embeddings are). Requires num_lists <= N. The config's
  /// num_probes only seeds a caller's dial (the "ivf" backend owns it);
  /// every search names its probe count explicitly.
  static StatusOr<IvfIndex> Build(Tensor items, const IvfConfig& config);

  /// The serving path: approximately the `k` most cosine-similar items to
  /// each row of `queries` [B, D], ranked by kernel/topk.h's rule with
  /// reference-bitwise scores. Both the centroid scan and the candidate
  /// scoring go through the kernel layer's tiled GEMM: candidate rows for
  /// the whole batch are gathered once (the union of every query's probed
  /// lists) and scored against all queries in one [B, U] GEMM; each query
  /// then ranks only its own probed candidates. Results are bit-identical
  /// to SearchOne per row, for every thread count. `k` and `probes` must
  /// be positive (checked); `probes` is clamped to num_lists, and probing
  /// every list is exact.
  std::vector<std::vector<kernel::ScoredHit>> Search(const Tensor& queries,
                                                     int64_t k,
                                                     int64_t probes) const;

  /// The per-query scalar path over one unit query row [D]: the reference
  /// Search is diffed against, and what RecallAtK measures with. Same
  /// contract as Search.
  std::vector<kernel::ScoredHit> SearchOne(const Tensor& query, int64_t k,
                                           int64_t probes) const;

  int64_t size() const { return items_.rows(); }
  int64_t num_lists() const { return centroids_.rows(); }

  /// Fraction of SearchOne(k, probes) results that appear in the exact
  /// (every-list) answer, averaged over the rows of `queries` — the
  /// standard recall@k measure of ANN quality. Queries whose exact-truth
  /// set is empty are excluded from the average (they carry no signal); at
  /// least one query must have a non-empty truth set (checked).
  double RecallAtK(const Tensor& queries, int64_t k, int64_t probes) const;

 private:
  IvfIndex() = default;

  Tensor items_;      // [N, D]
  Tensor centroids_;  // [num_lists, D]
  std::vector<std::vector<int64_t>> lists_;
};

}  // namespace adamine::index

#endif  // ADAMINE_INDEX_IVF_INDEX_H_
