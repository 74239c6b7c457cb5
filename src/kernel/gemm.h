#ifndef ADAMINE_KERNEL_GEMM_H_
#define ADAMINE_KERNEL_GEMM_H_

#include <cstdint>
#include <vector>

namespace adamine::kernel {

/// The B operand of a GEMM, packed: op(B) [k, n] laid out as zero-padded
/// column panels of width kPanelWidth, one kPanelWidth-wide row per k
/// (a transpose of B when trans_b, a reshuffle otherwise). Packing is the
/// O(k * n) copy every GEMM would otherwise pay per call; an operand that
/// is multiplied many times — a serving corpus, a sealed segment — is
/// packed once with PackB and then swept by GemmPacked on every query.
/// Immutable after PackB, so concurrent GemmPacked calls may share it.
class PackedB {
 public:
  static constexpr int64_t kPanelWidth = 16;

  PackedB() = default;

  int64_t k() const { return k_; }
  int64_t n() const { return n_; }
  int64_t num_panels() const { return (n_ + kPanelWidth - 1) / kPanelWidth; }
  /// Bytes held by the packed panels (the padding included).
  int64_t bytes() const {
    return static_cast<int64_t>(data_.size() * sizeof(float));
  }
  /// Panel p: k rows of kPanelWidth floats, row kk holding op(B)[kk, j]
  /// for the panel's columns j (zero past n).
  const float* panel(int64_t p) const {
    return data_.data() + p * k_ * kPanelWidth;
  }

 private:
  friend PackedB PackB(const float* b, int64_t ldb, bool trans_b, int64_t k,
                       int64_t n);

  int64_t k_ = 0;
  int64_t n_ = 0;
  std::vector<float> data_;
};

/// Packs op(B) [k, n] — b is [k, n] with leading dimension ldb, or [n, k]
/// when trans_b — into column panels. ParallelFor'ed over panels, each
/// panel a disjoint write, so the result is the same at every width.
PackedB PackB(const float* b, int64_t ldb, bool trans_b, int64_t k,
              int64_t n);

/// C = op(A) * packed for a row-major float op(A) [m, packed.k()] (a
/// transpose when trans_a); C is [m, packed.n()] with leading dimension
/// packed.n() and is written entirely (no accumulate into prior contents).
///
/// The output is swept in register tiles of 4 rows x kPanelWidth columns
/// with the k loop innermost and ascending, so each output element is a
/// single accumulation chain in ascending k order — exactly the naive
/// triple-loop's order — and the tiling changes performance, not bits.
/// The sweep is ParallelFor'ed over fixed (row chunk x panel group) tiles
/// whose shape is a function of (m, n) only: a single query row spreads
/// over column panels, a batch over row chunks too. Every tile writes a
/// disjoint region of C and no element's chain is split across tiles, so
/// results are bit-identical for every thread count.
void GemmPacked(const float* a, int64_t lda, bool trans_a,
                const PackedB& packed, int64_t m, float* c);

/// One-shot C = op(A) * op(B), with op(A) [m, k], op(B) [k, n] and C
/// [m, n]: PackB, then GemmPacked — so op(B) is packed on every call.
/// Callers that multiply the same B repeatedly pack it once instead.
void Gemm(const float* a, int64_t lda, bool trans_a, const float* b,
          int64_t ldb, bool trans_b, int64_t m, int64_t n, int64_t k,
          float* c);

}  // namespace adamine::kernel

#endif  // ADAMINE_KERNEL_GEMM_H_
