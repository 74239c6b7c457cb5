// Cache-tiled, panel-packed GEMM. Compiled with -O3 (see src/CMakeLists.txt);
// -ffp-contract=off keeps mul+add rounding separate, preserving
// bit-identity with the pre-kernel-layer naive loops.

#include "kernel/gemm.h"

#include <algorithm>
#include <cstring>
#include <vector>

#include "kernel/kernel.h"

namespace adamine::kernel {

namespace {

// Register tile: kMr output rows by kNr output columns, held as
// kMr x (kNr / kLanes) vector accumulators (see Lanes below).
constexpr int64_t kMr = 4;
constexpr int64_t kNr = PackedB::kPanelWidth;

// Parallel tile of the sweep: kRowChunk rows of C (a multiple of kMr, so a
// chunk never splits a register tile) by kPanelGroup column panels (512
// columns). Fixed sizes, so the decomposition depends on (m, n) only.
constexpr int64_t kRowChunk = 16;
constexpr int64_t kPanelGroup = 32;

/// Packs columns [jb, jb + w) of op(B) (w <= kNr) for all K rows into
/// `dst`, one kNr-wide row per k, zero-padded on the right.
void PackBPanel(const float* b, int64_t ldb, bool trans_b, int64_t kdim,
                int64_t jb, int64_t w, float* dst) {
  for (int64_t kk = 0; kk < kdim; ++kk) {
    if (trans_b) {
      for (int64_t j = 0; j < w; ++j) dst[j] = b[(jb + j) * ldb + kk];
    } else {
      const float* row = b + kk * ldb + jb;
      for (int64_t j = 0; j < w; ++j) dst[j] = row[j];
    }
    for (int64_t j = w; j < kNr; ++j) dst[j] = 0.0f;
    dst += kNr;
  }
}

// Four adjacent output columns; kNr / kLanes of them span a panel row.
// Arithmetic on this GCC/Clang vector type is lane-wise IEEE single
// precision, so a lane's `acc += a * b` rounds exactly like the scalar
// statement (with -ffp-contract=off, never fused) — the type only keeps the
// accumulators in vector registers.
constexpr int64_t kLanes = 4;
typedef float Lanes __attribute__((vector_size(kLanes * sizeof(float))));

/// C tile [MR, w] = sum over k of a_rows[r][k] * panel row k. The k loop is
/// outermost and ascending with one accumulator chain per output element —
/// the exact order of the naive kernels — while each chain is a lane.
template <int MR>
void MicroKernel(const float* const* a_rows, const float* panel, int64_t kdim,
                 float* c, int64_t ldc, int64_t w) {
  Lanes acc[MR][kNr / kLanes] = {};
  for (int64_t kk = 0; kk < kdim; ++kk) {
    const float* brow = panel + kk * kNr;
    for (int64_t q = 0; q < kNr / kLanes; ++q) {
      Lanes b;
      std::memcpy(&b, brow + q * kLanes, sizeof(b));
      for (int r = 0; r < MR; ++r) acc[r][q] += a_rows[r][kk] * b;
    }
  }
  for (int r = 0; r < MR; ++r) {
    float row[kNr];
    std::memcpy(row, acc[r], sizeof(row));
    std::memcpy(c + r * ldc, row, static_cast<size_t>(w) * sizeof(float));
  }
}

}  // namespace

PackedB PackB(const float* b, int64_t ldb, bool trans_b, int64_t k,
              int64_t n) {
  PackedB packed;
  packed.k_ = std::max<int64_t>(k, 0);
  packed.n_ = std::max<int64_t>(n, 0);
  const int64_t num_panels = packed.num_panels();
  packed.data_.resize(static_cast<size_t>(num_panels * packed.k_ * kNr));
  float* dst = packed.data_.data();
  ParallelFor(num_panels, /*grain=*/4, [&](int64_t p0, int64_t p1) {
    for (int64_t p = p0; p < p1; ++p) {
      const int64_t jb = p * kNr;
      PackBPanel(b, ldb, trans_b, packed.k_, jb, std::min(kNr, n - jb),
                 dst + p * packed.k_ * kNr);
    }
  });
  return packed;
}

void GemmPacked(const float* a, int64_t lda, bool trans_a,
                const PackedB& packed, int64_t m, float* c) {
  const int64_t n = packed.n();
  const int64_t k = packed.k();
  if (m <= 0 || n <= 0) return;
  if (k == 0) {
    std::fill(c, c + m * n, 0.0f);  // The empty chain still defines C.
    return;
  }
  const int64_t num_panels = packed.num_panels();
  const int64_t panel_groups = NumChunks(num_panels, kPanelGroup);
  const int64_t tiles = NumChunks(m, kRowChunk) * panel_groups;
  ParallelFor(tiles, /*grain=*/1, [&](int64_t t_begin, int64_t t_end) {
    // When op(A) is a transpose, its rows are strided; pack the chunk's
    // rows into a contiguous scratch so the micro-kernel always streams.
    // The scratch is local to this call, so tiles stay independent.
    std::vector<float> packed_a;
    const float* rows[kRowChunk] = {};
    for (int64_t t = t_begin; t < t_end; ++t) {
      const int64_t i_begin = (t / panel_groups) * kRowChunk;
      const int64_t rows_here = std::min(kRowChunk, m - i_begin);
      const int64_t p_begin = (t % panel_groups) * kPanelGroup;
      const int64_t p_end = std::min(num_panels, p_begin + kPanelGroup);
      if (!trans_a) {
        for (int64_t r = 0; r < rows_here; ++r) {
          rows[r] = a + (i_begin + r) * lda;
        }
      } else {
        packed_a.resize(static_cast<size_t>(rows_here * k));
        for (int64_t r = 0; r < rows_here; ++r) {
          float* dst = packed_a.data() + r * k;
          for (int64_t kk = 0; kk < k; ++kk) {
            dst[kk] = a[kk * lda + i_begin + r];
          }
          rows[r] = dst;
        }
      }
      // Panel-outer: each panel is swept by every row block of the chunk
      // while it is hot in L1.
      for (int64_t p = p_begin; p < p_end; ++p) {
        const int64_t jb = p * kNr;
        const int64_t w = std::min(kNr, n - jb);
        const float* panel = packed.panel(p);
        for (int64_t r0 = 0; r0 < rows_here; r0 += kMr) {
          const float* const* a_rows = rows + r0;
          float* ctile = c + (i_begin + r0) * n + jb;
          switch (std::min(kMr, rows_here - r0)) {
            case 4: MicroKernel<4>(a_rows, panel, k, ctile, n, w); break;
            case 3: MicroKernel<3>(a_rows, panel, k, ctile, n, w); break;
            case 2: MicroKernel<2>(a_rows, panel, k, ctile, n, w); break;
            default: MicroKernel<1>(a_rows, panel, k, ctile, n, w); break;
          }
        }
      }
    }
  });
}

void Gemm(const float* a, int64_t lda, bool trans_a, const float* b,
          int64_t ldb, bool trans_b, int64_t m, int64_t n, int64_t k,
          float* c) {
  if (m <= 0 || n <= 0) return;
  GemmPacked(a, lda, trans_a, PackB(b, ldb, trans_b, k, n), m, c);
}

}  // namespace adamine::kernel
