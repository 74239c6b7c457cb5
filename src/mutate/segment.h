#ifndef ADAMINE_MUTATE_SEGMENT_H_
#define ADAMINE_MUTATE_SEGMENT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "kernel/gemm.h"
#include "tensor/tensor.h"
#include "util/status.h"

namespace adamine::mutate {

/// One immutable sealed segment: the rows of a frozen memtable (minus the
/// rows already tombstoned at seal time), written once and never modified.
/// Ids are globally unique and ascending within a segment, and every
/// segment's id range is disjoint from every other's — ids are assigned
/// monotonically and rows only move forward (memtable -> segment -> merged
/// segment).
struct SealedSegment {
  std::string file;          // Basename within the corpus directory.
  std::vector<int64_t> ids;  // [n], ascending.
  Tensor rows;               // [n, dim] embeddings, row i belongs to ids[i].
  /// `rows` transposed into GEMM column panels (PackSegmentRows), so a
  /// query scores the segment with kernel::GemmPacked and never re-packs
  /// it. Built with the rows — at seal, merge and recovery — before the
  /// segment is published to readers.
  kernel::PackedB panels;

  int64_t size() const { return static_cast<int64_t>(ids.size()); }
};

/// The GEMM operand of a segment's rows [n, dim]: op(B) = rows^T packed.
kernel::PackedB PackSegmentRows(const Tensor& rows);

/// "seg-<seq>.adms" for the monotonic per-corpus segment sequence number.
std::string SegmentFileName(int64_t seq);

/// The sequence number of a segment file name, or -1 if `file` is not one.
int64_t ParseSegmentSeq(const std::string& file);

/// Writes `ids` + `rows` [n, dim] to `path` in the ADMS versioned-CRC
/// format via io::AtomicWriteFile (temp + fsync + rename), so a crashed
/// seal leaves a *.tmp orphan or nothing — never a half segment under the
/// final name.
Status WriteSegmentFile(const std::string& path,
                        const std::vector<int64_t>& ids, const Tensor& rows);

/// Loads and CRC-checks the segment at `path`. Hostile-input safe: every
/// announced count is bounds-checked against the bytes actually present
/// before anything is allocated, and any mismatch with `expected_dim` is a
/// descriptive error.
StatusOr<SealedSegment> LoadSegmentFile(const std::string& path,
                                        int64_t expected_dim);

}  // namespace adamine::mutate

#endif  // ADAMINE_MUTATE_SEGMENT_H_
