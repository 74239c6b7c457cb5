#include "mutate/segment.h"

#include <cstdio>
#include <cstring>
#include <fstream>

#include "io/serialize.h"
#include "io/wire.h"

namespace adamine::mutate {

namespace {

constexpr char kSegmentMagic[4] = {'A', 'D', 'M', 'S'};
constexpr uint32_t kSegmentVersion = 1;
constexpr int64_t kMaxSegmentRows = int64_t{1} << 40;
constexpr int64_t kMaxSegmentDim = int64_t{1} << 20;

}  // namespace

kernel::PackedB PackSegmentRows(const Tensor& rows) {
  return kernel::PackB(rows.data(), rows.cols(), /*trans_b=*/true,
                       rows.cols(), rows.rows());
}

std::string SegmentFileName(int64_t seq) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "seg-%08lld.adms",
                static_cast<long long>(seq));
  return buf;
}

int64_t ParseSegmentSeq(const std::string& file) {
  long long seq = -1;
  char tail = '\0';
  if (std::sscanf(file.c_str(), "seg-%8lld.adm%c", &seq, &tail) != 2 ||
      tail != 's' || file != SegmentFileName(seq)) {
    return -1;
  }
  return seq;
}

Status WriteSegmentFile(const std::string& path,
                        const std::vector<int64_t>& ids, const Tensor& rows) {
  if (!rows.defined() || rows.ndim() != 2 ||
      rows.rows() != static_cast<int64_t>(ids.size())) {
    return Status::InvalidArgument(
        "segment rows must be 2-D with one row per id");
  }
  return io::AtomicWriteFile(path, [&ids, &rows](std::ostream& os) {
    io::wire::Writer writer(os);
    writer.WriteRaw(kSegmentMagic, 4);
    writer.WriteU32(kSegmentVersion);
    writer.WriteI64(static_cast<int64_t>(ids.size()));
    writer.WriteI64(rows.cols());
    writer.WriteBytes(ids.data(), ids.size() * sizeof(int64_t));
    writer.WriteBytes(rows.data(),
                      static_cast<size_t>(rows.numel()) * sizeof(float));
    const uint32_t crc = writer.crc();
    writer.WriteRaw(&crc, sizeof(crc));
    if (!writer.ok()) return Status::Internal("stream write failed");
    return Status::Ok();
  });
}

StatusOr<SealedSegment> LoadSegmentFile(const std::string& path,
                                        int64_t expected_dim) {
  std::ifstream is(path, std::ios::binary);
  if (!is) return Status::NotFound("cannot open segment at " + path);
  io::wire::Reader reader(is);
  char magic[4];
  if (!reader.ReadRaw(magic, 4).ok() ||
      std::memcmp(magic, kSegmentMagic, 4) != 0) {
    return Status::DataLoss("bad magic for segment " + path);
  }
  auto version = reader.ReadU32();
  if (!version.ok()) return version.status();
  if (*version != kSegmentVersion) {
    return Status::DataLoss("unsupported segment version " +
                            std::to_string(*version) + " in " + path);
  }
  auto n = reader.ReadI64();
  if (!n.ok()) return n.status();
  auto dim = reader.ReadI64();
  if (!dim.ok()) return dim.status();
  if (*n <= 0 || *n > kMaxSegmentRows || *dim <= 0 || *dim > kMaxSegmentDim) {
    return Status::DataLoss("implausible segment geometry in " + path);
  }
  if (*dim != expected_dim) {
    return Status::InvalidArgument(
        "segment " + path + " has dim " + std::to_string(*dim) +
        " but the corpus dim is " + std::to_string(expected_dim));
  }
  // Check the announced payload against the bytes actually present before
  // allocating; a flipped bit in a count must not trigger a huge allocation.
  const int64_t remaining = reader.RemainingBytes();
  const int64_t row_bytes = 8 + *dim * 4;
  if (remaining >= 0 && *n > remaining / row_bytes) {
    return Status::DataLoss(
        "segment header announces more rows than " + path + " holds");
  }
  SealedSegment segment;
  segment.ids.resize(static_cast<size_t>(*n));
  ADAMINE_RETURN_IF_ERROR(reader.ReadBytes(
      segment.ids.data(), segment.ids.size() * sizeof(int64_t)));
  segment.rows = Tensor({*n, *dim});
  ADAMINE_RETURN_IF_ERROR(reader.ReadBytes(
      segment.rows.data(),
      static_cast<size_t>(segment.rows.numel()) * sizeof(float)));
  ADAMINE_RETURN_IF_ERROR(io::wire::VerifyCrc(reader, "segment " + path));
  for (size_t i = 1; i < segment.ids.size(); ++i) {
    if (segment.ids[i] <= segment.ids[i - 1]) {
      return Status::DataLoss("segment " + path + " ids are not ascending");
    }
  }
  const size_t slash = path.find_last_of('/');
  segment.file = slash == std::string::npos ? path : path.substr(slash + 1);
  return segment;
}

}  // namespace adamine::mutate
