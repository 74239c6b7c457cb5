// The crash-safe mutable corpus: WAL-acknowledged mutations over an
// in-memory memtable, sealed into immutable ADMS segments named by an
// atomically-swapped manifest. The durability argument is boundary-local:
// every state the process can die in is one of (a) torn WAL tail — replay
// truncates it, (b) orphaned segment not yet in a manifest — recovery
// deletes it, (c) torn manifest — recovery falls back one generation, and
// in every case the previous generation's manifest + WAL still hold the
// complete acknowledged history (see DESIGN.md, "Live mutation and crash
// recovery").

#include "mutate/mutable_corpus.h"

#include <dirent.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <unordered_set>
#include <utility>

#include "kernel/kernel.h"
#include "mutate/manifest.h"
#include "util/backoff.h"
#include "util/fault.h"

namespace adamine::mutate {

namespace {

std::string WalFileName(int64_t generation) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "wal-%08lld.admw",
                static_cast<long long>(generation));
  return buf;
}

bool IsWalFileName(const std::string& file) {
  long long generation = -1;
  return std::sscanf(file.c_str(), "wal-%8lld.admw", &generation) == 1 &&
         file == WalFileName(generation);
}

bool EndsWith(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

bool BitSet(const std::vector<uint64_t>& bits, int64_t id) {
  const size_t word = static_cast<size_t>(id >> 6);
  return word < bits.size() && ((bits[word] >> (id & 63)) & 1);
}

void SetBit(std::vector<uint64_t>* bits, int64_t id) {
  const size_t word = static_cast<size_t>(id >> 6);
  if (word >= bits->size()) bits->resize(word + 1, 0);
  (*bits)[word] |= uint64_t{1} << (id & 63);
}

/// Quarantined segments keep their name plus this suffix, so they survive
/// the recovery orphan sweep (operators can inspect or salvage them) while
/// never matching ParseSegmentSeq's exact-name check.
constexpr char kQuarantineSuffix[] = ".quarantine";

/// Salt for the maintenance thread's jittered backoff (see
/// backoff::JitteredBackoffMs); any fixed odd-ish constant distinct from
/// the ShardClient attempt salts works.
constexpr uint64_t kMaintenanceSalt = 0x6d61696e74ull;

StatusOr<std::vector<std::string>> ListDir(const std::string& dir) {
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) return Status::NotFound("cannot list directory " + dir);
  std::vector<std::string> names;
  while (struct dirent* entry = ::readdir(d)) {
    const std::string name = entry->d_name;
    if (name != "." && name != "..") names.push_back(name);
  }
  ::closedir(d);
  return names;
}

}  // namespace

Status MutableCorpusConfig::Validate() const {
  if (dim <= 0) return Status::InvalidArgument("corpus dim must be > 0");
  if (seal_threshold < 1) {
    return Status::InvalidArgument("seal_threshold must be >= 1");
  }
  if (merge_threshold < 2) {
    return Status::InvalidArgument("merge_threshold must be >= 2");
  }
  if (memtable_max_rows < 0 || memtable_max_bytes < 0 || max_seal_lag < 0) {
    return Status::InvalidArgument(
        "memtable budgets and max_seal_lag must be >= 0 (0 = unbounded)");
  }
  if (memtable_max_rows > 0 && memtable_max_rows < seal_threshold) {
    return Status::InvalidArgument(
        "memtable_max_rows below seal_threshold would backpressure before "
        "sealing can ever trigger");
  }
  if (admit_wait_ms < 0.0) {
    return Status::InvalidArgument("admit_wait_ms must be >= 0");
  }
  if (maintenance_retry_max < 1) {
    return Status::InvalidArgument("maintenance_retry_max must be >= 1");
  }
  if (maintenance_backoff_base_ms <= 0.0 ||
      maintenance_backoff_max_ms < maintenance_backoff_base_ms) {
    return Status::InvalidArgument(
        "maintenance backoff needs 0 < base <= max");
  }
  if (scrub_interval_ms < 0.0) {
    return Status::InvalidArgument("scrub_interval_ms must be >= 0");
  }
  return Status::Ok();
}

MemChunk::MemChunk(int64_t dim)
    : ids(static_cast<size_t>(kRows)),
      data(static_cast<size_t>(kRows * dim)) {}

MutableCorpus::MutableCorpus(std::string dir,
                             const MutableCorpusConfig& config)
    : dir_(std::move(dir)), config_(config) {}

MutableCorpus::~MutableCorpus() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  maintenance_cv_.notify_all();
  capacity_cv_.notify_all();
  if (maintenance_.joinable()) maintenance_.join();
}

StatusOr<std::unique_ptr<MutableCorpus>> MutableCorpus::Open(
    const std::string& dir, const MutableCorpusConfig& config) {
  ADAMINE_RETURN_IF_ERROR(config.Validate());
  if (dir.empty()) return Status::InvalidArgument("corpus dir must be set");
  if (::mkdir(dir.c_str(), 0755) != 0 && errno != EEXIST) {
    return Status::NotFound("cannot create corpus directory " + dir);
  }
  std::unique_ptr<MutableCorpus> corpus(new MutableCorpus(dir, config));
  ADAMINE_RETURN_IF_ERROR(corpus->Recover());
  if (config.background) {
    corpus->maintenance_ = std::thread([raw = corpus.get()] {
      raw->MaintenanceLoop();
    });
  }
  return corpus;
}

Status MutableCorpus::Recover() {
  auto names = ListDir(dir_);
  if (!names.ok()) return names.status();

  // Newest intact manifest wins; a torn newest generation (crash
  // mid-commit) falls back to the previous one, which by the commit
  // protocol still names the complete acknowledged history.
  std::vector<std::pair<int64_t, std::string>> manifests;
  for (const std::string& name : *names) {
    const int64_t generation = ParseManifestGeneration(name);
    if (generation >= 0) manifests.emplace_back(generation, name);
  }
  std::sort(manifests.rbegin(), manifests.rend());
  Manifest manifest;
  std::string chosen;
  for (const auto& [generation, name] : manifests) {
    auto loaded = LoadManifestFile(dir_ + "/" + name);
    if (loaded.ok()) {
      manifest = std::move(loaded.value());
      chosen = name;
      break;
    }
  }
  if (chosen.empty() && !manifests.empty()) {
    return Status::DataLoss("every manifest in " + dir_ +
                            " is torn or corrupt; cannot recover");
  }

  auto bitmap = std::make_shared<std::vector<uint64_t>>();
  std::unordered_set<std::string> live_files;
  if (chosen.empty()) {
    // Fresh corpus: a durable WAL first, then the generation-0 manifest
    // naming it. A crash between the two re-enters this branch.
    wal_file_ = WalFileName(0);
    auto writer = WalWriter::Create(dir_ + "/" + wal_file_);
    if (!writer.ok()) return writer.status();
    wal_ = std::move(writer.value());
    Manifest fresh;
    fresh.generation = 0;
    fresh.dim = config_.dim;
    fresh.wal_file = wal_file_;
    ADAMINE_RETURN_IF_ERROR(WriteManifestFile(dir_, fresh));
    generation_ = 0;
  } else {
    if (manifest.dim != config_.dim) {
      return Status::InvalidArgument(
          dir_ + " holds a corpus of dim " + std::to_string(manifest.dim) +
          " but the config says " + std::to_string(config_.dim));
    }
    generation_ = manifest.generation;
    next_id_ = manifest.next_id;
    wal_file_ = manifest.wal_file;
    for (const std::string& file : manifest.segments) {
      auto segment = LoadSegmentFile(dir_ + "/" + file, config_.dim);
      if (!segment.ok()) {
        return Status::DataLoss("manifest " + chosen + " names segment " +
                                file + " which failed to load: " +
                                segment.status().ToString());
      }
      segment->panels = PackSegmentRows(segment->rows);
      sealed_.push_back(std::make_shared<const SealedSegment>(
          std::move(segment.value())));
      live_files.insert(file);
    }
    for (const int64_t id : manifest.tombstones) SetBit(bitmap.get(), id);
    for (const auto& segment : sealed_) {
      for (const int64_t id : segment->ids) {
        next_id_ = std::max(next_id_, id + 1);
        if (!BitSet(*bitmap, id)) live_ids_.insert(id);
      }
    }

    // Replay the WAL: adds rebuild the memtable, deletes rebuild the
    // tombstones, and the records themselves become the pending backlog
    // the next seal re-logs. A torn tail is truncated before the log is
    // reopened for appending — those bytes were never acknowledged.
    const std::string wal_path = dir_ + "/" + wal_file_;
    auto replay = ReplayWal(wal_path, config_.dim);
    if (!replay.ok()) {
      return Status::DataLoss("manifest " + chosen + " names WAL " +
                              wal_file_ + " which failed to replay: " +
                              replay.status().ToString());
    }
    for (WalRecord& record : replay->records) {
      if (record.kind == WalRecord::Kind::kAdd) {
        const int64_t pos = mem_rows_;
        const size_t chunk = static_cast<size_t>(pos / MemChunk::kRows);
        if (chunk == chunks_.size()) {
          chunks_.push_back(std::make_shared<MemChunk>(config_.dim));
        }
        const int64_t slot = pos % MemChunk::kRows;
        chunks_[chunk]->ids[static_cast<size_t>(slot)] = record.id;
        std::memcpy(chunks_[chunk]->data.data() + slot * config_.dim,
                    record.row.data(),
                    static_cast<size_t>(config_.dim) * sizeof(float));
        ++mem_rows_;
        next_id_ = std::max(next_id_, record.id + 1);
        if (!BitSet(*bitmap, record.id)) live_ids_.insert(record.id);
      } else {
        SetBit(bitmap.get(), record.id);
        live_ids_.erase(record.id);
      }
      pending_.push_back(std::move(record));
    }
    auto writer = WalWriter::OpenForAppend(wal_path, replay->valid_bytes);
    if (!writer.ok()) return writer.status();
    wal_ = std::move(writer.value());
  }

  // Everything the live manifest does not name is a crash artefact:
  // orphaned segments from an interrupted seal/merge, a rotated-but-
  // uncommitted WAL, torn or superseded manifests, temp-file debris. A
  // fresh corpus runs this too — a crash during its very first manifest
  // commit leaves MANIFEST-00000000.tmp behind.
  const std::string manifest_name = ManifestFileName(generation_);
  for (const std::string& name : *names) {
    const int64_t seq = ParseSegmentSeq(name);
    if (seq >= 0) seg_seq_ = std::max(seg_seq_, seq + 1);
    // Quarantined segments are deliberately NOT crash debris: they keep
    // their bytes for inspection, never rejoin a manifest, and their
    // sequence number stays burned so a future seal cannot reuse it.
    if (EndsWith(name, kQuarantineSuffix)) {
      const int64_t qseq = ParseSegmentSeq(
          name.substr(0, name.size() - std::strlen(kQuarantineSuffix)));
      if (qseq >= 0) {
        seg_seq_ = std::max(seg_seq_, qseq + 1);
        ++quarantined_segments_;
      }
      continue;
    }
    bool keep = name == manifest_name || name == wal_file_ ||
                (seq >= 0 && live_files.count(name) > 0);
    if (!keep && (seq >= 0 || IsWalFileName(name) ||
                  ParseManifestGeneration(name) >= 0 ||
                  EndsWith(name, ".tmp"))) {
      ::unlink((dir_ + "/" + name).c_str());
    }
  }
  tombstones_ = std::move(bitmap);
  PublishSnapshotLocked();
  return Status::Ok();
}

void MutableCorpus::PublishSnapshotLocked() {
  auto snapshot = std::make_shared<CorpusSnapshot>();
  snapshot->epoch = epoch_;
  snapshot->dim = config_.dim;
  snapshot->sealed = sealed_;
  snapshot->mem.assign(chunks_.begin(), chunks_.end());
  snapshot->mem_rows = mem_rows_;
  snapshot->live_rows = static_cast<int64_t>(live_ids_.size());
  snapshot->next_id = next_id_;
  snapshot->tombstones = tombstones_;
  snapshot_ = std::move(snapshot);
}

std::shared_ptr<const CorpusSnapshot> MutableCorpus::snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return snapshot_;
}

int64_t MutableCorpus::epoch() const {
  std::lock_guard<std::mutex> lock(mu_);
  return epoch_;
}

int64_t MutableCorpus::live_rows() const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<int64_t>(live_ids_.size());
}

MutableCorpus::Stats MutableCorpus::GetStats() const {
  std::lock_guard<std::mutex> lock(mu_);
  Stats stats;
  stats.generation = generation_;
  stats.seals = seals_;
  stats.merges = merges_;
  stats.sealed_segments = static_cast<int64_t>(sealed_.size());
  stats.mem_rows = mem_rows_;
  stats.wal_records = static_cast<int64_t>(pending_.size());
  stats.mem_bytes = MemBytesLocked();
  stats.seal_lag = mem_rows_ / config_.seal_threshold;
  stats.backpressure_sheds = backpressure_sheds_;
  stats.wal_transient_failures = wal_transient_failures_;
  stats.scrubs = scrubs_;
  stats.quarantined_segments = quarantined_segments_;
  stats.quarantined_rows = quarantined_rows_;
  stats.last_scrub_unix_ms = last_scrub_unix_ms_;
  stats.read_only = wal_failed_;
  return stats;
}

int64_t MutableCorpus::MemBytesLocked() const {
  // Logical footprint: id + row per memtable entry. Chunk slabs
  // over-allocate to kRows granularity, but the budget tracks what the
  // caller actually inserted — the number that grows without bound when
  // sealing falls behind.
  const int64_t row_bytes =
      config_.dim * static_cast<int64_t>(sizeof(float)) +
      static_cast<int64_t>(sizeof(int64_t));
  return mem_rows_ * row_bytes;
}

void MutableCorpus::LatchReadOnlyLocked() {
  wal_failed_ = true;
  // Blocked admission waits can never succeed now; fail them fast.
  capacity_cv_.notify_all();
}

bool MutableCorpus::OverBudgetLocked(int64_t add_rows) const {
  if (config_.max_seal_lag > 0 &&
      mem_rows_ / config_.seal_threshold > config_.max_seal_lag) {
    return true;
  }
  if (add_rows == 0) return false;  // Deletes: tiny, only the lag gates.
  // Escape hatch: an empty memtable admits ANY batch. Without it a batch
  // larger than the budget could never be admitted at all; with it the
  // worst case degrades to one oversized batch in flight at a time.
  if (mem_rows_ == 0) return false;
  if (config_.memtable_max_rows > 0 &&
      mem_rows_ + add_rows > config_.memtable_max_rows) {
    return true;
  }
  if (config_.memtable_max_bytes > 0) {
    const int64_t row_bytes =
        config_.dim * static_cast<int64_t>(sizeof(float)) +
        static_cast<int64_t>(sizeof(int64_t));
    if (MemBytesLocked() + add_rows * row_bytes > config_.memtable_max_bytes) {
      return true;
    }
  }
  return false;
}

Status MutableCorpus::WaitForAdmissionLocked(
    std::unique_lock<std::mutex>& lock, int64_t add_rows) {
  if (!OverBudgetLocked(add_rows)) return Status::Ok();
  // Capacity comes from a seal; make sure one is actively being made
  // rather than waiting for the row count to cross the seal threshold.
  maintenance_cv_.notify_all();
  if (config_.admit_wait_ms <= 0.0) {
    ++backpressure_sheds_;
    return Status::ResourceExhausted(
        "corpus at " + dir_ + " is over its memtable budget (" +
        std::to_string(mem_rows_) + " rows, seal lag " +
        std::to_string(mem_rows_ / config_.seal_threshold) +
        "); retry after maintenance catches up");
  }
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double, std::milli>(config_.admit_wait_ms));
  while (OverBudgetLocked(add_rows)) {
    if (stop_) {
      return Status::Unavailable("corpus at " + dir_ + " is shutting down");
    }
    if (wal_failed_) {
      return Status::FailedPrecondition(
          "the corpus at " + dir_ + " lost its WAL and is read-only; "
          "re-open it to recover");
    }
    if (capacity_cv_.wait_until(lock, deadline) ==
            std::cv_status::timeout &&
        OverBudgetLocked(add_rows)) {
      ++backpressure_sheds_;
      return Status::ResourceExhausted(
          "corpus at " + dir_ + " stayed over its memtable budget for " +
          std::to_string(config_.admit_wait_ms) +
          " ms; shedding the mutation");
    }
  }
  return Status::Ok();
}

StatusOr<int64_t> MutableCorpus::AddRows(const float* data, int64_t n) {
  bool want_seal = false;
  int64_t first = 0;
  {
    std::unique_lock<std::mutex> lock(mu_);
    if (wal_failed_) {
      return Status::FailedPrecondition(
          "the corpus at " + dir_ + " lost its WAL and is read-only; "
          "re-open it to recover");
    }
    // An empty batch is a no-op: nothing to log, and bumping the epoch
    // would needlessly invalidate every epoch-keyed cached result.
    if (n == 0) return next_id_;
    ADAMINE_RETURN_IF_ERROR(WaitForAdmissionLocked(lock, n));
    // Ids are assigned AFTER admission: the wait releases mu_, so another
    // writer may commit (and advance next_id_) while this one blocks — a
    // range captured before the wait could be handed out twice.
    first = next_id_;
    // Log first, acknowledge after: the WAL sync on the last record is the
    // durability point for the whole batch, and nothing is acknowledged on
    // failure. Transient storage exhaustion (ENOSPC-class) rolls the whole
    // batch back to the pre-batch offset — the sync=false records of a
    // partially-appended batch are already in the file — and the corpus
    // keeps serving and accepting retries; any other failure latches it
    // read-only (the tail's extent is unknown).
    const int64_t wal_mark = wal_->tell();
    std::vector<WalRecord> records;
    records.reserve(static_cast<size_t>(n));
    for (int64_t i = 0; i < n; ++i) {
      WalRecord record;
      record.kind = WalRecord::Kind::kAdd;
      record.id = first + i;
      record.row.assign(data + i * config_.dim,
                        data + (i + 1) * config_.dim);
      const Status appended = wal_->Append(record, /*sync=*/i + 1 == n);
      if (!appended.ok()) {
        if (appended.code() == StatusCode::kResourceExhausted) {
          ++wal_transient_failures_;
          const Status rolled = wal_->TruncateTo(wal_mark);
          if (!rolled.ok()) {
            LatchReadOnlyLocked();
            return rolled;
          }
          // next_id_ is untouched, so a retry re-assigns the same ids.
          return appended;
        }
        LatchReadOnlyLocked();
        return appended;
      }
      records.push_back(std::move(record));
    }
    for (WalRecord& record : records) {
      const int64_t pos = mem_rows_;
      const size_t chunk = static_cast<size_t>(pos / MemChunk::kRows);
      if (chunk == chunks_.size()) {
        chunks_.push_back(std::make_shared<MemChunk>(config_.dim));
      }
      const int64_t slot = pos % MemChunk::kRows;
      chunks_[chunk]->ids[static_cast<size_t>(slot)] = record.id;
      std::memcpy(chunks_[chunk]->data.data() + slot * config_.dim,
                  record.row.data(),
                  static_cast<size_t>(config_.dim) * sizeof(float));
      ++mem_rows_;
      live_ids_.insert(record.id);
      pending_.push_back(std::move(record));
    }
    next_id_ = first + n;
    ++epoch_;
    PublishSnapshotLocked();
    want_seal = mem_rows_ >= config_.seal_threshold;
  }
  if (want_seal) maintenance_cv_.notify_all();
  return first;
}

StatusOr<int64_t> MutableCorpus::Add(const float* row) {
  return AddRows(row, 1);
}

StatusOr<int64_t> MutableCorpus::Add(const Tensor& row) {
  if (!row.defined() || row.numel() != config_.dim) {
    return Status::InvalidArgument(
        "row must hold exactly dim = " + std::to_string(config_.dim) +
        " values");
  }
  return AddRows(row.data(), 1);
}

StatusOr<int64_t> MutableCorpus::AddBatch(const Tensor& rows) {
  if (!rows.defined() || rows.ndim() != 2 || rows.cols() != config_.dim) {
    return Status::InvalidArgument(
        "rows must be 2-D [N, " + std::to_string(config_.dim) + "]");
  }
  return AddRows(rows.data(), rows.rows());
}

Status MutableCorpus::Delete(int64_t id) {
  {
    std::unique_lock<std::mutex> lock(mu_);
    if (wal_failed_) {
      return Status::FailedPrecondition(
          "the corpus at " + dir_ + " lost its WAL and is read-only; "
          "re-open it to recover");
    }
    // Deletes shrink the live set but still append a WAL record the next
    // seal must re-log, so the seal-lag watermark gates them too (the
    // memtable budgets do not — add_rows = 0).
    ADAMINE_RETURN_IF_ERROR(WaitForAdmissionLocked(lock, 0));
    if (live_ids_.count(id) == 0) {
      return Status::NotFound("id " + std::to_string(id) +
                              " is not a live row");
    }
    WalRecord record;
    record.kind = WalRecord::Kind::kDelete;
    record.id = id;
    const int64_t wal_mark = wal_->tell();
    const Status appended = wal_->Append(record, /*sync=*/true);
    if (!appended.ok()) {
      if (appended.code() == StatusCode::kResourceExhausted) {
        ++wal_transient_failures_;
        const Status rolled = wal_->TruncateTo(wal_mark);
        if (!rolled.ok()) {
          LatchReadOnlyLocked();
          return rolled;
        }
        return appended;
      }
      LatchReadOnlyLocked();
      return appended;
    }
    live_ids_.erase(id);
    auto bitmap = std::make_shared<std::vector<uint64_t>>(*tombstones_);
    SetBit(bitmap.get(), id);
    tombstones_ = std::move(bitmap);
    pending_.push_back(std::move(record));
    ++epoch_;
    PublishSnapshotLocked();
  }
  return Status::Ok();
}

Status MutableCorpus::DoSeal() {
  // Caller holds maintenance_mu_. Freeze the state to seal outside the
  // corpus mutex (mutations keep flowing), then commit under it.
  std::vector<std::shared_ptr<MemChunk>> chunks;
  std::shared_ptr<const std::vector<uint64_t>> frozen_tombstones;
  int64_t seal_rows = 0;
  int64_t generation = 0;
  size_t frozen_pending = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (wal_failed_) {
      return Status::FailedPrecondition(
          "the corpus at " + dir_ + " lost its WAL; seal refused");
    }
    if (mem_rows_ == 0 && pending_.empty()) return Status::Ok();
    seal_rows = mem_rows_;
    chunks = chunks_;
    frozen_tombstones = tombstones_;
    generation = generation_;
    frozen_pending = pending_.size();
  }

  // Rows already tombstoned at freeze time are dropped here; rows deleted
  // while the segment is being written stay in it and are tombstoned via
  // the manifest (and the re-logged WAL tail) at commit below.
  std::vector<int64_t> ids;
  std::vector<int64_t> source_rows;
  ids.reserve(static_cast<size_t>(seal_rows));
  source_rows.reserve(static_cast<size_t>(seal_rows));
  for (int64_t r = 0; r < seal_rows; ++r) {
    const auto& chunk = *chunks[static_cast<size_t>(r / MemChunk::kRows)];
    const int64_t id = chunk.ids[static_cast<size_t>(r % MemChunk::kRows)];
    if (BitSet(*frozen_tombstones, id)) continue;
    ids.push_back(id);
    source_rows.push_back(r);
  }
  std::string segment_file;
  Tensor rows;
  kernel::PackedB panels;
  if (!ids.empty()) {
    int64_t seq = 0;
    {
      std::lock_guard<std::mutex> lock(mu_);
      seq = seg_seq_++;
    }
    segment_file = SegmentFileName(seq);
    rows = Tensor({static_cast<int64_t>(ids.size()), config_.dim});
    const int64_t dim = config_.dim;
    kernel::ParallelFor(
        static_cast<int64_t>(ids.size()), kernel::kRowGrain,
        [&](int64_t r0, int64_t r1) {
          for (int64_t r = r0; r < r1; ++r) {
            const int64_t src = source_rows[static_cast<size_t>(r)];
            const auto& chunk =
                *chunks[static_cast<size_t>(src / MemChunk::kRows)];
            std::memcpy(rows.data() + r * dim,
                        chunk.data.data() + (src % MemChunk::kRows) * dim,
                        static_cast<size_t>(dim) * sizeof(float));
          }
        });
    ADAMINE_RETURN_IF_ERROR(
        WriteSegmentFile(dir_ + "/" + segment_file, ids, rows));
    panels = PackSegmentRows(rows);
  }
  if (fault::ShouldFail(fault::kMutateSealCrash)) {
    // Crash between segment write and manifest commit: the segment (if
    // any) is an orphan the next recovery must delete. The corpus keeps
    // serving its pre-seal state.
    return Status::Internal("injected crash after sealing " +
                            (segment_file.empty() ? std::string("(empty)")
                                                  : segment_file) +
                            ", before manifest commit");
  }

  // Create the next generation's WAL before taking mu_ — maintenance_mu_
  // pins the generation, and an uncommitted wal-(N+1) is ordinary crash
  // debris — so appenders do not stall for its create + fsync.
  const std::string new_wal = WalFileName(generation + 1);
  auto writer = WalWriter::Create(dir_ + "/" + new_wal);
  if (!writer.ok()) return writer.status();

  std::lock_guard<std::mutex> lock(mu_);
  // Rotate the WAL: the records that arrived after the freeze are re-
  // logged into the next generation's log, so the new manifest + new WAL
  // again hold the complete un-sealed history. Until the manifest commits,
  // the OLD manifest + OLD WAL do — every crash point is covered by one
  // complete generation or the other.
  //
  // mu_ stays held across the re-log, its sync, and the manifest's fsyncs:
  // once MANIFEST-(N+1) might exist on disk no ack may enter wal-N, and an
  // ack into wal-(N+1) before the manifest is durable could be lost to a
  // fallback recovery — so appends MUST stall here. Every Add/Delete and
  // snapshot() eats a few fsync latencies per seal; perfbench's
  // live_ingest workload measures the read latency this produces.
  for (size_t i = frozen_pending; i < pending_.size(); ++i) {
    ADAMINE_RETURN_IF_ERROR(
        writer.value()->Append(pending_[i], /*sync=*/false));
  }
  ADAMINE_RETURN_IF_ERROR(writer.value()->Sync());

  Manifest manifest;
  manifest.generation = generation + 1;
  manifest.dim = config_.dim;
  manifest.next_id = next_id_;
  manifest.wal_file = new_wal;
  for (const auto& segment : sealed_) {
    manifest.segments.push_back(segment->file);
  }
  if (!ids.empty()) manifest.segments.push_back(segment_file);
  for (const auto& segment : sealed_) {
    for (const int64_t id : segment->ids) {
      if (BitSet(*tombstones_, id)) manifest.tombstones.push_back(id);
    }
  }
  for (const int64_t id : ids) {
    if (BitSet(*tombstones_, id)) manifest.tombstones.push_back(id);
  }
  // On commit failure everything written so far (segment, rotated WAL, a
  // possibly-published manifest) is left as-is — exactly the debris of a
  // real crash here — and the in-memory state stays at the old generation,
  // so reads keep serving. But the failure may have come AFTER the rename
  // published an intact MANIFEST-(N+1) (e.g. the directory fsync failed),
  // and that manifest names wal-(N+1): if another mutation were
  // acknowledged into the still-live wal-N and the process then crashed,
  // recovery could choose the newer generation, replay only wal-(N+1)'s
  // re-logged records, and lose the later ack. So a manifest-commit
  // failure is sticky like a WAL failure: the corpus turns read-only, and
  // either generation recovery picks holds the complete acked history.
  const Status committed = WriteManifestFile(dir_, manifest);
  if (!committed.ok()) {
    LatchReadOnlyLocked();
    return committed;
  }

  if (!ids.empty()) {
    SealedSegment sealed;
    sealed.file = segment_file;
    sealed.ids = std::move(ids);
    sealed.rows = std::move(rows);
    sealed.panels = std::move(panels);
    sealed_.push_back(
        std::make_shared<const SealedSegment>(std::move(sealed)));
  }
  // Rebase the memtable onto the rows that arrived mid-seal. Fresh chunks:
  // readers of older snapshots keep the old ones alive.
  std::vector<std::shared_ptr<MemChunk>> tail;
  int64_t tail_rows = 0;
  for (int64_t r = seal_rows; r < mem_rows_; ++r) {
    const auto& chunk = *chunks_[static_cast<size_t>(r / MemChunk::kRows)];
    const size_t dst_chunk = static_cast<size_t>(tail_rows / MemChunk::kRows);
    if (dst_chunk == tail.size()) {
      tail.push_back(std::make_shared<MemChunk>(config_.dim));
    }
    const int64_t slot = tail_rows % MemChunk::kRows;
    tail[dst_chunk]->ids[static_cast<size_t>(slot)] =
        chunk.ids[static_cast<size_t>(r % MemChunk::kRows)];
    std::memcpy(tail[dst_chunk]->data.data() + slot * config_.dim,
                chunk.data.data() + (r % MemChunk::kRows) * config_.dim,
                static_cast<size_t>(config_.dim) * sizeof(float));
    ++tail_rows;
  }
  chunks_ = std::move(tail);
  mem_rows_ = tail_rows;
  pending_.erase(pending_.begin(),
                 pending_.begin() + static_cast<ptrdiff_t>(frozen_pending));
  const std::string old_wal = wal_file_;
  wal_ = std::move(writer.value());
  wal_file_ = new_wal;
  ::unlink((dir_ + "/" + old_wal).c_str());
  const int64_t old_generation = generation_;
  generation_ = generation + 1;
  ::unlink((dir_ + "/" + ManifestFileName(old_generation)).c_str());
  ++seals_;
  // Content is unchanged (the sealed rows just moved storage), so the
  // epoch stays — only the structural snapshot swaps.
  PublishSnapshotLocked();
  // The memtable just shrank: admit whoever was blocked on the budget.
  capacity_cv_.notify_all();
  return Status::Ok();
}

Status MutableCorpus::DoMerge() {
  // Caller holds maintenance_mu_, which also serialises against DoSeal —
  // the sealed set cannot change under us; only the tombstone bitmap can
  // grow, which commit handles like seal does.
  std::vector<std::shared_ptr<const SealedSegment>> sealed;
  std::shared_ptr<const std::vector<uint64_t>> frozen_tombstones;
  int64_t generation = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (wal_failed_) {
      return Status::FailedPrecondition(
          "the corpus at " + dir_ + " lost its WAL; merge refused");
    }
    sealed = sealed_;
    frozen_tombstones = tombstones_;
    generation = generation_;
  }
  if (sealed.empty()) return Status::Ok();
  int64_t dead = 0;
  int64_t survivors = 0;
  for (const auto& segment : sealed) {
    for (const int64_t id : segment->ids) {
      if (BitSet(*frozen_tombstones, id)) {
        ++dead;
      } else {
        ++survivors;
      }
    }
  }
  if (sealed.size() < 2 && dead == 0) return Status::Ok();

  std::string segment_file;
  std::vector<int64_t> ids;
  Tensor rows;
  kernel::PackedB panels;
  if (survivors > 0) {
    ids.reserve(static_cast<size_t>(survivors));
    std::vector<const float*> sources;
    sources.reserve(static_cast<size_t>(survivors));
    for (const auto& segment : sealed) {
      for (size_t i = 0; i < segment->ids.size(); ++i) {
        const int64_t id = segment->ids[i];
        if (BitSet(*frozen_tombstones, id)) continue;
        ids.push_back(id);
        sources.push_back(segment->rows.data() +
                          static_cast<int64_t>(i) * config_.dim);
      }
    }
    rows = Tensor({survivors, config_.dim});
    const int64_t dim = config_.dim;
    kernel::ParallelFor(survivors, kernel::kRowGrain,
                        [&](int64_t r0, int64_t r1) {
                          for (int64_t r = r0; r < r1; ++r) {
                            std::memcpy(
                                rows.data() + r * dim,
                                sources[static_cast<size_t>(r)],
                                static_cast<size_t>(dim) * sizeof(float));
                          }
                        });
    int64_t seq = 0;
    {
      std::lock_guard<std::mutex> lock(mu_);
      seq = seg_seq_++;
    }
    segment_file = SegmentFileName(seq);
    ADAMINE_RETURN_IF_ERROR(
        WriteSegmentFile(dir_ + "/" + segment_file, ids, rows));
    panels = PackSegmentRows(rows);
  }
  if (fault::ShouldFail(fault::kMutateMergeCrash)) {
    return Status::Internal("injected crash after merging into " +
                            (segment_file.empty() ? std::string("(empty)")
                                                  : segment_file) +
                            ", before manifest commit");
  }

  std::lock_guard<std::mutex> lock(mu_);
  Manifest manifest;
  manifest.generation = generation + 1;
  manifest.dim = config_.dim;
  manifest.next_id = next_id_;
  manifest.wal_file = wal_file_;  // Merge does not rotate the WAL.
  if (!segment_file.empty()) manifest.segments.push_back(segment_file);
  for (const int64_t id : ids) {
    // Deletes that landed mid-merge: the row made it into the merged
    // segment, so its tombstone rides the manifest (and the live WAL).
    if (BitSet(*tombstones_, id)) manifest.tombstones.push_back(id);
  }
  // Unlike seal, a merge-commit failure does NOT turn the corpus
  // read-only: merge keeps the live WAL, so even if the rename published
  // an intact MANIFEST-(N+1) before the failure, that manifest names
  // wal_file_ — a recovery that chooses it replays every mutation
  // acknowledged after this point too. Serving and mutating continue; the
  // debris is overwritten by the next successful commit of generation N+1
  // or deleted at recovery.
  ADAMINE_RETURN_IF_ERROR(WriteManifestFile(dir_, manifest));

  std::vector<std::string> old_files;
  for (const auto& segment : sealed_) old_files.push_back(segment->file);
  sealed_.clear();
  if (!segment_file.empty()) {
    SealedSegment merged;
    merged.file = segment_file;
    merged.ids = std::move(ids);
    merged.rows = std::move(rows);
    merged.panels = std::move(panels);
    sealed_.push_back(
        std::make_shared<const SealedSegment>(std::move(merged)));
  }
  for (const std::string& file : old_files) {
    ::unlink((dir_ + "/" + file).c_str());
  }
  const int64_t old_generation = generation_;
  generation_ = generation + 1;
  ::unlink((dir_ + "/" + ManifestFileName(old_generation)).c_str());
  ++merges_;
  PublishSnapshotLocked();
  return Status::Ok();
}

Status MutableCorpus::DoScrub() {
  // Caller holds maintenance_mu_, so no seal / merge can reshape the
  // sealed set or the generation underneath the pass; only mutations (which
  // never touch sealed segments) keep flowing.
  std::vector<std::shared_ptr<const SealedSegment>> sealed;
  int64_t generation = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (wal_failed_) {
      return Status::FailedPrecondition(
          "the corpus at " + dir_ + " lost its WAL; scrub refused");
    }
    sealed = sealed_;
    generation = generation_;
  }

  // Re-read every sealed segment from disk: LoadSegmentFile verifies the
  // full file CRC, so bit-rot since the original write is caught even
  // though the in-memory copy is fine. The fault point condemns a segment
  // without the test having to corrupt real bytes.
  std::unordered_set<std::string> condemned;
  for (const auto& segment : sealed) {
    bool bad = fault::ShouldFail(fault::kMutateSegmentBitrot);
    if (!bad) {
      bad = !LoadSegmentFile(dir_ + "/" + segment->file, config_.dim).ok();
    }
    if (bad) condemned.insert(segment->file);
  }
  // The live manifest too: it is read exactly once per process lifetime
  // (at recovery), so rot in it stays invisible until the restart that
  // needs it. Self-heal by re-committing the same generation from the
  // in-memory state — atomic replace, idempotent.
  const bool manifest_bad =
      !LoadManifestFile(dir_ + "/" + ManifestFileName(generation)).ok();

  std::lock_guard<std::mutex> lock(mu_);
  if (wal_failed_) {
    // Latched while the pass was reading: with the WAL's disk state in
    // doubt, committing manifests is no longer safe. Recovery re-derives
    // everything this pass would have fixed.
    return Status::FailedPrecondition(
        "the corpus at " + dir_ + " lost its WAL; scrub refused");
  }
  const auto stamp_pass = [this] {
    ++scrubs_;
    last_scrub_unix_ms_ =
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::system_clock::now().time_since_epoch())
            .count();
  };
  if (condemned.empty() && !manifest_bad) {
    stamp_pass();
    return Status::Ok();
  }

  // Quarantine ordering: commit the manifest WITHOUT the condemned
  // segments FIRST, then rename them out of the way. A crash between the
  // two leaves the condemned file as an ordinary orphan recovery deletes;
  // the reverse order would leave a manifest naming a missing file, which
  // recovery treats as unrecoverable DataLoss.
  Manifest manifest;
  manifest.generation = condemned.empty() ? generation : generation + 1;
  manifest.dim = config_.dim;
  manifest.next_id = next_id_;
  manifest.wal_file = wal_file_;  // Scrub never touches the WAL.
  for (const auto& segment : sealed_) {
    if (condemned.count(segment->file) > 0) continue;
    manifest.segments.push_back(segment->file);
    for (const int64_t id : segment->ids) {
      if (BitSet(*tombstones_, id)) manifest.tombstones.push_back(id);
    }
  }
  // Like merge (and unlike seal), this commit keeps the live WAL, so a
  // failure is NOT sticky: any generation recovery picks still replays
  // every later ack. The maintenance loop retries with backoff.
  ADAMINE_RETURN_IF_ERROR(WriteManifestFile(dir_, manifest));

  if (!condemned.empty()) {
    int64_t lost_rows = 0;
    std::vector<std::shared_ptr<const SealedSegment>> kept;
    for (const auto& segment : sealed_) {
      if (condemned.count(segment->file) == 0) {
        kept.push_back(segment);
        continue;
      }
      const std::string path = dir_ + "/" + segment->file;
      ::rename(path.c_str(), (path + kQuarantineSuffix).c_str());
      for (const int64_t id : segment->ids) {
        if (live_ids_.erase(id) > 0) ++lost_rows;
      }
    }
    sealed_ = std::move(kept);
    quarantined_segments_ += static_cast<int64_t>(condemned.size());
    quarantined_rows_ += lost_rows;
    const int64_t old_generation = generation_;
    generation_ = manifest.generation;
    ::unlink((dir_ + "/" + ManifestFileName(old_generation)).c_str());
    // Unlike seal / merge, quarantine CHANGES results (rows vanished), so
    // the epoch bumps and epoch-keyed caches drop entries that still
    // contain the quarantined rows.
    ++epoch_;
    PublishSnapshotLocked();
  }
  stamp_pass();
  return Status::Ok();
}

Status MutableCorpus::Flush() {
  std::lock_guard<std::mutex> lock(maintenance_mu_);
  return DoSeal();
}

Status MutableCorpus::Merge() {
  std::lock_guard<std::mutex> lock(maintenance_mu_);
  return DoMerge();
}

Status MutableCorpus::Scrub() {
  std::lock_guard<std::mutex> lock(maintenance_mu_);
  return DoScrub();
}

void MutableCorpus::MaintenanceLoop() {
  std::unique_lock<std::mutex> lock(mu_);
  int64_t consecutive_failures = 0;
  const bool scrubbing = config_.scrub_interval_ms > 0.0;
  const auto scrub_every =
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double, std::milli>(
              config_.scrub_interval_ms));
  auto next_scrub = std::chrono::steady_clock::now() + scrub_every;
  while (true) {
    const auto work_ready = [this] {
      // wal_failed_ is excluded on purpose: once the corpus is read-only
      // the trigger condition (an over-threshold memtable) can never be
      // drained, and waking on it would busy-spin the thread.
      return stop_ ||
             (!wal_failed_ &&
              (mem_rows_ >= config_.seal_threshold ||
               static_cast<int64_t>(sealed_.size()) >=
                   config_.merge_threshold));
    };
    if (scrubbing) {
      maintenance_cv_.wait_until(lock, next_scrub, work_ready);
    } else {
      maintenance_cv_.wait(lock, work_ready);
    }
    if (stop_) return;
    if (wal_failed_) {
      // Read-only: nothing left to maintain (scrubbing also refuses —
      // with the WAL in doubt, committing manifests is not safe). Sleep
      // until shutdown.
      maintenance_cv_.wait(lock, [this] { return stop_; });
      return;
    }
    const bool want_seal = mem_rows_ >= config_.seal_threshold;
    const bool due_scrub =
        scrubbing && std::chrono::steady_clock::now() >= next_scrub;
    lock.unlock();
    Status failure = Status::Ok();
    if (want_seal) {
      std::lock_guard<std::mutex> maintenance(maintenance_mu_);
      const Status sealed = DoSeal();
      if (!sealed.ok()) failure = sealed;
    }
    bool want_merge = false;
    {
      std::lock_guard<std::mutex> state(mu_);
      want_merge = !wal_failed_ &&
                   static_cast<int64_t>(sealed_.size()) >=
                       config_.merge_threshold;
    }
    if (want_merge) {
      std::lock_guard<std::mutex> maintenance(maintenance_mu_);
      const Status merged = DoMerge();
      if (!merged.ok()) failure = merged;
    }
    if (due_scrub) {
      std::lock_guard<std::mutex> maintenance(maintenance_mu_);
      const Status scrubbed = DoScrub();
      // A refused scrub (kFailedPrecondition: the latch won the race) is
      // not a retryable fault; the next loop iteration parks on it.
      if (!scrubbed.ok() &&
          scrubbed.code() != StatusCode::kFailedPrecondition) {
        failure = scrubbed;
      }
      next_scrub = std::chrono::steady_clock::now() + scrub_every;
    }
    lock.lock();
    if (failure.ok()) {
      consecutive_failures = 0;
      continue;
    }
    if (failure.code() == StatusCode::kFailedPrecondition || wal_failed_) {
      // Already latched (e.g. a sticky manifest-commit failure): retrying
      // cannot help, and the loop top parks until shutdown.
      consecutive_failures = 0;
      continue;
    }
    // Transient-looking failure (ENOSPC while sealing, a torn write):
    // retry with capped jittered exponential backoff — the trigger
    // condition still holds, so without the wait this would spin against a
    // persistent fault. After maintenance_retry_max consecutive failures
    // the fault is evidently not transient; escalate to the sticky
    // read-only latch so ingest fails crisply instead of timing out
    // against a corpus that can never drain.
    ++consecutive_failures;
    if (consecutive_failures >= config_.maintenance_retry_max) {
      LatchReadOnlyLocked();
      continue;
    }
    const double delay_ms = backoff::JitteredBackoffMs(
        consecutive_failures - 1, config_.maintenance_backoff_base_ms,
        config_.maintenance_backoff_max_ms, config_.maintenance_jitter_seed,
        kMaintenanceSalt);
    maintenance_cv_.wait_for(
        lock, std::chrono::duration<double, std::milli>(delay_ms),
        [this] { return stop_; });
    if (stop_) return;
  }
}

}  // namespace adamine::mutate
