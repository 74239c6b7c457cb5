// The single golden-diff correctness harness for scoring backends (ctest
// label `golden`; see DESIGN.md, "Backend registry"). Every backend in the
// registry — the built-ins plus anything registered before the suite
// instantiates, like this file's loopback-RPC "remote" topology — is
// auto-compared against the "scalar" reference across corpus shapes
// (clustered, duplicated-row ties, all-identical rows, single row) × k
// (1, mid, k > corpus) × kernel thread counts × shard counts. Every
// backend must match the reference bit for bit. Failures report the first
// divergent (query, rank, id, score) tuple, in the spirit of ggml's
// test-backend-ops. Registering a backend is all it takes to be covered:
// no per-backend test code exists here.

#include "serve/backend.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "kernel/kernel.h"
#include "net/remote_transport.h"
#include "net/shard_server.h"
#include "serve/retrieval_service.h"
#include "serve/sharded_service.h"
#include "tensor/ops.h"
#include "util/check.h"
#include "util/rng.h"

namespace adamine {
namespace {

namespace serve = adamine::serve;

class ThreadGuard {
 public:
  explicit ThreadGuard(int num_threads) { kernel::SetNumThreads(num_threads); }
  ~ThreadGuard() { kernel::SetNumThreads(1); }
};

/// Rows clustered around random unit anchors: small within-cluster score
/// gaps, so an ordering or merge bug shows up immediately.
Tensor ClusteredUnitRows(int64_t clusters, int64_t per_cluster, int64_t dim,
                         uint64_t seed) {
  Rng rng(seed);
  Tensor anchors = L2NormalizeRows(Tensor::Randn({clusters, dim}, rng));
  Tensor points({clusters * per_cluster, dim});
  for (int64_t c = 0; c < clusters; ++c) {
    for (int64_t i = 0; i < per_cluster; ++i) {
      const int64_t row = c * per_cluster + i;
      for (int64_t j = 0; j < dim; ++j) {
        points.At(row, j) =
            anchors.At(c, j) + static_cast<float>(rng.Normal(0, 0.05));
      }
    }
  }
  return L2NormalizeRows(points);
}

Tensor RowSlice(const Tensor& t, int64_t begin, int64_t end) {
  Tensor out({end - begin, t.cols()});
  for (int64_t r = begin; r < end; ++r) {
    for (int64_t c = 0; c < t.cols(); ++c) {
      out.At(r - begin, c) = t.At(r, c);
    }
  }
  return out;
}

/// Quantization-hostile geometry: still unit rows (the service-level
/// contract every backend shares), but each row mixes one dominant
/// coordinate with a tail spanning seven orders of magnitude. Per-row int8
/// quantization sets its scale from the dominant value, so the tail is
/// crushed to zero codes and the measured reconstruction error is huge
/// relative to the score gaps — the quantized backend's interval selection
/// gets almost no discrimination and must stay bit-identical purely through
/// its verified-cutoff rerank.
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

/// Every row the same unit vector: all (query, item) scores are exactly
/// equal, so only the (score desc, global id asc) tie rule orders anything.
Tensor IdenticalUnitRows(int64_t rows, int64_t dim, uint64_t seed) {
  Rng rng(seed);
  Tensor one = L2NormalizeRows(Tensor::Randn({1, dim}, rng));
  Tensor out({rows, dim});
  for (int64_t r = 0; r < rows; ++r) {
    std::copy(one.data(), one.data() + dim, out.data() + r * dim);
  }
  return out;
}

// --- The "remote" backend: a loopback-RPC sharded topology ---------------
//
// Registered below, before the suite instantiates, purely to prove the
// harness's claim: a backend that lives entirely outside src/ — real
// net::ShardServer processes-in-miniature behind real TCP sockets —
// inherits the full golden matrix by registering, with zero new test code.

/// One running server plus the replica service it fronts (the service must
/// outlive Stop, so they travel together).
struct GoldenTestServer {
  std::shared_ptr<serve::RetrievalService> service;
  net::ShardServer server;
};

class RemoteBackend final : public serve::ScoringBackend {
 public:
  RemoteBackend(std::vector<std::unique_ptr<GoldenTestServer>> servers,
                std::unique_ptr<serve::ShardedRetrievalService> service)
      : servers_(std::move(servers)), service_(std::move(service)) {}

  const char* name() const override { return "remote"; }
  int64_t size() const override { return service_->size(); }
  int64_t dim() const override { return service_->dim(); }

 protected:
  StatusOr<serve::TopKResult> ScoreTopKImpl(
      const serve::QueryBatch& batch, int64_t k,
      const serve::QueryOptions& options) override {
    auto merged = service_->QueryBatchWithOptions(batch.queries, k, options);
    if (!merged.ok()) return merged.status();
    serve::TopKResult out;
    out.hits = std::move(merged->results);
    return out;
  }

 private:
  std::vector<std::unique_ptr<GoldenTestServer>> servers_;
  std::unique_ptr<serve::ShardedRetrievalService> service_;
};

StatusOr<std::unique_ptr<serve::ScoringBackend>> MakeRemoteBackend(
    const serve::BackendConfig& config) {
  const int64_t rows = config.items.rows();
  const int64_t shards = std::min(config.num_shards, rows);
  std::vector<std::unique_ptr<GoldenTestServer>> servers;
  std::vector<std::string> endpoints;
  for (int64_t s = 0; s < shards; ++s) {
    // The same balanced contiguous partition ShardedRetrievalService::
    // Create builds in-process.
    const int64_t r0 = s * rows / shards;
    const int64_t r1 = (s + 1) * rows / shards;
    serve::ServeConfig shard_config;
    shard_config.backend = serve::Backend::kExhaustive;
    shard_config.cache_capacity = 0;
    auto replica = serve::RetrievalService::Create(
        RowSlice(config.items, r0, r1), shard_config);
    if (!replica.ok()) return replica.status();
    auto holder = std::make_unique<GoldenTestServer>();
    holder->service = std::move(replica).value();
    ADAMINE_RETURN_IF_ERROR(
        holder->server.Start(holder->service, net::ShardServerConfig()));
    endpoints.push_back("127.0.0.1:" +
                        std::to_string(holder->server.port()));
    servers.push_back(std::move(holder));
  }
  auto service =
      net::ConnectShardedService(endpoints, serve::ShardedServeConfig());
  if (!service.ok()) return service.status();
  return std::unique_ptr<serve::ScoringBackend>(new RemoteBackend(
      std::move(servers), std::move(service).value()));
}

/// Registered before INSTANTIATE_TEST_SUITE_P below (same-TU static
/// initialisers run top to bottom), so RegisteredBackendNames() already
/// contains "remote" when the suite enumerates its parameters.
const bool kRemoteRegistered = [] {
  const Status registered = serve::RegisterBackend(
      "remote", MakeRemoteBackend,
      serve::BackendTraits{/*sharded=*/true});
  ADAMINE_CHECK_MSG(registered.ok(), registered.ToString());
  return true;
}();

// --- Harness plumbing ----------------------------------------------------

struct Corpus {
  std::string name;
  Tensor items;
  Tensor queries;
};

/// The corpus matrix: realistic clustered geometry, a corpus where every
/// row is duplicated (exact score ties split across shard boundaries), a
/// corpus where *all* scores tie (pure tie-rule ordering), and the
/// single-row corpus.
const std::vector<Corpus>& GoldenCorpora() {
  static const std::vector<Corpus>& corpora = *new std::vector<Corpus>{
      {"clustered", ClusteredUnitRows(5, 8, 8, 21),
       ClusteredUnitRows(3, 2, 8, 22)},
      {"ties", ConcatRows(ClusteredUnitRows(5, 6, 8, 23),
                          ClusteredUnitRows(5, 6, 8, 23)),
       ClusteredUnitRows(3, 2, 8, 24)},
      {"identical", IdenticalUnitRows(12, 8, 25),
       ClusteredUnitRows(2, 2, 8, 26)},
      {"single", ClusteredUnitRows(1, 1, 8, 27),
       ClusteredUnitRows(2, 1, 8, 28)},
      {"mixed_magnitude", MixedMagnitudeUnitRows(24, 8, 29),
       MixedMagnitudeUnitRows(4, 8, 30)},
  };
  return corpora;
}

serve::BackendConfig ConfigFor(const Corpus& corpus, int64_t shards) {
  serve::BackendConfig config;
  config.items = corpus.items;
  config.num_shards = shards;
  return config;
}

std::unique_ptr<serve::ScoringBackend> MustCreate(const std::string& name,
                                                  const Corpus& corpus,
                                                  int64_t shards = 1) {
  auto backend = serve::CreateBackend(name, ConfigFor(corpus, shards));
  ADAMINE_CHECK_MSG(backend.ok(), backend.status().ToString());
  return std::move(backend).value();
}

std::vector<std::vector<serve::ScoredHit>> MustScore(
    serve::ScoringBackend& backend, const Tensor& queries, int64_t k) {
  auto result = backend.ScoreTopK(serve::QueryBatch{queries},
                                  /*filter=*/nullptr, k,
                                  serve::QueryOptions());
  ADAMINE_CHECK_MSG(result.ok(), result.status().ToString());
  return std::move(result->hits);
}

/// The bitwise score oracle. Test TUs are NOT compiled with
/// -ffp-contract=off, so this file must never compute a dot product itself
/// — a locally fused FMA chain would diverge from every backend. The
/// registered "scalar" backend (whose TU carries the flag) is the oracle:
/// with k = corpus it yields the full ranking, i.e. every (id, score).
std::vector<std::vector<serve::ScoredHit>> ScalarReference(
    const Corpus& corpus, int64_t k) {
  auto scalar = MustCreate("scalar", corpus);
  return MustScore(*scalar, corpus.queries, k);
}

/// First-divergence reporting: (query, rank, id, score) of the earliest
/// mismatch, with the score bits spelled out — a one-ulp score drift and a
/// tie-order swap look the same in decimal.
::testing::AssertionResult SameTopK(
    const std::vector<std::vector<serve::ScoredHit>>& ref,
    const std::vector<std::vector<serve::ScoredHit>>& got) {
  if (ref.size() != got.size()) {
    return ::testing::AssertionFailure()
           << "query-row count diverges: reference " << ref.size()
           << ", backend " << got.size();
  }
  for (size_t q = 0; q < ref.size(); ++q) {
    const size_t rows = std::min(ref[q].size(), got[q].size());
    for (size_t rank = 0; rank < rows; ++rank) {
      const serve::ScoredHit& want = ref[q][rank];
      const serve::ScoredHit& have = got[q][rank];
      if (want == have) continue;
      return ::testing::AssertionFailure()
             << "first divergence at (query " << q << ", rank " << rank
             << "): reference (id " << want.index << ", score "
             << std::hexfloat << want.score << std::defaultfloat
             << "), backend (id " << have.index << ", score "
             << std::hexfloat << have.score << std::defaultfloat << ")";
    }
    if (ref[q].size() != got[q].size()) {
      return ::testing::AssertionFailure()
             << "first divergence at (query " << q << ", rank " << rows
             << "): reference has " << ref[q].size()
             << " hits, backend has " << got[q].size();
    }
  }
  return ::testing::AssertionSuccess();
}

class BackendGoldenTest : public ::testing::TestWithParam<std::string> {};

// --- The golden matrix ---------------------------------------------------

TEST_P(BackendGoldenTest, MatchesScalarReferenceAcrossTheMatrix) {
  const std::string name = GetParam();
  auto traits = serve::TraitsOfBackend(name);
  ASSERT_TRUE(traits.ok()) << traits.status().ToString();

  for (const Corpus& corpus : GoldenCorpora()) {
    const int64_t rows = corpus.items.rows();
    std::vector<int64_t> shard_counts =
        traits->sharded ? std::vector<int64_t>{1, 2, 3, 7}
                        : std::vector<int64_t>{1};
    if (traits->sharded && rows <= 16 &&
        std::find(shard_counts.begin(), shard_counts.end(), rows) ==
            shard_counts.end()) {
      // One row per shard — the balanced-partition edge a ceil-based
      // chunking used to get wrong.
      shard_counts.push_back(rows);
    }
    for (const int64_t shards : shard_counts) {
      if (shards > rows) continue;  // Create rejects empty shards.
      auto backend = MustCreate(name, corpus, shards);
      ASSERT_EQ(backend->size(), rows);
      ASSERT_EQ(backend->dim(), corpus.items.cols());
      for (const int64_t k : {int64_t{1}, int64_t{3}, rows + 7}) {
        const auto reference = ScalarReference(corpus, k);
        for (const int threads : {1, 2, 4}) {
          ThreadGuard guard(threads);
          const auto got = MustScore(*backend, corpus.queries, k);
          EXPECT_TRUE(SameTopK(reference, got))
              << "backend=" << name << " corpus=" << corpus.name
              << " shards=" << shards << " k=" << k
              << " threads=" << threads;
        }
      }
    }
  }
}

// --- Degenerate shapes and contract pins ---------------------------------

TEST_P(BackendGoldenTest, EmptyBatchAnswersZeroRows) {
  auto backend = MustCreate(GetParam(), GoldenCorpora()[0]);
  auto result = backend->ScoreTopK(serve::QueryBatch{}, /*filter=*/nullptr,
                                   5, serve::QueryOptions());
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result->hits.empty());
}

TEST_P(BackendGoldenTest, InvalidRequestsAreDescriptiveStatuses) {
  auto backend = MustCreate(GetParam(), GoldenCorpora()[0]);
  const Tensor& queries = GoldenCorpora()[0].queries;
  // k must be positive.
  auto bad_k = backend->ScoreTopK(serve::QueryBatch{queries}, nullptr, 0,
                                  serve::QueryOptions());
  ASSERT_FALSE(bad_k.ok());
  EXPECT_EQ(bad_k.status().code(), StatusCode::kInvalidArgument);
  // Query width must match the corpus dim.
  Tensor narrow = ClusteredUnitRows(1, 2, 4, 31);
  auto bad_dim = backend->ScoreTopK(serve::QueryBatch{narrow}, nullptr, 5,
                                    serve::QueryOptions());
  ASSERT_FALSE(bad_dim.ok());
  EXPECT_EQ(bad_dim.status().code(), StatusCode::kInvalidArgument);
}

TEST_P(BackendGoldenTest, FilterIsRejectedAsUnimplemented) {
  // The predicate-pushdown seam: until a backend implements filtered
  // retrieval, a non-null filter must be an honest kUnimplemented naming
  // the backend — never a silently unfiltered answer.
  const std::string name = GetParam();
  auto backend = MustCreate(name, GoldenCorpora()[0]);
  serve::Filter filter;
  filter.allowed_ids = {0, 1};
  auto result =
      backend->ScoreTopK(serve::QueryBatch{GoldenCorpora()[0].queries},
                         &filter, 5, serve::QueryOptions());
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kUnimplemented);
  EXPECT_NE(result.status().message().find(name), std::string::npos)
      << result.status().ToString();
}

INSTANTIATE_TEST_SUITE_P(
    AllRegistered, BackendGoldenTest,
    ::testing::ValuesIn(serve::RegisteredBackendNames()),
    [](const ::testing::TestParamInfo<std::string>& info) {
      return info.param;
    });

// --- The registry itself -------------------------------------------------

TEST(BackendRegistryTest, UnknownNameListsEveryRegisteredBackend) {
  auto backend = serve::CreateBackend("no-such-backend",
                                      ConfigFor(GoldenCorpora()[0], 1));
  ASSERT_FALSE(backend.ok());
  EXPECT_EQ(backend.status().code(), StatusCode::kInvalidArgument);
  for (const std::string& name : serve::RegisteredBackendNames()) {
    EXPECT_NE(backend.status().message().find(name), std::string::npos)
        << "miss message does not list '" << name
        << "': " << backend.status().ToString();
  }
  auto canonical = serve::CanonicalBackendName("no-such-backend");
  EXPECT_FALSE(canonical.ok());
}

TEST(BackendRegistryTest, BuiltInsAreExactlyTheExactBackends) {
  // Every built-in answers bit-identically to "scalar", and a config that
  // still names the deleted approximate backend fails descriptively.
  // "remote" is this file's test topology, registered above.
  const std::vector<std::string> built_ins = {
      "exhaustive", "mutable", "quantized", "scalar", "sharded"};
  std::vector<std::string> registered;
  for (const std::string& name : serve::RegisteredBackendNames()) {
    if (name != "remote") registered.push_back(name);
  }
  EXPECT_EQ(registered, built_ins);
  auto retired =
      serve::CreateBackend("ivf", ConfigFor(GoldenCorpora()[0], 1));
  ASSERT_FALSE(retired.ok());
  EXPECT_EQ(retired.status().code(), StatusCode::kInvalidArgument);
  for (const std::string& name : built_ins) {
    EXPECT_NE(retired.status().message().find(name), std::string::npos)
        << "miss message does not list '" << name
        << "': " << retired.status().ToString();
  }
}

TEST(BackendRegistryTest, DuplicateRegistrationIsRejected) {
  const Status duplicate = serve::RegisterBackend(
      "scalar",
      [](const serve::BackendConfig&)
          -> StatusOr<std::unique_ptr<serve::ScoringBackend>> {
        return Status::Internal("never called");
      });
  ASSERT_FALSE(duplicate.ok());
  EXPECT_EQ(duplicate.code(), StatusCode::kInvalidArgument);
}

TEST(BackendRegistryTest, EnumRoundTripsThroughTheRegistry) {
  // The Backend enum is a thin alias over registry names: every enum value
  // maps to a registered name and back.
  for (const serve::Backend backend :
       {serve::Backend::kScalar, serve::Backend::kExhaustive,
        serve::Backend::kQuantized, serve::Backend::kMutable}) {
    const std::string name = serve::BackendName(backend);
    ASSERT_TRUE(serve::CanonicalBackendName(name).ok()) << name;
    auto round = serve::BackendFromName(name);
    ASSERT_TRUE(round.ok()) << round.status().ToString();
    EXPECT_EQ(*round, backend);
  }
  // Registered names that are topologies of services, not embeddable
  // backends, are a descriptive rejection.
  auto sharded = serve::BackendFromName("sharded");
  ASSERT_FALSE(sharded.ok());
  EXPECT_EQ(sharded.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(sharded.status().message().find("sharded"), std::string::npos);
}

}  // namespace
}  // namespace adamine
