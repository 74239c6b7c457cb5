// Serving bench: the batched retrieval service against the per-query
// scalar loop, swept over backend x micro-batch size x kernel thread
// count. Reports QPS, per-query latency and recall@10, and verifies the
// serving contract: results are bit-identical to the scalar reference
// paths at every thread count (see DESIGN.md, "Serving").
//
// With --quant the bench sweeps the int8 two-stage backend against the
// float exhaustive scan (memory footprint x QPS x recall across
// rerank_factor), gates on full bit-identity plus the >= 3x scan-memory
// reduction, and writes BENCH_serving_quant.json (see DESIGN.md,
// "Quantized scoring").
//
// End-to-end serving (sharded RPC fan-out, live ingest beside a writer)
// is measured by perfbench/ (photo_search, live_ingest); overload,
// shard-failure and ENOSPC behaviour are asserted by the test suite.

#include <cstdio>

#include <algorithm>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.h"
#include "kernel/int8dot.h"
#include "kernel/kernel.h"
#include "quant/int8_corpus.h"
#include "serve/retrieval_service.h"
#include "tensor/ops.h"
#include "util/check.h"
#include "util/rng.h"
#include "util/stopwatch.h"

namespace adamine {
namespace {

constexpr int64_t kTopK = 10;
constexpr int kRepeats = 3;

std::vector<int64_t> IdsOf(const std::vector<serve::ScoredHit>& hits) {
  std::vector<int64_t> ids;
  ids.reserve(hits.size());
  for (const serve::ScoredHit& hit : hits) ids.push_back(hit.index);
  return ids;
}

double RecallAgainst(const std::vector<std::vector<int64_t>>& truth,
                     const std::vector<std::vector<int64_t>>& got) {
  double recall = 0.0;
  for (size_t i = 0; i < truth.size(); ++i) {
    int64_t hits = 0;
    for (int64_t item : got[i]) {
      for (int64_t t : truth[i]) {
        if (item == t) {
          ++hits;
          break;
        }
      }
    }
    recall += static_cast<double>(hits) /
              static_cast<double>(truth[i].size());
  }
  return recall / static_cast<double>(truth.size());
}

int Run() {
  data::GeneratorConfig config;
  config.num_recipes = 8000;
  config.num_classes = 192;
  config.seed = 42;
  auto generator = data::RecipeGenerator::Create(config);
  if (!generator.ok()) {
    std::fprintf(stderr, "%s\n", generator.status().ToString().c_str());
    return 1;
  }
  data::Dataset dataset = generator->Generate();
  Tensor items({dataset.size(), dataset.image_dim});
  for (int64_t i = 0; i < dataset.size(); ++i) {
    const Tensor& img = dataset.recipes[static_cast<size_t>(i)].image;
    std::copy(img.data(), img.data() + dataset.image_dim,
              items.data() + i * dataset.image_dim);
  }
  items = L2NormalizeRows(items);
  Tensor queries = SliceRows(items, 0, 256);
  std::printf("== Batched retrieval serving ==\n");
  std::printf("(%lld items of dim %lld, %lld queries, top-%lld)\n",
              static_cast<long long>(items.rows()),
              static_cast<long long>(items.cols()),
              static_cast<long long>(queries.rows()),
              static_cast<long long>(kTopK));

  // Scalar reference path (per-query loop, no kernel-pool batching): the
  // registry's "scalar" oracle.
  serve::BackendConfig scalar_config;
  scalar_config.items = items;
  auto scalar_exact = serve::CreateBackend("scalar", scalar_config);
  if (!scalar_exact.ok()) {
    std::fprintf(stderr, "%s\n", scalar_exact.status().ToString().c_str());
    return 1;
  }
  std::vector<std::vector<int64_t>> truth_exact;
  Stopwatch watch;
  for (int r = 0; r < kRepeats; ++r) {
    truth_exact.clear();
    for (int64_t i = 0; i < queries.rows(); ++i) {
      auto hits = (*scalar_exact)->ScoreTopK(
          serve::QueryBatch{SliceRows(queries, i, i + 1)}, nullptr, kTopK,
          serve::QueryOptions());
      if (!hits.ok()) return 1;
      truth_exact.push_back(IdsOf(hits->hits[0]));
    }
  }
  const double scalar_exact_ms =
      watch.ElapsedMillis() / (kRepeats * queries.rows());

  TablePrinter table({"backend", "threads", "batch", "QPS", "ms/query",
                      "recall@10", "vs scalar"});
  const auto qps = [](double per_query_ms) {
    return per_query_ms > 0.0 ? 1000.0 / per_query_ms : 0.0;
  };
  table.AddRow({"scalar exhaustive", "1", "1",
                TablePrinter::Num(qps(scalar_exact_ms), 0),
                TablePrinter::Num(scalar_exact_ms, 3), "1.000", "1.00x"});

  bool bit_identical = true;
  // The sweep addresses backends by registry name, resolved through the same
  // BackendFromName lookup the CLI uses — adding a registered backend here is
  // a one-string change.
  for (const std::string backend_name : {"exhaustive", "quantized"}) {
    for (const int64_t batch : {int64_t{1}, int64_t{16}, int64_t{64}}) {
      // The thread-1 result of this config, for the bit-identity check.
      std::vector<std::vector<int64_t>> at_one_thread;
      for (const int threads : {1, 4}) {
        serve::ServeConfig serve_config;
        auto parsed_backend = serve::BackendFromName(backend_name);
        if (!parsed_backend.ok()) {
          std::fprintf(stderr, "%s\n",
                       parsed_backend.status().ToString().c_str());
          return 1;
        }
        serve_config.backend = *parsed_backend;
        serve_config.micro_batch = batch;
        serve_config.cache_capacity = 0;  // Measure scoring, not the cache.
        auto service = serve::RetrievalService::Create(items, serve_config);
        if (!service.ok()) {
          std::fprintf(stderr, "%s\n", service.status().ToString().c_str());
          return 1;
        }
        kernel::SetNumThreads(threads);
        auto results = (*service)->QueryBatch(queries, kTopK);  // Warm-up.
        watch.Restart();
        for (int r = 0; r < kRepeats; ++r) {
          results = (*service)->QueryBatch(queries, kTopK);
        }
        const double ms =
            watch.ElapsedMillis() / (kRepeats * queries.rows());
        kernel::SetNumThreads(1);
        if (results != truth_exact) bit_identical = false;
        if (threads == 1) {
          at_one_thread = results;
        } else if (results != at_one_thread) {
          bit_identical = false;
        }
        table.AddRow(
            {"serve " + backend_name, std::to_string(threads),
             std::to_string(batch), TablePrinter::Num(qps(ms), 0),
             TablePrinter::Num(ms, 3),
             TablePrinter::Num(RecallAgainst(truth_exact, results), 3),
             TablePrinter::Num(scalar_exact_ms / ms, 2) + "x"});
      }
    }
  }
  table.Print(std::cout);
  std::printf("bit-identical to scalar path at threads {1, 4}: %s\n",
              bit_identical ? "yes" : "NO (BUG)");

  return bit_identical ? 0 : 1;
}

/// Quantized-scoring sweep: memory footprint x QPS x recall for the int8
/// two-stage backend against the float exhaustive scan, straight through
/// the ScoringBackend seam (no service, no cache — pure scoring). Because
/// the quantized backend's candidate selection is interval-verified, its
/// recall is exactly 1.0 by construction; the bench *checks* that (full
/// (index, score) bit-identity against the exhaustive backend) rather than
/// assuming it, and the exit code gates on bit-identity, the >= 3x scan
/// memory reduction, and the int8 scan beating the float scan's QPS at
/// equal (= perfect) recall. Writes BENCH_serving_quant.json.
int RunQuant() {
  constexpr int64_t kRows = 40000;
  constexpr int64_t kDim = 128;
  constexpr int64_t kQueries = 256;
  constexpr int64_t kBatch = 64;
  constexpr int kThreads = 4;
  Rng rng(1234);
  Tensor items = L2NormalizeRows(Tensor::Randn({kRows, kDim}, rng));
  Tensor queries = SliceRows(items, 0, kQueries);
  std::printf("== Quantized scoring (int8 %s kernel) ==\n",
              kernel::Int8DotIsa());
  std::printf("(%lld items of dim %lld, %lld queries in batches of %lld, "
              "top-%lld, %d threads)\n",
              static_cast<long long>(kRows), static_cast<long long>(kDim),
              static_cast<long long>(kQueries),
              static_cast<long long>(kBatch),
              static_cast<long long>(kTopK), kThreads);

  // Memory: what each backend's scan has to touch per full pass.
  auto quantized_corpus = quant::QuantizeRows(items);
  if (!quantized_corpus.ok()) {
    std::fprintf(stderr, "%s\n",
                 quantized_corpus.status().ToString().c_str());
    return 1;
  }
  const int64_t float_bytes = kRows * kDim * static_cast<int64_t>(
                                                 sizeof(float));
  const int64_t quant_bytes = quant::QuantizedBytes(*quantized_corpus);
  const double mem_reduction = static_cast<double>(float_bytes) /
                               static_cast<double>(quant_bytes);

  serve::BackendConfig backend_config;
  backend_config.items = items;
  auto exhaustive = serve::CreateBackend("exhaustive", backend_config);
  if (!exhaustive.ok()) {
    std::fprintf(stderr, "%s\n", exhaustive.status().ToString().c_str());
    return 1;
  }

  kernel::SetNumThreads(kThreads);
  const auto sweep = [&](serve::ScoringBackend& backend,
                         std::vector<std::vector<serve::ScoredHit>>* hits)
      -> double {
    double total_ms = 0.0;
    for (int r = -1; r < kRepeats; ++r) {  // r == -1 is the warm-up.
      hits->clear();
      Stopwatch watch;
      for (int64_t start = 0; start < kQueries; start += kBatch) {
        Tensor micro({kBatch, kDim});
        std::copy(queries.data() + start * kDim,
                  queries.data() + (start + kBatch) * kDim, micro.data());
        auto result = backend.ScoreTopK(serve::QueryBatch{micro},
                                        /*filter=*/nullptr, kTopK, {});
        ADAMINE_CHECK_MSG(result.ok(), result.status().ToString());
        for (auto& row : result->hits) hits->push_back(std::move(row));
      }
      if (r >= 0) total_ms += watch.ElapsedMillis();
    }
    return total_ms / (kRepeats * kQueries);
  };

  std::vector<std::vector<serve::ScoredHit>> exact_hits;
  const double exhaustive_ms = sweep(**exhaustive, &exact_hits);
  std::vector<std::vector<int64_t>> exact_ids;
  for (const auto& row : exact_hits) exact_ids.push_back(IdsOf(row));

  const auto qps = [](double ms) { return ms > 0.0 ? 1000.0 / ms : 0.0; };
  TablePrinter table({"backend", "rerank", "QPS", "ms/query", "recall@10",
                      "scan MiB", "mem vs float"});
  const auto mib = [](int64_t bytes) {
    return TablePrinter::Num(static_cast<double>(bytes) / (1 << 20), 1);
  };
  table.AddRow({"exhaustive (float)", "-",
                TablePrinter::Num(qps(exhaustive_ms), 0),
                TablePrinter::Num(exhaustive_ms, 3), "1.000",
                mib(float_bytes), "1.00x"});

  std::string json = "[\n";
  char record[512];
  std::snprintf(
      record, sizeof(record),
      "  {\"backend\": \"exhaustive\", \"rerank_factor\": 0, "
      "\"qps\": %.1f, \"ms_per_query\": %.4f, \"recall\": 1.0, "
      "\"scan_bytes\": %lld, \"mem_reduction\": 1.0}",
      qps(exhaustive_ms), exhaustive_ms,
      static_cast<long long>(float_bytes));
  json += record;

  bool bit_identical = true;
  double best_quant_qps = 0.0;
  for (const int64_t rerank : {int64_t{1}, int64_t{2}, int64_t{4},
                               int64_t{8}}) {
    backend_config.rerank_factor = rerank;
    auto quantized = serve::CreateBackend("quantized", backend_config);
    if (!quantized.ok()) {
      std::fprintf(stderr, "%s\n", quantized.status().ToString().c_str());
      return 1;
    }
    std::vector<std::vector<serve::ScoredHit>> hits;
    const double ms = sweep(**quantized, &hits);
    if (hits != exact_hits) bit_identical = false;
    std::vector<std::vector<int64_t>> ids;
    for (const auto& row : hits) ids.push_back(IdsOf(row));
    const double recall = RecallAgainst(exact_ids, ids);
    best_quant_qps = std::max(best_quant_qps, qps(ms));
    table.AddRow({"quantized (int8)", std::to_string(rerank),
                  TablePrinter::Num(qps(ms), 0), TablePrinter::Num(ms, 3),
                  TablePrinter::Num(recall, 3), mib(quant_bytes),
                  TablePrinter::Num(mem_reduction, 2) + "x"});
    std::snprintf(
        record, sizeof(record),
        ",\n  {\"backend\": \"quantized\", \"rerank_factor\": %lld, "
        "\"qps\": %.1f, \"ms_per_query\": %.4f, \"recall\": %.4f, "
        "\"scan_bytes\": %lld, \"mem_reduction\": %.2f}",
        static_cast<long long>(rerank), qps(ms), ms, recall,
        static_cast<long long>(quant_bytes), mem_reduction);
    json += record;
  }
  kernel::SetNumThreads(1);
  json += "\n]\n";
  table.Print(std::cout);

  const bool mem_ok = mem_reduction >= 3.0;
  const bool qps_ok = best_quant_qps > qps(exhaustive_ms);
  std::printf("bit-identical to the exhaustive backend: %s\n",
              bit_identical ? "yes" : "NO (BUG)");
  std::printf("scan memory reduction %.2fx (gate: >= 3x): %s\n",
              mem_reduction, mem_ok ? "ok" : "FAIL");
  std::printf("int8 scan beats float exhaustive QPS at equal recall: %s\n",
              qps_ok ? "yes" : "NO");
  std::ofstream out("BENCH_serving_quant.json");
  out << json;
  std::printf("wrote BENCH_serving_quant.json\n");
  return bit_identical && mem_ok && qps_ok ? 0 : 1;
}

}  // namespace
}  // namespace adamine

int main(int argc, char** argv) {
  if (argc == 1) return adamine::Run();
  if (argc == 2 && std::string(argv[1]) == "--quant") {
    return adamine::RunQuant();
  }
  std::fprintf(stderr, "usage: %s [--quant]\n", argv[0]);
  return 2;
}
