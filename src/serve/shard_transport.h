#ifndef ADAMINE_SERVE_SHARD_TRANSPORT_H_
#define ADAMINE_SERVE_SHARD_TRANSPORT_H_

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "serve/retrieval_service.h"
#include "tensor/tensor.h"
#include "util/status.h"

namespace adamine::serve {

/// The seam between ShardClient's failover machinery and whatever actually
/// answers a shard query (see DESIGN.md, "Network serving"). A transport is
/// one replica: the in-process implementation wraps a RetrievalService in
/// the same address space; net::RemoteShardTransport speaks the RPC
/// protocol to a ShardServer in another process. ShardClient's retries,
/// hedging, per-replica circuit breakers and timeouts operate on this
/// interface only, so they apply to both unchanged — a remote replica fails
/// with the same transient Status vocabulary (kUnavailable,
/// kDeadlineExceeded, kConnectionLost) as a local one.
class ShardTransport {
 public:
  using TimePoint = std::chrono::steady_clock::time_point;

  virtual ~ShardTransport() = default;

  /// Top-k scored hits per row of `queries` [B, D] over this replica's
  /// rows, with *shard-local* ids (the caller re-bases them globally).
  /// `deadline` is absolute; TimePoint::max() means unbounded. Transient
  /// failures must be IsTransient() so the failover loop retries them.
  virtual StatusOr<std::vector<std::vector<ScoredHit>>> QueryScored(
      const Tensor& queries, int64_t k, TimePoint deadline) = 0;

  /// Rows this replica serves (every replica of a shard reports the same).
  virtual int64_t size() const = 0;

  /// Human-readable endpoint for error messages ("inproc", "host:port").
  virtual std::string description() const = 0;
};

/// Same-address-space transport: forwards to RetrievalService::
/// QueryBatchScored, converting the absolute deadline into the service's
/// remaining-budget QueryOptions.
class InProcessShardTransport : public ShardTransport {
 public:
  explicit InProcessShardTransport(std::shared_ptr<RetrievalService> service)
      : service_(std::move(service)) {}

  StatusOr<std::vector<std::vector<ScoredHit>>> QueryScored(
      const Tensor& queries, int64_t k, TimePoint deadline) override {
    QueryOptions options;
    if (deadline != TimePoint::max()) {
      const double remaining =
          std::chrono::duration<double, std::milli>(
              deadline - std::chrono::steady_clock::now())
              .count();
      if (remaining <= 0.0) {
        return Status::DeadlineExceeded(
            "in-process transport: deadline expired before the replica was "
            "queried");
      }
      options.deadline_ms = remaining;
    }
    return service_->QueryBatchScored(queries, k, options);
  }

  int64_t size() const override { return service_->size(); }

  std::string description() const override { return "inproc"; }

 private:
  std::shared_ptr<RetrievalService> service_;
};

}  // namespace adamine::serve

#endif  // ADAMINE_SERVE_SHARD_TRANSPORT_H_
