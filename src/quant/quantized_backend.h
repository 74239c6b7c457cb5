#ifndef ADAMINE_QUANT_QUANTIZED_BACKEND_H_
#define ADAMINE_QUANT_QUANTIZED_BACKEND_H_

#include <memory>

#include "serve/backend.h"

namespace adamine::quant {

/// Factory for the "quantized" scoring backend: an int8 approximate scan
/// over the quantized corpus (kernel::Int8ScanRows) selects a candidate set
/// via per-row score intervals, then an exact float rerank over the
/// gathered rows (kernel::DotAscending) produces the final top-k. The
/// candidate set provably contains the true top-k (see the bound derivation
/// in quantized_backend.cc), so the result is bit-identical to the scalar
/// reference.
///
/// BackendConfig::rerank_factor (>= 1) floors the candidate set at
/// min(N, rerank_factor * k) rows, giving the knob the usual two-stage
/// semantics; the verified interval selection can widen past the floor when
/// quantization error demands it — exactness is never traded away.
///
/// Registered under the name "quantized" by the serve registry (no filter
/// support); this header exists for direct construction in
/// tests and benches.
StatusOr<std::unique_ptr<serve::ScoringBackend>> CreateQuantizedBackend(
    const serve::BackendConfig& config);

}  // namespace adamine::quant

#endif  // ADAMINE_QUANT_QUANTIZED_BACKEND_H_
