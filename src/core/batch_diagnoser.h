// Batched diagnosis engine — the one diagnosis path: coarse forward,
// gradient attention, Algorithm 1 score weighting, extensible-forest
// scoring, ensemble blending, vectorised over N samples.
// DiagNetModel::diagnose(request) is run({request})[0].
//
// Requests are grouped by landmark mask, then by serving network — a
// service's specialised head when one exists, the general model otherwise
// — and each mask group is cut into union chunks of `batch_size` rows,
// processed in parallel on a thread pool against the shared const
// networks, each chunk with its own workspace. Every head of a model runs
// on the general's one LandPooling, so inside a chunk the pooling stage
// (forward and input-only backward) runs ONCE for all services and only
// the FC stacks fan out per head (core/attention.h); occlusion attention
// walks each head's rows one by one. After attention, one
// complete_diagnosis call per chunk scores the chunk's rows with one forest
// walk; Algorithm 1, the ensemble and the ranking run per row.
//
// Exactness contract: run(requests)[i].diagnosis is bit-identical to
// run({requests[i]})[0].diagnosis, i.e. to model.diagnose(requests[i]) —
// every per-row computation (GEMM accumulation order, land pooling,
// softmax, the forest's lanes and tree-ordered sum, the score pipeline) is
// independent of the other rows of the batch, of batch_size, and of the
// thread count. The property test in
// tests/test_batch_diagnoser.cpp pins this, and the serving subsystem
// (src/serve) relies on it to coalesce concurrent callers without changing
// any answer. The same independence keeps a bad row from failing its
// batch-mates: a request that fails validation, or whose features drive
// the network to non-finite outputs, gets invalid_argument on its own.
#pragma once

#include <cstddef>
#include <vector>

#include "core/diagnet.h"
#include "util/thread_pool.h"

namespace diagnet::core {

struct BatchDiagnoserConfig {
  /// Rows per coarse-network forward/backward pass.
  std::size_t batch_size = 64;
  /// Pool for outer parallelism over batches; nullptr selects the global
  /// pool.
  util::ThreadPool* pool = nullptr;
};

class BatchDiagnoser {
 public:
  explicit BatchDiagnoser(DiagNetModel& model,
                          BatchDiagnoserConfig config = {});

  /// Diagnose all requests; response i corresponds to request i. Requests
  /// that fail validation (untrained model, wrong feature count, bad mask,
  /// non-finite features) or overflow the network get a non-OK Status
  /// response without poisoning the rest of the batch.
  std::vector<DiagnoseResponse> run(
      const std::vector<DiagnoseRequest>& requests) const;

  const BatchDiagnoserConfig& config() const { return config_; }

 private:
  DiagNetModel* model_;
  BatchDiagnoserConfig config_;
};

}  // namespace diagnet::core
