// Batched diagnosis engine — the one diagnosis path: coarse forward,
// gradient attention, Algorithm 1 score weighting, extensible-forest
// scoring, ensemble blending, vectorised over N samples.
// DiagNetModel::diagnose(request) is run({request})[0].
//
// Requests are grouped by landmark mask, then by serving network — a
// service's specialised model when one exists, the general model otherwise.
// Each group is cut into batches of `batch_size` rows, and batches are
// processed in parallel on a thread pool against the shared const
// networks, each batch with its own workspace. Inside a batch the coarse
// network runs ONE forward pass and ONE input-only backward pass for all
// rows (core/attention.h, compute_attention_shared_pooling); everything
// downstream of the attention step is per-row. When the networks within a
// mask group share bit-identical frozen LandPooling parameters (per-service
// heads fine-tuned with --freeze-kernel), their requests share union
// batches: the pooling stage — forward and backward — runs once per batch
// for ALL services and only the cheap FC stacks fan out per head.
//
// Exactness contract: run(requests)[i].diagnosis is bit-identical to
// run({requests[i]})[0].diagnosis, i.e. to model.diagnose(requests[i]) —
// every per-row computation (GEMM accumulation order, land pooling,
// softmax, the score pipeline) is independent of the other rows of the
// batch, of batch_size, and of the thread count. The property test in
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
  /// Route every request through the general model, ignoring services.
  /// (Per-request routing is expressed with DiagnoseRequest::use_general;
  /// this config toggle forces it for the whole run.)
  bool use_general = false;
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
