#include "core/batch_diagnoser.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "core/attention.h"
#include "data/encoding.h"
#include "obs/obs.h"
#include "util/require.h"

namespace diagnet::core {

namespace {

/// A run of request indices encoded and pooled together; at most batch_size
/// long. Each part is one serving network's slice of the chunk's rows; the
/// parts share the model's one LandPooling, whose stage runs once for all
/// of them. The mask pointer refers either to a request's own
/// landmark_available vector or to the shared all-true fallback.
struct Chunk {
  const std::vector<bool>* mask = nullptr;
  std::vector<std::size_t> indices;  // into the request vector
  std::vector<PooledGroup> parts;    // partition [0, indices.size()), in order
};

/// All requests that share one landmark mask, split per serving network in
/// first-appearance order.
struct NetRun {
  const nn::CoarseNet* net = nullptr;
  std::vector<std::size_t> indices;
};
struct MaskGroup {
  const std::vector<bool>* mask = nullptr;
  std::vector<NetRun> runs;
};

/// False when a row's coarse probabilities or attention are NaN/inf —
/// finite features that overflow the network get there — so the row is
/// refused instead of scored (Algorithm 1 requires a proper distribution).
bool finite_attention(const AttentionResult& attention) {
  const auto finite = [](double v) { return std::isfinite(v); };
  return std::all_of(attention.coarse_probs.begin(),
                     attention.coarse_probs.end(), finite) &&
         std::all_of(attention.gamma.begin(), attention.gamma.end(), finite);
}

}  // namespace

BatchDiagnoser::BatchDiagnoser(DiagNetModel& model,
                               BatchDiagnoserConfig config)
    : model_(&model), config_(config) {
  DIAGNET_REQUIRE(config_.batch_size > 0);
}

std::vector<DiagnoseResponse> BatchDiagnoser::run(
    const std::vector<DiagnoseRequest>& requests) const {
  DIAGNET_SPAN("diagnose.batch");
  DIAGNET_COUNT_N("diagnose.batch.samples", requests.size());

  std::vector<DiagnoseResponse> results(requests.size());
  if (requests.empty()) return results;

  const data::FeatureSpace& fs = model_->feature_space();
  const std::vector<bool> all_landmarks(fs.landmark_count(), true);

  const bool gradient =
      model_->config().attention == AttentionMethod::Gradient;

  // Group requests by landmark mask, then by serving network within the
  // mask, both in first-appearance order — each row runs through exactly
  // the network and fleet diagnose() would have used. Invalid requests get
  // their Status now and never occupy a batch slot.
  std::vector<MaskGroup> mask_groups;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const DiagnoseRequest& request = requests[i];
    results[i].status = model_->validate(request);
    if (!results[i].status.ok()) continue;
    const nn::CoarseNet* net = request.use_general
                                   ? &model_->general_net()
                                   : &model_->service_net(request.service);
    const std::vector<bool>* mask = request.landmark_available.empty()
                                        ? &all_landmarks
                                        : &request.landmark_available;
    auto git = std::find_if(
        mask_groups.begin(), mask_groups.end(), [&](const MaskGroup& g) {
          return g.mask == mask || *g.mask == *mask;
        });
    if (git == mask_groups.end()) {
      mask_groups.push_back({mask, {}});
      git = mask_groups.end() - 1;
    }
    auto rit = std::find_if(git->runs.begin(), git->runs.end(),
                            [&](const NetRun& r) { return r.net == net; });
    if (rit == git->runs.end()) {
      git->runs.push_back({net, {}});
      rit = git->runs.end() - 1;
    }
    rit->indices.push_back(i);
  }

  // Cut each mask group, net-grouped, into union chunks of at most
  // batch_size rows: every net of a model runs on one LandPooling.
  std::vector<Chunk> chunks;
  std::size_t shared_chunks = 0;
  for (const MaskGroup& g : mask_groups) {
    std::vector<std::pair<std::size_t, const nn::CoarseNet*>> rows;
    for (const NetRun& run : g.runs)
      for (const std::size_t i : run.indices) rows.emplace_back(i, run.net);
    for (std::size_t b = 0; b < rows.size(); b += config_.batch_size) {
      Chunk c;
      c.mask = g.mask;
      const std::size_t e = std::min(rows.size(), b + config_.batch_size);
      for (std::size_t r = b; r < e; ++r) {
        const auto [i, net] = rows[r];
        if (c.parts.empty() || c.parts.back().net != net)
          c.parts.push_back({net, {}});
        c.parts.back().rows.push_back(c.indices.size());
        c.indices.push_back(i);
      }
      if (c.parts.size() > 1) ++shared_chunks;
      chunks.push_back(std::move(c));
    }
  }
  DIAGNET_COUNT_N("diagnose.batch.chunks", chunks.size());
  DIAGNET_COUNT_N("diagnose.batch.shared_pool_chunks", shared_chunks);

  util::ThreadPool& pool =
      config_.pool ? *config_.pool : util::ThreadPool::global();
  // The networks are const and every chunk keeps its activations in its own
  // workspace, so chunks run concurrently against the shared model.
  pool.parallel_for(chunks.size(), [&](std::size_t ci) {
    const Chunk& chunk = chunks[ci];
    const std::vector<bool>& mask = *chunk.mask;

    nn::LandBatch batch;
    {
      DIAGNET_SPAN("diagnose.batch.encode");
      std::vector<const std::vector<double>*> raw(chunk.indices.size());
      for (std::size_t r = 0; r < chunk.indices.size(); ++r)
        raw[r] = &requests[chunk.indices[r]].features;
      batch = data::encode_batch(raw, fs, model_->normalizer(), mask);
    }

    std::vector<AttentionResult> attention;
    {
      DIAGNET_SPAN("diagnose.batch.attention");
      if (gradient) {
        attention = compute_attention_shared_pooling(chunk.parts, batch, fs);
      } else {
        // Occlusion probes one feature at a time (m forward passes per
        // sample); there is nothing to batch, so run it row by row with the
        // row's own network.
        attention.reserve(chunk.indices.size());
        for (const PooledGroup& part : chunk.parts) {
          for (const std::size_t r : part.rows) {
            const nn::LandBatch row = data::encode_sample(
                requests[chunk.indices[r]].features, fs, model_->normalizer(),
                mask);
            attention.push_back(compute_occlusion_attention(*part.net, row, fs));
          }
        }
      }
    }

    {
      DIAGNET_SPAN("diagnose.batch.score");
      std::vector<std::size_t> scored;  // request indices
      std::vector<DiagNetModel::ScoredRow> rows;
      for (std::size_t r = 0; r < chunk.indices.size(); ++r) {
        const std::size_t i = chunk.indices[r];
        if (!finite_attention(attention[r])) {
          results[i].status = util::Status::invalid_argument(
              "features overflow the network: non-finite coarse "
              "probabilities or attention");
          continue;
        }
        scored.push_back(i);
        rows.push_back({&attention[r], &requests[i].features});
      }
      std::vector<Diagnosis> diagnoses =
          model_->complete_diagnosis(rows, mask);
      for (std::size_t s = 0; s < scored.size(); ++s)
        results[scored[s]].diagnosis = std::move(diagnoses[s]);
    }
  });
  return results;
}

}  // namespace diagnet::core
