// Fig. 7 — F1 score of DiagNet's coarse classifier per fault family, split
// by samples with faults near known vs new landmarks.
//
// Paper: accuracy 0.85 ± 0.005 (known) vs 0.70 ± 0.013 (new); Latency,
// Uplink and Load are the easiest families.

#include <iostream>

#include "bench/bench_util.h"

int main() {
  using namespace diagnet;
  namespace db = diagnet::bench;

  db::print_header(
      "Fig. 7 (coarse classifier F1 per family, known vs new)",
      "Coarse accuracy 0.85±0.005 for faults near known landmarks, "
      "0.70±0.013 near new ones; Latency/Uplink/Load easiest to classify.");

  eval::PipelineConfig config = db::scaled_default_config();
  std::cout << "Training models...\n\n";
  eval::Pipeline pipeline(config);
  const auto& test = pipeline.split().test;

  const char* family_names[] = {"nominal", "uplink", "latency", "jitter",
                                "loss",    "band.",  "load"};

  for (const bool cause_new : {false, true}) {
    const auto indices = pipeline.faulty_test_indices(cause_new);
    std::vector<std::size_t> y_true;
    y_true.reserve(indices.size());
    for (std::size_t i : indices)
      y_true.push_back(
          static_cast<std::size_t>(test.samples[i].coarse_label));
    const std::vector<std::size_t> y_pred =
        pipeline.coarse_predictions(indices);
    const auto report = eval::classification_report(
        y_true, y_pred, netsim::kFaultFamilies);

    std::cout << (cause_new ? "Faults near NEW landmarks"
                            : "Faults near KNOWN landmarks")
              << " — " << indices.size() << " samples, accuracy "
              << util::fmt(report.accuracy, 3) << " ± "
              << util::fmt(report.accuracy_stderr, 3)
              << (cause_new ? "   [paper: 0.70 ± 0.013]"
                            : "   [paper: 0.85 ± 0.005]")
              << '\n';

    util::Table table({"family", "F1", "precision", "recall", "support"});
    for (std::size_t c = 1; c < netsim::kFaultFamilies; ++c) {
      const auto& scores = report.per_class[c];
      if (scores.support == 0) continue;
      table.add_row({family_names[c], util::fmt(scores.f1, 3),
                     util::fmt(scores.precision, 3),
                     util::fmt(scores.recall, 3),
                     std::to_string(scores.support)});
    }
    std::cout << table.to_string() << '\n';
  }
  return 0;
}
