// Fig. 9 + §IV-F — training cost of new service models: per-epoch loss
// curves of the general model vs per-service specialised models, parameter
// counts, wall-clock training times and inference latency.
//
// Paper: general model converges in ~20 epochs (32 s on a laptop CPU);
// specialised models converge in < 5 epochs (4 s each); 215,312 total
// parameters of which 65,664 remain trainable after freezing; root causes
// inferred in 45 ms.

#include <chrono>
#include <iostream>

#include "bench/bench_util.h"

int main() {
  using namespace diagnet;
  namespace db = diagnet::bench;

  db::print_header(
      "Fig. 9 (training cost of new service models)",
      "General model ~20 epochs / 32 s; specialised models < 5 epochs / 4 s "
      "each; 215,312 parameters, 65,664 trainable after freezing; inference "
      "in 45 ms.");

  eval::PipelineConfig config = db::scaled_default_config();
  std::cout << "Training models...\n\n";
  eval::Pipeline pipeline(config);

  auto& net = pipeline.diagnet().general_net();
  std::cout << "Parameter counts: total " << net.parameter_count()
            << " [paper: 215,312]";
  std::cout << ", trainable after freezing " << net.head()->parameter_count()
            << " [paper: 65,664]\n\n";

  // (a) the general model's loss curve.
  const auto& history = pipeline.general_history();
  std::cout << "(a) general model — " << history.epochs_run()
            << " epochs run, best at epoch " << (history.best_epoch + 1)
            << ", wall " << util::fmt(history.wall_seconds, 1)
            << " s [paper: ~20 epochs, 32 s]\n";
  util::Table general({"epoch", "train loss", "validation loss"});
  for (std::size_t e = 0; e < history.epochs.size(); ++e)
    general.add_row({std::to_string(e + 1),
                     util::fmt(history.epochs[e].train_loss, 4),
                     util::fmt(history.epochs[e].validation_loss, 4)});
  std::cout << general.to_string() << '\n';

  // (b) specialised service models.
  std::cout << "(b) specialised models (convolution frozen)\n";
  util::Table specialised(
      {"service", "epochs", "best", "final val loss", "wall s"});
  double epoch_sum = 0.0;
  for (const auto& [service, hist] : pipeline.specialization_history()) {
    specialised.add_row(
        {pipeline.simulator().services()[service].name,
         std::to_string(hist.epochs_run()),
         std::to_string(hist.best_epoch + 1),
         util::fmt(hist.epochs.empty()
                       ? 0.0
                       : hist.epochs[hist.best_epoch].validation_loss,
                   4),
         util::fmt(hist.wall_seconds, 1)});
    epoch_sum += static_cast<double>(hist.best_epoch + 1);
  }
  std::cout << specialised.to_string();
  if (!pipeline.specialization_history().empty()) {
    std::cout << "Mean epochs to best validation loss: "
              << util::fmt(epoch_sum / static_cast<double>(
                                           pipeline.specialization_history()
                                               .size()),
                           1)
              << "   [paper: < 5]\n\n";
  }

  // Inference latency over real test samples (full DiagNet pipeline:
  // encode + coarse forward + attention backward + Algorithm 1 + ensemble).
  const auto faulty = pipeline.faulty_test_indices();
  const std::size_t count = std::min<std::size_t>(faulty.size(), 500);
  const auto t0 = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < count; ++i)
    pipeline.rank(eval::ModelKind::DiagNet, faulty[i]);
  const double ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - t0)
          .count() /
      static_cast<double>(count);
  std::cout << "Mean end-to-end inference latency over " << count
            << " diagnoses: " << util::fmt(ms, 2)
            << " ms   [paper: 45 ms]\n";
  return 0;
}
