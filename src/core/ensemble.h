// Ensemble model averaging (paper §III-F): blend the tuned attention
// prediction γ̂' with the auxiliary Random-Forest prediction α̂, weighted by
// the attention mass w_U sitting on features of landmarks unseen during
// training:
//
//   final = w_U · γ̂' + (1 - w_U) · α̂,   w_U = Σ_{j∈U} γ̂'_j
//
// When the attention points at unknown territory the extensible network
// dominates; when it points at known causes the forest (near-perfect on
// known causes, Fig. 5b) dominates.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace diagnet::core {

/// `unknown_features`: indices of the features U not seen during training.
/// gamma_tuned and auxiliary must be distributions over the same m causes.
std::vector<double> ensemble_average(
    std::span<const double> gamma_tuned, std::span<const double> auxiliary,
    const std::vector<std::size_t>& unknown_features,
    double* w_unknown_out = nullptr);
inline std::vector<double> ensemble_average(
    const std::vector<double>& gamma_tuned,
    const std::vector<double>& auxiliary,
    const std::vector<std::size_t>& unknown_features,
    double* w_unknown_out = nullptr) {
  return ensemble_average(std::span<const double>(gamma_tuned),
                          std::span<const double>(auxiliary),
                          unknown_features, w_unknown_out);
}

}  // namespace diagnet::core
