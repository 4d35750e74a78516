#include "core/ensemble.h"

#include <algorithm>

#include "util/require.h"

namespace diagnet::core {

std::vector<double> ensemble_average(
    std::span<const double> gamma_tuned, std::span<const double> auxiliary,
    const std::vector<std::size_t>& unknown_features, double* w_unknown_out) {
  DIAGNET_REQUIRE(gamma_tuned.size() == auxiliary.size());

  double w_unknown = 0.0;
  for (std::size_t j : unknown_features) {
    DIAGNET_REQUIRE(j < gamma_tuned.size());
    w_unknown += gamma_tuned[j];
  }
  w_unknown = std::clamp(w_unknown, 0.0, 1.0);
  if (w_unknown_out) *w_unknown_out = w_unknown;

  std::vector<double> final_scores(gamma_tuned.size());
  for (std::size_t j = 0; j < final_scores.size(); ++j)
    final_scores[j] =
        w_unknown * gamma_tuned[j] + (1.0 - w_unknown) * auxiliary[j];
  return final_scores;
}

}  // namespace diagnet::core
