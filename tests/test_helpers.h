// Shared helpers for the test suite: random fixtures (delegated to the
// testkit generators) and the gtest front end over the testkit property
// suites. Gradient checks difference testkit::oracle's long-double
// references (oracle::central_difference).
#pragma once

#include <string>

#include "tensor/matrix.h"
#include "testkit/gen.h"
#include "testkit/harness.h"
#include "util/rng.h"

namespace diagnet::test {

inline tensor::Matrix random_matrix(std::size_t rows, std::size_t cols,
                                    std::uint64_t seed, double scale = 1.0) {
  util::Rng rng(seed);
  return testkit::gen::matrix(rng, rows, cols, scale);
}

/// Run one registered testkit suite under the CI-overridable seed/iters
/// (DIAGNET_PROPTEST_SEED / DIAGNET_PROPTEST_ITERS) and return its result.
/// Assert on .ok() with << testkit::describe(result) for the repro line.
inline testkit::SuiteResult run_property_suite(const std::string& name,
                                               std::size_t default_iters = 50,
                                               std::uint64_t default_seed = 1) {
  testkit::SuiteResult result;
  result.name = name;
  const testkit::Suite* suite = testkit::find_suite(name);
  if (suite == nullptr) {
    result.failed_iterations = 1;
    result.messages.push_back("unknown testkit suite: " + name);
    return result;
  }
  const testkit::PropertyRunner runner(
      testkit::env_seed(default_seed), testkit::env_iters(default_iters));
  return runner.run(suite->name, suite->fn);
}

}  // namespace diagnet::test
