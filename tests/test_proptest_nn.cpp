// Differential tests of the network layers against reference oracles:
// LandPooling forward vs a naive double-precision implementation, its
// backward pass vs central finite differences, the whole layer vs the
// sorting reference (bit-exact), the fused optimizer step vs the serial
// reduce/clip/update it replaced, and the batched attention path vs
// row-at-a-time evaluation (bit-exact). Seeded via
// DIAGNET_PROPTEST_SEED; failures embed their --seed/--iters repro.
#include <gtest/gtest.h>

#include "tests/test_helpers.h"

namespace diagnet {
namespace {

TEST(PropNn, LandPoolingForwardMatchesOracle) {
  const testkit::SuiteResult result =
      test::run_property_suite("oracle.landpool");
  EXPECT_TRUE(result.ok()) << testkit::describe(result);
  EXPECT_GE(result.cases, 100u) << testkit::describe(result);
}

TEST(PropNn, LandPoolingGradientsMatchFiniteDifferences) {
  const testkit::SuiteResult result =
      test::run_property_suite("oracle.landpool_grad");
  EXPECT_TRUE(result.ok()) << testkit::describe(result);
  EXPECT_GE(result.cases, 100u) << testkit::describe(result);
}

TEST(PropNn, LandPoolingIsBitExactWithSortingReference) {
  const testkit::SuiteResult result =
      test::run_property_suite("oracle.landpool_bits");
  EXPECT_TRUE(result.ok()) << testkit::describe(result);
  EXPECT_GE(result.cases, 100u) << testkit::describe(result);
}

TEST(PropNn, FusedSgdStepMatchesSerialReference) {
  const testkit::SuiteResult result =
      test::run_property_suite("oracle.sgd_step");
  EXPECT_TRUE(result.ok()) << testkit::describe(result);
  EXPECT_GE(result.cases, 100u) << testkit::describe(result);
}

TEST(PropNn, BatchedAttentionIsBitExactWithSingleRow) {
  const testkit::SuiteResult result =
      test::run_property_suite("oracle.attention");
  EXPECT_TRUE(result.ok()) << testkit::describe(result);
  EXPECT_GE(result.cases, 100u) << testkit::describe(result);
}

}  // namespace
}  // namespace diagnet
