// The presorted forest fit against the per-node-sort reference builder
// (src/testkit/forest_oracle.cpp): saved bytes and RNG consumption must
// match on random matrices with ties, constant columns and repeated
// bootstrap rows. The lockstep lane walk against the branchy per-row walk:
// scores must match bit for bit on chunks of 1 to 130 rows. Seeded via
// DIAGNET_PROPTEST_SEED; any failure message carries its own
// --seed/--iters repro.
#include <gtest/gtest.h>

#include "tests/test_helpers.h"

namespace diagnet {
namespace {

TEST(PropForest, FitMatchesReferenceBuilder) {
  const testkit::SuiteResult result =
      test::run_property_suite("oracle.forest_fit");
  EXPECT_TRUE(result.ok()) << testkit::describe(result);
  EXPECT_GE(result.cases, 100u) << testkit::describe(result);
}

TEST(PropForest, ChunkScoreMatchesPerRowWalk) {
  const testkit::SuiteResult result =
      test::run_property_suite("oracle.forest_score");
  EXPECT_TRUE(result.ok()) << testkit::describe(result);
  EXPECT_GE(result.cases, 100u) << testkit::describe(result);
}

}  // namespace
}  // namespace diagnet
