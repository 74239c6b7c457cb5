#include "eval/significance.h"

#include <gtest/gtest.h>

#include <vector>

#include "util/rng.h"

namespace adamine {
namespace {

TEST(PairedBootstrapTest, RejectsBadInput) {
  Rng rng(1);
  auto bad = eval::PairedBootstrap({1, 2}, {1}, 100, rng);
  EXPECT_FALSE(bad.ok());
  auto bad2 = eval::PairedBootstrap({}, {}, 100, rng);
  EXPECT_FALSE(bad2.ok());
  auto bad3 = eval::PairedBootstrap({1}, {1}, 0, rng);
  EXPECT_FALSE(bad3.ok());
}

TEST(PairedBootstrapTest, ClearDifferenceIsSignificant) {
  Rng rng(3);
  std::vector<int64_t> better;
  std::vector<int64_t> worse;
  for (int i = 0; i < 200; ++i) {
    int64_t base = 1 + rng.UniformInt(20);
    better.push_back(base);
    worse.push_back(base + 10 + rng.UniformInt(5));
  }
  auto result = eval::PairedBootstrap(better, worse, 500, rng);
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result->mean_diff, 9.0);
  EXPECT_LT(result->p_value, 0.05);
}

TEST(PairedBootstrapTest, NoisyTieIsNotSignificant) {
  Rng rng(5);
  std::vector<int64_t> a;
  std::vector<int64_t> b;
  for (int i = 0; i < 100; ++i) {
    a.push_back(1 + rng.UniformInt(50));
    b.push_back(1 + rng.UniformInt(50));
  }
  auto result = eval::PairedBootstrap(a, b, 500, rng);
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result->p_value, 0.05);
}

TEST(PairedBootstrapTest, IdenticalSystemsPValueOne) {
  Rng rng(7);
  std::vector<int64_t> ranks = {3, 1, 4, 1, 5};
  auto result = eval::PairedBootstrap(ranks, ranks, 100, rng);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->mean_diff, 0.0);
  EXPECT_EQ(result->p_value, 1.0);
}

}  // namespace
}  // namespace adamine
