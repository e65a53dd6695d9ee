#include "core/hyfd.h"

#include <optional>

#include "data/generators.h"
#include "fd/reference.h"
#include "gtest/gtest.h"
#include "test_util.h"

namespace hyfd {
namespace {

TEST(HyFdTest, KindergartenExample) {
  Relation r = Relation::FromStringRows(
      Schema({"child", "teacher"}),
      {{"ann", "smith"}, {"bob", "smith"}, {"cara", "jones"}, {"ann", "smith"}});
  FDSet fds = DiscoverFds(r);
  EXPECT_TRUE(fds.Contains(FD(AttributeSet(2, {0}), 1)));
  EXPECT_FALSE(fds.Contains(FD(AttributeSet(2, {1}), 0)));
}

TEST(HyFdTest, MatchesBruteForceOnAddressData) {
  Relation r = MakeAddressDataset(300, 17);
  testing::ExpectSameFds(DiscoverFdsBruteForce(r), DiscoverFds(r),
                         "address dataset");
}

TEST(HyFdTest, DegenerateInputs) {
  // Empty relation.
  Relation empty{Schema::Generic(3)};
  FDSet fds = DiscoverFds(empty);
  EXPECT_EQ(fds.size(), 3u);
  for (const FD& fd : fds) EXPECT_TRUE(fd.lhs.Empty());

  // Single row.
  Relation single = Relation::FromStringRows(Schema::Generic(2), {{"a", "b"}});
  fds = DiscoverFds(single);
  EXPECT_EQ(fds.size(), 2u);

  // Single column, non-constant: no non-trivial FDs at all.
  Relation one_col = Relation::FromStringRows(Schema({"a"}), {{"x"}, {"y"}});
  EXPECT_TRUE(DiscoverFds(one_col).empty());

  // Single constant column: ∅ -> A.
  Relation const_col = Relation::FromStringRows(Schema({"a"}), {{"x"}, {"x"}});
  EXPECT_EQ(DiscoverFds(const_col).size(), 1u);
}

TEST(HyFdTest, StatsArepopulated) {
  Relation r = testing::RandomRelation(5, 100, 3, 3);
  HyFd algo;
  FDSet fds = algo.Discover(r);
  const RunReport& report = algo.report();
  EXPECT_EQ(report.result_count, fds.size());
  EXPECT_GT(report.FindCounter("hyfd.comparisons"), 0u);
  EXPECT_GT(report.FindCounter("hyfd.validations"), 0u);
  EXPECT_EQ(report.FindCounter("guardian.pruned_lhs_cap"), 0u);  // complete
}

TEST(HyFdTest, NullSemanticsBothWays) {
  Relation r = Relation::FromRows(
      Schema({"A", "B"}), {{std::nullopt, "1"}, {std::nullopt, "2"}, {"x", "3"}});
  HyFdConfig eq;
  eq.null_semantics = NullSemantics::kNullEqualsNull;
  EXPECT_FALSE(DiscoverFds(r, eq).Contains(FD(AttributeSet(2, {0}), 1)));
  testing::ExpectSameFds(
      DiscoverFdsBruteForce(r, NullSemantics::kNullEqualsNull),
      DiscoverFds(r, eq), "null = null");

  HyFdConfig ne;
  ne.null_semantics = NullSemantics::kNullUnequal;
  EXPECT_TRUE(DiscoverFds(r, ne).Contains(FD(AttributeSet(2, {0}), 1)));
  testing::ExpectSameFds(DiscoverFdsBruteForce(r, NullSemantics::kNullUnequal),
                         DiscoverFds(r, ne), "null != null");
}

TEST(HyFdTest, MemoryGuardianCapsLhsSize) {
  // fd-reduced-style data (uniform domain-4 cells, 8 columns, 150 rows) has
  // its minimal FDs around lattice level 4; a tiny memory cap must force
  // the guardian to prune and to report the cap.
  Relation r = GenerateFdReduced(150, 8, 4, 19);
  HyFdConfig config;
  config.memory_limit_bytes = 1;  // absurdly small: prune to LHS size 1
  HyFd algo(config);
  FDSet fds = algo.Discover(r);
  const uint64_t cap =
      algo.report().FindCounter("guardian.pruned_lhs_cap").value_or(0);
  EXPECT_GE(cap, 1u);
  for (const FD& fd : fds) {
    EXPECT_LE(static_cast<uint64_t>(fd.lhs.Count()), cap);
  }
  // The pruned result is a subset of the complete result.
  FDSet complete = DiscoverFdsBruteForce(r);
  for (const FD& fd : fds) {
    EXPECT_TRUE(complete.Contains(fd)) << fd.ToString();
  }
}

// Regression for the silent-truncation bug: a guardian-pruned run used to
// be indistinguishable from a complete run with fewer FDs. It must now be
// machine-detectable through the run report.
TEST(HyFdTest, GuardianTruncationIsReported) {
  Relation r = GenerateFdReduced(150, 8, 4, 19);
  HyFdConfig config;
  config.memory_limit_bytes = 1;
  HyFd algo(config);
  FDSet pruned = algo.Discover(r);
  const RunReport& report = algo.report();

  EXPECT_FALSE(report.complete);
  EXPECT_GE(report.FindCounter("guardian.prunes"), 1u);
  const std::optional<uint64_t> cap =
      report.FindCounter("guardian.pruned_lhs_cap");
  ASSERT_GE(cap, 1u);
  ASSERT_FALSE(report.degradation_reasons.empty());
  EXPECT_NE(report.degradation_reasons[0].find("guardian"), std::string::npos);
  EXPECT_NE(report.degradation_reasons[0].find(
                "LHS size > " + std::to_string(*cap) + " "),
            std::string::npos);
  EXPECT_TRUE(RunReport::ValidateJsonSchema(report.ToJson()).empty());

  // The pruned result is a STRICT subset of the complete answer.
  FDSet complete = DiscoverFdsBruteForce(r);
  EXPECT_LT(pruned.size(), complete.size());
  for (const FD& fd : pruned) {
    EXPECT_TRUE(complete.Contains(fd)) << fd.ToString();
  }
}

TEST(HyFdTest, GenerousMemoryLimitStaysComplete) {
  Relation r = GenerateFdReduced(150, 8, 4, 19);
  HyFdConfig config;
  config.memory_limit_bytes = size_t{1} << 32;  // 4 GiB: never triggers
  HyFd algo(config);
  FDSet fds = algo.Discover(r);
  const RunReport& report = algo.report();

  EXPECT_TRUE(report.complete);
  EXPECT_EQ(report.FindCounter("guardian.pruned_lhs_cap"), 0u);
  EXPECT_EQ(report.FindCounter("guardian.prunes"), 0u);
  EXPECT_EQ(report.FindCounter("guardian.give_ups"), 0u);
  EXPECT_EQ(report.FindCounter("guardian.overrun_bytes"), 0u);
  EXPECT_TRUE(report.degradation_reasons.empty());
  testing::ExpectSameFds(DiscoverFds(r), fds, "generous memory limit");
}

TEST(HyFdTest, MultiThreadedMatchesSingleThreaded) {
  Relation r = testing::RandomRelation(6, 150, 23, 3);
  HyFdConfig mt;
  mt.num_threads = 4;
  testing::ExpectSameFds(DiscoverFds(r), DiscoverFds(r, mt),
                         "multi-threaded HyFD");
}

TEST(HyFdTest, RandomSamplingStrategyMatches) {
  Relation r = testing::RandomRelation(5, 120, 29, 3);
  HyFdConfig config;
  config.sampling_strategy = SamplingStrategy::kRandomPairs;
  testing::ExpectSameFds(DiscoverFds(r), DiscoverFds(r, config),
                         "random-pair sampling ablation");
}

TEST(HyFdTest, ExtremeEfficiencyThresholdsStillCorrect) {
  Relation r = testing::RandomRelation(5, 80, 37, 3);
  FDSet expected = DiscoverFdsBruteForce(r);
  for (double threshold : {0.0001, 0.01, 0.5, 1.0}) {
    HyFdConfig config;
    config.efficiency_threshold = threshold;
    testing::ExpectSameFds(expected, DiscoverFds(r, config),
                           "threshold " + std::to_string(threshold));
  }
}

// The main property sweep: HyFD equals brute force on many random relations
// with varying shapes, domains, and NULL rates.
struct SweepParam {
  int cols;
  size_t rows;
  int max_domain;
  double null_rate;
  uint64_t seed;
};

class HyFdSweepTest : public ::testing::TestWithParam<SweepParam> {};

TEST_P(HyFdSweepTest, MatchesBruteForce) {
  const SweepParam& p = GetParam();
  Relation r =
      testing::RandomRelation(p.cols, p.rows, p.seed, p.max_domain, p.null_rate);
  FDSet expected = DiscoverFdsBruteForce(r);
  FDSet actual = DiscoverFds(r);
  testing::ExpectSameFds(expected, actual, "sweep");
  EXPECT_TRUE(actual.IsMinimal());
}

std::vector<SweepParam> SweepParams() {
  std::vector<SweepParam> params;
  uint64_t seed = 1000;
  for (int cols : {2, 3, 4, 5, 6, 7}) {
    for (int domain : {2, 3, 6}) {
      for (double null_rate : {0.0, 0.15}) {
        params.push_back({cols, 40, domain, null_rate, seed++});
        params.push_back({cols, 120, domain, null_rate, seed++});
      }
    }
  }
  return params;
}

INSTANTIATE_TEST_SUITE_P(RandomRelations, HyFdSweepTest,
                         ::testing::ValuesIn(SweepParams()));

}  // namespace
}  // namespace hyfd
