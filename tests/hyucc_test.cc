#include "core/hyucc.h"

#include <optional>

#include "data/generators.h"
#include "gtest/gtest.h"
#include "test_util.h"

namespace hyfd {
namespace {

std::vector<AttributeSet> HyUccDiscover(const Relation& r, HyUccConfig config = {}) {
  HyUcc algo(config);
  return algo.Discover(r);
}

TEST(HyUccTest, SimpleKey) {
  Relation r = Relation::FromStringRows(
      Schema({"id", "x"}), {{"1", "a"}, {"2", "a"}, {"3", "b"}});
  auto uccs = HyUccDiscover(r);
  ASSERT_EQ(uccs.size(), 1u);
  EXPECT_EQ(uccs[0], AttributeSet(2, {0}));
}

TEST(HyUccTest, CompositeKeyOnly) {
  Relation r = Relation::FromStringRows(
      Schema({"a", "b"}), {{"1", "x"}, {"1", "y"}, {"2", "x"}, {"2", "y"}});
  auto uccs = HyUccDiscover(r);
  ASSERT_EQ(uccs.size(), 1u);
  EXPECT_EQ(uccs[0], AttributeSet(2, {0, 1}));
}

TEST(HyUccTest, NoKeyUnderDuplicates) {
  Relation r = Relation::FromStringRows(Schema::Generic(2),
                                        {{"1", "x"}, {"1", "x"}});
  EXPECT_TRUE(HyUccDiscover(r).empty());
}

TEST(HyUccTest, DegenerateInputs) {
  Relation empty{Schema::Generic(3)};
  auto uccs = HyUccDiscover(empty);
  ASSERT_EQ(uccs.size(), 1u);
  EXPECT_TRUE(uccs[0].Empty());

  Relation single = Relation::FromStringRows(Schema::Generic(2), {{"a", "b"}});
  uccs = HyUccDiscover(single);
  ASSERT_EQ(uccs.size(), 1u);
  EXPECT_TRUE(uccs[0].Empty());

  // Every column all-distinct: the Sampler finds no agree set, so only the
  // Validator refutes ∅ and every singleton is a minimal UCC.
  Relation distinct = Relation::FromStringRows(
      Schema::Generic(3), {{"a", "b", "c"}, {"d", "e", "f"}, {"g", "h", "i"}});
  uccs = HyUccDiscover(distinct);
  EXPECT_EQ(uccs, (std::vector<AttributeSet>{
                      AttributeSet(3, {0}), AttributeSet(3, {1}),
                      AttributeSet(3, {2})}));
}

TEST(HyUccTest, NullSemantics) {
  Relation r = Relation::FromRows(Schema({"a"}),
                                  {{std::nullopt}, {std::nullopt}, {"x"}});
  HyUccConfig eq;
  eq.null_semantics = NullSemantics::kNullEqualsNull;
  EXPECT_TRUE(HyUccDiscover(r, eq).empty());
  HyUccConfig ne;
  ne.null_semantics = NullSemantics::kNullUnequal;
  EXPECT_EQ(HyUccDiscover(r, ne).size(), 1u);
}

TEST(HyUccTest, StatsPopulated) {
  // Near-unique columns guarantee keys exist, so candidates get validated.
  Relation r = GenerateFdReduced(200, 5, 60, 11);
  HyUcc algo;
  auto uccs = algo.Discover(r);
  EXPECT_FALSE(uccs.empty());
  EXPECT_EQ(algo.report().result_count, uccs.size());
  EXPECT_GT(algo.report().FindCounter("hyucc.validations"), 0u);
}

// Cross-check against brute-force subset enumeration over random shapes.
struct UccSweepParam {
  int cols;
  size_t rows;
  int max_domain;
  double null_rate;
  uint64_t seed;
};

class HyUccSweepTest : public ::testing::TestWithParam<UccSweepParam> {};

TEST_P(HyUccSweepTest, MatchesBruteForceEnumeration) {
  const auto& p = GetParam();
  Relation r =
      testing::RandomRelation(p.cols, p.rows, p.seed, p.max_domain, p.null_rate);
  auto expected = testing::BruteForceUccs(r);
  auto actual = HyUccDiscover(r);
  EXPECT_EQ(expected, actual);
  // Minimality: no UCC contains another.
  for (const auto& a : actual) {
    for (const auto& b : actual) {
      if (&a != &b) {
        EXPECT_FALSE(a.IsProperSubsetOf(b));
      }
    }
  }
}

std::vector<UccSweepParam> UccSweepParams() {
  std::vector<UccSweepParam> params;
  uint64_t seed = 7000;
  for (int cols : {2, 4, 6, 8}) {
    for (int domain : {2, 5, 9}) {
      params.push_back({cols, 60, domain, 0.0, seed++});
      params.push_back({cols, 150, domain, 0.15, seed++});
    }
  }
  return params;
}

INSTANTIATE_TEST_SUITE_P(RandomRelations, HyUccSweepTest,
                         ::testing::ValuesIn(UccSweepParams()));

TEST(HyUccTest, FdReducedStyleData) {
  Relation r = GenerateFdReduced(300, 7, 5, 3);
  EXPECT_EQ(testing::BruteForceUccs(r), HyUccDiscover(r));
}

}  // namespace
}  // namespace hyfd
