#include "core/sampler.h"

#include <algorithm>
#include <set>
#include <unordered_set>
#include <vector>

#include "core/preprocessor.h"
#include "data/datasets.h"
#include "data/generators.h"
#include "fd/reference.h"
#include "gtest/gtest.h"
#include "test_util.h"

namespace hyfd {
namespace {

TEST(PreprocessorTest, RanksAttributesByClusterCount) {
  // Column 0: unique (3 clusters incl. singletons); column 1: constant
  // (1 cluster); column 2: two values (2 clusters).
  Relation r = Relation::FromStringRows(
      Schema::Generic(3),
      {{"1", "c", "x"}, {"2", "c", "x"}, {"3", "c", "y"}});
  PreprocessedData data = Preprocess(r);
  EXPECT_EQ(data.by_rank, (std::vector<int>{0, 2, 1}));
  EXPECT_EQ(data.rank[0], 0);
  EXPECT_EQ(data.rank[2], 1);
  EXPECT_EQ(data.rank[1], 2);
}

TEST(PreprocessorTest, RecordsMatchRelationShape) {
  Relation r = testing::RandomRelation(4, 30, 5);
  PreprocessedData data = Preprocess(r);
  EXPECT_EQ(data.num_records, 30u);
  EXPECT_EQ(data.num_attributes, 4);
  EXPECT_EQ(data.records.num_records(), 30u);
}

TEST(SamplerTest, FindsViolationsOfInvalidFds) {
  // b does NOT determine a: records 0,1 share b but differ in a. The
  // sampler must discover the corresponding agree set {1} (attribute b).
  Relation r = Relation::FromStringRows(
      Schema({"a", "b"}),
      {{"1", "x"}, {"2", "x"}, {"1", "y"}, {"2", "y"}});
  PreprocessedData data = Preprocess(r);
  Sampler sampler(&data, 0.01);
  auto non_fds = sampler.Run({});
  bool found = false;
  for (const auto& s : non_fds) {
    if (s.ToIndexes() == std::vector<int>{1}) found = true;
  }
  EXPECT_TRUE(found);
  EXPECT_GT(sampler.total_comparisons(), 0u);
}

TEST(SamplerTest, NonFdsAreActualNonFds) {
  // Soundness: every sampled agree set Y with a 0-bit A corresponds to a
  // real record pair, so Y' -> A must be invalid for every Y' ⊆ Y. Verify
  // the strongest statement: Y itself does not determine A.
  Relation r = testing::RandomRelation(5, 80, 42, 3);
  PreprocessedData data = Preprocess(r);
  Sampler sampler(&data, 0.01);
  auto non_fds = sampler.Run({});
  ASSERT_FALSE(non_fds.empty());
  for (const auto& agree : non_fds) {
    AttributeSet disagree = agree.Complement();
    ForEachBit(disagree, [&](int rhs) {
      EXPECT_FALSE(FdHolds(r, agree, rhs))
          << agree.ToString() << " -> " << rhs << " should be invalid";
    });
  }
}

TEST(SamplerTest, DeduplicatesAgreeSets) {
  // Many record pairs share the same agree set; Run must return each once.
  Relation r = testing::RandomRelation(3, 100, 9, 2);
  PreprocessedData data = Preprocess(r);
  Sampler sampler(&data, 0.0001);
  auto non_fds = sampler.Run({});
  std::set<std::vector<int>> unique;
  for (const auto& s : non_fds) unique.insert(s.ToIndexes());
  EXPECT_EQ(unique.size(), non_fds.size());
}

TEST(SamplerTest, SuggestionsAreMatched) {
  // All columns unique: cluster windowing has nothing to compare, so only
  // the Validator's suggested pair can contribute — its (empty) agree set
  // records that no single value determines anything.
  Relation r = Relation::FromStringRows(
      Schema({"a", "b"}), {{"1", "x"}, {"2", "y"}, {"3", "z"}});
  PreprocessedData data = Preprocess(r);
  Sampler sampler(&data, 0.01);
  auto first = sampler.Run({});
  EXPECT_TRUE(first.empty());
  auto second = sampler.Run({{0, 1}});
  ASSERT_EQ(second.size(), 1u);
  EXPECT_TRUE(second[0].Empty());
  EXPECT_EQ(sampler.total_comparisons(), 1u);
}

TEST(SamplerTest, ThresholdHalvesOnReentry) {
  Relation r = testing::RandomRelation(3, 50, 11, 2);
  PreprocessedData data = Preprocess(r);
  Sampler sampler(&data, 0.04);
  sampler.Run({});
  EXPECT_DOUBLE_EQ(sampler.current_threshold(), 0.04);
  sampler.Run({});
  EXPECT_DOUBLE_EQ(sampler.current_threshold(), 0.02);
  sampler.Run({});
  EXPECT_DOUBLE_EQ(sampler.current_threshold(), 0.01);
}

TEST(SamplerTest, RandomStrategyAlsoFindsViolations) {
  Relation r = testing::RandomRelation(4, 100, 13, 2);
  PreprocessedData data = Preprocess(r);
  Sampler sampler(&data, 0.01, SamplingStrategy::kRandomPairs);
  auto non_fds = sampler.Run({});
  EXPECT_FALSE(non_fds.empty());
}

TEST(SamplerTest, RandomStrategyEfficiencyCountsPerformedComparisons) {
  // Three rows, three columns; every one of the three record pairs agrees on
  // exactly one (distinct) attribute, so random sampling keeps finding a new
  // agree set among the first batches and the efficiency stays 3/∞ … i.e.
  // the loop only stops once enough *performed* comparisons dilute it. The
  // old code divided by the constant batch size, overestimating the work
  // done (pairs are drawn with replacement and deduplicated per batch) and
  // bailing out after roughly one batch.
  Relation r = Relation::FromStringRows(
      Schema::Generic(3),
      {{"a", "x", "p"}, {"a", "y", "q"}, {"b", "x", "q"}});
  PreprocessedData data = Preprocess(r);
  Sampler sampler(&data, 0.004, SamplingStrategy::kRandomPairs);
  auto non_fds = sampler.Run({});
  EXPECT_EQ(non_fds.size(), 3u);
  EXPECT_EQ(sampler.num_non_fds(), 3u);
  // 3 new agree sets at threshold 0.004 requires ≥ 750 performed
  // comparisons; dividing by kBatch would have stopped far earlier.
  EXPECT_GT(sampler.total_comparisons(), 750u);
}

TEST(SamplerTest, NoViolationsOnUniqueData) {
  // All columns unique: no record pair agrees anywhere, so cluster
  // windowing has no clusters to slide over.
  Relation r = Relation::FromStringRows(
      Schema::Generic(2), {{"1", "a"}, {"2", "b"}, {"3", "c"}});
  PreprocessedData data = Preprocess(r);
  Sampler sampler(&data, 0.01);
  auto non_fds = sampler.Run({});
  EXPECT_TRUE(non_fds.empty());
  EXPECT_EQ(sampler.total_comparisons(), 0u);
}

TEST(SamplerTest, NegativeCoverBytesEqualsPerElementWalk) {
  // Every agree set the cover holds was returned by some Run(), so a mirror
  // set built from the batches has the same elements and — inserted one new
  // element at a time, like the cover — the same bucket count. Walking the
  // mirror element by element must give the constant-time figure. The
  // registry's natural widths include multi-word agree sets (uniprot).
  for (const DatasetSpec& spec : PaperDatasets()) {
    Relation r =
        MakeDataset(spec.name, std::min<size_t>(spec.default_rows, 200));
    PreprocessedData data = Preprocess(r);
    Sampler sampler(&data, 0.01);
    std::unordered_set<AttributeSet> mirror;
    for (int phase = 0; phase < 3; ++phase) {
      for (AttributeSet& agree : sampler.Run({})) {
        mirror.insert(std::move(agree));
      }
      size_t walked = mirror.bucket_count() * sizeof(void*);
      for (const AttributeSet& s : mirror) {
        walked += sizeof(AttributeSet) + s.MemoryBytes();
      }
      ASSERT_EQ(mirror.size(), sampler.num_non_fds()) << spec.name;
      EXPECT_EQ(sampler.NegativeCoverBytes(), walked)
          << spec.name << ", phase " << phase;
    }
  }
}

}  // namespace
}  // namespace hyfd
