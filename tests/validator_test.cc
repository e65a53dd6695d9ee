#include "core/validator.h"

#include "core/inductor.h"
#include "core/preprocessor.h"
#include "data/generators.h"
#include "fd/reference.h"
#include "gtest/gtest.h"
#include "pli/pli_cache.h"
#include "test_util.h"
#include "util/check.h"

namespace hyfd {
namespace {

/// Runs the validator to completion from an Inductor-initialized tree with
/// no sampling knowledge (the "Phase 2 can discover everything alone" claim
/// of paper §10).
FDSet ValidateFromScratch(const Relation& r, double threshold = 1e18) {
  PreprocessedData data = Preprocess(r);
  FDTree tree(data.num_attributes);
  Inductor inductor(&tree);
  inductor.Update({});  // just ∅ -> R
  Validator validator(&data, &tree, threshold);
  while (!validator.Run().done) {
  }
  return tree.ToFdSet();
}

TEST(ValidatorTest, DiscoversAllFdsWithoutSampling) {
  Relation r = testing::RandomRelation(4, 50, 21, 3);
  hyfd::testing::ExpectSameFds(DiscoverFdsBruteForce(r), ValidateFromScratch(r),
                "validator-only vs brute force");
}

TEST(ValidatorTest, WorksOnPlantedFdData) {
  GeneratorConfig config;
  config.rows = 200;
  config.seed = 5;
  config.columns = {ColumnSpec{.cardinality = 15},
                    ColumnSpec{.cardinality = 8, .sources = {0}},
                    ColumnSpec{.cardinality = 4}};
  Relation r = Generate(config);
  FDSet fds = ValidateFromScratch(r);
  EXPECT_TRUE(fds.ContainsGeneralizationOf(FD(AttributeSet(3, {0}), 1)));
  hyfd::testing::ExpectSameFds(DiscoverFdsBruteForce(r), fds, "planted-FD data");
}

TEST(ValidatorTest, EfficiencyThresholdTriggersPause) {
  // With threshold 0 every level with at least one invalid FD pauses the
  // validator, so the first Run must come back not-done on non-trivial data.
  Relation r = testing::RandomRelation(4, 60, 31, 3);
  PreprocessedData data = Preprocess(r);
  FDTree tree(data.num_attributes);
  Inductor inductor(&tree);
  inductor.Update({});
  Validator validator(&data, &tree, 0.0);
  ValidatorResult first = validator.Run();
  EXPECT_FALSE(first.done);
  // Resuming repeatedly still terminates with the full result.
  while (!validator.Run().done) {
  }
  hyfd::testing::ExpectSameFds(DiscoverFdsBruteForce(r), tree.ToFdSet(), "paused validator");
}

TEST(ValidatorTest, EmitsComparisonSuggestionsForViolations) {
  // 2x2 grid: neither column determines the other, so level 1 must produce
  // violation witnesses.
  Relation r = Relation::FromStringRows(
      Schema::Generic(2), {{"1", "x"}, {"1", "y"}, {"2", "x"}, {"2", "y"}});
  PreprocessedData data = Preprocess(r);
  FDTree tree(data.num_attributes);
  Inductor inductor(&tree);
  inductor.Update({});
  Validator validator(&data, &tree, 0.0);
  std::vector<std::pair<RecordId, RecordId>> all_suggestions;
  while (true) {
    ValidatorResult vr = validator.Run();
    for (auto& s : vr.comparison_suggestions) all_suggestions.push_back(s);
    if (vr.done) break;
  }
  ASSERT_FALSE(all_suggestions.empty());
  // Every suggested pair must be a genuine violation witness: the records
  // agree on some non-empty attribute set.
  for (auto [a, b] : all_suggestions) {
    ASSERT_LT(a, r.num_rows());
    ASSERT_LT(b, r.num_rows());
    EXPECT_NE(a, b);
  }
}

// Collects every Run()'s suggestion batch until the validator finishes.
std::vector<std::vector<std::pair<RecordId, RecordId>>> CollectSuggestionBatches(
    const PreprocessedData& data, ThreadPool* pool = nullptr) {
  FDTree tree(data.num_attributes);
  Inductor inductor(&tree);
  inductor.Update({});
  Validator validator(&data, &tree, 0.0, pool);
  std::vector<std::vector<std::pair<RecordId, RecordId>>> batches;
  while (true) {
    ValidatorResult vr = validator.Run();
    batches.push_back(vr.comparison_suggestions);
    if (vr.done) break;
  }
  return batches;
}

TEST(ValidatorTest, SuggestionsAreDedupedAndSorted) {
  // Many colliding clusters => the per-RHS passes would witness the same
  // record pair repeatedly without deduplication.
  Relation r = testing::RandomRelation(5, 120, 77, 2);
  PreprocessedData data = Preprocess(r);
  for (const auto& batch : CollectSuggestionBatches(data)) {
    for (size_t i = 1; i < batch.size(); ++i) {
      EXPECT_LT(batch[i - 1], batch[i])  // strictly increasing: sorted + unique
          << "duplicate or out-of-order suggestion at index " << i;
    }
  }
}

TEST(ValidatorTest, SuggestionsAreDeterministicAcrossRunsAndThreads) {
  Relation r = testing::RandomRelation(5, 120, 78, 2);
  PreprocessedData data = Preprocess(r);
  auto first = CollectSuggestionBatches(data);
  auto second = CollectSuggestionBatches(data);
  EXPECT_EQ(first, second) << "sequential validator suggestions not stable";

  ThreadPool pool(4);
  auto parallel = CollectSuggestionBatches(data, &pool);
  EXPECT_EQ(first, parallel)
      << "parallel validator suggestions differ from sequential";
}

TEST(ValidatorTest, LevelsValidatedCountsProcessedLevels) {
  Relation r = testing::RandomRelation(4, 60, 41, 3);
  PreprocessedData data = Preprocess(r);
  FDTree tree(data.num_attributes);
  Inductor inductor(&tree);
  inductor.Update({});
  Validator validator(&data, &tree, 1e18);
  while (!validator.Run().done) {
  }
  // Level 0 (empty LHS) always runs; the deepest validated LHS size is
  // levels_validated() - 1 and can never exceed the attribute count.
  EXPECT_GE(validator.levels_validated(), 1);
  EXPECT_LE(validator.levels_validated() - 1, data.num_attributes);
}

TEST(ValidatorTest, ParallelMatchesSequential) {
  Relation r = testing::RandomRelation(5, 80, 55, 3);
  PreprocessedData data = Preprocess(r);

  FDTree seq_tree(data.num_attributes);
  Inductor seq_inductor(&seq_tree);
  seq_inductor.Update({});
  Validator seq(&data, &seq_tree, 1e18);
  while (!seq.Run().done) {
  }

  FDTree par_tree(data.num_attributes);
  Inductor par_inductor(&par_tree);
  par_inductor.Update({});
  ThreadPool pool(4);
  Validator par(&data, &par_tree, 1e18, &pool);
  while (!par.Run().done) {
  }

  hyfd::testing::ExpectSameFds(seq_tree.ToFdSet(), par_tree.ToFdSet(),
                "parallel vs sequential validator");
}

TEST(ValidatorTest, ConstantAndUniqueColumns) {
  Relation r = Relation::FromStringRows(
      Schema({"key", "const", "free"}),
      {{"1", "c", "x"}, {"2", "c", "y"}, {"3", "c", "x"}});
  FDSet fds = ValidateFromScratch(r);
  // ∅ -> const; key -> free is minimal (key is unique).
  EXPECT_TRUE(fds.Contains(FD(AttributeSet(3), 1)));
  EXPECT_TRUE(fds.Contains(FD(AttributeSet(3, {0}), 2)));
  hyfd::testing::ExpectSameFds(DiscoverFdsBruteForce(r), fds, "constant/unique columns");
}

TEST(ValidatorTest, NullSemanticsPropagate) {
  Relation r = Relation::FromRows(
      Schema({"A", "B"}), {{std::nullopt, "1"}, {std::nullopt, "2"}});
  {
    PreprocessedData data = Preprocess(r, NullSemantics::kNullEqualsNull);
    FDTree tree(2);
    Inductor ind(&tree);
    ind.Update({});
    Validator v(&data, &tree, 1e18);
    while (!v.Run().done) {
    }
    EXPECT_FALSE(tree.ToFdSet().Contains(FD(AttributeSet(2, {0}), 1)));
  }
  {
    PreprocessedData data = Preprocess(r, NullSemantics::kNullUnequal);
    FDTree tree(2);
    Inductor ind(&tree);
    ind.Update({});
    Validator v(&data, &tree, 1e18);
    while (!v.Run().done) {
    }
    EXPECT_TRUE(tree.ToFdSet().Contains(FD(AttributeSet(2, {0}), 1)));
  }
}

TEST(ValidatorTest, DeltaModeRejectsACache) {
  // A touched-only scan assembles partial partitions; cached ones describe
  // the whole relation. Delta mode therefore takes no cache at all.
  Relation r = testing::RandomRelation(4, 60, 41, 3);
  PreprocessedData data = Preprocess(r);
  Validator::ClusterDelta delta;
  delta.touched.resize(static_cast<size_t>(data.num_attributes));

  FDTree tree(data.num_attributes);
  PliCache cache(data.num_attributes, data.num_records);
  Validator cached(&data, &tree, 0.01, nullptr, &cache);
  EXPECT_THROW(cached.set_delta(&delta), ContractViolation);
  EXPECT_NO_THROW(cached.set_delta(nullptr));

  Validator plain(&data, &tree, 0.01);
  EXPECT_NO_THROW(plain.set_delta(&delta));
}

}  // namespace
}  // namespace hyfd
