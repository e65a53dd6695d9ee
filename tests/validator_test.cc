#include "core/validator.h"

#include <optional>
#include <random>
#include <string>

#include "core/hyfd.h"
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

// ---- Restricted mode: the batch filter against an unfiltered delta --------

enum class StepKind { kDeleteHeavy, kUpdateHeavy, kInsertOnly };

/// One CRUD ladder step as the session hands it to the Validator: the old
/// rows that survive the step first (ids below `first_new`), then the batch
/// (inserts and the new versions of updates), and the old rows' minimal
/// FDs, which a confirmed tree over the step's data starts from.
struct CrudStep {
  Relation current;
  RecordId first_new = 0;
  FDSet old_fds;
};

CrudStep MakeStep(StepKind kind, NullSemantics nulls, uint64_t seed) {
  // Large enough that restricted tries exceed the splitter's grain at 4
  // threads, so the thread-invariance checks cover split tasks.
  const size_t base_rows = 3000;
  const size_t pool_rows = 100;
  GeneratorConfig gen;
  gen.rows = base_rows + pool_rows;
  gen.seed = seed;
  gen.columns = {ColumnSpec{.cardinality = 6},
                 ColumnSpec{.cardinality = 4, .null_rate = 0.05},
                 ColumnSpec{.cardinality = 5},
                 ColumnSpec{.cardinality = 30, .sources = {0, 1}},
                 ColumnSpec{.cardinality = 30, .sources = {1, 2}},
                 ColumnSpec{.cardinality = 8, .null_rate = 0.05},
                 ColumnSpec{.cardinality = 30, .sources = {2, 5}}};
  const Relation all = Generate(gen);
  using Row = std::vector<std::optional<std::string>>;
  const auto row_of = [&](size_t r) {
    Row row;
    for (int c = 0; c < all.num_columns(); ++c) {
      row.push_back(all.IsNull(r, c) ? std::nullopt
                                     : std::optional<std::string>(all.Value(r, c)));
    }
    return row;
  };
  std::mt19937_64 rng(seed * 31 + static_cast<uint64_t>(kind));
  std::vector<Row> survivors;
  std::vector<Row> batch;
  for (size_t r = 0; r < base_rows; ++r) {
    const uint64_t dice = rng() % 10;
    if (kind == StepKind::kDeleteHeavy && dice < 4) continue;
    if (kind == StepKind::kUpdateHeavy && dice < 3) {
      // The new version keeps the row but for one or two cells copied from
      // random rows: it shares codes with old rows and breaks some FDs.
      Row updated = row_of(r);
      for (int k = 0; k < 1 + static_cast<int>(rng() % 2); ++k) {
        const auto c = static_cast<size_t>(rng() % updated.size());
        updated[c] = row_of(rng() % all.num_rows())[c];
      }
      batch.push_back(std::move(updated));
      continue;
    }
    survivors.push_back(row_of(r));
  }
  const size_t inserts = kind == StepKind::kInsertOnly ? pool_rows : 10;
  for (size_t r = base_rows; r < base_rows + inserts; ++r) {
    batch.push_back(row_of(r));
  }
  CrudStep step;
  step.first_new = static_cast<RecordId>(survivors.size());
  HyFdConfig config;
  config.null_semantics = nulls;
  step.old_fds = DiscoverFds(Relation::FromRows(all.schema(), survivors), config);
  survivors.insert(survivors.end(), batch.begin(), batch.end());
  step.current = Relation::FromRows(all.schema(), survivors);
  return step;
}

/// The delta of `first_new`'s batch: per attribute, the clusters holding a
/// batch row (clusters ascend, so their last row tells).
Validator::ClusterDelta DeltaOf(const PreprocessedData& data,
                                RecordId first_new) {
  Validator::ClusterDelta delta;
  delta.first_new_record = first_new;
  for (const Pli& pli : data.plis) {
    std::vector<uint32_t>& touched = delta.touched.emplace_back();
    for (uint32_t ci = 0; ci < pli.clusters().size(); ++ci) {
      if (!pli.clusters()[ci].empty() &&
          pli.clusters()[ci].back() >= first_new) {
        touched.push_back(ci);
      }
    }
  }
  return delta;
}

struct DeltaRun {
  FDSet fds;
  std::vector<std::vector<std::pair<RecordId, RecordId>>> batches;
  size_t validations = 0;
  size_t restricted = 0;
  size_t invalidated = 0;
  uint64_t rows = 0;
  uint64_t kept = 0;
};

/// Validates `old_fds`, all confirmed, over the step's data in delta mode
/// until the tree is settled.
DeltaRun RunDelta(const PreprocessedData& data, const FDSet& old_fds,
                  const Validator::ClusterDelta& delta, ThreadPool* pool) {
  FDTree tree(data.num_attributes);
  for (const FD& fd : old_fds) tree.AddFd(fd.lhs, fd.rhs);
  tree.ConfirmAll();
  MetricsRegistry metrics;
  Validator validator(&data, &tree, 0.01, pool, nullptr, &metrics);
  validator.set_delta(&delta);
  DeltaRun run;
  while (true) {
    ValidatorResult result = validator.Run();
    run.batches.push_back(std::move(result.comparison_suggestions));
    if (result.done) break;
  }
  run.fds = tree.ToFdSet();
  run.validations = validator.total_validations();
  run.restricted = validator.restricted_validations();
  run.invalidated = validator.delta_invalidated();
  run.rows = metrics.GetCounter("validator.restricted_rows")->value();
  run.kept = metrics.GetCounter("validator.restricted_rows_kept")->value();
  return run;
}

TEST(ValidatorDeltaTest, BatchFilterMatchesAnUnfilteredDelta) {
  // The same ladder step validated twice: with the real delta, whose
  // first_new_record lets restricted walks drop batch-free groups, and with
  // a copy whose first_new_record is 0 (every row walked). Every observable
  // must agree; both row counters must be thread-count invariant.
  ThreadPool pool(4);
  size_t restricted = 0;
  size_t invalidated = 0;
  uint64_t dropped = 0;
  for (NullSemantics nulls :
       {NullSemantics::kNullEqualsNull, NullSemantics::kNullUnequal}) {
    for (StepKind kind : {StepKind::kDeleteHeavy, StepKind::kUpdateHeavy,
                          StepKind::kInsertOnly}) {
      const CrudStep step =
          MakeStep(kind, nulls, 7 + static_cast<uint64_t>(kind));
      const PreprocessedData data = Preprocess(step.current, nulls);
      const Validator::ClusterDelta delta = DeltaOf(data, step.first_new);
      Validator::ClusterDelta unfiltered = delta;
      unfiltered.first_new_record = 0;
      const FDSet truth = DiscoverFdsBruteForce(step.current, nulls);
      std::optional<DeltaRun> serial;
      std::optional<DeltaRun> serial_unfiltered;
      for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &pool}) {
        const std::string context =
            "kind " + std::to_string(static_cast<int>(kind)) +
            (nulls == NullSemantics::kNullUnequal ? " null!=null" : "") +
            (p != nullptr ? " threads=4" : " threads=1");
        const DeltaRun filtered = RunDelta(data, step.old_fds, delta, p);
        const DeltaRun full = RunDelta(data, step.old_fds, unfiltered, p);
        hyfd::testing::ExpectSameFds(full.fds, filtered.fds, context);
        hyfd::testing::ExpectSameFds(truth, filtered.fds,
                                     context + " vs brute force");
        EXPECT_EQ(full.batches, filtered.batches) << context;
        EXPECT_EQ(full.validations, filtered.validations) << context;
        EXPECT_EQ(full.restricted, filtered.restricted) << context;
        EXPECT_EQ(full.invalidated, filtered.invalidated) << context;
        EXPECT_EQ(full.rows, filtered.rows) << context;
        EXPECT_LE(filtered.kept, full.kept) << context;
        if (!serial) {
          serial = filtered;
          serial_unfiltered = full;
          restricted += filtered.restricted;
          invalidated += filtered.invalidated;
          dropped += full.kept - filtered.kept;
          continue;
        }
        EXPECT_EQ(serial->batches, filtered.batches) << context;
        EXPECT_EQ(serial->rows, filtered.rows) << context;
        EXPECT_EQ(serial->kept, filtered.kept) << context;
        EXPECT_EQ(serial_unfiltered->kept, full.kept) << context;
      }
    }
  }
  // Not vacuous: proven FDs were re-checked and broken, and the filter
  // dropped rows.
  EXPECT_GT(restricted, 0u);
  EXPECT_GT(invalidated, 0u);
  EXPECT_GT(dropped, 0u);
}

}  // namespace
}  // namespace hyfd
