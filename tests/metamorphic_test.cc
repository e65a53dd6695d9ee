// Metamorphic invariance suite over the full algorithm registry (plus the
// incremental session): transformations of the input relation with a known
// effect on the FD set.
//
//   * row shuffle          — FD validity is order-free: set unchanged;
//   * duplicate-row inject — a copy agrees with its twin on *every*
//                            attribute, so it can neither break nor create
//                            an FD: set unchanged;
//   * column permutation   — FDs are attribute-indexed: the set maps through
//                            the permutation, nothing appears or vanishes;
//   * all-distinct key add — K → A joins for every non-constant A, X → K
//                            joins for every minimal UCC X, everything else
//                            is untouched (predicted from the original
//                            relation alone).
//
// Every transform runs against every algorithm in AllAlgorithms() on small
// seeded relations (the registry includes row-quadratic and column-
// exponential baselines), TEST_P over seeds like property_test.cc.

#include <algorithm>
#include <numeric>
#include <optional>
#include <random>
#include <string>
#include <vector>

#include "baselines/registry.h"
#include "core/incremental.h"
#include "fd/reference.h"
#include "gtest/gtest.h"
#include "test_util.h"

namespace hyfd {
namespace {

std::vector<std::optional<std::string>> RowOf(const Relation& r, size_t row) {
  std::vector<std::optional<std::string>> out(
      static_cast<size_t>(r.num_columns()));
  for (int c = 0; c < r.num_columns(); ++c) {
    if (!r.IsNull(row, c)) out[static_cast<size_t>(c)] = r.Value(row, c);
  }
  return out;
}

Relation PermuteRows(const Relation& r, std::mt19937_64& rng) {
  std::vector<size_t> order(r.num_rows());
  std::iota(order.begin(), order.end(), size_t{0});
  std::shuffle(order.begin(), order.end(), rng);
  Relation out{Schema::Generic(r.num_columns())};
  for (size_t row : order) out.AppendRow(RowOf(r, row));
  return out;
}

Relation InjectDuplicates(const Relation& r, size_t copies,
                          std::mt19937_64& rng) {
  Relation out{Schema::Generic(r.num_columns())};
  for (size_t row = 0; row < r.num_rows(); ++row) out.AppendRow(RowOf(r, row));
  for (size_t i = 0; i < copies; ++i) out.AppendRow(RowOf(r, rng() % r.num_rows()));
  return out;
}

/// New column j holds old column `perm[j]`.
Relation PermuteColumns(const Relation& r, const std::vector<int>& perm) {
  Relation out{Schema::Generic(r.num_columns())};
  std::vector<std::optional<std::string>> row(
      static_cast<size_t>(r.num_columns()));
  for (size_t i = 0; i < r.num_rows(); ++i) {
    for (int j = 0; j < r.num_columns(); ++j) {
      const int old = perm[static_cast<size_t>(j)];
      row[static_cast<size_t>(j)] =
          r.IsNull(i, old) ? std::optional<std::string>{} : r.Value(i, old);
    }
    out.AppendRow(row);
  }
  return out;
}

/// Maps each FD through old-attribute → new-attribute index translation
/// (same width). `new_of[a]` is a's index in the transformed relation.
FDSet MapFds(const FDSet& fds, const std::vector<int>& new_of, int width) {
  std::vector<FD> mapped;
  for (const FD& fd : fds) {
    AttributeSet lhs(width);
    ForEachBit(fd.lhs, [&](int a) { lhs.Set(new_of[static_cast<size_t>(a)]); });
    mapped.emplace_back(lhs, new_of[static_cast<size_t>(fd.rhs)]);
  }
  return FDSet(std::move(mapped));
}

/// Appends an all-distinct key column (index m) to `r`.
Relation WithKeyColumn(const Relation& r) {
  const int m = r.num_columns();
  Relation out{Schema::Generic(m + 1)};
  for (size_t row = 0; row < r.num_rows(); ++row) {
    auto cells = RowOf(r, row);
    cells.emplace_back("key" + std::to_string(row));
    out.AppendRow(cells);
  }
  return out;
}

/// The predicted FD set of WithKeyColumn(r), computed from the original
/// relation alone: old FDs lifted to the wider schema, K → A for every
/// non-constant A (∅ → A generalizes it away otherwise), and X → K for every
/// minimal UCC X of r. Any other FD with K in its LHS has the valid
/// generalization K → A, so nothing else changes.
FDSet PredictKeyColumnFds(const FDSet& old_fds, const Relation& r) {
  const int m = r.num_columns();
  std::vector<FD> predicted;
  for (const FD& fd : old_fds) {
    AttributeSet lhs(m + 1);
    ForEachBit(fd.lhs, [&](int a) { lhs.Set(a); });
    predicted.emplace_back(lhs, fd.rhs);
  }
  for (int a = 0; a < m; ++a) {
    if (!old_fds.Contains(FD(AttributeSet(m), a))) {  // not a constant column
      predicted.emplace_back(AttributeSet(m + 1, {m}), a);
    }
  }
  for (const AttributeSet& ucc : testing::BruteForceUccs(r)) {
    AttributeSet lhs(m + 1);
    ForEachBit(ucc, [&](int a) { lhs.Set(a); });
    predicted.emplace_back(lhs, m);
  }
  return FDSet(std::move(predicted));
}

// ---------------------------------------------------------------------------
// Registry sweep: every algorithm × every metamorphic relation.
// ---------------------------------------------------------------------------

class MetamorphicRegistryTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(MetamorphicRegistryTest, RowShuffleLeavesFdsUnchanged) {
  const uint64_t seed = GetParam();
  Relation r = testing::RandomRelation(4, 40, seed, 3, /*null_rate=*/0.1);
  std::mt19937_64 rng(seed ^ 0x5DEECE66Dull);
  Relation shuffled = PermuteRows(r, rng);
  for (const AlgoInfo& algo : AllAlgorithms()) {
    AlgoOptions options;
    testing::ExpectSameFds(algo.run(r, options), algo.run(shuffled, options),
                           algo.name + " row shuffle");
  }
}

TEST_P(MetamorphicRegistryTest, DuplicateRowsLeaveFdsUnchanged) {
  const uint64_t seed = GetParam();
  Relation r = testing::RandomRelation(4, 40, seed, 3, /*null_rate=*/0.1);
  std::mt19937_64 rng(seed ^ 0xB5026F5AAull);
  Relation duplicated = InjectDuplicates(r, /*copies=*/12, rng);
  for (const AlgoInfo& algo : AllAlgorithms()) {
    AlgoOptions options;
    testing::ExpectSameFds(algo.run(r, options), algo.run(duplicated, options),
                           algo.name + " duplicate injection");
  }
}

TEST_P(MetamorphicRegistryTest, ColumnPermutationPermutesFds) {
  const uint64_t seed = GetParam();
  Relation r = testing::RandomRelation(5, 36, seed, 3, /*null_rate=*/0.1);
  const int m = r.num_columns();
  std::mt19937_64 rng(seed ^ 0x9E3779B9ull);
  std::vector<int> perm(static_cast<size_t>(m));  // new column j = old perm[j]
  std::iota(perm.begin(), perm.end(), 0);
  std::shuffle(perm.begin(), perm.end(), rng);
  std::vector<int> new_of(static_cast<size_t>(m));  // old attribute a → new index
  for (int j = 0; j < m; ++j) new_of[static_cast<size_t>(perm[j])] = j;

  Relation permuted = PermuteColumns(r, perm);
  for (const AlgoInfo& algo : AllAlgorithms()) {
    AlgoOptions options;
    FDSet expected = MapFds(algo.run(r, options), new_of, m);
    testing::ExpectSameFds(expected, algo.run(permuted, options),
                           algo.name + " column permutation");
  }
}

TEST_P(MetamorphicRegistryTest, KeyColumnAddsOnlyThePredictedFds) {
  const uint64_t seed = GetParam();
  // NULL-free keeps the UCC/constant-column prediction semantics-independent.
  Relation r = testing::RandomRelation(4, 36, seed, 3);
  Relation keyed = WithKeyColumn(r);
  FDSet old_fds = DiscoverFdsBruteForce(r);
  FDSet predicted = PredictKeyColumnFds(old_fds, r);
  for (const AlgoInfo& algo : AllAlgorithms()) {
    AlgoOptions options;
    testing::ExpectSameFds(predicted, algo.run(keyed, options),
                           algo.name + " key column");
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MetamorphicRegistryTest,
                         ::testing::Range(uint64_t{800}, uint64_t{804}));

// ---------------------------------------------------------------------------
// The incremental session under the same transformations: metamorphic inputs
// delivered as batches must land on the same FD sets.
// ---------------------------------------------------------------------------

class MetamorphicIncrementalTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(MetamorphicIncrementalTest, ShuffledBatchOrderLandsOnTheSameFds) {
  const uint64_t seed = GetParam();
  Relation r = testing::RandomRelation(4, 48, seed, 3, /*null_rate=*/0.1);
  std::mt19937_64 rng(seed ^ 0xA076152Full);
  Relation shuffled = PermuteRows(r, rng);

  auto grow_in_batches = [](const Relation& full) {
    IncrementalHyFd session(full.HeadRows(16));
    for (size_t from = 16; from < full.num_rows(); from += 16) {
      std::vector<std::vector<std::optional<std::string>>> batch;
      for (size_t row = from;
           row < std::min(from + 16, full.num_rows()); ++row) {
        batch.push_back(RowOf(full, row));
      }
      session.ApplyBatch(batch);
    }
    return session.fds();
  };
  testing::ExpectSameFds(grow_in_batches(r), grow_in_batches(shuffled),
                         "incremental row shuffle");
}

TEST_P(MetamorphicIncrementalTest, DuplicateBatchIsAFixpoint) {
  const uint64_t seed = GetParam();
  Relation r = testing::RandomRelation(4, 48, seed, 3, /*null_rate=*/0.1);
  IncrementalHyFd session(r);
  FDSet before = session.fds();
  std::mt19937_64 rng(seed ^ 0xD1B54A32ull);
  std::vector<std::vector<std::optional<std::string>>> batch;
  for (int i = 0; i < 10; ++i) batch.push_back(RowOf(r, rng() % r.num_rows()));
  testing::ExpectSameFds(before, session.ApplyBatch(batch),
                         "incremental duplicate batch");
}

TEST_P(MetamorphicIncrementalTest, DeleteThenReinsertIsAFixpoint) {
  // Deleting rows and re-inserting identical content must land on exactly
  // the FD set of the untouched session: FD validity sees values, never
  // physical ids or tombstone history.
  const uint64_t seed = GetParam();
  Relation r = testing::RandomRelation(4, 48, seed, 3, /*null_rate=*/0.1);
  IncrementalHyFd session(r);
  FDSet before = session.fds();
  std::mt19937_64 rng(seed ^ 0xC13FA9A9ull);

  std::vector<RecordId> victims;
  while (victims.size() < 8) {
    RecordId pick = static_cast<RecordId>(rng() % r.num_rows());
    if (std::find(victims.begin(), victims.end(), pick) == victims.end()) {
      victims.push_back(pick);
    }
  }
  std::vector<std::vector<std::optional<std::string>>> content;
  for (RecordId id : victims) content.push_back(RowOf(r, id));

  session.DeleteRows(victims);
  testing::ExpectSameFds(before, session.ApplyBatch(content),
                         "delete then reinsert");
  EXPECT_EQ(session.num_live_rows(), r.num_rows());
}

TEST_P(MetamorphicIncrementalTest, UpdateToSameValueIsAFixpoint) {
  // An update that rewrites rows to their current content is a logical
  // no-op: the old version dies, an identical one is born.
  const uint64_t seed = GetParam();
  Relation r = testing::RandomRelation(4, 48, seed, 3, /*null_rate=*/0.1);
  IncrementalHyFd session(r);
  FDSet before = session.fds();
  std::mt19937_64 rng(seed ^ 0x94D049BBull);

  std::vector<std::pair<RecordId, std::vector<std::optional<std::string>>>>
      updates;
  std::vector<RecordId> used;
  while (updates.size() < 6) {
    RecordId pick = static_cast<RecordId>(rng() % r.num_rows());
    if (std::find(used.begin(), used.end(), pick) != used.end()) continue;
    used.push_back(pick);
    updates.emplace_back(pick, RowOf(r, pick));
  }
  testing::ExpectSameFds(before, session.UpdateRows(updates),
                         "update to same value");
  EXPECT_EQ(session.num_live_rows(), r.num_rows());
}

INSTANTIATE_TEST_SUITE_P(Seeds, MetamorphicIncrementalTest,
                         ::testing::Range(uint64_t{820}, uint64_t{826}));

}  // namespace
}  // namespace hyfd
