// Differential sweep for IncrementalHyFd (the "incremental" ctest label):
// for seeded generated relations, apply k random row batches and assert the
// incremental FD set is identical to a from-scratch HyFD run on the
// concatenated relation — and to the brute-force oracle on small inputs —
// after EVERY batch, under thread counts {1, 8} and both NULL semantics.
// This is the equivalence guarantee DESIGN.md §9 promises.

#include "core/incremental.h"

#include <algorithm>
#include <memory>
#include <optional>
#include <random>
#include <string>
#include <vector>

#include "core/hyfd.h"
#include "core/hyucc.h"
#include "data/datasets.h"
#include "data/generators.h"
#include "fd/reference.h"
#include "gtest/gtest.h"
#include "test_util.h"
#include "util/check.h"

namespace hyfd {
namespace {

std::vector<std::optional<std::string>> RowOf(const Relation& r, size_t row) {
  std::vector<std::optional<std::string>> out(
      static_cast<size_t>(r.num_columns()));
  for (int c = 0; c < r.num_columns(); ++c) {
    if (r.IsNull(row, c)) {
      out[static_cast<size_t>(c)] = std::nullopt;
    } else {
      out[static_cast<size_t>(c)] = r.Value(row, c);
    }
  }
  return out;
}

/// Rows [from, to) of `full` as one batch.
std::vector<std::vector<std::optional<std::string>>> Slice(const Relation& full,
                                                           size_t from,
                                                           size_t to) {
  std::vector<std::vector<std::optional<std::string>>> rows;
  rows.reserve(to - from);
  for (size_t r = from; r < to; ++r) rows.push_back(RowOf(full, r));
  return rows;
}

/// Splits `total` into `k` random positive parts (deterministic in rng).
std::vector<size_t> RandomSplit(size_t total, size_t k, std::mt19937_64& rng) {
  HYFD_CHECK(total >= k, "RandomSplit: not enough rows for the batch count");
  std::vector<size_t> sizes(k, 1);
  for (size_t left = total - k; left > 0; --left) ++sizes[rng() % k];
  return sizes;
}

/// The session's read-side answers from maintained state must equal the
/// one-shot answers on a copy of the live rows: MinimalUccs() against HyUcc
/// and the in-place live fingerprint against the copy's.
void ExpectLiveReadsMatch(const IncrementalHyFd& session, NullSemantics nulls,
                          const std::string& context) {
  HyUccConfig ucc_config;
  ucc_config.null_semantics = nulls;
  const Relation live = session.LiveRelation();
  EXPECT_EQ(session.MinimalUccs(), HyUcc(ucc_config).Discover(live))
      << context << ": UCCs differ from HyUcc";
  EXPECT_EQ(session.LiveContentFingerprint(), live.ContentFingerprint())
      << context << ": live fingerprint differs";
}

/// The full differential schedule: seed a session from a prefix of `full`,
/// apply the remaining rows in `num_batches` random batches, and after every
/// batch compare against from-scratch HyFD (and optionally brute force) on
/// the concatenated prefix.
void RunDifferentialSchedule(const Relation& full, size_t initial_rows,
                             size_t num_batches, IncrementalConfig config,
                             uint64_t seed, bool check_brute_force,
                             const std::string& context) {
  std::mt19937_64 rng(seed * 1013904223u + 12345u);
  IncrementalHyFd session(full.HeadRows(initial_rows), config);

  HyFdConfig scratch_config;
  scratch_config.null_semantics = config.null_semantics;
  {
    FDSet scratch = DiscoverFds(full.HeadRows(initial_rows), scratch_config);
    testing::ExpectSameFds(scratch, session.fds(), context + " seed run");
  }

  size_t applied = initial_rows;
  const std::vector<size_t> sizes =
      RandomSplit(full.num_rows() - initial_rows, num_batches, rng);
  for (size_t b = 0; b < sizes.size(); ++b) {
    const FDSet& incremental =
        session.ApplyBatch(Slice(full, applied, applied + sizes[b]));
    applied += sizes[b];

    const std::string batch_context =
        context + " batch " + std::to_string(b + 1) + "/" +
        std::to_string(sizes.size()) + " (rows=" + std::to_string(applied) +
        ")";
    FDSet scratch = DiscoverFds(full.HeadRows(applied), scratch_config);
    testing::ExpectSameFds(scratch, incremental, batch_context);
    if (check_brute_force) {
      FDSet brute = DiscoverFdsBruteForce(full.HeadRows(applied),
                                          config.null_semantics);
      testing::ExpectSameFds(brute, incremental, batch_context + " vs oracle");
    }
  }
  EXPECT_EQ(applied, full.num_rows());
  EXPECT_EQ(session.num_batches(), static_cast<int>(num_batches));
  EXPECT_EQ(session.relation().num_rows(), full.num_rows());
}

// ---------------------------------------------------------------------------
// The acceptance-criteria matrix: seeds × threads {1, 8}.
// ---------------------------------------------------------------------------

class IncrementalDifferentialTest : public ::testing::TestWithParam<uint64_t> {
};

TEST_P(IncrementalDifferentialTest, MatchesFromScratchAfterEveryBatch) {
  const uint64_t seed = GetParam();
  Relation full = testing::RandomRelation(5, 120, seed, 3);
  for (int threads : {1, 8}) {
    IncrementalConfig config;
    config.num_threads = threads;
    RunDifferentialSchedule(full, /*initial_rows=*/60, /*num_batches=*/4,
                            config, seed, /*check_brute_force=*/true,
                            "threads=" + std::to_string(threads));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, IncrementalDifferentialTest,
                         ::testing::Range(uint64_t{700}, uint64_t{708}));

// NULL handling: the batch classifier must keep NULL apart from "" and honor
// both null semantics (NULL == NULL clusters grow; NULL ≠ NULL stays a
// stripped singleton forever).
class IncrementalNullSemanticsTest : public ::testing::TestWithParam<uint64_t> {
};

TEST_P(IncrementalNullSemanticsTest, BothSemanticsMatchFromScratch) {
  const uint64_t seed = GetParam();
  Relation full = testing::RandomRelation(4, 90, seed, 3, /*null_rate=*/0.2);
  for (NullSemantics nulls :
       {NullSemantics::kNullEqualsNull, NullSemantics::kNullUnequal}) {
    IncrementalConfig config;
    config.null_semantics = nulls;
    RunDifferentialSchedule(
        full, /*initial_rows=*/40, /*num_batches=*/3, config, seed,
        /*check_brute_force=*/true,
        nulls == NullSemantics::kNullEqualsNull ? "null==null" : "null!=null");
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, IncrementalNullSemanticsTest,
                         ::testing::Range(uint64_t{720}, uint64_t{726}));

// Generated data with planted FDs, skew, and a key column — closer to the
// bench ladder's shape than the uniform RandomRelation.
class IncrementalGeneratedTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(IncrementalGeneratedTest, PlantedFdDataMatchesFromScratch) {
  GeneratorConfig gen;
  gen.rows = 300;
  gen.seed = GetParam();
  gen.columns = {
      {.cardinality = 6},
      {.cardinality = 9, .distribution = Distribution::kZipf},
      {.cardinality = 4, .null_rate = 0.05},
      {.cardinality = 0},  // key column
      {.cardinality = 5, .sources = {0, 1}},
      {.cardinality = 7, .sources = {2}},
  };
  Relation full = Generate(gen);
  IncrementalConfig config;
  config.num_threads = 8;
  RunDifferentialSchedule(full, /*initial_rows=*/200, /*num_batches=*/5,
                          config, GetParam(), /*check_brute_force=*/false,
                          "generated");
}

INSTANTIATE_TEST_SUITE_P(Seeds, IncrementalGeneratedTest,
                         ::testing::Range(uint64_t{740}, uint64_t{744}));

// ---------------------------------------------------------------------------
// Edge cases and session bookkeeping.
// ---------------------------------------------------------------------------

TEST(IncrementalEdgeTest, EmptyBatchIsANoOp) {
  Relation r = testing::RandomRelation(4, 50, 11, 3);
  IncrementalHyFd session(r);
  FDSet before = session.fds();
  const FDSet& after = session.ApplyBatch({});
  testing::ExpectSameFds(before, after, "empty batch");
  EXPECT_EQ(session.num_batches(), 1);
  EXPECT_EQ(session.report().FindCounter("incremental.batch_rows"), 0u);
  EXPECT_EQ(session.relation().num_rows(), 50u);
}

TEST(IncrementalEdgeTest, DuplicateRowBatchLeavesFdsUnchanged) {
  Relation r = testing::RandomRelation(4, 50, 12, 3);
  IncrementalHyFd session(r);
  FDSet before = session.fds();
  // Exact copies of existing rows agree on every attribute with their twin,
  // so they can never break an FD: the set must survive bit-identically.
  const FDSet& after = session.ApplyBatch(Slice(r, 10, 20));
  testing::ExpectSameFds(before, after, "duplicate rows");
  Relation grown = r;
  for (size_t row = 10; row < 20; ++row) grown.AppendRow(RowOf(r, row));
  testing::ExpectSameFds(DiscoverFds(grown), after,
                         "duplicate rows vs from-scratch");
}

TEST(IncrementalEdgeTest, SingleRowInitialRelation) {
  Relation full = testing::RandomRelation(4, 40, 13, 3);
  IncrementalConfig config;
  RunDifferentialSchedule(full, /*initial_rows=*/1, /*num_batches=*/3, config,
                          13, /*check_brute_force=*/true, "1-row seed");
}

TEST(IncrementalEdgeTest, SingleRowBatches) {
  Relation full = testing::RandomRelation(4, 30, 14, 3);
  IncrementalConfig config;
  // Every batch is exactly one row — the heaviest invalidation churn per
  // appended row the session can see.
  RunDifferentialSchedule(full, /*initial_rows=*/25, /*num_batches=*/5, config,
                          14, /*check_brute_force=*/true, "1-row batches");
}

TEST(IncrementalEdgeTest, AllDistinctBatchValues) {
  Relation r = testing::RandomRelation(3, 30, 15, 2);
  IncrementalHyFd session(r);
  // Brand-new values everywhere: every appended cell stays a singleton and
  // no cluster is touched. The only FDs such a batch can break are the
  // empty-LHS ones — a constant column stops being constant (the restricted
  // empty-LHS check is a full IsConstant recheck, not cluster-driven).
  size_t constant_columns = 0;
  for (const FD& fd : session.fds()) {
    if (fd.lhs.Empty()) ++constant_columns;
  }
  std::vector<std::vector<std::optional<std::string>>> batch;
  for (int i = 0; i < 5; ++i) {
    batch.push_back({std::string("fresh") + std::to_string(3 * i),
                     std::string("fresh") + std::to_string(3 * i + 1),
                     std::string("fresh") + std::to_string(3 * i + 2)});
  }
  const FDSet& got = session.ApplyBatch(batch);
  EXPECT_EQ(session.last_batch_stats().touched_clusters, 0u);
  EXPECT_EQ(session.report().FindCounter("incremental.fds_invalidated"),
            constant_columns);
  Relation grown = r;
  for (const auto& row : batch) grown.AppendRow(row);
  testing::ExpectSameFds(DiscoverFds(grown), got, "all-distinct batch");
}

TEST(IncrementalEdgeTest, SampledPairBreaksConfirmedFds) {
  // a is a key, so a -> b and a -> c are proven. The new row repeats a = 1
  // with other b and c values: targeted matching pairs it with row 0, and
  // the Inductor — not the Validator — removes both proofs.
  Relation r = Relation::FromStringRows(
      Schema({"a", "b", "c"}), {{"1", "x", "p"}, {"2", "y", "q"},
                                {"3", "z", "p"}});
  IncrementalHyFd session(r);
  const FDSet& got = session.ApplyBatchStrings({{"1", "w", "q"}});
  EXPECT_EQ(session.report().FindCounter("incremental.fds_invalidated"), 2u);
  r.AppendRow({std::string("1"), std::string("w"), std::string("q")});
  testing::ExpectSameFds(DiscoverFds(r), got, "sampled pair");
}

TEST(IncrementalEdgeTest, WidthMismatchRejectsWholeBatch) {
  Relation r = testing::RandomRelation(3, 20, 16, 3);
  IncrementalHyFd session(r);
  std::vector<std::vector<std::optional<std::string>>> batch = {
      {std::string("a"), std::string("b"), std::string("c")},
      {std::string("a"), std::string("b")},  // too narrow
  };
  EXPECT_THROW(session.ApplyBatch(batch), ContractViolation);
  // Nothing was appended: the session still answers for the original rows.
  EXPECT_EQ(session.relation().num_rows(), 20u);
  testing::ExpectSameFds(DiscoverFds(r), session.fds(), "after rejected batch");
  // And the session is still usable.
  session.ApplyBatchStrings({{"a", "b", "c"}});
  EXPECT_EQ(session.relation().num_rows(), 21u);
}

TEST(IncrementalEdgeTest, BatchScheduleOrderInvariance) {
  // The same rows partitioned into different batch schedules end at the same
  // FD set (each schedule equals the from-scratch answer; comparing the two
  // sessions pins the user-visible consequence directly).
  Relation full = testing::RandomRelation(4, 60, 17, 3);
  IncrementalHyFd one(full.HeadRows(20));
  one.ApplyBatch(Slice(full, 20, 60));
  IncrementalHyFd many(full.HeadRows(20));
  for (size_t from = 20; from < 60; from += 8) {
    many.ApplyBatch(Slice(full, from, std::min<size_t>(from + 8, 60)));
  }
  testing::ExpectSameFds(one.fds(), many.fds(), "one batch vs five");
}

TEST(IncrementalStatsTest, CountersAndReportTrackTheBatch) {
  // Domains up to 10 over 5 columns: the minimal FDs include multi-attribute
  // LHSs that the batch leaves intact, so re-proving them takes restricted
  // tries over the touched clusters rather than a level-0 constant check.
  Relation full = testing::RandomRelation(5, 100, 27, 10);
  IncrementalHyFd session(full.HeadRows(80));
  EXPECT_EQ(session.report().algorithm, "hyfd_incremental");
  const FDSet before = session.fds();

  session.ApplyBatch(Slice(full, 80, 100));
  const RunReport& report = session.report();
  EXPECT_EQ(report.FindCounter("incremental.batch_rows"), 20u);
  size_t inherited_multi = 0;
  for (const FD& fd : session.fds()) {
    if (fd.lhs.Count() >= 2 && before.Contains(fd)) ++inherited_multi;
  }
  ASSERT_GT(inherited_multi, 0u) << "no multi-attribute FD survived the batch";
  // Value collisions make the batch touch clusters, and the inherited FDs
  // are re-proven via the restricted path, whose walks keep some — not all
  // — of the touched clusters' rows: only those that can pair with a batch
  // row.
  EXPECT_GT(session.last_batch_stats().touched_clusters, 0u);
  EXPECT_GT(report.FindCounter("incremental.fds_revalidated"), 0u);
  const uint64_t rows = report.FindCounter("validator.restricted_rows").value();
  const uint64_t kept =
      report.FindCounter("validator.restricted_rows_kept").value();
  EXPECT_GT(kept, 0u);
  EXPECT_LT(kept, rows);
  EXPECT_EQ(report.rows, 100u);
  EXPECT_EQ(report.result_count, session.fds().size());
  EXPECT_TRUE(RunReport::ValidateJsonSchema(report.ToJson()).empty());
}

// HyFd::Discover and the session's seed run the same hybrid loop, so on the
// same relation they report the same FDs and component counters.
TEST(IncrementalStatsTest, SeedRunsTheSameLoopAsHyFd) {
  for (const DatasetSpec& spec : PaperDatasets()) {
    const Relation relation =
        MakeDataset(spec.name, std::min<size_t>(spec.default_rows, 300),
                    std::min(spec.columns, 10));
    for (int threads : {1, 4}) {
      const std::string context =
          spec.name + " threads=" + std::to_string(threads);
      HyFdConfig hyfd_config;
      hyfd_config.num_threads = threads;
      HyFd hyfd(hyfd_config);
      const FDSet fds = hyfd.Discover(relation);
      IncrementalConfig config;
      config.num_threads = threads;
      const IncrementalHyFd session(relation, config);
      testing::ExpectSameFds(fds, session.fds(), context);

      for (const char* name :
           {"validator.candidates", "validator.levels",
            "inductor.non_fds_folded", "sampler.comparisons"}) {
        const std::optional<uint64_t> want = hyfd.report().FindCounter(name);
        ASSERT_TRUE(want.has_value()) << context << " " << name;
        EXPECT_EQ(session.report().FindCounter(name), want)
            << context << " " << name;
      }
      const RunReport& want = hyfd.report();
      const RunReport& got = session.report();
      EXPECT_EQ(got.FindCounter("incremental.phase_switches"),
                want.FindCounter("hyfd.phase_switches"))
          << context;
      EXPECT_EQ(got.FindCounter("incremental.validations"),
                want.FindCounter("hyfd.validations"))
          << context;
      // The session's count adds the pairs of its final witness fold to the
      // Sampler's comparisons.
      EXPECT_EQ(want.FindCounter("sampler.comparisons"),
                want.FindCounter("hyfd.comparisons"))
          << context;
      EXPECT_GE(got.FindCounter("incremental.comparisons"),
                want.FindCounter("hyfd.comparisons"))
          << context;
    }
  }
}

// ---------------------------------------------------------------------------
// CRUD differential: random append/delete/update ladders against from-scratch
// discovery (and the brute-force oracle) on the *live* rows.
// ---------------------------------------------------------------------------

using Row = std::vector<std::optional<std::string>>;

/// Seeds a session, then drives `num_steps` random operations — insert a
/// slice of `full`'s unused tail, delete random live rows, or update random
/// live rows to other rows' content — while mirroring the live rows in a
/// plain model. After every step the session's FD set must equal a
/// from-scratch run (and optionally the brute-force oracle) on the model.
void RunCrudSchedule(const Relation& full, size_t initial_rows,
                     size_t num_steps, IncrementalConfig config, uint64_t seed,
                     bool check_brute_force, const std::string& context) {
  std::mt19937_64 rng(seed * 2654435761u + 99u);
  IncrementalHyFd session(full.HeadRows(initial_rows), config);
  HyFdConfig scratch_config;
  scratch_config.null_semantics = config.null_semantics;

  // The model: (session physical id, row content) of every live row.
  std::vector<std::pair<RecordId, Row>> live;
  for (size_t r = 0; r < initial_rows; ++r) {
    live.emplace_back(static_cast<RecordId>(r), RowOf(full, r));
  }
  size_t next_source = initial_rows;  // next unused row of `full`
  ExpectLiveReadsMatch(session, config.null_semantics, context + " seed");

  const auto check = [&](const FDSet& got, const std::string& step_context) {
    std::vector<Row> rows;
    rows.reserve(live.size());
    for (const auto& [id, row] : live) rows.push_back(row);
    Relation model = Relation::FromRows(full.schema(), rows);
    FDSet scratch = DiscoverFds(model, scratch_config);
    testing::ExpectSameFds(scratch, got, step_context);
    if (check_brute_force) {
      FDSet brute = DiscoverFdsBruteForce(model, config.null_semantics);
      testing::ExpectSameFds(brute, got, step_context + " vs oracle");
    }
    EXPECT_EQ(session.num_live_rows(), live.size()) << step_context;
    ExpectLiveReadsMatch(session, config.null_semantics, step_context);
    for (const auto& [id, row] : live) {
      EXPECT_TRUE(session.IsRowLive(id)) << step_context;
    }
  };

  // Moves `k` random live entries to the tail of `live` and returns their
  // (distinct) physical ids, in tail order.
  const auto pick_tail = [&](size_t k) {
    std::vector<RecordId> ids;
    for (size_t i = 0; i < k; ++i) {
      const size_t pick = rng() % (live.size() - i);
      std::swap(live[pick], live[live.size() - 1 - i]);
    }
    for (size_t i = live.size() - k; i < live.size(); ++i) {
      ids.push_back(live[i].first);
    }
    return ids;
  };

  for (size_t step = 0; step < num_steps; ++step) {
    const std::string step_context =
        context + " step " + std::to_string(step + 1);
    const int op = static_cast<int>(rng() % 4);
    if (op == 3 && live.size() > 5 && next_source + 2 <= full.num_rows()) {
      // Mixed batch through the single-repair-pass path: 2 inserts, 2
      // deletes, 2 updates in one ApplyMixed call. Session id order:
      // inserts first, then the updates' fresh versions.
      const std::vector<RecordId> victims = pick_tail(4);
      std::vector<RecordId> deletes(victims.begin(), victims.begin() + 2);
      std::vector<std::pair<RecordId, Row>> updates;
      updates.emplace_back(victims[2], RowOf(full, rng() % full.num_rows()));
      updates.emplace_back(victims[3], RowOf(full, rng() % full.num_rows()));
      auto inserts = Slice(full, next_source, next_source + 2);
      next_source += 2;

      const RecordId base = static_cast<RecordId>(session.relation().num_rows());
      // pick_tail left victims[0..3] in tail order; entries for victims[0,1]
      // (the deletes) sit at positions live.size()-4 and live.size()-3.
      live.erase(live.end() - 4, live.end() - 2);
      live.emplace_back(base, inserts[0]);
      live.emplace_back(base + 1, inserts[1]);
      // The update victims' entries were at the (old) tail; rewrite them.
      live[live.size() - 4] = {base + 2, updates[0].second};
      live[live.size() - 3] = {base + 3, updates[1].second};
      check(session.ApplyMixed(inserts, deletes, updates),
            step_context + " mixed");
      for (RecordId id : victims) EXPECT_FALSE(session.IsRowLive(id));
    } else if (op == 0 && next_source < full.num_rows()) {
      const size_t k =
          1 + rng() % std::min<size_t>(5, full.num_rows() - next_source);
      const RecordId base = static_cast<RecordId>(session.relation().num_rows());
      auto batch = Slice(full, next_source, next_source + k);
      for (size_t i = 0; i < k; ++i) {
        live.emplace_back(base + static_cast<RecordId>(i), batch[i]);
      }
      next_source += k;
      check(session.ApplyBatch(batch), step_context + " insert");
    } else if (op == 1 && live.size() > 3) {
      const size_t k = 1 + rng() % std::min<size_t>(5, live.size() - 2);
      const std::vector<RecordId> ids = pick_tail(k);
      live.resize(live.size() - k);
      check(session.DeleteRows(ids), step_context + " delete");
      EXPECT_EQ(session.report().FindCounter("incremental.deleted_rows"), k)
          << step_context;
      for (RecordId id : ids) EXPECT_FALSE(session.IsRowLive(id));
    } else if (live.size() > 1) {
      const size_t k = 1 + rng() % std::min<size_t>(4, live.size() - 1);
      const std::vector<RecordId> ids = pick_tail(k);
      std::vector<std::pair<RecordId, Row>> updates;
      for (RecordId id : ids) {
        updates.emplace_back(id, RowOf(full, rng() % full.num_rows()));
      }
      // ApplyMixed appends the new versions in update order, so the i-th
      // update's fresh row gets physical id base + i.
      const RecordId base = static_cast<RecordId>(session.relation().num_rows());
      for (size_t i = 0; i < k; ++i) {
        live[live.size() - k + i] = {base + static_cast<RecordId>(i),
                                     updates[i].second};
      }
      check(session.UpdateRows(updates), step_context + " update");
      for (RecordId id : ids) EXPECT_FALSE(session.IsRowLive(id));
    }
  }
}

// The acceptance-criteria matrix: seeds × threads {1, 8}, brute-force
// checked after every step.
class IncrementalCrudDifferentialTest
    : public ::testing::TestWithParam<uint64_t> {};

TEST_P(IncrementalCrudDifferentialTest, MatchesFromScratchAfterEveryStep) {
  const uint64_t seed = GetParam();
  Relation full = testing::RandomRelation(5, 140, seed, 3);
  for (int threads : {1, 8}) {
    IncrementalConfig config;
    config.num_threads = threads;
    RunCrudSchedule(full, /*initial_rows=*/70, /*num_steps=*/8, config, seed,
                    /*check_brute_force=*/true,
                    "crud threads=" + std::to_string(threads));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, IncrementalCrudDifferentialTest,
                         ::testing::Range(uint64_t{800}, uint64_t{806}));

// Deletes/updates under both NULL semantics: a dead NULL singleton or a
// demoted NULL cluster must update the per-column NULL bookkeeping exactly
// like a coded value.
class IncrementalCrudNullSemanticsTest
    : public ::testing::TestWithParam<uint64_t> {};

TEST_P(IncrementalCrudNullSemanticsTest, BothSemanticsMatchFromScratch) {
  const uint64_t seed = GetParam();
  Relation full = testing::RandomRelation(4, 100, seed, 3, /*null_rate=*/0.2);
  for (NullSemantics nulls :
       {NullSemantics::kNullEqualsNull, NullSemantics::kNullUnequal}) {
    IncrementalConfig config;
    config.null_semantics = nulls;
    RunCrudSchedule(full, /*initial_rows=*/50, /*num_steps=*/8, config, seed,
                    /*check_brute_force=*/true,
                    nulls == NullSemantics::kNullEqualsNull
                        ? "crud null==null"
                        : "crud null!=null");
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, IncrementalCrudNullSemanticsTest,
                         ::testing::Range(uint64_t{810}, uint64_t{814}));

// The ladders above mostly carry duplicate rows (no UCC at all). Domains of
// up to 20 values keep the live rows distinct: every seed below has 4–11
// minimal UCCs, so the FD-tree walk has keys to find.
class IncrementalUccLadderTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(IncrementalUccLadderTest, DerivedUccsMatchHyUccAfterEveryStep) {
  const uint64_t seed = GetParam();
  Relation full = testing::RandomRelation(6, 120, seed, 20, /*null_rate=*/0.1);
  for (NullSemantics nulls :
       {NullSemantics::kNullEqualsNull, NullSemantics::kNullUnequal}) {
    for (int threads : {1, 8}) {
      IncrementalConfig config;
      config.null_semantics = nulls;
      config.num_threads = threads;
      RunCrudSchedule(full, /*initial_rows=*/60, /*num_steps=*/8, config, seed,
                      /*check_brute_force=*/false,
                      std::string("ucc ladder ") +
                          (nulls == NullSemantics::kNullEqualsNull
                               ? "null==null"
                               : "null!=null") +
                          " threads=" + std::to_string(threads));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, IncrementalUccLadderTest,
                         ::testing::Range(uint64_t{830}, uint64_t{834}));

TEST(IncrementalUccTest, TinyTablesAndDuplicatesMatchHyUcc) {
  using Rows = std::vector<Row>;
  const std::optional<std::string> null;
  for (NullSemantics nulls :
       {NullSemantics::kNullEqualsNull, NullSemantics::kNullUnequal}) {
    const std::string label =
        nulls == NullSemantics::kNullEqualsNull ? "null==null" : "null!=null";
    IncrementalConfig config;
    config.null_semantics = nulls;
    const AttributeSet none(3);

    IncrementalHyFd session(Relation::FromRows(Schema::Generic(3), {}), config);
    ExpectLiveReadsMatch(session, nulls, label + " 0 rows");
    EXPECT_EQ(session.MinimalUccs(), std::vector<AttributeSet>{none});
    session.ApplyBatchStrings({{"a", "b", "c"}});
    ExpectLiveReadsMatch(session, nulls, label + " 1 row");
    EXPECT_EQ(session.MinimalUccs(), std::vector<AttributeSet>{none});

    session.ApplyBatchStrings({{"a", "x", "y"}, {"z", "b", "y"}});
    ExpectLiveReadsMatch(session, nulls, label + " distinct rows");
    EXPECT_FALSE(session.MinimalUccs().empty());

    // An update that copies row 0 creates a duplicate: nothing is unique.
    session.UpdateRows({{RecordId{2}, Row{"a", "b", "c"}}});
    ExpectLiveReadsMatch(session, nulls, label + " update duplicate");
    EXPECT_TRUE(session.MinimalUccs().empty());
    // Deleting one twin removes it again.
    session.DeleteRows({RecordId{0}});
    ExpectLiveReadsMatch(session, nulls, label + " delete duplicate");
    EXPECT_FALSE(session.MinimalUccs().empty());

    // Rows equal only through their NULLs: duplicates iff NULL == NULL.
    IncrementalHyFd nulled(
        Relation::FromRows(Schema::Generic(3), Rows{{null, "p", null},
                                                    {null, "p", null},
                                                    {"q", "r", "s"},
                                                    {null, null, null},
                                                    {null, null, null}}),
        config);
    ExpectLiveReadsMatch(nulled, nulls, label + " NULL duplicates");
    EXPECT_EQ(nulled.MinimalUccs().empty(),
              nulls == NullSemantics::kNullEqualsNull);
  }
}

/// One ApplyMixed call of a fixed schedule.
struct FixedStep {
  std::vector<Row> inserts;
  std::vector<RecordId> deletes;
};

/// Seeds a session with `seed_rows` and applies `steps` in order. After the
/// seed and after every step the FD set must equal from-scratch HyFD and the
/// brute-force oracle on the live rows, under both NULL semantics and at 1
/// and 4 threads, and every row id ever issued must still name the row it
/// was issued for (ids never move; inserts take the next ids in order).
void RunFixedSchedule(const std::vector<Row>& seed_rows,
                      const std::vector<FixedStep>& steps,
                      const std::string& context) {
  const Schema schema = Schema::Generic(static_cast<int>(seed_rows[0].size()));
  for (int threads : {1, 4}) {
    for (NullSemantics nulls :
         {NullSemantics::kNullEqualsNull, NullSemantics::kNullUnequal}) {
      IncrementalConfig config;
      config.null_semantics = nulls;
      config.num_threads = threads;
      HyFdConfig scratch_config;
      scratch_config.null_semantics = nulls;
      IncrementalHyFd session(Relation::FromRows(schema, seed_rows), config);
      std::vector<Row> by_id = seed_rows;
      std::vector<uint8_t> alive(seed_rows.size(), 1);
      const std::string label =
          context +
          (nulls == NullSemantics::kNullEqualsNull ? " null==null"
                                                   : " null!=null") +
          " threads=" + std::to_string(threads);
      const auto check = [&](const std::string& step_context) {
        std::vector<Row> rows;
        for (size_t id = 0; id < by_id.size(); ++id) {
          if (alive[id] != 0) rows.push_back(by_id[id]);
        }
        const Relation model = Relation::FromRows(schema, rows);
        testing::ExpectSameFds(DiscoverFds(model, scratch_config),
                               session.fds(), step_context);
        testing::ExpectSameFds(DiscoverFdsBruteForce(model, nulls),
                               session.fds(), step_context + " vs oracle");
        ExpectLiveReadsMatch(session, nulls, step_context);
        ASSERT_EQ(session.relation().num_rows(), by_id.size()) << step_context;
        for (size_t id = 0; id < by_id.size(); ++id) {
          EXPECT_EQ(session.IsRowLive(static_cast<RecordId>(id)),
                    alive[id] != 0)
              << step_context << " id " << id;
          EXPECT_EQ(RowOf(session.relation(), id), by_id[id])
              << step_context << " id " << id;
        }
      };
      check(label + " seed");
      for (size_t s = 0; s < steps.size(); ++s) {
        session.ApplyMixed(steps[s].inserts, steps[s].deletes, {});
        for (RecordId id : steps[s].deletes) alive[id] = 0;
        for (const Row& row : steps[s].inserts) {
          by_id.push_back(row);
          alive.push_back(1);
        }
        check(label + " step " + std::to_string(s + 1));
      }
    }
  }
}

// Spellings of one number or date are distinct values: "07" and "7" seed
// the session as two values, and later cells such as "n/a", "1.50", "1.5"
// and "7.0" only add values. Every batch grows in place — row ids never move
// — and equals from-scratch discovery, through deletes, a step to zero live
// rows and the refill after it.
TEST(IncrementalCrudTest, RespellingLadderGrowsInPlace) {
  const std::optional<std::string> null;
  RunFixedSchedule({{"07", "x", null},
                    {"7", "y", null},
                    {"8", "x", "5"},
                    {"9", "y", null}},
                   {{{}, {2}},
                    {{{"10", "1.50", null}, {"11", "n/a", null}}, {}},
                    {{}, {5}},
                    {{{"n/a", "z", null}}, {3}},
                    {{{"07", "y", "1.5"}, {"7.0", "1.5", null}}, {6}},
                    {{{"7", "1.50", "5"}}, {1}},
                    {{}, {0, 4, 7, 8, 9}},
                    {{{"007", "1.50", "5"}, {"7", "1.5", null}}, {}}},
                   "respellings");
}

// Deleting row 1 demotes one of the two slots in columns a, b and c, and d's
// NULL slot under NULL == NULL: one empty slot of two crosses the compaction
// threshold, so the second slot of a and b is renumbered to 0. The inserts
// then join the renumbered slots, and equal values must find the demoted
// survivors (row 0 in a and d, row 3 in c) — the (1, r) insert breaks a -> b
// only through row 0.
TEST(IncrementalCrudTest, CompactionRenumbersSlotsUnderNewRows) {
  const std::optional<std::string> null;
  RunFixedSchedule({{"1", "p", "u", null},
                    {"1", "p", "v", null},
                    {"2", "q", "u", "x"},
                    {"2", "q", "v", "x"},
                    {"2", "q", "w", "x"}},
                   {{{}, {1}},
                    {{{"2", "q", "w", "x"}, {"1", "r", "u", null}}, {}},
                    {{{"1", "p", "v", null}}, {}}},
                   "compaction");
}

// Deleting rows 0 and 1 empties one of four slots in a and in c (NULL under
// NULL == NULL): below the threshold, so the empty slots stay in place. The
// emptied values' next rows must start as singletons, and the one after
// that promotes them into a new cluster (breaking a -> b).
TEST(IncrementalCrudTest, EmptySlotBelowThresholdRestartsItsValue) {
  const std::optional<std::string> null;
  RunFixedSchedule({{"1", "p", null},
                    {"1", "q", null},
                    {"2", "p", "u"},
                    {"2", "q", "u"},
                    {"3", "p", "v"},
                    {"3", "q", "v"},
                    {"4", "p", "w"},
                    {"4", "q", "w"}},
                   {{{}, {0, 1}},
                    {{{"1", "q", null}}, {}},
                    {{{"1", "p", null}}, {}}},
                   "empty slot");
}

// Rows 0 and 3 bound the a = 1 and NULL clusters, so whichever row stands
// for the value dies while the clusters survive. Equal inserts must join
// them (breaking a -> b), also when the dying row and the insert share one
// ApplyMixed call.
TEST(IncrementalCrudTest, DeadValueRowMovesOntoASurvivor) {
  const std::optional<std::string> null;
  RunFixedSchedule({{"1", "p", null},
                    {"1", "p", null},
                    {"1", "p", null},
                    {"1", "p", null},
                    {"2", "q", "x"},
                    {"2", "q", "y"}},
                   {{{}, {0, 3}},
                    {{{"1", "s", null}}, {}},
                    {{{"1", "t", null}}, {1}}},
                   "dead value row");
}

TEST(IncrementalCrudTest, DeleteMakesAnFdValid) {
  // A→B is violated only by the pair (row 0, row 1); deleting row 1 makes it
  // valid, so the repaired cover must *generalize* (B→A held throughout).
  Relation r = Relation::FromStringRows(
      Schema({"a", "b"}), {{"1", "x"}, {"1", "y"}, {"2", "z"}, {"3", "w"}});
  IncrementalHyFd session(r);
  FD a_to_b(AttributeSet(2, {0}), 1);
  EXPECT_FALSE(session.fds().Contains(a_to_b));

  session.DeleteRows({1});
  EXPECT_TRUE(session.fds().Contains(a_to_b));
  EXPECT_GE(session.last_batch_stats().fds_generalized, 1u);
  EXPECT_EQ(session.num_live_rows(), 3u);
  Relation expected = Relation::FromStringRows(
      Schema({"a", "b"}), {{"1", "x"}, {"2", "z"}, {"3", "w"}});
  testing::ExpectSameFds(DiscoverFds(expected), session.fds(),
                         "after deleting the violating row");
}

TEST(IncrementalCrudTest, DeleteDownToOneRowAndRecover) {
  Relation full = testing::RandomRelation(3, 20, 818, 2);
  IncrementalHyFd session(full);
  std::vector<RecordId> all_but_one;
  for (RecordId id = 1; id < 20; ++id) all_but_one.push_back(id);
  const FDSet& fds = session.DeleteRows(all_but_one);
  EXPECT_EQ(session.num_live_rows(), 1u);
  // One live row: every attribute is constant, so ∅ → A for all A.
  testing::ExpectSameFds(DiscoverFds(full.HeadRows(1)), fds, "one live row");
  // The session keeps working: re-add rows and land on the right answer.
  const FDSet& regrown = session.ApplyBatch(Slice(full, 5, 15));
  Relation expected{full.schema()};
  expected.AppendRow(RowOf(full, 0));
  for (size_t r = 5; r < 15; ++r) expected.AppendRow(RowOf(full, r));
  testing::ExpectSameFds(DiscoverFds(expected), regrown, "regrown");
}

TEST(IncrementalCrudTest, BadIdsRejectTheWholeBatch) {
  Relation r = testing::RandomRelation(3, 20, 819, 3);
  IncrementalHyFd session(r);
  const FDSet before = session.fds();

  EXPECT_THROW(session.DeleteRows({RecordId{20}}), ContractViolation);
  EXPECT_THROW(session.DeleteRows({RecordId{3}, RecordId{3}}),
               ContractViolation);
  session.DeleteRows({RecordId{5}});
  EXPECT_THROW(session.DeleteRows({RecordId{5}}), ContractViolation);
  EXPECT_THROW(session.UpdateRows({{RecordId{5}, RowOf(r, 0)}}),
               ContractViolation);
  // Updating and deleting are one id space: a too-narrow update row is a
  // width violation even when the id is fine.
  EXPECT_THROW(
      session.UpdateRows({{RecordId{2}, {std::optional<std::string>("x")}}}),
      ContractViolation);
  EXPECT_THROW(session.IsRowLive(RecordId{1000}), ContractViolation);

  // Nothing of the rejected batches landed; the session still answers.
  EXPECT_EQ(session.num_live_rows(), 19u);
  EXPECT_FALSE(session.IsRowLive(RecordId{5}));
  std::vector<Row> rows;
  for (size_t row = 0; row < 20; ++row) {
    if (row != 5) rows.push_back(RowOf(r, row));
  }
  testing::ExpectSameFds(DiscoverFds(Relation::FromRows(r.schema(), rows)),
                         session.fds(), "after rejected batches");
}

TEST(IncrementalCrudTest, CrudStatsAndReportCounters) {
  Relation full = testing::RandomRelation(5, 100, 820, 3);
  IncrementalHyFd session(full.HeadRows(90));
  session.UpdateRows({{RecordId{3}, RowOf(full, 91)},
                      {RecordId{7}, RowOf(full, 92)}});
  EXPECT_EQ(session.report().FindCounter("incremental.batch_rows"), 2u);
  EXPECT_EQ(session.report().FindCounter("incremental.deleted_rows"), 2u);
  EXPECT_EQ(session.num_live_rows(), 90u);
  EXPECT_EQ(session.relation().num_rows(), 92u);  // ids never reused

  bool saw_deleted = false;
  bool saw_live = false;
  bool saw_candidates = false;
  bool saw_generalized = false;
  for (const auto& [name, value] : session.report().counters) {
    if (name == "incremental.deleted_rows") {
      saw_deleted = true;
      EXPECT_EQ(value, 2u);
    }
    if (name == "incremental.live_rows") {
      saw_live = true;
      EXPECT_EQ(value, 90u);
    }
    if (name == "incremental.generalization_candidates") saw_candidates = true;
    if (name == "incremental.fds_generalized") saw_generalized = true;
  }
  EXPECT_TRUE(saw_deleted);
  EXPECT_TRUE(saw_live);
  EXPECT_TRUE(saw_candidates);
  EXPECT_TRUE(saw_generalized);
  EXPECT_TRUE(RunReport::ValidateJsonSchema(session.report().ToJson()).empty());
}

TEST(IncrementalCrudTest, DeleteRepairIdenticalAcrossThreadCounts) {
  // The seed run's witnesses decide which agree sets a delete drops, and so
  // the repair's generalization candidates and validations. Witnesses are
  // the first pair in serial order at any thread count, so every counter of
  // the delete batch matches the serial session's. Domain 4 over 4000 rows
  // makes the seed's window runs parallel.
  Relation r = GenerateFdReduced(4000, 6, 4, /*seed=*/31);
  std::vector<RecordId> dead;
  for (RecordId id = 0; id < 1200; id += 3) dead.push_back(id);

  auto run = [&](int threads) {
    IncrementalConfig config;
    config.num_threads = threads;
    auto session = std::make_unique<IncrementalHyFd>(r, config);
    session->DeleteRows(dead);
    return session;
  };
  const auto serial = run(1);
  EXPECT_GT(
      serial->report().FindCounter("incremental.generalization_candidates"),
      0u);
  for (int threads : {2, 8}) {
    const auto parallel = run(threads);
    const std::string label = std::to_string(threads) + " threads";
    testing::ExpectSameFds(serial->fds(), parallel->fds(), label);
    testing::ExpectSameCounters(serial->report(), parallel->report(), label);
  }
}

// ---------------------------------------------------------------------------
// Seed stats attribution (the last_batch_stats() regression).
// ---------------------------------------------------------------------------

TEST(IncrementalStatsTest, SeedDiscoveryAttributionIsVisible) {
  Relation r = testing::RandomRelation(5, 80, 821, 3);
  IncrementalHyFd session(r);
  // The ctor's full discovery is real work; its attribution must survive
  // into last_batch_stats() instead of being zeroed after the fact.
  EXPECT_GT(session.last_batch_stats().validations, 0u);
  EXPECT_GT(session.last_batch_stats().comparisons, 0u);
  EXPECT_EQ(session.report().result_count, session.fds().size());
}

}  // namespace
}  // namespace hyfd
