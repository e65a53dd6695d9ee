// Determinism and thread-safety tests for the parallel Phase-1 pipeline:
// the same FDs, stats, sampler batches and witnesses must come out
// bit-identical for every thread count, and parallel window runs must stay
// race-free while many workers find the same agree sets (run under TSan via
// the "concurrency" ctest label).

#include <algorithm>
#include <atomic>
#include <memory>
#include <optional>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "core/hyfd.h"
#include "core/hyucc.h"
#include "core/preprocessor.h"
#include "core/sampler.h"
#include "data/datasets.h"
#include "data/generators.h"
#include "gtest/gtest.h"
#include "test_util.h"
#include "util/check.h"
#include "util/metrics.h"
#include "util/run_report.h"
#include "util/thread_pool.h"

namespace hyfd {
namespace {

// ---------------------------------------------------------------------------
// ThreadPool: the nested-blocking-call deadlock guard
// ---------------------------------------------------------------------------

TEST(ThreadPoolGuardTest, NestedParallelForFromWorkerThrows) {
  // A blocking parallel call from inside a pool task can deadlock a fully
  // loaded pool (thread_pool.h); the hazard used to be a doc comment, now
  // it is a contract. Every blocking entry point must fire it; the
  // exception is caught *inside* the task (an escaping exception would
  // terminate the worker thread).
  ThreadPool pool(2);
  std::atomic<int> violations{0};
  std::atomic<int> ran{0};
  pool.ParallelFor(4, [&](size_t) {
    ran.fetch_add(1);
    try {
      pool.ParallelFor(2, [](size_t) {});
    } catch (const ContractViolation&) {
      violations.fetch_add(1);
    }
    try {
      pool.ParallelForDynamic(2, 1, [](size_t) {});
    } catch (const ContractViolation&) {
      violations.fetch_add(1);
    }
    try {
      pool.ParallelForRanges(2, 1, [](size_t, size_t) {});
    } catch (const ContractViolation&) {
      violations.fetch_add(1);
    }
    try {
      pool.WaitIdle();
    } catch (const ContractViolation&) {
      violations.fetch_add(1);
    }
  });
  EXPECT_EQ(ran.load(), 4);
  EXPECT_EQ(violations.load(), 4 * 4);  // all four blocking calls, all tasks

  // Empty parallel calls never block (they submit nothing and return), so
  // they stay permitted from workers — the guard targets the blocking wait.
  std::atomic<int> empty_ok{0};
  pool.ParallelFor(2, [&](size_t) {
    pool.ParallelFor(0, [](size_t) { FAIL() << "no iterations expected"; });
    pool.ParallelForRanges(0, 1, [](size_t, size_t) {});
    empty_ok.fetch_add(1);
  });
  EXPECT_EQ(empty_ok.load(), 2);

  // The pool is still fully operational after the contract violations.
  std::atomic<int> sum{0};
  pool.ParallelFor(8, [&](size_t i) { sum.fetch_add(static_cast<int>(i)); });
  EXPECT_EQ(sum.load(), 28);

  // From a non-worker thread the same calls are legal.
  EXPECT_EQ(ThreadPool::CurrentWorkerIndex(), ThreadPool::kNotAWorker);
  pool.WaitIdle();
}

// ---------------------------------------------------------------------------
// Sampler: parallel == serial, bit for bit
// ---------------------------------------------------------------------------

TEST(ParallelStressTest, SamplerBatchIdenticalWithPool) {
  Relation r = GenerateFdReduced(4000, 10, 8, /*seed=*/9);
  PreprocessedData data = Preprocess(r);

  Sampler serial(&data, 0.001);
  auto serial_batch = serial.Run({});

  ThreadPool pool(8);
  Sampler parallel(&data, 0.001, SamplingStrategy::kClusterWindowing, &pool);
  auto parallel_batch = parallel.Run({});

  // Not just the same set — the same order (the canonical batch sort).
  ASSERT_EQ(serial_batch.size(), parallel_batch.size());
  for (size_t i = 0; i < serial_batch.size(); ++i) {
    EXPECT_EQ(serial_batch[i], parallel_batch[i]) << "batch index " << i;
  }
  EXPECT_EQ(serial.total_comparisons(), parallel.total_comparisons());
  EXPECT_EQ(serial.num_non_fds(), parallel.num_non_fds());
  EXPECT_EQ(serial.NegativeCoverBytes(), parallel.NegativeCoverBytes());
}

/// Every sampling phase of one Sampler — its batch and the cover's entries
/// with their witnesses after it — plus its final counters.
struct SamplerTrace {
  std::vector<std::vector<AttributeSet>> phases;
  std::vector<std::vector<NegativeCover::Entry>> covers;
  size_t comparisons = 0;
  size_t non_fds = 0;
  size_t cover_bytes = 0;
  RunReport counters;  ///< the sampler.* counters of its registry
};

/// Runs one Sampler for `suggestions.size()` phases on `threads` workers (no
/// pool for 1). Phase p replays `suggestions[p]`; every re-entry halves the
/// threshold, so later phases slide ever wider windows.
SamplerTrace TraceSampler(
    const PreprocessedData& data, double threshold, int threads,
    const std::vector<std::vector<std::pair<RecordId, RecordId>>>&
        suggestions) {
  std::unique_ptr<ThreadPool> pool;
  if (threads > 1) {
    pool = std::make_unique<ThreadPool>(static_cast<size_t>(threads));
  }
  MetricsRegistry metrics;
  Sampler sampler(&data, threshold, SamplingStrategy::kClusterWindowing,
                  pool.get(), &metrics);
  SamplerTrace trace;
  for (const auto& phase : suggestions) {
    trace.phases.push_back(sampler.Run(phase));
    trace.covers.push_back(sampler.negative_cover().Entries());
  }
  trace.comparisons = sampler.total_comparisons();
  trace.non_fds = sampler.num_non_fds();
  trace.cover_bytes = sampler.NegativeCoverBytes();
  trace.counters.MergeMetrics(metrics);
  return trace;
}

void ExpectSameTrace(const SamplerTrace& expected, const SamplerTrace& actual,
                     const std::string& label) {
  EXPECT_EQ(expected.comparisons, actual.comparisons) << label;
  EXPECT_EQ(expected.non_fds, actual.non_fds) << label;
  EXPECT_EQ(expected.cover_bytes, actual.cover_bytes) << label;
  testing::ExpectSameCounters(expected.counters, actual.counters, label);
  ASSERT_EQ(expected.phases.size(), actual.phases.size()) << label;
  ASSERT_EQ(expected.covers.size(), actual.covers.size()) << label;
  for (size_t p = 0; p < expected.phases.size(); ++p) {
    EXPECT_EQ(expected.phases[p], actual.phases[p]) << label << ", phase " << p;
    const auto& want = expected.covers[p];
    const auto& got = actual.covers[p];
    ASSERT_EQ(want.size(), got.size()) << label << ", phase " << p;
    for (size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ(want[i].agree, got[i].agree) << label << ", phase " << p;
      EXPECT_EQ(want[i].a, got[i].a) << label << ", phase " << p << ", " << i;
      EXPECT_EQ(want[i].b, got[i].b) << label << ", phase " << p << ", " << i;
    }
  }
}

TEST(ParallelStressTest, SharedFreshAndKnownAgreeSetsMatchSerial) {
  // Domain 2 over 6 columns allows at most 64 agree sets, while every window
  // run has thousands of pairs: all 8 workers find the same fresh sets in
  // the first windows and then re-find the same known ones. The later
  // phases mix serially replayed suggestions with the parallel windows.
  Relation r = GenerateFdReduced(6000, 6, 2, /*seed=*/21);
  PreprocessedData data = Preprocess(r);
  const std::vector<std::vector<std::pair<RecordId, RecordId>>> suggestions = {
      {}, {{0, 1}, {2, 3}}, {{4, 5}}, {}};

  SamplerTrace serial = TraceSampler(data, 0.01, 1, suggestions);
  ASSERT_FALSE(serial.phases.front().empty());
  for (int round = 0; round < 3; ++round) {
    ExpectSameTrace(serial, TraceSampler(data, 0.01, 8, suggestions),
                    "8 threads, round " + std::to_string(round));
  }
}

/// `rows` rows, each a copy of one of 24 template rows over `cols` columns
/// (values from a domain of 3), in which each column at a word seam (0, 62, 63, 64, 127,
/// 128 and the last) holds a row-unique value with probability 1/3. Agree
/// sets repeat often, and their bits at the seams vary.
Relation SeamRelation(int cols, size_t rows, uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::vector<std::vector<std::optional<std::string>>> templates(24);
  for (auto& t : templates) {
    for (int c = 0; c < cols; ++c) t.push_back("v" + std::to_string(rng() % 3));
  }
  std::vector<int> seams;
  for (int c : {0, 62, 63, 64, 127, 128, cols - 1}) {
    if (c < cols) seams.push_back(c);
  }
  Relation r{Schema::Generic(cols)};
  for (size_t i = 0; i < rows; ++i) {
    std::vector<std::optional<std::string>> row =
        templates[rng() % templates.size()];
    for (int c : seams) {
      if (rng() % 3 == 0) row[static_cast<size_t>(c)] = "u" + std::to_string(i);
    }
    r.AppendRow(row);
  }
  return r;
}

TEST(ParallelDeterminismTest, WordSeamWidthsIdenticalAcrossThreadCounts) {
  // Agree sets of 63, 64, 65 and 129 attributes: one word with a tail, one
  // full word, and the first multi-word widths, inline and on the heap.
  // 3000 rows make every window run parallel at 4 threads. Batches,
  // witnesses, cover bytes and every sampler.* counter must equal the
  // serial run's.
  const std::vector<std::vector<std::pair<RecordId, RecordId>>> phases = {
      {}, {{0, 1}, {2, 3}}, {{4, 5}}};
  for (int cols : {63, 64, 65, 129}) {
    PreprocessedData data =
        Preprocess(SeamRelation(cols, 3000, static_cast<uint64_t>(cols)));
    SamplerTrace serial = TraceSampler(data, 0.01, 1, phases);
    ASSERT_FALSE(serial.phases.front().empty()) << cols;
    ASSERT_EQ(serial.phases.front().front().size(), cols);
    ExpectSameTrace(serial, TraceSampler(data, 0.01, 4, phases),
                    std::to_string(cols) + " columns @ 4 threads");
  }
}

TEST(ParallelStressTest, SamplingHeavyDiscoveryMatchesSerial) {
  // A low threshold keeps the run in Phase 1 for many windows — the densest
  // traffic on the parallel window path.
  Relation r = GenerateFdReduced(2500, 8, 12, /*seed=*/5);
  HyFdConfig serial_config;
  serial_config.efficiency_threshold = 0.0001;
  HyFd serial(serial_config);
  FDSet expected = serial.Discover(r);

  HyFdConfig parallel_config = serial_config;
  parallel_config.num_threads = 8;
  HyFd parallel(parallel_config);
  FDSet actual = parallel.Discover(r);

  testing::ExpectSameFds(expected, actual, "sampling-heavy, 8 threads");
  testing::ExpectSameCounters(serial.report(), parallel.report(),
                              "sampling-heavy, 8 threads");
}

// ---------------------------------------------------------------------------
// Full-pipeline determinism sweep over the dataset registry
// ---------------------------------------------------------------------------

TEST(ParallelDeterminismTest, RegistrySweepIdenticalAcrossThreadCounts) {
  for (const DatasetSpec& spec : PaperDatasets()) {
    const size_t rows = std::min<size_t>(spec.default_rows, 800);
    const int columns = std::min(spec.columns, 10);
    Relation r = MakeDataset(spec.name, rows, columns);

    HyFdConfig config;
    HyFd baseline(config);
    FDSet expected = baseline.Discover(r);

    for (int threads : {2, 8}) {
      HyFdConfig parallel_config;
      parallel_config.num_threads = threads;
      HyFd parallel(parallel_config);
      FDSet actual = parallel.Discover(r);
      const std::string label =
          spec.name + " @ " + std::to_string(threads) + " threads";
      testing::ExpectSameFds(expected, actual, label);
      testing::ExpectSameCounters(baseline.report(), parallel.report(), label);
    }
  }
}

TEST(ParallelDeterminismTest, WitnessesIdenticalAcrossThreadCounts) {
  // The witness of an agree set is the first pair in serial traversal order
  // that produced it, whatever the thread count. 3000 rows make the window
  // runs of low-cardinality columns large enough to run in parallel; the
  // duplicate-heavy fd-reduced input makes every window run parallel.
  std::vector<std::pair<std::string, Relation>> inputs;
  for (const DatasetSpec& spec : PaperDatasets()) {
    inputs.emplace_back(spec.name,
                        MakeDataset(spec.name,
                                    std::min<size_t>(spec.default_rows, 3000),
                                    std::min(spec.columns, 12)));
  }
  inputs.emplace_back("fd-reduced domain 4",
                      GenerateFdReduced(5000, 8, 4, /*seed=*/13));
  const std::vector<std::vector<std::pair<RecordId, RecordId>>> phases(3);
  for (const auto& [name, relation] : inputs) {
    PreprocessedData data = Preprocess(relation);
    SamplerTrace serial = TraceSampler(data, 0.01, 1, phases);
    for (int threads : {2, 8}) {
      ExpectSameTrace(serial, TraceSampler(data, 0.01, threads, phases),
                      name + " @ " + std::to_string(threads) + " threads");
    }
  }
}

TEST(ParallelDeterminismTest, HyUccIdenticalAcrossThreadCounts) {
  // Both phases run on the pool: the Sampler's window runs and the
  // Validator's refinement of X -> K.
  std::vector<std::pair<std::string, Relation>> inputs;
  inputs.emplace_back("random 6x200",
                      testing::RandomRelation(6, 200, /*seed=*/77, 3));
  for (const DatasetSpec& spec : PaperDatasets()) {
    inputs.emplace_back(spec.name,
                        MakeDataset(spec.name,
                                    std::min<size_t>(spec.default_rows, 1000),
                                    std::min(spec.columns, 10)));
  }
  for (const auto& [name, r] : inputs) {
    HyUcc baseline;
    auto expected = baseline.Discover(r);
    for (int threads : {2, 4, 8}) {
      HyUccConfig config;
      config.num_threads = threads;
      HyUcc parallel(config);
      auto actual = parallel.Discover(r);
      const std::string label = name + " @ " + std::to_string(threads) +
                                " threads";
      EXPECT_EQ(expected, actual) << label;
      testing::ExpectSameCounters(baseline.report(), parallel.report(), label);
    }
  }
}

}  // namespace
}  // namespace hyfd
