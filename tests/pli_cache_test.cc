// Tests for the shared budgeted PLI cache: differential checks of every
// cached/derived partition against a from-scratch build, LRU/budget/counter
// unit tests, concurrency smoke tests (run under -DHYFD_SANITIZE=thread via
// the "concurrency" ctest label), and the DFD eviction regression.

#include "pli/pli_cache.h"

#include <algorithm>
#include <filesystem>
#include <memory>
#include <random>
#include <thread>
#include <type_traits>
#include <vector>

#include "baselines/registry.h"
#include "core/hyfd.h"
#include "core/preprocessor.h"
#include "data/csv.h"
#include "data/generators.h"
#include "data/table_io.h"
#include "fd/reference.h"
#include "gtest/gtest.h"
#include "pli/pli_builder.h"
#include "test_util.h"

namespace hyfd {
namespace {

std::vector<std::vector<RecordId>> Sorted(
    std::vector<std::vector<RecordId>> clusters) {
  for (auto& c : clusters) std::sort(c.begin(), c.end());
  std::sort(clusters.begin(), clusters.end());
  return clusters;
}

/// A generated table with planted FDs, skew, and NULLs (generators.cc), so
/// derived partitions exercise non-trivial cluster structure.
Relation SeededTable(uint64_t seed, size_t rows = 150) {
  GeneratorConfig config;
  config.rows = rows;
  config.seed = seed;
  config.columns = {
      {.cardinality = 5},
      {.cardinality = 8, .distribution = Distribution::kZipf},
      {.cardinality = 3, .null_rate = 0.1},
      {.cardinality = 0},  // key column
      {.cardinality = 4, .sources = {0, 1}},
      {.cardinality = 6, .sources = {2}},
  };
  return Generate(config);
}

AttributeSet RandomAttrs(std::mt19937_64& rng, int m, int max_bits) {
  AttributeSet attrs(m);
  int bits = 1 + static_cast<int>(rng() % static_cast<uint64_t>(max_bits));
  for (int i = 0; i < bits; ++i) attrs.Set(static_cast<int>(rng() % m));
  return attrs;
}

void ExpectMatchesOracle(PliCache& cache, const Relation& relation,
                         const AttributeSet& attrs, NullSemantics nulls) {
  auto got = cache.Get(attrs);
  ASSERT_NE(got, nullptr) << attrs.ToString();
  Pli expected = BuildPli(relation, attrs, nulls);
  EXPECT_EQ(Sorted(got->clusters()), Sorted(expected.clusters()))
      << "π_" << attrs.ToString();
  EXPECT_EQ(got->num_records(), expected.num_records());
  EXPECT_EQ(got->NumClusters(), expected.NumClusters());
}

// ---------------------------------------------------------------------------
// Differential: every cached / derived / evicted-and-rederived partition
// equals the from-scratch BuildPli reference.
// ---------------------------------------------------------------------------

class PliCacheDifferentialTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PliCacheDifferentialTest, DerivedPlisMatchFromScratchBuild) {
  Relation r = SeededTable(GetParam());
  PliCache cache = PliCache::FromRelation(r);
  std::mt19937_64 rng(GetParam() * 7 + 1);
  std::vector<AttributeSet> asked;
  for (int trial = 0; trial < 40; ++trial) {
    AttributeSet attrs = RandomAttrs(rng, r.num_columns(), 4);
    ExpectMatchesOracle(cache, r, attrs, NullSemantics::kNullEqualsNull);
    asked.push_back(attrs);
  }
  // Re-request everything: hit paths must serve identical partitions.
  for (const AttributeSet& attrs : asked) {
    ExpectMatchesOracle(cache, r, attrs, NullSemantics::kNullEqualsNull);
  }
  auto c = cache.counters();
  EXPECT_GT(c.hits, 0u);
  EXPECT_GT(c.derivations, 0u);
}

TEST_P(PliCacheDifferentialTest, TinyBudgetRederivationStaysCorrect) {
  Relation r = SeededTable(GetParam());
  PliCache::Config config;
  config.budget_bytes = 2048;  // forces constant eviction
  PliCache cache = PliCache::FromRelation(r, config);
  std::mt19937_64 rng(GetParam() * 13 + 5);
  for (int trial = 0; trial < 60; ++trial) {
    AttributeSet attrs = RandomAttrs(rng, r.num_columns(), 4);
    ExpectMatchesOracle(cache, r, attrs, NullSemantics::kNullEqualsNull);
  }
  EXPECT_GT(cache.counters().evictions, 0u);
}

TEST_P(PliCacheDifferentialTest, NullUnequalSemanticsMatchOracle) {
  Relation r = SeededTable(GetParam());
  PliCache cache =
      PliCache::FromRelation(r, {}, NullSemantics::kNullUnequal);
  std::mt19937_64 rng(GetParam() * 17 + 3);
  for (int trial = 0; trial < 30; ++trial) {
    AttributeSet attrs = RandomAttrs(rng, r.num_columns(), 3);
    ExpectMatchesOracle(cache, r, attrs, NullSemantics::kNullUnequal);
  }
}

TEST_P(PliCacheDifferentialTest, DisabledCacheIsCorrectPassThrough) {
  Relation r = SeededTable(GetParam());
  PliCache::Config config;
  config.enabled = false;
  PliCache cache = PliCache::FromRelation(r, config);
  std::mt19937_64 rng(GetParam() * 23 + 9);
  for (int trial = 0; trial < 20; ++trial) {
    AttributeSet attrs = RandomAttrs(rng, r.num_columns(), 3);
    ExpectMatchesOracle(cache, r, attrs, NullSemantics::kNullEqualsNull);
  }
  auto c = cache.counters();
  EXPECT_EQ(c.entries, 0u);
  EXPECT_EQ(c.bytes, 0u);
  EXPECT_EQ(c.inserts, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PliCacheDifferentialTest,
                         ::testing::Range(uint64_t{900}, uint64_t{908}));

// ---------------------------------------------------------------------------
// LRU order, byte budget, and counter accounting.
// ---------------------------------------------------------------------------

TEST(PliCacheTest, LruEvictsLeastRecentlyUsed) {
  Relation r = SeededTable(42);
  const int m = r.num_columns();
  AttributeSet a(m, {0, 1});
  AttributeSet b(m, {0, 2});
  AttributeSet c(m, {1, 2});

  // Measure the three entries on an unbounded cache, then budget a second
  // cache one byte short of holding all three.
  size_t all_three = 0;
  {
    PliCache::Config unbounded;
    unbounded.budget_bytes = 0;
    PliCache probe = PliCache::FromRelation(r, unbounded);
    for (const AttributeSet& key : {a, b, c}) ASSERT_NE(probe.Get(key), nullptr);
    all_three = probe.counters().bytes;
  }
  PliCache::Config config;
  config.budget_bytes = all_three - 1;
  PliCache cache = PliCache::FromRelation(r, config);

  ASSERT_NE(cache.Get(a), nullptr);
  ASSERT_NE(cache.Get(b), nullptr);
  ASSERT_EQ(cache.counters().entries, 2u);

  // Touch `a`: it becomes most recent, so `b` is the LRU victim when `c`
  // arrives.
  ASSERT_NE(cache.Get(a), nullptr);
  ASSERT_NE(cache.Get(c), nullptr);

  EXPECT_EQ(cache.Probe(b), nullptr);
  EXPECT_NE(cache.Probe(a), nullptr);
  EXPECT_NE(cache.Probe(c), nullptr);
  EXPECT_EQ(cache.counters().entries, 2u);
  EXPECT_EQ(cache.counters().evictions, 1u);
}

TEST(PliCacheTest, OneByteBudgetDegeneratesToOneEntry) {
  Relation r = SeededTable(43);
  const int m = r.num_columns();
  PliCache::Config config;
  config.budget_bytes = 1;  // smaller than any partition
  PliCache cache = PliCache::FromRelation(r, config);

  AttributeSet a(m, {0, 1});
  AttributeSet b(m, {1, 2});
  ASSERT_NE(cache.Get(a), nullptr);
  EXPECT_EQ(cache.counters().entries, 1u);
  ASSERT_NE(cache.Get(b), nullptr);
  EXPECT_EQ(cache.counters().entries, 1u);  // most recent survives
  EXPECT_NE(cache.Probe(b), nullptr);
  EXPECT_EQ(cache.Probe(a), nullptr);
  EXPECT_GE(cache.counters().evictions, 1u);

  // The degenerate cache still serves correct partitions.
  ExpectMatchesOracle(cache, r, AttributeSet(m, {0, 1, 2}),
                      NullSemantics::kNullEqualsNull);
}

TEST(PliCacheTest, CounterAccounting) {
  Relation r = SeededTable(44);
  const int m = r.num_columns();
  PliCache cache = PliCache::FromRelation(r);

  AttributeSet ab(m, {0, 1});
  ASSERT_NE(cache.Get(ab), nullptr);  // miss: derive single ∩ single
  auto c = cache.counters();
  EXPECT_EQ(c.misses, 1u);
  EXPECT_EQ(c.hits, 0u);
  EXPECT_EQ(c.inserts, 1u);
  EXPECT_EQ(c.derivations, 1u);
  EXPECT_EQ(c.entries, 1u);
  EXPECT_GT(c.bytes, 0u);

  ASSERT_NE(cache.Get(ab), nullptr);  // exact hit
  EXPECT_EQ(cache.counters().hits, 1u);

  // Singles are pinned hits, not cached entries.
  ASSERT_NE(cache.Get(AttributeSet(m, {2})), nullptr);
  c = cache.counters();
  EXPECT_EQ(c.hits, 2u);
  EXPECT_EQ(c.entries, 1u);

  EXPECT_EQ(cache.Probe(AttributeSet(m, {3, 4})), nullptr);
  EXPECT_EQ(cache.counters().misses, 2u);

  // A 3-attribute Get on top of the cached {0,1} adds one derivation.
  ASSERT_NE(cache.Get(AttributeSet(m, {0, 1, 2})), nullptr);
  c = cache.counters();
  EXPECT_EQ(c.derivations, 2u);
  EXPECT_EQ(c.entries, 2u);

  cache.Clear();
  c = cache.counters();
  EXPECT_EQ(c.entries, 0u);
  EXPECT_EQ(c.bytes, 0u);
  EXPECT_EQ(c.evictions, 0u);  // Clear is not eviction
  EXPECT_GT(c.hits + c.misses, 0u);  // cumulative counters survive Clear

  cache.ResetCounters();
  c = cache.counters();
  EXPECT_EQ(c.hits + c.misses + c.derivations + c.inserts, 0u);
}

// Regression for the byte-accounting audit: churn the cache through every
// accounting path — fresh inserts, replace-in-place Puts of different-size
// partitions for the SAME key (where EntryBytes must be computed on the
// stored key, not the caller's differently-capacitied copy), LRU shuffles,
// evictions under a budget of a few entries, and Clear — re-auditing after
// each step.
TEST(PliCacheTest, AccountingAuditSurvivesChurn) {
  Relation r = SeededTable(29, 120);
  const int m = r.num_columns();
  size_t entry_bytes = 0;
  {
    PliCache probe = PliCache::FromRelation(r);
    ASSERT_NE(probe.Get(AttributeSet(m, {0, 1})), nullptr);
    entry_bytes = probe.counters().bytes;
  }
  PliCache::Config config;
  config.budget_bytes = 3 * entry_bytes;
  PliCache cache = PliCache::FromRelation(r, config);
  std::mt19937_64 rng(29);
  cache.CheckInvariants();

  for (int round = 0; round < 40; ++round) {
    AttributeSet attrs = RandomAttrs(rng, m, 3);
    switch (round % 4) {
      case 0:
        ASSERT_NE(cache.Get(attrs), nullptr);
        break;
      case 1: {
        // Replace-in-place: Put the same key twice, second time built over
        // a different attribute set so the partition's byte size changes.
        cache.Put(attrs, BuildPli(r, attrs));
        AttributeSet wider = attrs;
        wider.Set(static_cast<int>(rng() % static_cast<uint64_t>(m)));
        Pli replacement = BuildPli(r, wider);
        cache.Put(attrs, std::make_shared<const Pli>(std::move(replacement)));
        break;
      }
      case 2:
        // Derives (and caches) every intermediate on the way: evictions.
        ASSERT_NE(cache.Get(RandomAttrs(rng, m, 4)), nullptr);
        break;
      default:
        (void)cache.Probe(attrs);
        ASSERT_NE(cache.Get(attrs), nullptr);  // LRU shuffle
        break;
    }
    cache.CheckInvariants();
  }
  EXPECT_GT(cache.counters().evictions, 0u);

  cache.Clear();
  cache.CheckInvariants();
  // The cache still answers correctly after all that churn.
  ExpectMatchesOracle(cache, r, AttributeSet(m, {0, 2, 4}),
                      NullSemantics::kNullEqualsNull);
}

TEST(PliCacheTest, GetWithBaseDerivesFromProvidedParent) {
  Relation r = SeededTable(45);
  const int m = r.num_columns();
  PliCache cache = PliCache::FromRelation(r);

  AttributeSet ab(m, {0, 1});
  auto base = cache.Get(ab);
  ASSERT_NE(base, nullptr);
  cache.Clear();  // evict everything; the caller still holds π_{0,1}

  size_t before = cache.counters().derivations;
  AttributeSet abc(m, {0, 1, 2});
  auto got = cache.GetWithBase(abc, ab, base);
  ASSERT_NE(got, nullptr);
  // Exactly one intersection: the provided parent beat the from-singles path.
  EXPECT_EQ(cache.counters().derivations, before + 1);
  EXPECT_EQ(Sorted(got->clusters()),
            Sorted(BuildPli(r, abc).clusters()));
}

TEST(PliCacheTest, SinglesLessCacheSupportsProbeAndPut) {
  Relation r = SeededTable(46);
  const int m = r.num_columns();
  PliCache cache(m, r.num_rows());

  AttributeSet ab(m, {0, 1});
  EXPECT_EQ(cache.Probe(ab), nullptr);
  cache.Put(ab, BuildPli(r, ab));
  auto got = cache.Probe(ab);
  ASSERT_NE(got, nullptr);
  EXPECT_EQ(Sorted(got->clusters()), Sorted(BuildPli(r, ab).clusters()));

  // Without pinned singles the cache cannot derive beyond what it holds.
  EXPECT_EQ(cache.Get(AttributeSet(m, {2})), nullptr);
  EXPECT_EQ(cache.Get(AttributeSet(m, {0, 1, 2})), nullptr);
}

// ---------------------------------------------------------------------------
// The no-copy/no-move contract, compiler-enforced
// ---------------------------------------------------------------------------

// A PliCache owns a SharedMutex (plus counter atomics): moving one would
// tear the capability away from concurrent probers holding it. The header
// deletes all four special operations; these assertions keep the contract
// from regressing to comment-enforced (a silently re-enabled implicit move
// would compile everywhere until the first concurrent session crashed).
static_assert(!std::is_copy_constructible_v<PliCache>);
static_assert(!std::is_copy_assignable_v<PliCache>);
static_assert(!std::is_move_constructible_v<PliCache>);
static_assert(!std::is_move_assignable_v<PliCache>);

TEST(PliCacheContractTest, FactoryStillWorksWithoutMoves) {
  // FromRelation relies on guaranteed copy elision, not on a move.
  Relation r = SeededTable(99, /*rows=*/40);
  PliCache cache = PliCache::FromRelation(r);
  EXPECT_TRUE(cache.has_singles());
  EXPECT_EQ(cache.num_records(), r.num_rows());
}

// ---------------------------------------------------------------------------
// Concurrency: parallel Get/Probe under the shared mutex. Run under
// -DHYFD_SANITIZE=thread (ctest -L concurrency) to guard the locking.
// ---------------------------------------------------------------------------

TEST(PliCacheConcurrencyTest, ParallelGetsAndProbesStayConsistent) {
  Relation r = SeededTable(47, /*rows=*/200);
  const int m = r.num_columns();
  PliCache::Config config;
  config.thread_safe = true;
  config.budget_bytes = 32 * 1024;  // small enough to force evictions
  PliCache cache = PliCache::FromRelation(r, config);

  constexpr int kThreads = 4;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&cache, m, t] {
      std::mt19937_64 rng(1000 + static_cast<uint64_t>(t));
      for (int i = 0; i < 300; ++i) {
        AttributeSet attrs = RandomAttrs(rng, m, 3);
        if (i % 3 == 0) {
          cache.Probe(attrs);
        } else {
          auto pli = cache.Get(attrs);
          EXPECT_NE(pli, nullptr);
        }
      }
    });
  }
  for (auto& t : threads) t.join();

  // Whatever survived the scramble must still match the oracle.
  std::mt19937_64 rng(48);
  for (int trial = 0; trial < 20; ++trial) {
    ExpectMatchesOracle(cache, r, RandomAttrs(rng, m, 3),
                        NullSemantics::kNullEqualsNull);
  }
}

TEST(PliCacheConcurrencyTest, HyFdParallelValidatorProbesOwnedCache) {
  Relation r = GenerateFdReduced(400, 6, 20, /*seed=*/49);
  HyFdConfig mt;
  mt.num_threads = 4;
  HyFd algo(mt);
  FDSet first = algo.Discover(r);
  // The second pass probes, from 4 workers at once, the partitions the
  // first pass assembled.
  FDSet second = algo.Discover(r);
  testing::ExpectSameFds(first, second, "hyfd owned cache, mt");
  EXPECT_GT(algo.report().pli_cache_hits, 0u);

  HyFdConfig plain;
  plain.enable_pli_cache = false;
  testing::ExpectSameFds(DiscoverFds(r, plain), second,
                         "hyfd owned cache vs none, mt");
}

// ---------------------------------------------------------------------------
// Cross-algorithm reuse and misuse.
// ---------------------------------------------------------------------------

TEST(PliCacheSharingTest, AlgorithmsShareOneCacheAndAgree) {
  Relation r = testing::RandomRelation(5, 80, /*seed=*/50, 3);
  FDSet expected = DiscoverFdsBruteForce(r);

  PliCache cache = PliCache::FromRelation(r);
  AlgoOptions shared;
  shared.pli_cache = &cache;
  for (const char* name : {"tane", "fun", "fd_mine", "dfd", "hyfd"}) {
    FDSet got = FindAlgorithm(name).run(r, shared);
    testing::ExpectSameFds(expected, got, std::string(name) + " shared cache");
  }
  // Later runs must have profited from partitions cached by earlier ones.
  auto c = cache.counters();
  EXPECT_GT(c.hits, 0u);
  EXPECT_GT(c.entries, 0u);
}

TEST(PliCacheSharingTest, MismatchedSharedCacheThrows) {
  Relation r1 = testing::RandomRelation(5, 60, /*seed=*/51, 3);
  Relation r2 = testing::RandomRelation(4, 60, /*seed=*/52, 3);
  PliCache cache = PliCache::FromRelation(r1);
  AlgoOptions options;
  options.pli_cache = &cache;
  EXPECT_THROW(FindAlgorithm("tane").run(r2, options), std::invalid_argument);

  // Null-semantics mismatch is rejected too.
  AlgoOptions unequal;
  unequal.pli_cache = &cache;
  unequal.null_semantics = NullSemantics::kNullUnequal;
  EXPECT_THROW(FindAlgorithm("dfd").run(r1, unequal), std::invalid_argument);
}

TEST(PliCacheSharingTest, HyFdOwnedCacheWarmAcrossRepeatedRuns) {
  Relation r = GenerateFdReduced(400, 6, 20, /*seed=*/53);
  HyFd algo;  // enable_pli_cache defaults on
  FDSet first = algo.Discover(r);
  size_t first_hits = algo.report().pli_cache_hits;
  FDSet second = algo.Discover(r);
  testing::ExpectSameFds(first, second, "hyfd repeated discovery");
  // The second pass probes the partitions the first pass assembled.
  EXPECT_GT(algo.report().pli_cache_hits, first_hits);
}

// ---------------------------------------------------------------------------
// DFD eviction regression: the old store evicted by clearing everything;
// results must be identical under a 1-entry-degenerate, default, and
// unbounded budget (and with the cache disabled entirely).
// ---------------------------------------------------------------------------

class DfdBudgetRegressionTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(DfdBudgetRegressionTest, ResultsIdenticalAcrossBudgets) {
  Relation r = testing::RandomRelation(5, 70, GetParam(), 3, 0.05);
  FDSet expected = DiscoverFdsBruteForce(r);

  const size_t budgets[] = {1, PliCache::kDefaultBudgetBytes, 0};
  for (size_t budget : budgets) {
    AlgoOptions options;
    options.pli_cache_budget_bytes = budget;
    FDSet got = FindAlgorithm("dfd").run(r, options);
    testing::ExpectSameFds(expected, got,
                           "dfd budget=" + std::to_string(budget));
  }
  AlgoOptions no_cache;
  no_cache.use_pli_cache = false;
  testing::ExpectSameFds(expected, FindAlgorithm("dfd").run(r, no_cache),
                         "dfd cache disabled");
}

INSTANTIATE_TEST_SUITE_P(Seeds, DfdBudgetRegressionTest,
                         ::testing::Range(uint64_t{600}, uint64_t{606}));

// ---------------------------------------------------------------------------
// Fingerprint aliasing regression for HyFd's owned cache.
// ---------------------------------------------------------------------------

// A binary-cache reload of a CSV edited behind the cache file can produce a
// relation whose *cluster structure* is identical to the old data (values
// renamed consistently), so a fingerprint of the compressed records alone
// would alias and leave stale cached partitions live. DataFingerprint also
// covers the storage layer (dictionaries, types, format version), so a
// HyFd object that discovers on both reloads starts the second cold.
TEST(PliCacheFingerprintTest,
     ReloadedCsvWithSameClustersDoesNotAliasFingerprint) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::temp_directory_path() / "hyfd_fingerprint_alias";
  fs::create_directories(dir);
  const std::string csv_path = (dir / "data.csv").string();

  // Every value renamed consistently by its prefix: the cluster structure
  // (and the first-occurrence code layout) is unchanged.
  const Relation base = GenerateFdReduced(400, 6, 20, /*seed=*/53);
  auto renamed = [&](const std::string& prefix) {
    std::vector<std::vector<std::string>> rows(base.num_rows());
    for (size_t row = 0; row < base.num_rows(); ++row) {
      for (int c = 0; c < base.num_columns(); ++c) {
        rows[row].push_back(prefix + base.Value(row, c));
      }
    }
    return Relation::FromStringRows(base.schema(), rows);
  };
  WriteCsvFile(renamed("a"), csv_path);
  Relation first = LoadCsvWithCache(csv_path);
  WriteCsvFile(renamed("b"), csv_path);
  TableCacheStats stats;
  Relation second = LoadCsvWithCache(csv_path, {}, false, &stats);
  EXPECT_FALSE(stats.cache_hit);  // the CSV fingerprint changed
  EXPECT_EQ(second.Value(0, 0)[0], 'b');

  PreprocessedData first_data = Preprocess(first);
  PreprocessedData second_data = Preprocess(second);
  // The trap this test guards: cluster structure alone cannot tell the two
  // datasets apart...
  ASSERT_EQ(first_data.records.Fingerprint(), second_data.records.Fingerprint());
  // ...but the owned cache's key must.
  EXPECT_NE(DataFingerprint(first, first_data.records),
            DataFingerprint(second, second_data.records));

  HyFd algo;  // enable_pli_cache defaults on
  const FDSet on_first = algo.Discover(first);
  const FDSet on_second = algo.Discover(second);
  testing::ExpectSameFds(on_first, on_second, "renamed reload");
  EXPECT_EQ(algo.report().pli_cache_hits, 0u);
  EXPECT_GT(algo.report().pli_cache_misses, 0u);
  // The same data again does hit, so the zero above is the fingerprint's
  // doing, not a cache that never hits.
  algo.Discover(second);
  EXPECT_GT(algo.report().pli_cache_hits, 0u);
  fs::remove_all(dir);
}

}  // namespace
}  // namespace hyfd
