// Property-based sweeps over the core invariants: FDTree lookups vs a naive
// model, PLI intersection vs direct grouping, and closure/cover algebra.

#include <random>
#include <unordered_map>
#include <vector>

#include "baselines/registry.h"
#include "data/generators.h"
#include "fd/closure.h"
#include "fd/fd_tree.h"
#include "fd/reference.h"
#include "gtest/gtest.h"
#include "pli/pli_builder.h"
#include "pli/pli_cache.h"
#include "test_util.h"

namespace hyfd {
namespace {

// ---------------------------------------------------------------------------
// FDTree vs a naive vector-of-FDs model under random add/remove/query mixes.
// ---------------------------------------------------------------------------

class FdTreeModelTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(FdTreeModelTest, MatchesNaiveModel) {
  const int m = 7;
  std::mt19937_64 rng(GetParam());
  FDTree tree(m);
  std::vector<FD> model;

  auto random_fd = [&] {
    AttributeSet lhs(m);
    int bits = static_cast<int>(rng() % 4);
    for (int i = 0; i < bits; ++i) lhs.Set(static_cast<int>(rng() % m));
    int rhs = static_cast<int>(rng() % m);
    lhs.Reset(rhs);
    return FD(lhs, rhs);
  };

  for (int step = 0; step < 400; ++step) {
    FD fd = random_fd();
    switch (rng() % 3) {
      case 0: {  // add
        tree.AddFd(fd.lhs, fd.rhs);
        if (std::find(model.begin(), model.end(), fd) == model.end()) {
          model.push_back(fd);
        }
        break;
      }
      case 1: {  // remove
        tree.RemoveFd(fd.lhs, fd.rhs);
        model.erase(std::remove(model.begin(), model.end(), fd), model.end());
        break;
      }
      default: {  // query
        bool naive_exact =
            std::find(model.begin(), model.end(), fd) != model.end();
        bool naive_general = false;
        for (const FD& g : model) {
          if (g.Generalizes(fd)) naive_general = true;
        }
        EXPECT_EQ(tree.ContainsFd(fd.lhs, fd.rhs), naive_exact);
        EXPECT_EQ(tree.ContainsFdOrGeneralization(fd.lhs, fd.rhs),
                  naive_general);
        // GetFdAndGeneralizations returns exactly the generalizations, for
        // the one-bit mask {rhs} and for a random mask beside it.
        AttributeSet mask(m);
        for (int a = 0; a < m; ++a) {
          if (rng() % 2 == 0) mask.Set(a);
        }
        for (const AttributeSet& rhss : {AttributeSet(m, {fd.rhs}), mask}) {
          size_t pairs = 0;
          for (const auto& gen : tree.GetFdAndGeneralizations(fd.lhs, rhss)) {
            EXPECT_TRUE(gen.lhs.IsSubsetOf(fd.lhs));
            EXPECT_FALSE(gen.rhss.Empty());
            EXPECT_TRUE(gen.rhss.IsSubsetOf(rhss));
            ForEachBit(gen.rhss, [&](int rhs) {
              EXPECT_TRUE(tree.ContainsFd(gen.lhs, rhs));
            });
            pairs += static_cast<size_t>(gen.rhss.Count());
          }
          size_t naive_pairs = 0;
          AttributeSet naive_generalized(m);
          for (const FD& g : model) {
            if (rhss.Test(g.rhs) && g.lhs.IsSubsetOf(fd.lhs)) {
              ++naive_pairs;
              naive_generalized.Set(g.rhs);
            }
          }
          EXPECT_EQ(pairs, naive_pairs);
          EXPECT_EQ(tree.GeneralizedRhss(fd.lhs, rhss), naive_generalized);
        }
        break;
      }
    }
  }
  // Final full-content check.
  FDSet from_tree = tree.ToFdSet();
  FDSet from_model(model);
  EXPECT_EQ(from_tree, from_model);
  EXPECT_EQ(tree.CountFds(), from_model.size());
}

INSTANTIATE_TEST_SUITE_P(Seeds, FdTreeModelTest,
                         ::testing::Range(uint64_t{100}, uint64_t{112}));

// ---------------------------------------------------------------------------
// PLI intersection vs direct multi-column grouping.
// ---------------------------------------------------------------------------

class PliIntersectionTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PliIntersectionTest, IntersectEqualsDirectGrouping) {
  Relation r = testing::RandomRelation(3, 120, GetParam(), 5, 0.1);
  Pli a = BuildColumnPli(r, 0);
  Pli b = BuildColumnPli(r, 1);
  Pli ab = a.Intersect(b);

  // Direct grouping on the value pairs (null == null semantics).
  std::unordered_map<std::string, std::vector<RecordId>> groups;
  for (size_t row = 0; row < r.num_rows(); ++row) {
    std::string key = (r.IsNull(row, 0) ? "\x01NULL" : r.Value(row, 0)) + "\x02" +
                      (r.IsNull(row, 1) ? "\x01NULL" : r.Value(row, 1));
    groups[key].push_back(static_cast<RecordId>(row));
  }
  std::vector<std::vector<RecordId>> expected;
  for (auto& [_, records] : groups) {
    if (records.size() >= 2) expected.push_back(records);
  }
  auto sort_all = [](std::vector<std::vector<RecordId>> cs) {
    for (auto& c : cs) std::sort(c.begin(), c.end());
    std::sort(cs.begin(), cs.end());
    return cs;
  };
  EXPECT_EQ(sort_all(ab.clusters()), sort_all(expected));
  // Error and cluster-count invariants.
  EXPECT_GE(ab.NumClusters(), std::max(a.NumClusters(), b.NumClusters()));
  EXPECT_LE(ab.Error(), std::min(a.Error(), b.Error()));
}

INSTANTIATE_TEST_SUITE_P(Seeds, PliIntersectionTest,
                         ::testing::Range(uint64_t{200}, uint64_t{212}));

// ---------------------------------------------------------------------------
// Closure / cover algebra on FD sets discovered from random data.
// ---------------------------------------------------------------------------

class ClosurePropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ClosurePropertyTest, DiscoveredFdsSatisfyClosureLaws) {
  Relation r = testing::RandomRelation(5, 80, GetParam(), 3);
  const int m = r.num_columns();
  FDSet fds = DiscoverFdsBruteForce(r);

  std::mt19937_64 rng(GetParam() * 31);
  for (int trial = 0; trial < 20; ++trial) {
    AttributeSet x(m);
    for (int i = 0; i < 3; ++i) x.Set(static_cast<int>(rng() % m));
    AttributeSet closure = Closure(x, fds);
    // Extensivity, monotonicity, idempotence.
    EXPECT_TRUE(x.IsSubsetOf(closure));
    EXPECT_EQ(Closure(closure, fds), closure);
    AttributeSet y = x.With(static_cast<int>(rng() % m));
    EXPECT_TRUE(closure.IsSubsetOf(Closure(y, fds)));
    // Semantic soundness: every attribute in the closure is actually
    // determined by x on the data.
    ForEachBit(closure, [&](int a) {
      if (!x.Test(a)) {
        EXPECT_TRUE(FdHolds(r, x, a)) << x.ToString() << " -> " << a;
      }
    });
  }

  // The minimal cover is equivalent to and no larger than the original.
  FDSet cover = MinimalCover(fds, m);
  EXPECT_TRUE(Equivalent(fds, cover, m));
  EXPECT_LE(cover.size(), fds.size());
}

INSTANTIATE_TEST_SUITE_P(Seeds, ClosurePropertyTest,
                         ::testing::Range(uint64_t{300}, uint64_t{310}));

// ---------------------------------------------------------------------------
// Sampling-phase theory (paper §3): completeness, minimality, proximity.
// ---------------------------------------------------------------------------

class SamplePropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SamplePropertyTest, SampleFdsGeneralizeFullDataFds) {
  Relation full = testing::RandomRelation(4, 100, GetParam(), 3);
  Relation sample = full.HeadRows(30);
  FDSet full_fds = DiscoverFdsBruteForce(full);
  FDSet sample_fds = DiscoverFdsBruteForce(sample);

  // Property (1) completeness: every FD of the full data has a
  // generalization among the sample's FDs.
  for (const FD& fd : full_fds) {
    EXPECT_TRUE(sample_fds.ContainsGeneralizationOf(fd)) << fd.ToString();
  }
  // Property (2) minimality: a sample FD that is valid on the full data is
  // also minimal there.
  for (const FD& fd : sample_fds) {
    if (FdHolds(full, fd.lhs, fd.rhs)) {
      EXPECT_TRUE(full_fds.Contains(fd)) << fd.ToString();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SamplePropertyTest,
                         ::testing::Range(uint64_t{400}, uint64_t{410}));

// ---------------------------------------------------------------------------
// PLI-cache ablation: every lattice algorithm (and HyFD) must produce the
// same minimal FD set with the shared cache enabled, disabled, and shared
// across runs — the cache is an accelerator, never a semantics change.
// ---------------------------------------------------------------------------

class CacheAblationTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CacheAblationTest, SameFdsWithAndWithoutPliCache) {
  Relation r = testing::RandomRelation(5, 60, GetParam(), 3, 0.05);
  PliCache shared = PliCache::FromRelation(r);
  for (const char* name : {"tane", "fun", "fd_mine", "dfd", "hyfd"}) {
    AlgoOptions cache_off;
    cache_off.use_pli_cache = false;
    FDSet baseline = FindAlgorithm(name).run(r, cache_off);

    AlgoOptions cache_on;  // private cache, default budget
    testing::ExpectSameFds(baseline, FindAlgorithm(name).run(r, cache_on),
                           std::string(name) + " private cache");

    AlgoOptions cache_shared;
    cache_shared.pli_cache = &shared;
    testing::ExpectSameFds(baseline, FindAlgorithm(name).run(r, cache_shared),
                           std::string(name) + " shared cache");
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CacheAblationTest,
                         ::testing::Range(uint64_t{500}, uint64_t{520}));

}  // namespace
}  // namespace hyfd
