#include "core/inductor.h"

#include <algorithm>
#include <random>
#include <tuple>
#include <vector>

#include "fd/fd_tree.h"
#include "gtest/gtest.h"
#include "legacy_inductor.h"

namespace hyfd {
namespace {

AttributeSet Agree(std::initializer_list<int> bits, int n = 4) {
  return AttributeSet(n, bits);
}

// The worked example of paper Figure 4 over R(A,B,C,D), attributes 0..3.
// Step (0): initialize with ∅ -> ABCD.
// Step (1): specialize with non-FD D -> B (agree set {D}, differing B).
// Step (2): specialize with A -> D, B -> D, C -> D (agree sets covering D).
TEST(InductorTest, PaperFigure4Sequence) {
  FDTree tree(4);
  Inductor inductor(&tree);

  // Agree set {D} with B differing encodes D !-> B (and also D !-> A, C).
  // To isolate the paper's step we feed the exact non-FD D !-> B by using
  // an agree set {3} whose complement is {0,1,2}; the paper's figure only
  // tracks the B-column effect, which we verify below.
  inductor.Update({Agree({3})});
  // ∅ -> B is gone, replaced by minimal specializations. The paper keeps
  // A -> B and C -> B (D -> B is the violated FD itself).
  EXPECT_FALSE(tree.ContainsFd(Agree({}), 1));
  EXPECT_TRUE(tree.ContainsFd(Agree({0}), 1));
  EXPECT_TRUE(tree.ContainsFd(Agree({2}), 1));
  EXPECT_FALSE(tree.ContainsFdOrGeneralization(Agree({3}), 1));

  // Step (2): agree sets {A}, {B}, {C}. Each encodes several non-FDs at
  // once (e.g. {A} means A determines none of B, C, D). Afterwards no
  // single-attribute LHS may survive for RHS D:
  inductor.Update({Agree({0}), Agree({1}), Agree({2})});
  EXPECT_FALSE(tree.ContainsFdOrGeneralization(Agree({0}), 3));
  EXPECT_FALSE(tree.ContainsFdOrGeneralization(Agree({1}), 3));
  EXPECT_FALSE(tree.ContainsFdOrGeneralization(Agree({2}), 3));
  // ... but two-attribute specializations for D exist (the paper's
  // AC -> D / AB -> D step generalizes to: some pair determines D).
  EXPECT_TRUE(tree.ContainsFdOrGeneralization(Agree({0, 1, 2}), 3));
  // The result is exactly the minimal cover of all fed non-FDs: no stored
  // FD is violated by any of the four agree sets.
  FDSet fds = tree.ToFdSet();
  EXPECT_TRUE(fds.IsMinimal());
  for (const auto& agree : {Agree({3}), Agree({0}), Agree({1}), Agree({2})}) {
    for (const FD& fd : fds) {
      if (!agree.Test(fd.rhs)) {
        EXPECT_FALSE(fd.lhs.IsSubsetOf(agree)) << fd.ToString();
      }
    }
  }
}

// Update() reports the confirmed FDs it removed — what an incremental batch
// counts as broken proofs — without a tree walk.
TEST(InductorTest, UpdateReturnsTheConfirmedFdsItRemoved) {
  FDTree tree(5);
  Inductor inductor(&tree);
  inductor.Update({Agree({3}, 5)});
  tree.ConfirmAll();
  // A second batch adds unconfirmed specializations next to the proofs.
  inductor.Update({Agree({0, 4}, 5)});
  const size_t confirmed_before = tree.CountConfirmedFds();
  ASSERT_GT(confirmed_before, 0u);
  ASSERT_LT(confirmed_before, tree.CountFds());

  const size_t removed =
      inductor.Update({Agree({0, 1}, 5), Agree({2, 3}, 5), Agree({4}, 5)});
  EXPECT_GT(removed, 0u);
  EXPECT_EQ(removed, confirmed_before - tree.CountConfirmedFds());
}

TEST(InductorTest, InitializesWithMostGeneralFds) {
  // An empty tree is seeded on construction, before any Update.
  FDTree tree(3);
  Inductor inductor(&tree);
  EXPECT_EQ(tree.CountFds(), 3u);
  for (int rhs = 0; rhs < 3; ++rhs) {
    EXPECT_TRUE(tree.ContainsFd(AttributeSet(3), rhs));
  }
  inductor.Update({});
  EXPECT_EQ(tree.CountFds(), 3u);

  // A tree the caller seeded (HyUcc's ∅ -> K onto a key column) is kept.
  FDTree seeded(4);
  seeded.AddFd(AttributeSet(4), 3);
  Inductor keeps(&seeded);
  keeps.Update({});
  EXPECT_EQ(seeded.CountFds(), 1u);
  EXPECT_TRUE(seeded.ContainsFd(AttributeSet(4), 3));
}

TEST(InductorTest, ResultCoversNoNonFd) {
  // Induction invariant (paper §7): after processing, no FD in the tree is
  // violated by any processed non-FD.
  FDTree tree(5);
  Inductor inductor(&tree);
  std::vector<AttributeSet> non_fds = {
      Agree({0, 1}, 5), Agree({2}, 5), Agree({1, 3, 4}, 5), Agree({}, 5),
      Agree({0, 2, 3}, 5)};
  inductor.Update(non_fds);
  FDSet fds = tree.ToFdSet();
  for (const auto& agree : non_fds) {
    AttributeSet disagree = agree.Complement();
    ForEachBit(disagree, [&](int rhs) {
      for (const FD& fd : fds) {
        if (fd.rhs == rhs) {
          EXPECT_FALSE(fd.lhs.IsSubsetOf(agree))
              << fd.ToString() << " violated by agree set " << agree.ToString();
        }
      }
    });
  }
  EXPECT_TRUE(fds.IsMinimal());
}

TEST(InductorTest, IncrementalUpdatesMatchBatchUpdate) {
  std::vector<AttributeSet> non_fds = {Agree({0, 1}), Agree({2}), Agree({1, 3}),
                                       Agree({0, 3})};
  FDTree batch_tree(4);
  Inductor batch(&batch_tree);
  batch.Update(non_fds);

  FDTree inc_tree(4);
  Inductor inc(&inc_tree);
  for (const auto& s : non_fds) inc.Update({s});

  EXPECT_EQ(batch_tree.ToFdSet(), inc_tree.ToFdSet());
}

TEST(InductorTest, DuplicateNonFdsAreIdempotent) {
  FDTree tree(4);
  Inductor inductor(&tree);
  inductor.Update({Agree({1, 2})});
  FDSet first = tree.ToFdSet();
  inductor.Update({Agree({1, 2})});
  EXPECT_EQ(tree.ToFdSet(), first);
}

TEST(InductorTest, FullAgreeSetChangesNothing) {
  // Two identical records agree everywhere: no attribute differs, so there
  // is no violated FD to specialize.
  FDTree tree(3);
  Inductor inductor(&tree);
  inductor.Update({});
  FDSet before = tree.ToFdSet();
  inductor.Update({AttributeSet::Full(3)});
  EXPECT_EQ(tree.ToFdSet(), before);
}

// ---- Batched Inductor vs the per-RHS legacy oracle ------------------------

/// Seeded agree-set batches over `m` attributes. Most sets miss a handful of
/// attributes (the sampler's typical non-FDs; it keeps wide trees small),
/// narrow relations also get sparse sets, and every batch mixes in
/// duplicates within and across batches plus empty and full agree sets.
std::vector<std::vector<AttributeSet>> AgreeSetBatches(int m, uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::vector<std::vector<AttributeSet>> batches;
  std::vector<AttributeSet> seen;
  for (int b = 0; b < 4; ++b) {
    std::vector<AttributeSet> batch;
    for (int i = 0; i < 14; ++i) {
      AttributeSet agree = AttributeSet::Full(m);
      if (m <= 12 && rng() % 4 == 0) {
        for (int a = 0; a < m; ++a) {
          if (rng() % 3 != 0) agree.Reset(a);
        }
      } else {
        const int zeros = 1 + static_cast<int>(rng() % 5);
        for (int z = 0; z < zeros; ++z) {
          agree.Reset(static_cast<int>(rng() % static_cast<uint64_t>(m)));
        }
      }
      batch.push_back(agree);
    }
    batch.push_back(batch[rng() % batch.size()]);
    if (!seen.empty()) batch.push_back(seen[rng() % seen.size()]);
    batch.push_back(AttributeSet::Full(m));
    if (b == 2) batch.push_back(AttributeSet(m));
    std::shuffle(batch.begin(), batch.end(), rng);
    seen.insert(seen.end(), batch.begin(), batch.end());
    batches.push_back(std::move(batch));
  }
  return batches;
}

class InductorDifferentialTest
    : public ::testing::TestWithParam<std::tuple<int, uint64_t>> {};

// The batched Inductor must build the very tree the per-RHS loop builds —
// FD set, node structure and confirmed-removal counts — batch after batch,
// also once confirmed bits are present (ConfirmAll after the first batch, as
// an incremental session's seed does).
TEST_P(InductorDifferentialTest, MatchesPerRhsLegacyInductor) {
  const auto [m, seed] = GetParam();
  FDTree tree(m);
  FDTree legacy_tree(m);
  Inductor inductor(&tree);
  legacy::LegacyInductor legacy_inductor(&legacy_tree);
  size_t confirmed_removed = 0;
  int b = 0;
  for (const auto& batch : AgreeSetBatches(m, seed)) {
    const size_t removed = inductor.Update(batch);
    EXPECT_EQ(removed, legacy_inductor.Update(batch)) << "batch " << b;
    confirmed_removed += removed;
    ASSERT_EQ(tree.ToFdSet(), legacy_tree.ToFdSet()) << "batch " << b;
    EXPECT_EQ(tree.CountNodes(), legacy_tree.CountNodes()) << "batch " << b;
    EXPECT_EQ(tree.CountConfirmedFds(), legacy_tree.CountConfirmedFds());
    EXPECT_NO_THROW(tree.CheckInvariants());
    if (b == 0) {
      tree.ConfirmAll();
      legacy_tree.ConfirmAll();
    }
    ++b;
  }
  // The stream must exercise the confirmed-removal count, not just zeros.
  EXPECT_GT(confirmed_removed, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Widths, InductorDifferentialTest,
    ::testing::Combine(::testing::Values(4, 12, 34, 70, 130),
                       ::testing::Values(uint64_t{1}, uint64_t{2},
                                         uint64_t{3})));

}  // namespace
}  // namespace hyfd
