#include "fd/closure.h"

#include <algorithm>
#include <random>
#include <vector>

#include "fd/normalizer.h"
#include "gtest/gtest.h"

namespace hyfd {
namespace {

AttributeSet Bits(std::initializer_list<int> bits, int n = 5) {
  return AttributeSet(n, bits);
}

FDSet TextbookFds() {
  // Classic example over R(A,B,C,D,E): A->B, B->C, {C,D}->E.
  FDSet fds;
  fds.Add(Bits({0}), 1);
  fds.Add(Bits({1}), 2);
  fds.Add(Bits({2, 3}), 4);
  fds.Canonicalize();
  return fds;
}

TEST(ClosureTest, TransitiveClosure) {
  FDSet fds = TextbookFds();
  AttributeSet closure = Closure(Bits({0}), fds);
  EXPECT_EQ(closure.ToIndexes(), (std::vector<int>{0, 1, 2}));
  closure = Closure(Bits({0, 3}), fds);
  EXPECT_EQ(closure.ToIndexes(), (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(ClosureTest, Implies) {
  FDSet fds = TextbookFds();
  EXPECT_TRUE(Implies(fds, FD(Bits({0}), 2)));        // A->C by transitivity
  EXPECT_TRUE(Implies(fds, FD(Bits({0, 3}), 4)));     // AD->E
  EXPECT_FALSE(Implies(fds, FD(Bits({1}), 0)));       // B->A does not follow
}

TEST(ClosureTest, Equivalence) {
  FDSet a = TextbookFds();
  FDSet b = TextbookFds();
  b.Add(Bits({0}), 2);  // redundant A->C
  b.Canonicalize();
  EXPECT_TRUE(Equivalent(a, b, 5));
  FDSet c;
  c.Add(Bits({0}), 1);
  EXPECT_FALSE(Equivalent(a, c, 5));
}

TEST(ClosureTest, MinimalCoverRemovesRedundancy) {
  FDSet fds = TextbookFds();
  fds.Add(Bits({0}), 2);        // redundant (A->B->C)
  fds.Add(Bits({0, 1}), 2);     // extraneous LHS attr (B->C suffices)
  fds.Canonicalize();
  FDSet cover = MinimalCover(fds, 5);
  EXPECT_TRUE(Equivalent(fds, cover, 5));
  EXPECT_LE(cover.size(), 3u);
  EXPECT_TRUE(cover.IsMinimal());
}

TEST(ClosureTest, IsSuperKey) {
  FDSet fds = TextbookFds();
  EXPECT_TRUE(IsSuperKey(Bits({0, 3}), fds, 5));
  EXPECT_FALSE(IsSuperKey(Bits({0}), fds, 5));
  EXPECT_TRUE(IsSuperKey(Bits({0, 1, 2, 3, 4}), fds, 5));
}

TEST(ClosureTest, CandidateKeysSingle) {
  FDSet fds = TextbookFds();
  auto keys = CandidateKeys(fds, 5);
  ASSERT_EQ(keys.size(), 1u);
  EXPECT_EQ(keys[0], Bits({0, 3}));  // AD is the unique candidate key
}

TEST(ClosureTest, CandidateKeysMultiple) {
  // A->B and B->A: keys {A,C} and {B,C} over R(A,B,C).
  FDSet fds;
  fds.Add(AttributeSet(3, {0}), 1);
  fds.Add(AttributeSet(3, {1}), 0);
  fds.Canonicalize();
  auto keys = CandidateKeys(fds, 3);
  ASSERT_EQ(keys.size(), 2u);
  EXPECT_EQ(keys[0], AttributeSet(3, {0, 2}));
  EXPECT_EQ(keys[1], AttributeSet(3, {1, 2}));
}

TEST(ClosureTest, NoFdsMeansFullKey) {
  FDSet fds;
  auto keys = CandidateKeys(fds, 4);
  ASSERT_EQ(keys.size(), 1u);
  EXPECT_EQ(keys[0], AttributeSet::Full(4));
}

/// Every minimal K ⊆ universe with universe ⊆ K+, by subset enumeration.
std::vector<AttributeSet> BruteForceKeys(const FDSet& fds,
                                         const AttributeSet& universe) {
  const std::vector<int> attrs = universe.ToIndexes();
  const auto is_key = [&](const AttributeSet& k) {
    return universe.IsSubsetOf(Closure(k, fds));
  };
  std::vector<AttributeSet> keys;
  for (uint32_t mask = 0; mask < (1u << attrs.size()); ++mask) {
    AttributeSet k(universe.size());
    for (size_t i = 0; i < attrs.size(); ++i) {
      if ((mask >> i) & 1u) k.Set(attrs[i]);
    }
    if (!is_key(k)) continue;
    bool minimal = true;
    for (int a = k.First(); a != AttributeSet::kNpos && minimal;
         a = k.NextAfter(a)) {
      minimal = !is_key(k.Without(a));
    }
    if (minimal) keys.push_back(k);
  }
  std::sort(keys.begin(), keys.end(), SmallerThenLess);
  return keys;
}

TEST(ClosureTest, CandidateKeysMatchBruteForceOnRandomFdSets) {
  constexpr int kAttrs = 8;
  std::mt19937_64 rng(4242);
  for (int trial = 0; trial < 300; ++trial) {
    FDSet fds;
    const int num_fds = 1 + static_cast<int>(rng() % 10);
    for (int i = 0; i < num_fds; ++i) {
      AttributeSet lhs(kAttrs);
      const int width = static_cast<int>(rng() % 4);
      for (int j = 0; j < width; ++j) lhs.Set(static_cast<int>(rng() % kAttrs));
      fds.Add(lhs, static_cast<int>(rng() % kAttrs));
    }
    fds.Canonicalize();
    // The full schema, then a random sub-universe (derivations may pass
    // through the attributes outside it).
    AttributeSet sub(kAttrs);
    for (int a = 0; a < kAttrs; ++a) {
      if (rng() % 3 != 0) sub.Set(a);
    }
    for (const AttributeSet& universe : {AttributeSet::Full(kAttrs), sub}) {
      EXPECT_EQ(CandidateKeysWithin(fds, universe), BruteForceKeys(fds, universe))
          << "trial " << trial << " universe " << universe.ToString();
    }
  }
}

TEST(ClosureTest, SubUniverseKeysDerivedThroughOutsideAttributes) {
  // A->X, X->B, B->Y, Y->A over (A,B,X,Y): both {A} and {B} key {A,B}, each
  // only through an attribute outside it.
  FDSet fds;
  fds.Add(AttributeSet(4, {0}), 2);
  fds.Add(AttributeSet(4, {2}), 1);
  fds.Add(AttributeSet(4, {1}), 3);
  fds.Add(AttributeSet(4, {3}), 0);
  fds.Canonicalize();
  const auto keys = CandidateKeysWithin(fds, AttributeSet(4, {0, 1}));
  ASSERT_EQ(keys.size(), 2u);
  EXPECT_EQ(keys[0], AttributeSet(4, {0}));
  EXPECT_EQ(keys[1], AttributeSet(4, {1}));
}

TEST(NormalizerTest, DetectsBcnfViolations) {
  Normalizer norm(5, TextbookFds());
  EXPECT_FALSE(norm.IsBcnf());
  EXPECT_EQ(norm.BcnfViolations().size(), 3u);  // none of the LHSs is a key
}

TEST(NormalizerTest, KeyOnlySchemaIsBcnf) {
  // A -> B,C over R(A,B,C): A is a key, schema already in BCNF.
  FDSet fds;
  fds.Add(AttributeSet(3, {0}), 1);
  fds.Add(AttributeSet(3, {0}), 2);
  fds.Canonicalize();
  Normalizer norm(3, fds);
  EXPECT_TRUE(norm.IsBcnf());
  EXPECT_TRUE(norm.BcnfDecompose().relations.size() == 1);
}

TEST(NormalizerTest, DecomposesIntoBcnfRelations) {
  Normalizer norm(5, TextbookFds());
  Decomposition d = norm.BcnfDecompose();
  EXPECT_GE(d.relations.size(), 2u);
  // Every sub-relation must itself be violation-free.
  for (const auto& sub : d.relations) {
    for (const FD& fd : sub.fds) {
      if (fd.IsTrivial()) continue;
      AttributeSet closure = Closure(fd.lhs, sub.fds) & sub.attributes;
      EXPECT_EQ(closure, sub.attributes)
          << "BCNF violation survives in " << sub.attributes.ToString();
    }
  }
  // The union of the sub-relations covers the schema.
  AttributeSet covered(5);
  for (const auto& sub : d.relations) covered |= sub.attributes;
  EXPECT_EQ(covered, AttributeSet::Full(5));
}

TEST(NormalizerTest, ProjectionKeepsImpliedFdsOnly) {
  Normalizer norm(5, TextbookFds());
  // Project onto {A,B,C}: A->B, B->C survive; CD->E disappears.
  FDSet projected = norm.Project(Bits({0, 1, 2}));
  EXPECT_TRUE(Implies(projected, FD(Bits({0}), 1)));
  EXPECT_TRUE(Implies(projected, FD(Bits({1}), 2)));
  for (const FD& fd : projected) {
    EXPECT_TRUE(fd.lhs.IsSubsetOf(Bits({0, 1, 2})));
    EXPECT_TRUE(Bits({0, 1, 2}).Test(fd.rhs));
  }
}

TEST(NormalizerTest, ProjectionFindsTransitiveFds) {
  // A->B, B->C projected onto {A,C} must yield A->C.
  FDSet fds;
  fds.Add(AttributeSet(3, {0}), 1);
  fds.Add(AttributeSet(3, {1}), 2);
  fds.Canonicalize();
  Normalizer norm(3, fds);
  FDSet projected = norm.Project(AttributeSet(3, {0, 2}));
  EXPECT_TRUE(Implies(projected, FD(AttributeSet(3, {0}), 2)));
}

}  // namespace
}  // namespace hyfd
