#include "fd/fd_tree.h"

#include "gtest/gtest.h"

namespace hyfd {
namespace {

AttributeSet Bits(std::initializer_list<int> bits, int n = 5) {
  return AttributeSet(n, bits);
}

TEST(FDTreeTest, AddAndContains) {
  FDTree tree(5);
  EXPECT_TRUE(tree.AddFd(Bits({0, 2}), 3));
  EXPECT_TRUE(tree.ContainsFd(Bits({0, 2}), 3));
  EXPECT_FALSE(tree.ContainsFd(Bits({0, 2}), 4));
  EXPECT_FALSE(tree.ContainsFd(Bits({0}), 3));
  // Re-adding reports "already present".
  EXPECT_FALSE(tree.AddFd(Bits({0, 2}), 3));
}

TEST(FDTreeTest, MostGeneralFds) {
  FDTree tree(4);
  tree.AddMostGeneralFds();
  for (int rhs = 0; rhs < 4; ++rhs) {
    EXPECT_TRUE(tree.ContainsFd(AttributeSet(4), rhs));
  }
  EXPECT_EQ(tree.CountFds(), 4u);
}

TEST(FDTreeTest, ContainsFdOrGeneralization) {
  FDTree tree(5);
  tree.AddFd(Bits({1}), 3);
  EXPECT_TRUE(tree.ContainsFdOrGeneralization(Bits({1}), 3));
  EXPECT_TRUE(tree.ContainsFdOrGeneralization(Bits({1, 2}), 3));
  EXPECT_TRUE(tree.ContainsFdOrGeneralization(Bits({0, 1, 4}), 3));
  EXPECT_FALSE(tree.ContainsFdOrGeneralization(Bits({0, 2}), 3));
  EXPECT_FALSE(tree.ContainsFdOrGeneralization(Bits({1, 2}), 4));
}

TEST(FDTreeTest, EmptyLhsGeneralizesEverything) {
  FDTree tree(5);
  tree.AddFd(AttributeSet(5), 2);
  EXPECT_TRUE(tree.ContainsFdOrGeneralization(Bits({0, 1, 3, 4}), 2));
}

TEST(FDTreeTest, GetFdAndGeneralizations) {
  FDTree tree(5);
  tree.AddFd(Bits({0}), 4);
  tree.AddFd(Bits({1, 2}), 4);
  tree.AddFd(Bits({0, 1, 2}), 4);   // also a "generalization" of itself
  tree.AddFd(Bits({3}), 4);         // not a subset of {0,1,2}
  tree.AddFd(Bits({0, 1}), 3);      // another rhs of the mask
  tree.AddFd(Bits({0, 1}), 2);      // rhs outside the mask
  // Path pre-order, each LHS with the queried RHSs it stores.
  auto gens = tree.GetFdAndGeneralizations(Bits({0, 1, 2}), Bits({3, 4}));
  ASSERT_EQ(gens.size(), 4u);
  EXPECT_EQ(gens[0].lhs, Bits({0}));
  EXPECT_EQ(gens[0].rhss, Bits({4}));
  EXPECT_EQ(gens[1].lhs, Bits({0, 1}));
  EXPECT_EQ(gens[1].rhss, Bits({3}));
  EXPECT_EQ(gens[2].lhs, Bits({0, 1, 2}));
  EXPECT_EQ(gens[2].rhss, Bits({4}));
  EXPECT_EQ(gens[3].lhs, Bits({1, 2}));
  EXPECT_EQ(gens[3].rhss, Bits({4}));
  // The one-bit mask is the single-RHS lookup.
  gens = tree.GetFdAndGeneralizations(Bits({0, 1, 2}), Bits({4}));
  ASSERT_EQ(gens.size(), 3u);
  EXPECT_EQ(gens[0].lhs, Bits({0}));
  EXPECT_EQ(gens[1].lhs, Bits({0, 1, 2}));
  EXPECT_EQ(gens[2].lhs, Bits({1, 2}));
  for (const auto& gen : gens) EXPECT_EQ(gen.rhss, Bits({4}));
  EXPECT_TRUE(tree.GetFdAndGeneralizations(Bits({0, 1, 2}), Bits({})).empty());
}

TEST(FDTreeTest, GeneralizedRhss) {
  FDTree tree(5);
  tree.AddFd(Bits({0}), 4);
  tree.AddFd(Bits({1, 2}), 3);
  tree.AddFd(Bits({3}), 2);
  EXPECT_EQ(tree.GeneralizedRhss(Bits({0, 1, 2}), Bits({2, 3, 4})),
            Bits({3, 4}));
  EXPECT_EQ(tree.GeneralizedRhss(Bits({0, 1}), Bits({2, 3, 4})), Bits({4}));
  EXPECT_EQ(tree.GeneralizedRhss(Bits({0, 1, 2}), Bits({2})), Bits({}));
  EXPECT_EQ(tree.GeneralizedRhss(Bits({0, 1, 2}), Bits({})), Bits({}));
}

TEST(FDTreeTest, RemoveFd) {
  FDTree tree(5);
  tree.AddFd(Bits({0, 1}), 2);
  tree.AddFd(Bits({0, 1}), 3);
  tree.RemoveFd(Bits({0, 1}), 2);
  EXPECT_FALSE(tree.ContainsFd(Bits({0, 1}), 2));
  EXPECT_TRUE(tree.ContainsFd(Bits({0, 1}), 3));
  // Removing a non-existent FD is a no-op.
  tree.RemoveFd(Bits({4}), 0);
  EXPECT_EQ(tree.CountFds(), 1u);
}

TEST(FDTreeTest, GetLevelReturnsNodesWithLhs) {
  FDTree tree(5);
  tree.AddMostGeneralFds();
  tree.AddFd(Bits({0}), 2);
  tree.AddFd(Bits({3}), 2);
  tree.AddFd(Bits({0, 1}), 4);
  auto level0 = tree.GetLevel(0);
  ASSERT_EQ(level0.size(), 1u);
  EXPECT_TRUE(level0[0].lhs.Empty());
  auto level1 = tree.GetLevel(1);
  EXPECT_EQ(level1.size(), 2u);
  auto level2 = tree.GetLevel(2);
  ASSERT_EQ(level2.size(), 1u);
  EXPECT_EQ(level2[0].lhs, Bits({0, 1}));
  EXPECT_TRUE(level2[0].node->fds.Test(4));
  EXPECT_TRUE(tree.GetLevel(3).empty());
}

TEST(FDTreeTest, AddFdAndGetIfNewNode) {
  FDTree tree(5);
  bool added = false;
  FDTree::Node* node = tree.AddFdAndGetIfNewNode(Bits({1, 3}), 0, &added);
  EXPECT_NE(node, nullptr);
  EXPECT_TRUE(added);
  // Same path, different rhs: no new node, but the FD is new.
  node = tree.AddFdAndGetIfNewNode(Bits({1, 3}), 2, &added);
  EXPECT_EQ(node, nullptr);
  EXPECT_TRUE(added);
  // Same FD again: nothing new.
  node = tree.AddFdAndGetIfNewNode(Bits({1, 3}), 2, &added);
  EXPECT_EQ(node, nullptr);
  EXPECT_FALSE(added);
}

TEST(FDTreeTest, ToFdSetRoundTrip) {
  FDTree tree(5);
  tree.AddFd(Bits({0}), 1);
  tree.AddFd(Bits({2, 4}), 0);
  tree.AddFd(AttributeSet(5), 3);
  FDSet set = tree.ToFdSet();
  EXPECT_EQ(set.size(), 3u);
  EXPECT_TRUE(set.Contains(FD(Bits({0}), 1)));
  EXPECT_TRUE(set.Contains(FD(Bits({2, 4}), 0)));
  EXPECT_TRUE(set.Contains(FD(AttributeSet(5), 3)));
}

TEST(FDTreeTest, CountNodesAndDepth) {
  FDTree tree(5);
  EXPECT_EQ(tree.CountNodes(), 1u);  // root
  EXPECT_EQ(tree.Depth(), 0);
  tree.AddFd(Bits({0, 1, 2}), 4);
  EXPECT_EQ(tree.CountNodes(), 4u);
  EXPECT_EQ(tree.Depth(), 3);
}

TEST(FDTreeTest, MaxLhsSizePrunesAndRejects) {
  FDTree tree(5);
  tree.AddFd(Bits({0}), 4);
  tree.AddFd(Bits({0, 1}), 4);
  tree.AddFd(Bits({0, 1, 2}), 4);
  tree.SetMaxLhsSize(2);
  EXPECT_TRUE(tree.ContainsFd(Bits({0}), 4));
  EXPECT_TRUE(tree.ContainsFd(Bits({0, 1}), 4));
  EXPECT_FALSE(tree.ContainsFd(Bits({0, 1, 2}), 4));
  EXPECT_EQ(tree.Depth(), 2);
  // Adds beyond the cap are refused.
  EXPECT_FALSE(tree.AddFd(Bits({1, 2, 3}), 0));
  EXPECT_EQ(tree.CountFds(), 2u);
}

TEST(FDTreeTest, RhsAttrsPruningStaysCorrectAfterRemovals) {
  FDTree tree(5);
  tree.AddFd(Bits({0, 1}), 3);
  tree.RemoveFd(Bits({0, 1}), 3);
  EXPECT_FALSE(tree.ContainsFdOrGeneralization(Bits({0, 1, 2}), 3));
  EXPECT_TRUE(tree.GetFdAndGeneralizations(Bits({0, 1}), Bits({3})).empty());
  EXPECT_TRUE(tree.GeneralizedRhss(Bits({0, 1, 2}), Bits({3})).Empty());
}

TEST(FDTreeTest, MemoryBytesGrowsWithTree) {
  FDTree tree(20);
  size_t base = tree.MemoryBytes();
  for (int i = 0; i < 10; ++i) tree.AddFd(AttributeSet(20, {i, i + 5}), 19);
  EXPECT_GT(tree.MemoryBytes(), base);
}

}  // namespace
}  // namespace hyfd
