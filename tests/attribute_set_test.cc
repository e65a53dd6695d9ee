#include "util/attribute_set.h"

#include <random>
#include <unordered_set>
#include <utility>
#include <vector>

#include "gtest/gtest.h"

namespace hyfd {
namespace {

TEST(AttributeSetTest, StartsEmpty) {
  AttributeSet s(10);
  EXPECT_TRUE(s.Empty());
  EXPECT_EQ(s.Count(), 0);
  EXPECT_EQ(s.size(), 10);
  EXPECT_EQ(s.First(), AttributeSet::kNpos);
}

TEST(AttributeSetTest, SetTestReset) {
  AttributeSet s(70);
  s.Set(0);
  s.Set(63);
  s.Set(64);
  s.Set(69);
  EXPECT_TRUE(s.Test(0));
  EXPECT_TRUE(s.Test(63));
  EXPECT_TRUE(s.Test(64));
  EXPECT_TRUE(s.Test(69));
  EXPECT_FALSE(s.Test(1));
  EXPECT_EQ(s.Count(), 4);
  s.Reset(63);
  EXPECT_FALSE(s.Test(63));
  EXPECT_EQ(s.Count(), 3);
}

TEST(AttributeSetTest, InitializerList) {
  AttributeSet s(8, {1, 3, 5});
  EXPECT_EQ(s.ToIndexes(), (std::vector<int>{1, 3, 5}));
}

TEST(AttributeSetTest, FullClearsTailBits) {
  AttributeSet s = AttributeSet::Full(70);
  EXPECT_EQ(s.Count(), 70);
  AttributeSet t = AttributeSet::Full(64);
  EXPECT_EQ(t.Count(), 64);
}

TEST(AttributeSetTest, IterationAcrossWordBoundary) {
  AttributeSet s(130, {0, 63, 64, 127, 128, 129});
  std::vector<int> seen;
  ForEachBit(s, [&](int i) { seen.push_back(i); });
  EXPECT_EQ(seen, (std::vector<int>{0, 63, 64, 127, 128, 129}));
}

TEST(AttributeSetTest, NextAfter) {
  AttributeSet s(100, {5, 50, 99});
  EXPECT_EQ(s.First(), 5);
  EXPECT_EQ(s.NextAfter(5), 50);
  EXPECT_EQ(s.NextAfter(50), 99);
  EXPECT_EQ(s.NextAfter(99), AttributeSet::kNpos);
  EXPECT_EQ(s.NextAfter(0), 5);
}

TEST(AttributeSetTest, SubsetChecks) {
  AttributeSet a(10, {1, 2});
  AttributeSet b(10, {1, 2, 3});
  EXPECT_TRUE(a.IsSubsetOf(b));
  EXPECT_TRUE(a.IsProperSubsetOf(b));
  EXPECT_FALSE(b.IsSubsetOf(a));
  EXPECT_TRUE(a.IsSubsetOf(a));
  EXPECT_FALSE(a.IsProperSubsetOf(a));
  AttributeSet empty(10);
  EXPECT_TRUE(empty.IsSubsetOf(a));
}

TEST(AttributeSetTest, BitwiseOperations) {
  AttributeSet a(10, {1, 2, 3});
  AttributeSet b(10, {3, 4});
  EXPECT_EQ((a & b).ToIndexes(), (std::vector<int>{3}));
  EXPECT_EQ((a | b).ToIndexes(), (std::vector<int>{1, 2, 3, 4}));
  EXPECT_EQ((a ^ b).ToIndexes(), (std::vector<int>{1, 2, 4}));
  AttributeSet c = a;
  c.AndNot(b);
  EXPECT_EQ(c.ToIndexes(), (std::vector<int>{1, 2}));
  EXPECT_TRUE(a.Intersects(b));
  EXPECT_FALSE(c.Intersects(b));
}

TEST(AttributeSetTest, WithWithoutComplement) {
  AttributeSet a(5, {1});
  EXPECT_EQ(a.With(3).ToIndexes(), (std::vector<int>{1, 3}));
  EXPECT_EQ(a.Without(1).ToIndexes(), (std::vector<int>{}));
  EXPECT_EQ(a.Complement().ToIndexes(), (std::vector<int>{0, 2, 3, 4}));
  // The original is unmodified.
  EXPECT_EQ(a.ToIndexes(), (std::vector<int>{1}));
}

TEST(AttributeSetTest, EqualityAndOrdering) {
  AttributeSet a(10, {1, 2});
  AttributeSet b(10, {1, 2});
  AttributeSet c(10, {1, 3});
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_TRUE(a < c);
  EXPECT_FALSE(c < a);
}

TEST(AttributeSetTest, HashableInUnorderedSet) {
  std::unordered_set<AttributeSet> set;
  set.insert(AttributeSet(10, {1, 2}));
  set.insert(AttributeSet(10, {1, 2}));
  set.insert(AttributeSet(10, {2, 3}));
  EXPECT_EQ(set.size(), 2u);
}

TEST(AttributeSetTest, ToStringWithNames) {
  AttributeSet s(3, {0, 2});
  EXPECT_EQ(s.ToString(), "{0,2}");
  EXPECT_EQ(s.ToString({"x", "y", "z"}), "[x, z]");
}

TEST(AttributeSetTest, SetAllOnEmptySet) {
  AttributeSet s(0);
  s.SetAll();
  EXPECT_EQ(s.Count(), 0);
  EXPECT_TRUE(s.Empty());
}

TEST(AttributeSetTest, WordAccessorsRoundTrip) {
  AttributeSet s(70);
  EXPECT_EQ(s.num_words(), 2u);
  s.SetWord(0, 0x5ull);
  s.SetWord(1, 0x3ull);
  EXPECT_EQ(s.Word(0), 0x5ull);
  EXPECT_EQ(s.Word(1), 0x3ull);
  EXPECT_EQ(s.ToIndexes(), (std::vector<int>{0, 2, 64, 65}));

  // The word-built set must be indistinguishable from a bit-built twin.
  AttributeSet twin(70, {0, 2, 64, 65});
  EXPECT_EQ(s, twin);
  EXPECT_EQ(s.Hash(), twin.Hash());
  EXPECT_EQ(s.Count(), twin.Count());
}

TEST(AttributeSetTest, SetWordMasksTailBits) {
  AttributeSet s(70);  // 6 valid bits in the last word
  s.SetWord(1, ~uint64_t{0});
  EXPECT_EQ(s.Word(1), 0x3Full);
  EXPECT_EQ(s.Count(), 6);
  // The zero-tail invariant keeps equality/hash consistent with Set().
  AttributeSet twin(70, {64, 65, 66, 67, 68, 69});
  EXPECT_EQ(s, twin);
  EXPECT_EQ(s.Hash(), twin.Hash());
}

TEST(AttributeSetTest, MutableWordsWritesAreVisible) {
  AttributeSet s(64);
  s.MutableWords()[0] = uint64_t{1} << 63;
  EXPECT_TRUE(s.Test(63));
  EXPECT_EQ(s.Words()[0], uint64_t{1} << 63);
  EXPECT_EQ(s.Count(), 1);
}

// ---- Inline / heap storage boundary ---------------------------------------
//
// Sets over at most 128 attributes keep their two words inline; wider ones
// own a heap array. These cases cross that boundary in every direction.

constexpr int kBoundaryWidths[] = {0, 1, 64, 127, 128, 129, 223};

using Model = std::vector<bool>;

Model RandomModel(int width, std::mt19937_64* rng) {
  Model model(static_cast<size_t>(width));
  for (size_t i = 0; i < model.size(); ++i) model[i] = (*rng)() % 3 == 0;
  return model;
}

AttributeSet FromModel(const Model& model) {
  AttributeSet s(static_cast<int>(model.size()));
  for (size_t i = 0; i < model.size(); ++i) {
    if (model[i]) s.Set(static_cast<int>(i));
  }
  return s;
}

/// Expects `s` to hold exactly `model`'s bits, with a zero tail.
void ExpectMatches(const AttributeSet& s, const Model& model) {
  ASSERT_EQ(s.size(), static_cast<int>(model.size()));
  ASSERT_EQ(s.num_words(), (model.size() + 63) / 64);
  int count = 0;
  for (size_t i = 0; i < model.size(); ++i) {
    EXPECT_EQ(s.Test(static_cast<int>(i)), model[i]) << "bit " << i;
    count += model[i] ? 1 : 0;
  }
  EXPECT_EQ(s.Count(), count);
  if (model.size() % 64 != 0) {
    EXPECT_EQ(s.Word(s.num_words() - 1) >> (model.size() % 64), 0u);
  }
}

/// operator< of the model: sizes first, then the highest differing bit.
bool ModelLess(const Model& a, const Model& b) {
  if (a.size() != b.size()) return a.size() < b.size();
  for (size_t i = a.size(); i-- > 0;) {
    if (a[i] != b[i]) return b[i];
  }
  return false;
}

/// FNV-1a over the model packed into 64-bit words.
size_t ModelHash(const Model& model) {
  size_t h = 1469598103934665603ull;
  for (size_t w = 0; w < (model.size() + 63) / 64; ++w) {
    uint64_t word = 0;
    for (size_t i = w * 64; i < std::min(model.size(), w * 64 + 64); ++i) {
      if (model[i]) word |= uint64_t{1} << (i % 64);
    }
    h ^= word;
    h *= 1099511628211ull;
  }
  return h;
}

TEST(AttributeSetBoundaryTest, ComparisonAndHashAgreeWithModel) {
  std::mt19937_64 rng(7);
  std::vector<Model> models;
  for (int width : kBoundaryWidths) {
    for (int k = 0; k < 4; ++k) models.push_back(RandomModel(width, &rng));
    models.push_back(Model(static_cast<size_t>(width), true));
    models.push_back(Model(static_cast<size_t>(width), false));
  }
  std::vector<AttributeSet> sets;
  for (const Model& model : models) sets.push_back(FromModel(model));
  for (size_t i = 0; i < models.size(); ++i) {
    ExpectMatches(sets[i], models[i]);
    EXPECT_EQ(sets[i].Hash(), ModelHash(models[i]));
    for (size_t j = 0; j < models.size(); ++j) {
      EXPECT_EQ(sets[i] == sets[j], models[i] == models[j]) << i << "," << j;
      EXPECT_EQ(sets[i] < sets[j], ModelLess(models[i], models[j]))
          << i << "," << j;
    }
  }
}

TEST(AttributeSetBoundaryTest, CopyAndMoveAcrossInlineAndHeap) {
  std::mt19937_64 rng(11);
  for (int from : kBoundaryWidths) {
    for (int to : kBoundaryWidths) {
      SCOPED_TRACE(::testing::Message() << from << " -> " << to);
      const Model source_model = RandomModel(from, &rng);
      const Model target_model = RandomModel(to, &rng);

      const AttributeSet source = FromModel(source_model);
      AttributeSet copied = source;
      ExpectMatches(copied, source_model);

      AttributeSet copy_assigned = FromModel(target_model);
      copy_assigned = source;
      ExpectMatches(copy_assigned, source_model);
      ExpectMatches(source, source_model);

      AttributeSet moved_from = FromModel(source_model);
      AttributeSet moved(std::move(moved_from));
      ExpectMatches(moved, source_model);

      AttributeSet move_assigned = FromModel(target_model);
      AttributeSet donor = FromModel(source_model);
      move_assigned = std::move(donor);
      ExpectMatches(move_assigned, source_model);

      // Moved-from sets are empty over 0 attributes and fully reusable.
      for (AttributeSet* reused : {&moved_from, &donor}) {
        EXPECT_EQ(reused->size(), 0);
        EXPECT_TRUE(reused->Empty());
        *reused = FromModel(target_model);
        ExpectMatches(*reused, target_model);
        if (to > 0) {
          reused->Flip(to - 1);
          EXPECT_NE(*reused, FromModel(target_model));
        }
      }
    }
  }
}

TEST(AttributeSetBoundaryTest, SelfAssignmentKeepsTheSet) {
  std::mt19937_64 rng(13);
  for (int width : kBoundaryWidths) {
    const Model model = RandomModel(width, &rng);
    AttributeSet s = FromModel(model);
    AttributeSet& alias = s;
    s = alias;
    ExpectMatches(s, model);
    s = std::move(alias);
    ExpectMatches(s, model);
  }
}

TEST(AttributeSetBoundaryTest, SetWordMasksTheTailAtTheBoundary) {
  AttributeSet at(128);  // the last inline word is full: nothing to mask
  at.SetWord(1, ~uint64_t{0});
  EXPECT_EQ(at.Word(1), ~uint64_t{0});
  EXPECT_EQ(at.Count(), 64);
  AttributeSet past(129);  // first heap width: one valid bit in word 2
  past.SetWord(2, ~uint64_t{0});
  EXPECT_EQ(past.Word(2), 1u);
  EXPECT_EQ(past.Count(), 1);
  EXPECT_EQ(past, AttributeSet(129, {128}));
  EXPECT_EQ(past.Hash(), AttributeSet(129, {128}).Hash());
}

TEST(AttributeSetBoundaryTest, MemoryBytesCountsHeapWordsOnly) {
  for (int width : kBoundaryWidths) {
    AttributeSet s = AttributeSet::Full(width);
    const size_t expected = width <= 128 ? 0 : 8 * s.num_words();
    EXPECT_EQ(s.MemoryBytes(), expected) << width;
    EXPECT_EQ(AttributeSet(s).MemoryBytes(), expected) << width;
  }
  EXPECT_EQ(AttributeSet(129).MemoryBytes(), 24u);
  EXPECT_EQ(AttributeSet(223).MemoryBytes(), 32u);
  EXPECT_EQ(sizeof(AttributeSet), 32u);
}

}  // namespace
}  // namespace hyfd
