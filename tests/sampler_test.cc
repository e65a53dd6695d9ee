#include "core/sampler.h"

#include <algorithm>
#include <random>
#include <set>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/negative_cover.h"
#include "core/preprocessor.h"
#include "data/datasets.h"
#include "data/generators.h"
#include "fd/reference.h"
#include "gtest/gtest.h"
#include "test_util.h"
#include "util/thread_pool.h"

namespace hyfd {
namespace {

TEST(PreprocessorTest, RanksAttributesByClusterCount) {
  // Column 0: unique (3 clusters incl. singletons); column 1: constant
  // (1 cluster); column 2: two values (2 clusters).
  Relation r = Relation::FromStringRows(
      Schema::Generic(3),
      {{"1", "c", "x"}, {"2", "c", "x"}, {"3", "c", "y"}});
  PreprocessedData data = Preprocess(r);
  EXPECT_EQ(data.by_rank, (std::vector<int>{0, 2, 1}));
  EXPECT_EQ(data.rank[0], 0);
  EXPECT_EQ(data.rank[2], 1);
  EXPECT_EQ(data.rank[1], 2);
}

TEST(PreprocessorTest, RecordsMatchRelationShape) {
  Relation r = testing::RandomRelation(4, 30, 5);
  PreprocessedData data = Preprocess(r);
  EXPECT_EQ(data.num_records, 30u);
  EXPECT_EQ(data.num_attributes, 4);
  EXPECT_EQ(data.records.num_records(), 30u);
}

TEST(SamplerTest, FindsViolationsOfInvalidFds) {
  // b does NOT determine a: records 0,1 share b but differ in a. The
  // sampler must discover the corresponding agree set {1} (attribute b).
  Relation r = Relation::FromStringRows(
      Schema({"a", "b"}),
      {{"1", "x"}, {"2", "x"}, {"1", "y"}, {"2", "y"}});
  PreprocessedData data = Preprocess(r);
  Sampler sampler(&data, 0.01);
  auto non_fds = sampler.Run({});
  bool found = false;
  for (const auto& s : non_fds) {
    if (s.ToIndexes() == std::vector<int>{1}) found = true;
  }
  EXPECT_TRUE(found);
  EXPECT_GT(sampler.total_comparisons(), 0u);
}

TEST(SamplerTest, NonFdsAreActualNonFds) {
  // Soundness: every sampled agree set Y with a 0-bit A corresponds to a
  // real record pair, so Y' -> A must be invalid for every Y' ⊆ Y. Verify
  // the strongest statement: Y itself does not determine A.
  Relation r = testing::RandomRelation(5, 80, 42, 3);
  PreprocessedData data = Preprocess(r);
  Sampler sampler(&data, 0.01);
  auto non_fds = sampler.Run({});
  ASSERT_FALSE(non_fds.empty());
  for (const auto& agree : non_fds) {
    AttributeSet disagree = agree.Complement();
    ForEachBit(disagree, [&](int rhs) {
      EXPECT_FALSE(FdHolds(r, agree, rhs))
          << agree.ToString() << " -> " << rhs << " should be invalid";
    });
  }
}

TEST(SamplerTest, DeduplicatesAgreeSets) {
  // Many record pairs share the same agree set; Run must return each once.
  Relation r = testing::RandomRelation(3, 100, 9, 2);
  PreprocessedData data = Preprocess(r);
  Sampler sampler(&data, 0.0001);
  auto non_fds = sampler.Run({});
  std::set<std::vector<int>> unique;
  for (const auto& s : non_fds) unique.insert(s.ToIndexes());
  EXPECT_EQ(unique.size(), non_fds.size());
}

TEST(SamplerTest, SuggestionsAreMatched) {
  // All columns unique: cluster windowing has nothing to compare, so only
  // the Validator's suggested pair can contribute — its (empty) agree set
  // records that no single value determines anything.
  Relation r = Relation::FromStringRows(
      Schema({"a", "b"}), {{"1", "x"}, {"2", "y"}, {"3", "z"}});
  PreprocessedData data = Preprocess(r);
  Sampler sampler(&data, 0.01);
  auto first = sampler.Run({});
  EXPECT_TRUE(first.empty());
  auto second = sampler.Run({{0, 1}});
  ASSERT_EQ(second.size(), 1u);
  EXPECT_TRUE(second[0].Empty());
  EXPECT_EQ(sampler.total_comparisons(), 1u);
}

TEST(SamplerTest, ThresholdHalvesOnReentry) {
  Relation r = testing::RandomRelation(3, 50, 11, 2);
  PreprocessedData data = Preprocess(r);
  Sampler sampler(&data, 0.04);
  sampler.Run({});
  EXPECT_DOUBLE_EQ(sampler.current_threshold(), 0.04);
  sampler.Run({});
  EXPECT_DOUBLE_EQ(sampler.current_threshold(), 0.02);
  sampler.Run({});
  EXPECT_DOUBLE_EQ(sampler.current_threshold(), 0.01);
}

TEST(SamplerTest, RandomStrategyAlsoFindsViolations) {
  Relation r = testing::RandomRelation(4, 100, 13, 2);
  PreprocessedData data = Preprocess(r);
  Sampler sampler(&data, 0.01, SamplingStrategy::kRandomPairs);
  auto non_fds = sampler.Run({});
  EXPECT_FALSE(non_fds.empty());
}

TEST(SamplerTest, RandomStrategyEfficiencyCountsPerformedComparisons) {
  // Three rows, three columns; every one of the three record pairs agrees on
  // exactly one (distinct) attribute, so random sampling keeps finding a new
  // agree set among the first batches and the efficiency stays 3/∞ … i.e.
  // the loop only stops once enough *performed* comparisons dilute it. The
  // old code divided by the constant batch size, overestimating the work
  // done (pairs are drawn with replacement and deduplicated per batch) and
  // bailing out after roughly one batch.
  Relation r = Relation::FromStringRows(
      Schema::Generic(3),
      {{"a", "x", "p"}, {"a", "y", "q"}, {"b", "x", "q"}});
  PreprocessedData data = Preprocess(r);
  Sampler sampler(&data, 0.004, SamplingStrategy::kRandomPairs);
  auto non_fds = sampler.Run({});
  EXPECT_EQ(non_fds.size(), 3u);
  EXPECT_EQ(sampler.num_non_fds(), 3u);
  // 3 new agree sets at threshold 0.004 requires ≥ 750 performed
  // comparisons; dividing by kBatch would have stopped far earlier.
  EXPECT_GT(sampler.total_comparisons(), 750u);
}

TEST(SamplerTest, NoViolationsOnUniqueData) {
  // All columns unique: no record pair agrees anywhere, so cluster
  // windowing has no clusters to slide over.
  Relation r = Relation::FromStringRows(
      Schema::Generic(2), {{"1", "a"}, {"2", "b"}, {"3", "c"}});
  PreprocessedData data = Preprocess(r);
  Sampler sampler(&data, 0.01);
  auto non_fds = sampler.Run({});
  EXPECT_TRUE(non_fds.empty());
  EXPECT_EQ(sampler.total_comparisons(), 0u);
}

/// Bytes of one cover slot: a `words`-word key and a witness pair.
size_t CoverSlotBytes(size_t words) {
  return words * sizeof(uint64_t) + 2 * sizeof(RecordId);
}

/// The cover's allocation after `n` one-at-a-time inserts of `words`-word
/// keys: no slots while empty, else the smallest power of two >= 16 that is
/// at least twice `n`.
size_t ExpectedCoverBytes(size_t n, size_t words) {
  if (n == 0) return 0;
  size_t slots = 16;
  while (slots < 2 * n) slots *= 2;
  return slots * CoverSlotBytes(words);
}

TEST(SamplerTest, NegativeCoverBytesEqualsTableSlots) {
  // The figure is the flat table's key and witness bytes, derived here
  // from the agree-set count alone, so it moves only when the table
  // rehashes, and it is the same at 1 and 4 threads. The registry's natural
  // widths include multi-word agree sets (uniprot); the duplicate-heavy
  // fd-reduced input makes the window runs parallel.
  std::vector<std::pair<std::string, Relation>> inputs;
  for (const DatasetSpec& spec : PaperDatasets()) {
    inputs.emplace_back(spec.name,
                        MakeDataset(spec.name,
                                    std::min<size_t>(spec.default_rows, 200)));
  }
  inputs.emplace_back("fd-reduced", GenerateFdReduced(5000, 8, 4, /*seed=*/3));
  ThreadPool pool(4);
  for (const auto& [name, relation] : inputs) {
    PreprocessedData data = Preprocess(relation);
    const size_t words = AttributeSet(data.num_attributes).num_words();
    Sampler serial(&data, 0.01);
    Sampler parallel(&data, 0.01, SamplingStrategy::kClusterWindowing, &pool);
    EXPECT_EQ(serial.NegativeCoverBytes(), 0u) << name;
    for (int phase = 0; phase < 3; ++phase) {
      const std::vector<std::pair<RecordId, RecordId>> suggestions = {
          {0, static_cast<RecordId>(phase + 1)}};
      serial.Run(suggestions);
      parallel.Run(suggestions);
      ASSERT_EQ(serial.num_non_fds(), parallel.num_non_fds()) << name;
      EXPECT_EQ(serial.NegativeCoverBytes(),
                ExpectedCoverBytes(serial.num_non_fds(), words))
          << name << ", phase " << phase;
      EXPECT_EQ(parallel.NegativeCoverBytes(), serial.NegativeCoverBytes())
          << name << ", phase " << phase;
    }
  }
}

/// The mirror's entries in the cover's canonical order.
std::vector<NegativeCover::Entry> MirrorEntries(
    const std::unordered_map<AttributeSet, std::pair<RecordId, RecordId>>&
        mirror) {
  std::vector<NegativeCover::Entry> entries;
  for (const auto& [agree, witness] : mirror) {
    entries.push_back({agree, witness.first, witness.second});
  }
  std::sort(entries.begin(), entries.end(),
            [](const NegativeCover::Entry& x, const NegativeCover::Entry& y) {
              return NegativeCover::CanonicalLess(x.agree, y.agree);
            });
  return entries;
}

TEST(NegativeCoverTest, MatchesUnorderedMapMirrorAcrossRehashesAndRetain) {
  // Random inserts and probes against a std::unordered_map mirror (agree set
  // -> first witness), through rehashes from 16 up to 8192 slots, then a
  // retain step over a random live mask, then more inserts. The keys include
  // the empty set (the word 0), the full set (the all-ones word at width
  // 64), sparse sets, small counters (whose low bits alone differ) and dense
  // random words; widths 65-200 give multi-word keys.
  constexpr RecordId kRows = 1000;
  for (int width : {1, 7, 12, 63, 64, 65, 100, 128, 129, 200}) {
    std::mt19937_64 rng(static_cast<uint64_t>(width));
    std::vector<AttributeSet> pool = {AttributeSet(width),
                                      AttributeSet::Full(width)};
    while (pool.size() < 6000) {
      AttributeSet key(width);
      switch (pool.size() % 3) {
        case 0:
          for (int b = 0; b < 3; ++b) key.Set(static_cast<int>(rng() % width));
          break;
        case 1:
          key.SetWord(rng() % key.num_words(), pool.size());
          break;
        default:
          for (size_t w = 0; w < key.num_words(); ++w) key.SetWord(w, rng());
          break;
      }
      pool.push_back(std::move(key));
    }
    NegativeCover cover(width);
    std::unordered_map<AttributeSet, std::pair<RecordId, RecordId>> mirror;
    const size_t slot_bytes = CoverSlotBytes(cover.num_words());
    EXPECT_EQ(cover.MemoryBytes(), 0u);
    int rehashes = 0;
    const auto random_ops = [&](int ops) {
      for (int op = 0; op < ops; ++op) {
        const AttributeSet& key = pool[rng() % pool.size()];
        const size_t before = cover.capacity();
        ASSERT_EQ(cover.Contains(key.Words()), mirror.count(key) != 0)
            << "width " << width << ", op " << op;
        if (rng() % 2 == 0) {
          const RecordId a = static_cast<RecordId>(rng() % kRows);
          const RecordId b = static_cast<RecordId>(rng() % kRows);
          // The first witness stays: a repeated insert changes nothing.
          ASSERT_EQ(cover.Insert(key.Words(), a, b),
                    mirror.try_emplace(key, a, b).second)
              << "width " << width << ", op " << op;
        }
        ASSERT_EQ(cover.size(), mirror.size());
        const size_t slots = cover.capacity();
        EXPECT_EQ(cover.MemoryBytes(), slots * slot_bytes);
        EXPECT_LE(2 * cover.size(), slots);
        EXPECT_EQ(slots & (slots - 1), 0u) << "not a power of two: " << slots;
        if (slots != before) {
          // A rehash: only an insert that pushed the load past one half.
          EXPECT_GT(2 * cover.size(), before) << "width " << width;
          EXPECT_EQ(slots, before == 0 ? 16 : 2 * before);
          ++rehashes;
        }
      }
    };
    random_ops(12000);
    if (width >= 12) {
      EXPECT_GE(rehashes, 8) << "width " << width;
    }
    ASSERT_EQ(cover.Entries(), MirrorEntries(mirror)) << "width " << width;

    // Retain: about a tenth of the rows die; the entries witnessed by any of
    // them leave, the slot count stays, and the survivors come back in
    // canonical order.
    std::vector<uint8_t> live(kRows);
    for (uint8_t& l : live) l = rng() % 10 != 0 ? 1 : 0;
    const size_t slots = cover.capacity();
    const size_t before_retain = cover.size();
    std::vector<AttributeSet> kept = cover.RetainLive(live);
    for (auto it = mirror.begin(); it != mirror.end();) {
      const auto [a, b] = it->second;
      it = live[a] != 0 && live[b] != 0 ? std::next(it) : mirror.erase(it);
    }
    if (width >= 12) {
      EXPECT_LT(mirror.size(), before_retain) << "width " << width;
    }
    const std::vector<NegativeCover::Entry> want = MirrorEntries(mirror);
    ASSERT_EQ(cover.Entries(), want) << "width " << width;
    ASSERT_EQ(kept.size(), want.size());
    for (size_t i = 0; i < kept.size(); ++i) EXPECT_EQ(kept[i], want[i].agree);
    EXPECT_EQ(cover.capacity(), slots);
    EXPECT_EQ(cover.size(), mirror.size());

    random_ops(3000);
    ASSERT_EQ(cover.Entries(), MirrorEntries(mirror)) << "width " << width;
    for (const AttributeSet& key : pool) {
      EXPECT_EQ(cover.Contains(key.Words()), mirror.count(key) != 0)
          << "width " << width << ", key " << key.ToString();
    }
  }
}

}  // namespace
}  // namespace hyfd
