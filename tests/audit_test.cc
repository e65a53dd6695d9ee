// The audit suite behind `ctest -L audit`:
//
//  * a sweep that runs every algorithm in the registry (plus HyUCC and the
//    multi-threaded HyFD configuration) on generated data — under
//    -DHYFD_AUDIT=ON this drives every CheckInvariants() hook at the
//    algorithm seams (Pli construction, cache insert/evict, Inductor /
//    Validator phase boundaries);
//  * negative tests proving each deep audit (Pli, FDTree, PliCache,
//    Relation, AttributeSet, NegativeCover) can actually fire.
//    CheckInvariants() is callable from any build, so these run in the
//    plain CI job too.

#include <memory>
#include <vector>

#include "baselines/registry.h"
#include "core/hyfd.h"
#include "core/hyucc.h"
#include "core/negative_cover.h"
#include "core/preprocessor.h"
#include "data/generators.h"
#include "fd/fd_tree.h"
#include "fd/reference.h"
#include "gtest/gtest.h"
#include "pli/pli_builder.h"
#include "pli/pli_cache.h"
#include "test_util.h"
#include "util/check.h"

namespace hyfd {
namespace {

// ---------------------------------------------------------------------------
// Sweep: every registered algorithm under live audit hooks.
// ---------------------------------------------------------------------------

TEST(AuditSweepTest, EveryRegistryAlgorithmOnGeneratedData) {
  for (uint64_t seed : {7u, 21u}) {
    Relation r = testing::RandomRelation(5, 90, seed, 3, /*null_rate=*/0.1);
    FDSet expected = DiscoverFdsBruteForce(r);
    for (const AlgoInfo& algo : AllAlgorithms()) {
      AlgoOptions options;
      FDSet fds = algo.run(r, options);
      testing::ExpectSameFds(expected, fds,
                             algo.name + " seed " + std::to_string(seed));
    }
  }
}

TEST(AuditSweepTest, RegistryAlgorithmsSharingOneAuditedCache) {
  Relation r = MakeAddressDataset(80, 11);
  PliCache cache = PliCache::FromRelation(r);
  FDSet expected = DiscoverFdsBruteForce(r);
  for (const AlgoInfo& algo : AllAlgorithms()) {
    AlgoOptions options;
    options.pli_cache = &cache;
    testing::ExpectSameFds(expected, algo.run(r, options),
                           algo.name + " with shared cache");
    cache.CheckInvariants();  // explicit audit in every build mode
  }
}

TEST(AuditSweepTest, MultiThreadedHyFdWithNullUnequalSemantics) {
  Relation r = testing::RandomRelation(6, 120, 3, 4, /*null_rate=*/0.15);
  HyFdConfig plain;
  HyFdConfig config;
  config.num_threads = 4;
  config.null_semantics = NullSemantics::kNullUnequal;
  plain.null_semantics = NullSemantics::kNullUnequal;
  HyFd algo(config);
  FDSet fds = algo.Discover(r);
  // A second pass reuses the warmed owned cache (the EAIFD setting).
  testing::ExpectSameFds(fds, algo.Discover(r), "second pass, warm cache");
  testing::ExpectSameFds(DiscoverFds(r, plain), fds, "threads vs single");
}

TEST(AuditSweepTest, HyUccUnderAuditHooks) {
  Relation r = MakeAddressDataset(70, 5);
  HyUcc algo;
  auto uccs = algo.Discover(r);
  ASSERT_FALSE(uccs.empty());
  // Every reported UCC must really be unique on the data.
  for (const AttributeSet& ucc : uccs) {
    Pli combined = BuildPli(r, ucc);
    EXPECT_TRUE(combined.IsUnique()) << ucc.ToString();
    combined.CheckInvariants();
  }
}

// ---------------------------------------------------------------------------
// Negative tests: each deep audit must be able to fire.
// ---------------------------------------------------------------------------

TEST(PliAuditTest, RecordIdOutOfRangeFires) {
  EXPECT_THROW(
      {
        Pli bad({{5, 6}}, 3);
        bad.CheckInvariants();  // audit builds already threw in the ctor
      },
      ContractViolation);
}

TEST(PliAuditTest, NonAscendingClusterFires) {
  EXPECT_THROW(
      {
        Pli bad({{2, 0}}, 4);
        bad.CheckInvariants();
      },
      ContractViolation);
}

TEST(PliAuditTest, DuplicateRecordIdWithinClusterFires) {
  EXPECT_THROW(
      {
        Pli bad({{1, 1}}, 4);
        bad.CheckInvariants();
      },
      ContractViolation);
}

TEST(PliAuditTest, OverlappingClustersFire) {
  EXPECT_THROW(
      {
        Pli bad({{0, 1}, {1, 2}}, 4);
        bad.CheckInvariants();
      },
      ContractViolation);
}

TEST(PliAuditTest, ValidPartitionPasses) {
  Pli good({{0, 2}, {1, 3}}, 5);
  EXPECT_NO_THROW(good.CheckInvariants());
  EXPECT_NO_THROW(good.Intersect(good).CheckInvariants());
}

// ---------------------------------------------------------------------------
// Tombstone (RemoveRows) negatives: the delete path's contracts can fire.
// ---------------------------------------------------------------------------

TEST(PliRemoveAuditTest, RemovalNotInTheStatedClusterFires) {
  Pli pli({{0, 1}, {2, 3}}, 4);
  std::vector<std::pair<uint32_t, RecordId>> demoted;
  // Record 2 lives in slot 1, not slot 0.
  EXPECT_THROW(pli.RemoveRows({{0, RecordId{2}}}, 1, &demoted),
               ContractViolation);
}

TEST(PliRemoveAuditTest, NonexistentClusterFires) {
  Pli pli({{0, 1}}, 4);
  std::vector<std::pair<uint32_t, RecordId>> demoted;
  EXPECT_THROW(pli.RemoveRows({{7, RecordId{0}}}, 1, &demoted),
               ContractViolation);
}

TEST(PliRemoveAuditTest, DuplicateRemovalFires) {
  Pli pli({{0, 1, 2}}, 4);
  std::vector<std::pair<uint32_t, RecordId>> demoted;
  EXPECT_THROW(
      pli.RemoveRows({{0, RecordId{1}}, {0, RecordId{1}}}, 2, &demoted),
      ContractViolation);
}

TEST(PliRemoveAuditTest, DeadCountBelowRemovalsFires) {
  Pli pli({{0, 1, 2}}, 4);
  std::vector<std::pair<uint32_t, RecordId>> demoted;
  // Two cluster removals cannot come from one dead row.
  EXPECT_THROW(
      pli.RemoveRows({{0, RecordId{0}}, {0, RecordId{1}}}, 1, &demoted),
      ContractViolation);
}

TEST(PliRemoveAuditTest, TombstonedPliPassesAndAccessorsAreLiveAware) {
  // {0,1,2} {3,4} over 6 records (record 5 an implicit singleton). Killing
  // records 1, 3, 4 empties slot 1 and leaves slot 0 at {0, 2}.
  Pli pli({{0, 1, 2}, {3, 4}}, 6);
  const size_t clusters_before = pli.NumClusters();
  std::vector<std::pair<uint32_t, RecordId>> demoted;
  pli.RemoveRows({{0, RecordId{1}}, {1, RecordId{3}}, {1, RecordId{4}}}, 3,
                 &demoted);
  EXPECT_NO_THROW(pli.CheckInvariants());
  EXPECT_TRUE(pli.tombstoned());
  EXPECT_EQ(pli.num_empty_slots(), 1u);
  EXPECT_TRUE(pli.clusters()[1].empty());
  EXPECT_TRUE(demoted.empty());
  EXPECT_EQ(pli.num_live_records(), 3u);  // records 0, 2, 5
  // Live view: one real cluster {0,2} plus the implicit singleton 5. The
  // emptied slot stays in place (indexes are stable) but counts nowhere.
  EXPECT_EQ(pli.NumClusters(), 2u);
  EXPECT_LT(pli.NumClusters(), clusters_before);
  EXPECT_FALSE(pli.IsUnique());
  EXPECT_FALSE(pli.IsConstant());
  EXPECT_EQ(pli.Error(), 1u);  // {0,2} violates once
  EXPECT_EQ(pli.clusters().size(), 2u);  // physical slots, empties included
}

TEST(PliRemoveAuditTest, LoneSurvivorIsDemotedOut) {
  Pli pli({{0, 2}}, 4);
  std::vector<std::pair<uint32_t, RecordId>> demoted;
  pli.RemoveRows({{0, RecordId{2}}}, 1, &demoted);
  // Record 0 cannot remain as a size-1 stripped cluster: it is handed back
  // for the caller to restamp as an implicit singleton, and the slot empties.
  ASSERT_EQ(demoted.size(), 1u);
  EXPECT_EQ(demoted[0].first, 0u);
  EXPECT_EQ(demoted[0].second, RecordId{0});
  EXPECT_TRUE(pli.clusters()[0].empty());
  EXPECT_EQ(pli.num_empty_slots(), 1u);
  EXPECT_NO_THROW(pli.CheckInvariants());
  EXPECT_TRUE(pli.IsUnique());  // every live record now a singleton
}

TEST(PliRemoveAuditTest, CompactSlotsDropsEmptiesAndClearsTombstone) {
  Pli pli({{0, 1}, {2, 3}, {4, 5}}, 6);
  std::vector<std::pair<uint32_t, RecordId>> demoted;
  pli.RemoveRows({{1, RecordId{2}}, {1, RecordId{3}}}, 2, &demoted);
  ASSERT_EQ(pli.num_empty_slots(), 1u);

  std::vector<int32_t> remap;
  pli.CompactSlots(&remap);
  EXPECT_EQ(pli.clusters().size(), 2u);
  EXPECT_EQ(pli.num_empty_slots(), 0u);
  ASSERT_EQ(remap.size(), 3u);
  EXPECT_EQ(remap[0], 0);
  EXPECT_EQ(remap[1], -1);  // the dropped slot
  EXPECT_EQ(remap[2], 1);   // {4,5} moved down
  // Rows 2 and 3 are still dead, so the PLI stays tombstoned (live < total).
  EXPECT_TRUE(pli.tombstoned());
  EXPECT_NO_THROW(pli.CheckInvariants());
}

TEST(PliRemoveAuditTest, StaleCompressedRecordsFire) {
  // Shrinking a PLI without wiping the dead rows' compressed cells must be
  // caught by the records-vs-PLIs cross-check: the dead row still points at
  // its old cluster.
  Relation r = testing::RandomRelation(2, 30, 21, 2);
  PreprocessedData data = Preprocess(r);
  ASSERT_FALSE(data.plis[0].clusters().empty());
  const uint32_t slot = 0;
  const std::vector<RecordId> cluster = data.plis[0].clusters()[slot];
  ASSERT_GE(cluster.size(), 2u);
  std::vector<std::pair<uint32_t, RecordId>> demoted;
  data.plis[0].RemoveRows({{slot, cluster[0]}}, 1, &demoted);
  EXPECT_THROW(data.records.CheckInvariants(data.plis), ContractViolation);
}

TEST(FdTreeAuditTest, StoredRhsMissingFromRhsAttrsFires) {
  FDTree tree(3);
  tree.root()->fds.Set(1);  // bypasses AddFd's rhs_attrs maintenance
  EXPECT_THROW(tree.CheckInvariants(), ContractViolation);
}

TEST(FdTreeAuditTest, RhsAttrsUnderApproximationFires) {
  FDTree tree(3);
  tree.AddFd(AttributeSet(3, {0}), 2);
  tree.root()->rhs_attrs.Reset(2);  // subtree still stores {0} -> 2
  EXPECT_THROW(tree.CheckInvariants(), ContractViolation);
}

TEST(FdTreeAuditTest, FdBelowStoredGeneralizationFires) {
  FDTree tree(3);
  tree.AddFd(AttributeSet(3, {0}), 2);
  tree.AddFd(AttributeSet(3, {0, 1}), 2);  // non-minimal: {0} -> 2 stored
  EXPECT_THROW(tree.CheckInvariants(), ContractViolation);
}

TEST(FdTreeAuditTest, GeneralizationOnAnotherBranchFires) {
  FDTree tree(4);
  tree.AddFd(AttributeSet(4, {0, 1}), 3);
  EXPECT_NO_THROW(tree.CheckInvariants());
  // {1} -> 3 sits on the root's 1-branch, off the path root -> 0 -> 1 of
  // {0,1} -> 3, which it generalizes: only the full audit sees it.
  tree.AddFd(AttributeSet(4, {1}), 3);
  EXPECT_THROW(tree.CheckInvariants(), ContractViolation);
}

TEST(FdTreeAuditTest, MalformedChildSlotsFire) {
  FDTree tree(3);
  tree.root()->children.resize(1);  // must be empty or one slot per attribute
  EXPECT_THROW(tree.CheckInvariants(), ContractViolation);
}

TEST(FdTreeAuditTest, GuardedTreePasses) {
  FDTree tree(4);
  tree.AddMostGeneralFds();
  EXPECT_NO_THROW(tree.CheckInvariants());
  // Specialize the way the Inductor does: remove, then add extensions.
  tree.RemoveFd(AttributeSet(4), 3);
  tree.AddFd(AttributeSet(4, {0}), 3);
  tree.AddFd(AttributeSet(4, {1, 2}), 3);
  EXPECT_NO_THROW(tree.CheckInvariants());
}

TEST(PliCacheAuditTest, ByteAccountingDriftFires) {
  Relation r = MakeAddressDataset(40, 2);
  PliCache cache = PliCache::FromRelation(r);
  ASSERT_NE(cache.Get(AttributeSet(r.num_columns(), {0, 1})), nullptr);
  EXPECT_NO_THROW(cache.CheckInvariants());
  cache.CorruptByteAccountingForTest(64);
  EXPECT_THROW(cache.CheckInvariants(), ContractViolation);
}

TEST(PliCacheAuditTest, PutWithWrongKeyWidthFires) {
  Relation r = MakeAddressDataset(40, 2);
  PliCache cache = PliCache::FromRelation(r);
  AttributeSet foreign(r.num_columns() + 1, {0, 1});
  EXPECT_THROW(cache.Put(foreign, BuildPli(r, AttributeSet(r.num_columns(), {0, 1}))),
               ContractViolation);
}

TEST(PliCacheAuditTest, PutWithWrongRecordCountFires) {
  Relation r = MakeAddressDataset(40, 2);
  PliCache cache = PliCache::FromRelation(r);
  Relation shorter = r.HeadRows(30);
  AttributeSet key(r.num_columns(), {0, 1});
  EXPECT_THROW(cache.Put(key, BuildPli(shorter, key)), ContractViolation);
}

TEST(RelationAuditTest, RaggedRowFires) {
  EXPECT_THROW(Relation::FromStringRows(Schema::Generic(2), {{"a", "b"}, {"c"}}),
               ContractViolation);
}

TEST(RelationAuditTest, WellFormedRelationPasses) {
  Relation r = testing::RandomRelation(4, 30, 5, 3, 0.2);
  EXPECT_NO_THROW(r.CheckInvariants());
}

TEST(AttributeSetAuditTest, OutOfRangeAccessFiresUnderDchecks) {
  if (!kDchecksEnabled) GTEST_SKIP() << "HYFD_DCHECK compiled out";
  AttributeSet s(8);
  EXPECT_THROW(s.Test(8), ContractViolation);
  EXPECT_THROW(s.Set(-1), ContractViolation);
  EXPECT_THROW(s.Flip(64), ContractViolation);
}

TEST(AttributeSetAuditTest, SizeMismatchFiresUnderDchecks) {
  if (!kDchecksEnabled) GTEST_SKIP() << "HYFD_DCHECK compiled out";
  AttributeSet a(8, {1, 2});
  AttributeSet b(16, {1, 2});
  EXPECT_THROW(a |= b, ContractViolation);
  EXPECT_THROW(a.IsSubsetOf(b), ContractViolation);
  EXPECT_THROW(a.Intersects(b), ContractViolation);
}

// ---------------------------------------------------------------------------
// Stale derived state: mutating a Relation after its PLIs / compressed
// records were built must be detectable, not silently wrong (the
// Relation::version fingerprint behind IncrementalHyFd's batch entry check).
// ---------------------------------------------------------------------------

TEST(StaleDerivedStateAuditTest, AppendRowAfterPreprocessFires) {
  Relation r = testing::RandomRelation(4, 30, 9, 3);
  PreprocessedData data = Preprocess(r, NullSemantics::kNullEqualsNull);
  EXPECT_NO_THROW(data.CheckSyncedWith(r));
  r.AppendRow({std::string("x"), std::string("y"), std::string("z"),
               std::string("w")});
  // The PLIs still describe 30 rows; consuming them now would silently
  // discover FDs over stale partitions.
  EXPECT_THROW(data.CheckSyncedWith(r), ContractViolation);
}

TEST(StaleDerivedStateAuditTest, InPlaceEditFiresEvenWithSameRowCount) {
  Relation r = testing::RandomRelation(4, 30, 10, 3);
  PreprocessedData data = Preprocess(r, NullSemantics::kNullEqualsNull);
  r.SetValue(5, 2, "edited");  // row count unchanged — version must catch it
  EXPECT_THROW(data.CheckSyncedWith(r), ContractViolation);
  Relation fresh = testing::RandomRelation(4, 30, 10, 3);
  EXPECT_NO_THROW(Preprocess(fresh, NullSemantics::kNullEqualsNull)
                      .CheckSyncedWith(fresh));
}

TEST(PliAppendAuditTest, MalformedAppendsFire) {
  Relation r = testing::RandomRelation(1, 20, 12, 2);
  {
    Pli pli = BuildColumnPli(r, 0);
    const auto bad_cluster = static_cast<uint32_t>(pli.clusters().size());
    EXPECT_THROW(pli.AppendRows(21, {{bad_cluster, RecordId{20}}}, {}),
                 ContractViolation);
  }
  {
    Pli pli = BuildColumnPli(r, 0);
    // Appended id must exceed the cluster tail AND sit in the new-row range.
    EXPECT_THROW(pli.AppendRows(21, {{0, RecordId{0}}}, {}),
                 ContractViolation);
    EXPECT_THROW(pli.AppendRows(21, {{0, RecordId{25}}}, {}),
                 ContractViolation);
  }
  {
    Pli pli = BuildColumnPli(r, 0);
    // A stripped cluster of one record is malformed by definition.
    EXPECT_THROW(pli.AppendRows(21, {}, {{RecordId{20}}}), ContractViolation);
  }
}

TEST(PliAppendAuditTest, WellFormedAppendMatchesFromScratchBuild) {
  Relation full = testing::RandomRelation(1, 40, 13, 3);
  Relation head = full.HeadRows(30);
  Pli grown = BuildColumnPli(head, 0);
  Pli expected = BuildColumnPli(full, 0);
  // Route each appended row exactly as IncrementalHyFd does, driven here by
  // diffing against the from-scratch clusters.
  std::vector<std::pair<uint32_t, RecordId>> appends;
  std::vector<std::vector<RecordId>> new_clusters;
  const size_t old_clusters = grown.clusters().size();
  for (size_t ci = 0; ci < expected.clusters().size(); ++ci) {
    std::vector<RecordId> old_members;
    std::vector<RecordId> new_members;
    for (RecordId id : expected.clusters()[ci]) {
      (id < RecordId{30} ? old_members : new_members).push_back(id);
    }
    if (new_members.empty()) continue;
    if (!old_members.empty() && old_members.size() >= 2) {
      // The old part must be one of grown's clusters; find its index.
      for (uint32_t gi = 0; gi < old_clusters; ++gi) {
        if (grown.clusters()[gi] == old_members) {
          for (RecordId id : new_members) appends.emplace_back(gi, id);
          break;
        }
      }
    } else {
      old_members.insert(old_members.end(), new_members.begin(),
                         new_members.end());
      new_clusters.push_back(std::move(old_members));
    }
  }
  grown.AppendRows(40, appends, std::move(new_clusters));
  EXPECT_NO_THROW(grown.CheckInvariants());
  EXPECT_EQ(grown.num_records(), expected.num_records());
  EXPECT_EQ(grown.NumClusters(), expected.NumClusters());
  EXPECT_EQ(grown.Error(), expected.Error());
}

TEST(FdTreeAuditTest, ConfirmedWithoutStoredFdFires) {
  FDTree tree(3);
  tree.AddFd(AttributeSet(3, {0}), 2);
  tree.ConfirmAll();
  EXPECT_NO_THROW(tree.CheckInvariants());
  // A `confirmed` bit with no matching stored FD breaks confirmed ⊆ fds.
  tree.root()->confirmed.Set(1);
  EXPECT_THROW(tree.CheckInvariants(), ContractViolation);
}

// ---------------------------------------------------------------------------
// NegativeCover: every entry's witness pair re-matches to its agree set.
// ---------------------------------------------------------------------------

/// Rows 0 and 1 agree on {0, 1}; rows 0 and 2 on {1}; row 3 agrees with no
/// other row on column 2.
PreprocessedData CoverAuditData() {
  return Preprocess(Relation::FromStringRows(
      Schema::Generic(3),
      {{"a", "x", "1"}, {"a", "x", "2"}, {"b", "x", "3"}, {"c", "y", "4"}}));
}

TEST(NegativeCoverAuditTest, WrongWitnessFires) {
  PreprocessedData data = CoverAuditData();
  NegativeCover cover(3);
  EXPECT_EQ(cover.Match(data.records, {{0, 1}, {0, 2}}).size(), 2u);
  EXPECT_NO_THROW(cover.CheckInvariants(data.records));
  // {0} has no witness in these rows; (0, 2) agrees on {1} only.
  const AttributeSet only_first(3, {0});
  ASSERT_TRUE(cover.Insert(only_first.Words(), 0, 2));
  EXPECT_THROW(cover.CheckInvariants(data.records), ContractViolation);
}

TEST(NegativeCoverAuditTest, DeadWitnessLeftAfterDeleteFires) {
  PreprocessedData data = CoverAuditData();
  NegativeCover cover(3);
  cover.Match(data.records, {{0, 1}, {0, 2}, {2, 3}});
  std::vector<uint8_t> live = {1, 1, 1, 1};
  EXPECT_NO_THROW(cover.CheckInvariants(data.records, &live));
  // Row 1 dies: its wiped cells agree with nothing, so the entry {0, 1} it
  // witnessed no longer re-matches until a retain step drops it.
  data.records.RemoveRows({1});
  live[1] = 0;
  EXPECT_THROW(cover.CheckInvariants(data.records), ContractViolation);
  const std::vector<AttributeSet> kept = cover.RetainLive(live);
  EXPECT_EQ(kept, (std::vector<AttributeSet>{AttributeSet(3, {1}),
                                             AttributeSet(3)}));
  EXPECT_NO_THROW(cover.CheckInvariants(data.records, &live));
  // Row 3 dies too: ∅, witnessed by (2, 3), still re-matches — a dead row
  // agrees with nothing — so only the live mask catches it.
  data.records.RemoveRows({3});
  live[3] = 0;
  EXPECT_NO_THROW(cover.CheckInvariants(data.records));
  EXPECT_THROW(cover.CheckInvariants(data.records, &live), ContractViolation);
}

TEST(AuditHooksTest, ConstructorSeamFiresOnlyInAuditBuilds) {
  if (!kAuditBuild) GTEST_SKIP() << "HYFD_AUDIT_ONLY hooks compiled out";
  // The Pli constructor's audit seam must reject a corrupt partition
  // without an explicit CheckInvariants() call.
  EXPECT_THROW(Pli({{0, 5}}, 3), ContractViolation);
}

}  // namespace
}  // namespace hyfd
