#include "core/incremental.h"

#include <algorithm>
#include <string>
#include <string_view>

#include "core/sampler.h"
#include "util/check.h"
#include "util/timer.h"

namespace hyfd {

namespace {

/// A column's PLI is compacted (emptied slots dropped, cluster ids
/// renumbered) once more than this fraction of its slots are empty; below
/// it, emptied slots linger so slot indexes stay stable.
constexpr double kCompactThreshold = 0.3;

}  // namespace

IncrementalHyFd::IncrementalHyFd(Relation relation, IncrementalConfig config)
    : config_(config),
      relation_(std::move(relation)),
      tree_(relation_.num_columns()),
      negative_cover_(relation_.num_columns()) {
  HYFD_CHECK(relation_.num_columns() > 0,
             "IncrementalHyFd: relation must have at least one column");
  HYFD_AUDIT_ONLY(relation_.CheckInvariants());

  Timer total_timer;
  if (config_.num_threads > 1) {
    pool_ = std::make_unique<ThreadPool>(
        static_cast<size_t>(config_.num_threads));
  }
  // Registered once, so every report lists each of the session's cells —
  // 0 when its batch left it untouched (Reset keeps registrations).
  for (const char* name :
       {"incremental.batches", "incremental.batch_rows",
        "incremental.deleted_rows", "incremental.live_rows",
        "incremental.touched_clusters", "incremental.fds_invalidated",
        "incremental.fds_revalidated",
        "incremental.generalization_candidates",
        "incremental.fds_generalized", "incremental.validations",
        "incremental.comparisons", "incremental.phase_switches"}) {
    metrics_.GetCounter(name);
  }
  StartReport();
  Seed();
  FillReport(total_timer.ElapsedSeconds());
}

void IncrementalHyFd::Seed() {
  live_.assign(relation_.num_rows(), 1);
  num_live_rows_ = relation_.num_rows();

  Timer timer;
  data_ = Preprocess(relation_, config_.null_semantics);
  report_.AddPhase("preprocess", timer.ElapsedSeconds());
  tree_ = FDTree(relation_.num_columns());
  // A fresh Inductor seeds the fresh tree with the most general FDs ∅ → A.
  inductor_ = std::make_unique<Inductor>(&tree_, &metrics_);

  // The hybrid loop of HyFd::Discover, minus the memory guardian (a pruned
  // tree would silently break the incremental equivalence guarantee, so the
  // session never prunes). The Sampler's cover keeps every sampled agree set
  // with its witnessing pair and becomes the session's; the Validator stamps
  // `confirmed` on everything it proves, which is exactly the seed state
  // ApplyBatch needs.
  Sampler sampler(&data_, config_.efficiency_threshold,
                  SamplingStrategy::kClusterWindowing, pool_.get(), &metrics_);
  Validator validator(&data_, &tree_, config_.efficiency_threshold,
                      pool_.get(), /*cache=*/nullptr, &metrics_);
  HybridLoopResult loop = RunHybridLoop(
      [&](RecordPairs suggestions) { return sampler.Run(suggestions); },
      inductor_.get(), &validator, &tree_, &report_);
  metrics_.Set("incremental.phase_switches",
               static_cast<uint64_t>(loop.phase_switches));
  metrics_.Set("incremental.validations", validator.total_validations());
  metrics_.Add("incremental.comparisons", sampler.total_comparisons());
  negative_cover_ = std::move(sampler).TakeNegativeCover();
  // Fold the final pass's violation suggestions into the witnessed cover.
  // The tree is already settled (any agree set these pairs produce can only
  // restate known constraints), but the extra witnesses keep more of the
  // cover alive across future deletes.
  MatchPairs(std::move(loop.last.comparison_suggestions));
  HYFD_AUDIT_ONLY(negative_cover_.CheckInvariants(data_.records, &live_));

  // The Validator confirmed every node it settled; make the seed state
  // explicit (and audited) regardless of the path that produced it.
  tree_.ConfirmAll();
  fds_ = tree_.ToFdSet();
  const size_t m = static_cast<size_t>(relation_.num_columns());
  value_rows_.resize(m);
  null_rows_.assign(m, kNoRow);
  for (int c = 0; c < relation_.num_columns(); ++c) {
    value_rows_[static_cast<size_t>(c)].assign(
        relation_.segment(c).dictionary().size(), kNoRow);
    const std::vector<uint32_t>& codes = relation_.segment(c).codes();
    for (size_t r = 0; r < codes.size(); ++r) {
      if (RecordId* row = ValueRow(c, codes[r])) *row = static_cast<RecordId>(r);
    }
  }
  HYFD_AUDIT_ONLY(CheckValueRows());
}

RecordId* IncrementalHyFd::ValueRow(int c, uint32_t code) {
  if (code != kNullCode) return &value_rows_[static_cast<size_t>(c)][code];
  if (config_.null_semantics == NullSemantics::kNullUnequal) return nullptr;
  return &null_rows_[static_cast<size_t>(c)];
}

void IncrementalHyFd::CheckValueRows() const {
  const size_t n = data_.num_records;
  const bool nulls_equal =
      config_.null_semantics == NullSemantics::kNullEqualsNull;
  for (int c = 0; c < data_.num_attributes; ++c) {
    const std::vector<uint32_t>& codes = relation_.segment(c).codes();
    const std::vector<RecordId>& rows = value_rows_[static_cast<size_t>(c)];
    const RecordId null_row = null_rows_[static_cast<size_t>(c)];
    HYFD_CHECK(nulls_equal || null_row == kNoRow,
               "IncrementalHyFd: NULL row indexed under kNullUnequal");
    const auto check_entry = [&](RecordId row, uint32_t code) {
      HYFD_CHECK(row == kNoRow || (row < n && live_[row] != 0 &&
                                   codes[row] == code),
                 "IncrementalHyFd: value row dead or carrying another code");
    };
    for (uint32_t code = 0; code < rows.size(); ++code) {
      check_entry(rows[code], code);
    }
    check_entry(null_row, kNullCode);
    for (RecordId r = 0; r < n; ++r) {
      const uint32_t code = codes[r];
      if (live_[r] == 0 || (code == kNullCode && !nulls_equal)) continue;
      const RecordId row = code == kNullCode ? null_row : rows[code];
      HYFD_CHECK(row != kNoRow, "IncrementalHyFd: live value without a row");
      const ClusterId cid = data_.records.Cluster(r, c);
      HYFD_CHECK(cid == kUniqueCluster ? row == r
                                       : data_.records.Cluster(row, c) == cid,
                 "IncrementalHyFd: value row outside the row's cluster");
    }
  }
}

void IncrementalHyFd::GrowDerivedState(size_t old_n, size_t new_n,
                                       Validator::ClusterDelta* delta) {
  const int m = data_.num_attributes;
  delta->first_new_record = static_cast<RecordId>(old_n);
  delta->touched.assign(static_cast<size_t>(m), {});
  data_.records.Append(new_n);
  size_t touched_clusters = 0;

  for (int c = 0; c < m; ++c) {
    Pli& pli = data_.plis[static_cast<size_t>(c)];
    const ClusterId old_cluster_count =
        static_cast<ClusterId>(pli.clusters().size());
    std::vector<std::pair<uint32_t, RecordId>> appends;
    std::vector<std::vector<RecordId>> new_clusters;
    std::vector<uint32_t>& touched = delta->touched[static_cast<size_t>(c)];
    value_rows_[static_cast<size_t>(c)].resize(
        relation_.segment(c).dictionary().size(), kNoRow);

    // Each new row reads its cluster from the cell of its value's row and is
    // stamped as it joins, so clusters made earlier in this batch are found
    // the same way: a pre-existing cluster grows through Pli::AppendRows'
    // append list, an in-batch one is still local and grows directly.
    const std::vector<uint32_t>& codes = relation_.segment(c).codes();
    for (size_t r = old_n; r < new_n; ++r) {
      const RecordId rid = static_cast<RecordId>(r);
      RecordId* value_row = ValueRow(c, codes[r]);
      if (value_row == nullptr) continue;
      if (*value_row == kNoRow) {
        *value_row = rid;  // first live row of its value: a singleton
        continue;
      }
      ClusterId cid = data_.records.Cluster(*value_row, c);
      if (cid == kUniqueCluster) {
        // Promote the value's singleton and `rid` into a brand new cluster.
        cid = old_cluster_count + static_cast<ClusterId>(new_clusters.size());
        new_clusters.push_back({*value_row, rid});
        data_.records.SetCluster(*value_row, c, cid);
      } else if (cid < old_cluster_count) {
        appends.emplace_back(static_cast<uint32_t>(cid), rid);
      } else {
        new_clusters[static_cast<size_t>(cid - old_cluster_count)].push_back(
            rid);
      }
      data_.records.SetCluster(rid, c, cid);
      touched.push_back(static_cast<uint32_t>(cid));
    }
    pli.AppendRows(new_n, appends, std::move(new_clusters));

    std::sort(touched.begin(), touched.end());
    touched.erase(std::unique(touched.begin(), touched.end()), touched.end());
    touched_clusters += touched.size();
  }
  metrics_.Add("incremental.touched_clusters", touched_clusters);

  data_.num_records = new_n;
  data_.source_version = relation_.version();
  // Appends can reorder the cluster-count ranking the pivot choice uses.
  data_.RecomputeRanks();
  HYFD_AUDIT_ONLY({
    for (const Pli& pli : data_.plis) pli.CheckInvariants();
    data_.records.CheckInvariants(data_.plis);
    CheckValueRows();
  });
}

std::vector<AttributeSet> IncrementalHyFd::MatchPairs(
    std::vector<std::pair<RecordId, RecordId>> pairs) {
  std::sort(pairs.begin(), pairs.end());
  pairs.erase(std::unique(pairs.begin(), pairs.end()), pairs.end());
  metrics_.Add("incremental.comparisons", pairs.size());
  return negative_cover_.Match(data_.records, pairs);
}

const FDSet& IncrementalHyFd::ApplyBatch(
    const std::vector<std::vector<std::optional<std::string>>>& rows) {
  return ApplyMixed(rows, {}, {});
}

const FDSet& IncrementalHyFd::DeleteRows(const std::vector<RecordId>& ids) {
  return ApplyMixed({}, ids, {});
}

const FDSet& IncrementalHyFd::UpdateRows(
    const std::vector<
        std::pair<RecordId, std::vector<std::optional<std::string>>>>&
        updates) {
  return ApplyMixed({}, {}, updates);
}

bool IncrementalHyFd::IsRowLive(RecordId id) const {
  HYFD_CHECK(static_cast<size_t>(id) < live_.size(),
             "IncrementalHyFd::IsRowLive: row id out of range");
  return live_[id] != 0;
}

Relation IncrementalHyFd::LiveRelation() const {
  if (num_live_rows_ == relation_.num_rows()) return relation_;
  return relation_.LiveRows(live_);
}

uint64_t IncrementalHyFd::LiveContentFingerprint() const {
  // Mirrors LiveRelation(): with nothing tombstoned it is relation() itself.
  if (num_live_rows_ == relation_.num_rows()) {
    return relation_.ContentFingerprint();
  }
  return relation_.LiveContentFingerprint(live_);
}

namespace {

/// True iff two rows agree on every attribute: equal compressed records with
/// no kUniqueCluster cell. Dead rows are all kUniqueCluster and a
/// kNullUnequal NULL is a singleton, so this counts only live rows, under
/// the session's null semantics.
bool HasDuplicateRows(const CompressedRecords& records) {
  const size_t row_bytes =
      static_cast<size_t>(records.num_attributes()) * sizeof(ClusterId);
  const auto bytes_of = [&](RecordId r) {
    return std::string_view(reinterpret_cast<const char*>(records.Record(r)),
                            row_bytes);
  };
  std::unordered_set<std::string_view> seen;
  for (RecordId r = 0; r < records.num_records(); ++r) {
    const ClusterId* cells = records.Record(r);
    const ClusterId* end = cells + records.num_attributes();
    // A kUniqueCluster cell agrees with no other row.
    if (std::find(cells, end, kUniqueCluster) != end) continue;
    if (!seen.insert(bytes_of(r)).second) return true;
  }
  return false;
}

}  // namespace

std::vector<AttributeSet> IncrementalHyFd::MinimalUccs() const {
  if (HasDuplicateRows(data_.records)) return {};
  const int m = relation_.num_columns();
  const auto is_superkey = [&](const AttributeSet& x) {
    for (int a = 0; a < m; ++a) {
      if (!x.Test(a) && !tree_.ContainsFdOrGeneralization(x, a)) return false;
    }
    return true;
  };
  // Apriori walk from ∅: a set is tested only when all of its one-smaller
  // subsets are non-keys, so every key found is minimal.
  std::vector<AttributeSet> uccs;
  std::vector<AttributeSet> level{AttributeSet(m)};
  while (!level.empty()) {
    std::unordered_set<AttributeSet> non_keys;
    for (AttributeSet& x : level) {
      if (is_superkey(x)) {
        uccs.push_back(std::move(x));
      } else {
        non_keys.insert(std::move(x));
      }
    }
    std::vector<AttributeSet> next;
    for (const AttributeSet& x : non_keys) {
      int last = AttributeSet::kNpos;
      for (int a = x.First(); a != AttributeSet::kNpos; a = x.NextAfter(a)) {
        last = a;
      }
      for (int a = last + 1; a < m; ++a) {
        AttributeSet candidate = x.With(a);
        bool subsets_non_keys = true;
        for (int b = x.First(); b != AttributeSet::kNpos && subsets_non_keys;
             b = x.NextAfter(b)) {
          subsets_non_keys = non_keys.count(candidate.Without(b)) > 0;
        }
        if (subsets_non_keys) next.push_back(std::move(candidate));
      }
    }
    level = std::move(next);
  }
  std::sort(uccs.begin(), uccs.end(), SmallerThenLess);
  return uccs;
}

const FDSet& IncrementalHyFd::ApplyMixed(
    const std::vector<std::vector<std::optional<std::string>>>& inserts,
    const std::vector<RecordId>& deletes,
    const std::vector<
        std::pair<RecordId, std::vector<std::optional<std::string>>>>&
        updates) {
  // Reject the whole batch before mutating anything: a mid-batch width or
  // id failure would leave the relation half-grown.
  const auto check_width =
      [&](const std::vector<std::optional<std::string>>& row) {
        HYFD_CHECK(row.size() == static_cast<size_t>(relation_.num_columns()),
                   "IncrementalHyFd: row width does not match the schema");
      };
  for (const auto& row : inserts) check_width(row);
  for (const auto& [id, row] : updates) check_width(row);

  // Dead rows: explicit deletes plus the old versions of updates. Every id
  // must name a distinct live physical row.
  std::vector<RecordId> dead;
  dead.reserve(deletes.size() + updates.size());
  dead.insert(dead.end(), deletes.begin(), deletes.end());
  for (const auto& [id, row] : updates) dead.push_back(id);
  {
    std::vector<uint8_t> claimed(relation_.num_rows(), 0);
    for (RecordId id : dead) {
      HYFD_CHECK(static_cast<size_t>(id) < relation_.num_rows(),
                 "IncrementalHyFd: delete/update id out of range");
      HYFD_CHECK(live_[id] != 0,
                 "IncrementalHyFd: delete/update of an already-dead row");
      HYFD_CHECK(claimed[id] == 0,
                 "IncrementalHyFd: row deleted/updated twice in one batch");
      claimed[id] = 1;
    }
  }
  // Detect out-of-band mutation of the owned relation (or derived state)
  // before building on top of it.
  data_.CheckSyncedWith(relation_);

  Timer total_timer;
  Timer timer;
  ++num_batches_;
  StartReport();
  metrics_.Set("incremental.batch_rows", inserts.size() + updates.size());
  metrics_.Set("incremental.deleted_rows", dead.size());

  if (inserts.empty() && updates.empty() && dead.empty()) {
    FillReport(total_timer.ElapsedSeconds());
    return fds_;
  }

  // --- 1. Append new rows, tombstone dead ones. ----------------------------
  const size_t old_n = data_.num_records;
  for (const auto& row : inserts) relation_.AppendRow(row);
  for (const auto& [id, row] : updates) relation_.AppendRow(row);
  const size_t new_n = relation_.num_rows();
  live_.resize(new_n, 1);
  num_live_rows_ += new_n - old_n;
  for (RecordId id : dead) {
    live_[id] = 0;
    --num_live_rows_;
  }

  // --- 2. Shrink, then grow, the derived state in place. -------------------
  if (!dead.empty()) ShrinkDerivedState(dead);
  Validator::ClusterDelta delta;
  GrowDerivedState(old_n, new_n, &delta);
  report_.AddPhase("append", timer.ElapsedSeconds());

  // Deletes can make FDs valid: repair the cover downward before the loop.
  timer.Restart();
  const FDSet fds_before = dead.empty() ? FDSet{} : fds_;
  if (!dead.empty()) RepairCoverAfterDeletes();
  report_.AddPhase("induction", timer.ElapsedSeconds());
  timer.Restart();

  // --- 3. Targeted sampling: only pairs involving a new row. ---------------
  // Within each touched cluster, every new member (ids ≥ old_n sort to the
  // tail) is matched against its predecessor and against the cluster's first
  // record — the same neighbor heuristic cluster-windowing starts from, here
  // restricted to windows that contain a new row. Completeness of the final
  // FD set never depends on this selection (the Validator settles every
  // candidate); it only seeds the negative cover cheaply.
  RecordPairs pairs;
  for (int c = 0; c < data_.num_attributes; ++c) {
    const auto& clusters = data_.plis[static_cast<size_t>(c)].clusters();
    for (uint32_t ci : delta.touched[static_cast<size_t>(c)]) {
      const std::vector<RecordId>& cluster = clusters[ci];
      const auto first_new =
          std::lower_bound(cluster.begin(), cluster.end(),
                           static_cast<RecordId>(old_n));
      for (auto it = first_new; it != cluster.end(); ++it) {
        const size_t i = static_cast<size_t>(it - cluster.begin());
        if (i == 0) continue;  // a cluster of only-new rows: no predecessor
        pairs.emplace_back(cluster[i - 1], cluster[i]);
        if (i > 1) pairs.emplace_back(cluster[0], cluster[i]);
      }
    }
  }
  report_.AddPhase("sampling", timer.ElapsedSeconds());

  // --- 4. Hybrid loop seeded from the (repaired) tree. ---------------------
  // Phase 1 matches the targeted pairs, then the Validator's violation
  // suggestions instead of a fresh sampling sweep — the suggestions already
  // pinpoint the disagreeing pairs. FDs with a surviving proof take the
  // restricted touched-clusters check — on a pure-delete batch every touched
  // list is empty, so they validate at zero scan cost; generalization
  // candidates and freshly specialized candidates get the full check.
  Validator validator(&data_, &tree_, config_.efficiency_threshold,
                      pool_.get(), /*cache=*/nullptr, &metrics_);
  validator.set_delta(&delta);
  HybridLoopResult loop = RunHybridLoop(
      [&](RecordPairs found) { return MatchPairs(std::move(found)); },
      inductor_.get(), &validator, &tree_, &report_, LoopMemory{},
      std::move(pairs));
  metrics_.Set("incremental.phase_switches",
               static_cast<uint64_t>(loop.phase_switches));
  metrics_.Set("incremental.validations", validator.total_validations());
  metrics_.Set("incremental.fds_invalidated",
               loop.confirmed_removed + validator.delta_invalidated());
  metrics_.Set("incremental.fds_revalidated",
               validator.restricted_validations());
  // Fold the final pass's violation suggestions into the witnessed cover
  // (tree no-op — the loop is settled — but richer witnesses survive more
  // future deletes).
  MatchPairs(std::move(loop.last.comparison_suggestions));
  HYFD_AUDIT_ONLY(negative_cover_.CheckInvariants(data_.records, &live_));

  fds_ = tree_.ToFdSet();
  if (!dead.empty()) {
    // Both sets are in canonical order: one merge walk counts the FDs that
    // are new to the cover.
    size_t generalized = 0;
    auto before = fds_before.begin();
    for (const FD& fd : fds_) {
      while (before != fds_before.end() && *before < fd) ++before;
      if (before == fds_before.end() || fd < *before) ++generalized;
    }
    metrics_.Set("incremental.fds_generalized", generalized);
  }
  FillReport(total_timer.ElapsedSeconds());
  return fds_;
}

void IncrementalHyFd::ShrinkDerivedState(const std::vector<RecordId>& dead) {
  const int m = data_.num_attributes;
  std::vector<std::pair<uint32_t, RecordId>> removals;
  std::vector<std::pair<uint32_t, RecordId>> demoted;
  std::vector<int32_t> remap;
  for (int c = 0; c < m; ++c) {
    Pli& pli = data_.plis[static_cast<size_t>(c)];
    const std::vector<uint32_t>& codes = relation_.segment(c).codes();

    // Dead cluster members leave their slots; the compressed cells, wiped
    // only after all columns, still name those slots.
    removals.clear();
    for (RecordId r : dead) {
      const ClusterId cid = data_.records.Cluster(r, c);
      if (cid != kUniqueCluster) {
        removals.emplace_back(static_cast<uint32_t>(cid), r);
      }
    }
    pli.RemoveRows(removals, dead.size(), &demoted);

    // A demoted survivor is its value's only live row: it becomes an
    // implicit singleton and its value's row.
    for (const auto& [slot, survivor] : demoted) {
      data_.records.SetCluster(survivor, c, kUniqueCluster);
      *ValueRow(c, codes[survivor]) = survivor;
    }
    // A dead value row moves onto a survivor of its slot, or to kNoRow when
    // its value is gone (a dead singleton or an emptied slot).
    for (RecordId r : dead) {
      RecordId* value_row = ValueRow(c, codes[r]);
      if (value_row == nullptr || *value_row != r) continue;
      const ClusterId cid = data_.records.Cluster(r, c);
      const bool survived = cid != kUniqueCluster &&
                            !pli.clusters()[static_cast<size_t>(cid)].empty();
      *value_row =
          survived ? pli.clusters()[static_cast<size_t>(cid)][0] : kNoRow;
    }

    // Compact when the empty-slot fraction crosses the threshold: drop the
    // empties, renumber surviving slots and restamp moved members' cells.
    // Row ids survive, so the value rows stay as they are.
    if (pli.num_empty_slots() > 0 &&
        static_cast<double>(pli.num_empty_slots()) >
            kCompactThreshold * static_cast<double>(pli.clusters().size())) {
      pli.CompactSlots(&remap);
      const auto& clusters = pli.clusters();
      for (size_t old_slot = 0; old_slot < remap.size(); ++old_slot) {
        const int32_t new_slot = remap[old_slot];
        if (new_slot < 0 || static_cast<size_t>(new_slot) == old_slot) {
          continue;
        }
        for (RecordId member : clusters[static_cast<size_t>(new_slot)]) {
          data_.records.SetCluster(member, c, new_slot);
        }
      }
    }
  }
  // Wipe the dead rows' cells last: the per-column passes above read them.
  data_.records.RemoveRows(dead);
  HYFD_AUDIT_ONLY({
    for (const Pli& pli : data_.plis) pli.CheckInvariants();
    data_.records.CheckInvariants(data_.plis);
    CheckValueRows();
  });
}

void IncrementalHyFd::RepairCoverAfterDeletes() {
  // Drop every agree set whose witnessing pair lost a row: the set may have
  // no other live witness, and a stale entry would wrongly pin all FDs it
  // once refuted (unsound); dropping a still-true set merely costs the
  // Validator one full re-check (the sound direction). The survivors come
  // back in canonical order, so the rebuilt tree never depends on the
  // cover's slot order.
  std::vector<AttributeSet> kept = negative_cover_.RetainLive(live_);

  // Rebuild the candidate tree as the minimal cover of the surviving
  // constraints. This must happen on *every* delete batch — violations the
  // Validator refuted without a recorded pair are not in the cover, so "no
  // witness died" proves nothing. Subset probing of the old LHSs would be
  // incomplete: a new minimal FD after a delete need not have its LHS below
  // any old one.
  FDTree old_tree = std::move(tree_);
  tree_ = FDTree(data_.num_attributes);
  inductor_ = std::make_unique<Inductor>(&tree_, &metrics_);
  inductor_->Update(std::move(kept));

  // Transfer proofs: an FD with a confirmed generalization in the old tree
  // is still valid (deletes only remove violating pairs; insert-induced
  // violations are caught by the restricted re-check over touched
  // clusters). The unconfirmed remainder are the downward candidates the
  // Validator must settle from scratch.
  tree_.ConfirmFrom(old_tree);
  metrics_.Set("incremental.generalization_candidates",
               tree_.CountFds() - tree_.CountConfirmedFds());
  HYFD_AUDIT_ONLY({
    tree_.CheckInvariants();
    negative_cover_.CheckInvariants(data_.records, &live_);
  });
}

const FDSet& IncrementalHyFd::ApplyBatchStrings(
    const std::vector<std::vector<std::string>>& rows) {
  std::vector<std::vector<std::optional<std::string>>> converted;
  converted.reserve(rows.size());
  for (const auto& row : rows) {
    converted.emplace_back(row.begin(), row.end());
  }
  return ApplyBatch(converted);
}

IncrementalBatchStats IncrementalHyFd::last_batch_stats() const {
  const auto counter = [&](std::string_view name) {
    return static_cast<size_t>(report_.FindCounter(name).value_or(0));
  };
  return IncrementalBatchStats{
      .touched_clusters = counter("incremental.touched_clusters"),
      .validations = counter("incremental.validations"),
      .comparisons = counter("incremental.comparisons"),
      .fds_generalized = counter("incremental.fds_generalized"),
  };
}

void IncrementalHyFd::StartReport() {
  metrics_.Reset();
  report_ = RunReport{};
  // Listed up front, in this order, since a batch repairs (induction)
  // before it samples; only the seed preprocesses.
  for (const char* phase :
       {"append", "preprocess", "sampling", "induction", "validation"}) {
    report_.AddPhase(phase, 0);
  }
}

void IncrementalHyFd::FillReport(double total_seconds) {
  // No guardian and no result pruning in a session: the answer is complete
  // by construction (the equivalence guarantee depends on it).
  metrics_.Set("incremental.batches", static_cast<uint64_t>(num_batches_));
  metrics_.Set("incremental.live_rows", num_live_rows_);
  FinishHybridReport("hyfd_incremental", "fds", fds_.size(), data_,
                     total_seconds, metrics_, &report_);
}

}  // namespace hyfd
