#include "core/refine_kernel.h"

#include <algorithm>
#include <numeric>

#include "util/check.h"

namespace hyfd {
namespace {

inline uint64_t WitnessPos(size_t cluster_index, size_t record_index) {
  return (static_cast<uint64_t>(cluster_index) << 32) |
         static_cast<uint64_t>(record_index);
}

/// One refinement round: splits every group [offsets[g], offsets[g + 1]) of
/// `idx` by `code_at(idx[p])` with a stable two-pass counting sort into
/// `out_idx` / `out_offsets`. Subgroup ids are assigned in first-encounter
/// order, so the group order is the hierarchical first-encounter order —
/// deterministic and independent of any hash function — and rows keep their
/// order within a group. Rows carrying kUniqueCluster leave the grouping
/// (they cannot collide with anything), and so do singleton subgroups when
/// `drop_singletons` (they cannot hold a pair). With `kBatchOnly`, so do the
/// subgroups without a position ≥ `batch_begin` (no batch row): positions
/// ascend within each group, so its batch rows are its tail.
template <bool kBatchOnly, typename CodeAt>
void SplitGroups(const CodeAt& code_at, size_t code_bound,
                 const std::vector<uint32_t>& idx,
                 const std::vector<uint32_t>& offsets, bool drop_singletons,
                 uint32_t batch_begin, RefineArena* arena,
                 std::vector<uint32_t>* out_idx,
                 std::vector<uint32_t>* out_offsets) {
  auto& sub_of = arena->scratch_group;  // subgroup id per position
  auto& hist = arena->hist;
  auto& has_batch = arena->sub_has_batch;
  out_idx->resize(idx.size());
  sub_of.resize(idx.size());
  out_offsets->clear();
  out_offsets->push_back(0);
  uint32_t write_base = 0;
  for (size_t g = 0; g + 1 < offsets.size(); ++g) {
    const uint32_t begin = offsets[g];
    const uint32_t end = offsets[g + 1];
    const uint64_t ep = ++arena->epoch;
    hist.clear();
    // Pass 1: assign subgroup ids (dense-table lookup, no hashing) and
    // count members.
    for (uint32_t p = begin; p < end; ++p) {
      const ClusterId code = code_at(idx[p]);
      if (code == kUniqueCluster) {
        sub_of[p] = UINT32_MAX;
        continue;
      }
      const auto c = static_cast<size_t>(code);
      HYFD_DCHECK(c < code_bound, "SplitGroups: cluster code exceeds code_bound");
      uint32_t sid;
      if (arena->code_epoch[c] != ep) {
        arena->code_epoch[c] = ep;
        sid = static_cast<uint32_t>(hist.size());
        arena->code_slot[c] = sid;
        hist.push_back(0);
      } else {
        sid = arena->code_slot[c];
      }
      sub_of[p] = sid;
      ++hist[sid];
    }
    if constexpr (kBatchOnly) {
      has_batch.assign(hist.size(), 0);
      const auto tail = std::lower_bound(idx.begin() + begin,
                                         idx.begin() + end, batch_begin);
      for (auto p = static_cast<uint32_t>(tail - idx.begin()); p < end; ++p) {
        if (sub_of[p] != UINT32_MAX) has_batch[sub_of[p]] = 1;
      }
    }
    // Turn counts into scatter offsets; emit the new group boundaries.
    uint32_t off = write_base;
    for (size_t sid = 0; sid < hist.size(); ++sid) {
      uint32_t& slot = hist[sid];
      const uint32_t count = slot;
      if ((drop_singletons && count < 2) || (kBatchOnly && !has_batch[sid])) {
        slot = UINT32_MAX;
        continue;
      }
      slot = off;
      off += count;
      out_offsets->push_back(off);
    }
    // Pass 2: stable scatter.
    for (uint32_t p = begin; p < end; ++p) {
      const uint32_t sid = sub_of[p];
      if (sid == UINT32_MAX || hist[sid] == UINT32_MAX) continue;
      (*out_idx)[hist[sid]++] = idx[p];
    }
    write_base = off;
  }
  out_idx->resize(write_base);
}

}  // namespace

size_t RefineArena::MemoryBytes() const {
  size_t bytes = code_epoch.capacity() * sizeof(uint64_t) +
                 code_slot.capacity() * sizeof(uint32_t) +
                 grouped_idx.capacity() * sizeof(uint32_t) +
                 group_offsets.capacity() * sizeof(uint32_t) +
                 scratch_idx.capacity() * sizeof(uint32_t) +
                 scratch_offsets.capacity() * sizeof(uint32_t) +
                 scratch_group.capacity() * sizeof(uint32_t) +
                 hist.capacity() * sizeof(uint32_t) +
                 leaf_alive.capacity() * sizeof(size_t) +
                 sub_has_batch.capacity() * sizeof(uint8_t) +
                 gathered.capacity() * sizeof(ClusterId) +
                 reps.capacity() * sizeof(RecordId) +
                 rep_rhs.capacity() * sizeof(ClusterId) +
                 rep_collect.capacity() * sizeof(int32_t) +
                 collect_order.capacity() * sizeof(std::pair<uint32_t, uint32_t>);
  for (size_t d = 0; d < depth_idx.size(); ++d) {
    bytes += (depth_idx[d].capacity() + depth_offsets[d].capacity()) *
             sizeof(uint32_t);
  }
  return bytes;
}

size_t GroupRowsByCodes(const CompressedRecords& records, const int* attrs,
                        size_t num_attrs, const RecordId* rows, size_t n,
                        size_t code_bound, RefineArena* arena) {
  auto& gi = arena->grouped_idx;
  auto& go = arena->group_offsets;
  gi.clear();
  go.clear();
  arena->dropped = 0;
  go.push_back(0);
  if (n == 0) return 0;
  gi.resize(n);
  std::iota(gi.begin(), gi.end(), uint32_t{0});
  go.push_back(static_cast<uint32_t>(n));
  if (num_attrs == 0) return 1;

  arena->EnsureCodeTable(code_bound);
  // One refinement round per grouping attribute.
  for (size_t round = 0; round < num_attrs; ++round) {
    const int attr = attrs[round];
    SplitGroups</*kBatchOnly=*/false>(
        [&](uint32_t i) { return records.Cluster(rows[i], attr); },
        code_bound, gi, go, /*drop_singletons=*/false, /*batch_begin=*/0,
        arena, &arena->scratch_idx, &arena->scratch_offsets);
    gi.swap(arena->scratch_idx);
    go.swap(arena->scratch_offsets);
  }
  arena->dropped = n - gi.size();
  return go.size() - 1;
}

namespace {

/// Position of the cluster's first batch row (record id ≥
/// `first_new_record`); clusters ascend, so the batch rows are its tail.
/// 0 when the job carries no batch: every row is walked.
uint32_t FirstBatchPos(const std::vector<RecordId>& cluster,
                       RecordId first_new_record) {
  if (first_new_record == 0) return 0;
  return static_cast<uint32_t>(
      std::lower_bound(cluster.begin(), cluster.end(), first_new_record) -
      cluster.begin());
}

/// Compare-to-first shape (no non-pivot LHS attributes): every record of a
/// cluster checks its RHS codes against the cluster's first record. Records
/// are independent, so this is the one shape a giant cluster may split into
/// record ranges across workers.
void RunCompareToFirst(const RefineJob& job, size_t cluster_begin,
                       size_t cluster_end, uint32_t rec_begin, uint32_t rec_end,
                       RefineTaskOut* task_out) {
  const CompressedRecords& records = *job.records;
  const RefineLeaf& leaf = job.leaves[0];
  RefineLeafOut* out = &task_out->leaves[0];
  size_t remaining = leaf.num_rhs;
  for (size_t ci = cluster_begin; ci < cluster_end; ++ci) {
    const auto& cluster =
        (*job.clusters)[job.visit != nullptr ? (*job.visit)[ci] : ci];
    if (cluster.size() < 2) continue;  // tombstoned empty slot
    // Old rows agree with the (old) first row on every RHS, so only a
    // batch row can move a witness.
    const size_t start =
        std::max<size_t>(FirstBatchPos(cluster, job.first_new_record), 1);
    const size_t begin =
        rec_end > 0 ? std::max<size_t>(rec_begin, start) : start;
    const size_t end = rec_end > 0 ? rec_end : cluster.size();
    if (begin >= end) continue;
    task_out->root_rows += end - begin;
    if (remaining == 0) continue;  // past an early exit: counting only
    const ClusterId* first = records.Record(cluster[0]);
    for (size_t i = begin; i < end && remaining > 0; ++i) {
      const ClusterId* rec = records.Record(cluster[i]);
      for (size_t j = 0; j < leaf.num_rhs; ++j) {
        if (out->witnesses[j].pos != kNoWitnessPos) continue;
        const ClusterId stored = first[leaf.rhs_attrs[j]];
        if (stored == kUniqueCluster || stored != rec[leaf.rhs_attrs[j]]) {
          out->witnesses[j] = {WitnessPos(ci, i), cluster[0], cluster[i]};
          if (--remaining == 0) {
            out->complete = false;  // nothing left alive: stop scanning
            if (job.visit == nullptr) return;
            break;
          }
        }
      }
    }
  }
}

/// The grouping shapes: a depth-first walk of the job's trie per pivot
/// cluster. Depth d holds the cluster's groups by the first d attributes of
/// the current path; every shared prefix is grouped once and its children
/// branch from it. A leaf's last attribute is not grouped at all: its final
/// round scans each parent group in position order, making the first member
/// of every code the group's representative and checking the others against
/// it on the fly (the legacy interleaved pass, per parent group).
///
/// Determinism: a leaf's final groups are the sets of rows sharing its whole
/// code tuple, each in position order, so each group's representative is
/// its earliest row — the same groups and representatives as grouping the
/// whole LHS at once. Groups are visited in hierarchical rather than
/// position order, so within one cluster every RHS keeps the *minimum*
/// violating position over all groups, which is where the record-by-record
/// scan would have killed it.
class TrieWalk {
 public:
  TrieWalk(const RefineJob& job, RefineArena* arena, RefineTaskOut* out)
      : job_(job), records_(*job.records), arena_(arena), out_(out) {}

  void Run(size_t cluster_begin, size_t cluster_end) {
    // Every attribute a split round groups by gets a column slot; depth d
    // below the deepest leaf holds groups (a leaf's last round groups
    // nothing and reads its codes from the records it checks anyway).
    slot_.assign(static_cast<size_t>(records_.num_attributes()), -1);
    size_t max_others = 0;
    for (size_t k = 0; k < job_.num_leaves; ++k) {
      const RefineLeaf& leaf = job_.leaves[k];
      max_others = std::max(max_others, leaf.num_others);
      for (size_t d = 0; d + 1 < leaf.num_others; ++d) {
        int& slot = slot_[static_cast<size_t>(leaf.others[d])];
        if (slot < 0) {
          slot = static_cast<int>(attrs_.size());
          attrs_.push_back(leaf.others[d]);
        }
      }
    }
    if (arena_->depth_idx.size() < max_others) {
      arena_->depth_idx.resize(max_others);
      arena_->depth_offsets.resize(max_others);
    }
    arena_->EnsureCodeTable(job_.other_code_bound);
    auto& alive = arena_->leaf_alive;
    alive.resize(job_.num_leaves);
    for (size_t k = 0; k < job_.num_leaves; ++k) {
      alive[k] = job_.leaves[k].num_rhs;
    }
    size_t live_leaves = job_.num_leaves;
    for (size_t ci = cluster_begin; ci < cluster_end; ++ci) {
      cluster_ = &(*job_.clusters)[job_.visit != nullptr ? (*job_.visit)[ci]
                                                         : ci];
      if (cluster_->size() < 2) continue;  // tombstoned empty slot
      ci_ = ci;
      FillRoot();
      const auto root_size =
          static_cast<uint32_t>(arena_->depth_idx[0].size());
      out_->root_rows += root_size;
      // Past an early exit only the count goes on.
      if (live_leaves == 0 || root_size < 2) continue;
      Gather();
      arena_->depth_offsets[0].assign({0, root_size});
      Descend(0, 0, job_.num_leaves);
      // A leaf whose every RHS died by the end of this cluster can gain
      // nothing from later clusters: it stops, and its partial partition
      // is never cacheable.
      for (size_t k = 0; k < job_.num_leaves; ++k) {
        RefineLeafOut& leaf_out = out_->leaves[k];
        if (alive[k] == 0 && leaf_out.complete) {
          leaf_out.complete = false;
          leaf_out.collected.clear();
          --live_leaves;
        }
      }
      if (live_leaves == 0 && job_.visit == nullptr) return;
    }
  }

 private:
  /// Fills the root group with the cluster's positions: all of them, or in
  /// a batch job only the rows that can pair with a batch row, those whose
  /// code in the trie's first non-pivot attribute a batch row of the
  /// cluster also carries. Every leaf groups by that attribute first, so
  /// any other row lands in batch-free groups only.
  void FillRoot() {
    const std::vector<RecordId>& cluster = *cluster_;
    const auto n = static_cast<uint32_t>(cluster.size());
    auto& root = arena_->depth_idx[0];
    batch_begin_ = FirstBatchPos(cluster, job_.first_new_record);
    if (batch_begin_ == 0) {
      root.resize(n);
      std::iota(root.begin(), root.end(), uint32_t{0});
      return;
    }
    root.clear();
    const int attr = job_.leaves[0].others[0];
    uint64_t* const code_epoch = arena_->code_epoch.data();
    const uint64_t ep = ++arena_->epoch;
    for (uint32_t i = batch_begin_; i < n; ++i) {
      const ClusterId code = records_.Record(cluster[i])[attr];
      HYFD_DCHECK(code == kUniqueCluster ||
                      static_cast<size_t>(code) < job_.other_code_bound,
                  "RunRefineTask: cluster code exceeds other_code_bound");
      if (code != kUniqueCluster) code_epoch[code] = ep;
    }
    for (uint32_t i = 0; i < n; ++i) {
      const ClusterId code = records_.Record(cluster[i])[attr];
      if (code != kUniqueCluster && code_epoch[code] == ep) root.push_back(i);
    }
  }

  /// Copies the root rows' codes of every split attribute into contiguous
  /// columns once, so split rounds index small arrays by position instead
  /// of reading row-major records scattered over the whole relation.
  void Gather() {
    if (attrs_.empty()) return;
    const size_t n = cluster_->size();
    auto& gathered = arena_->gathered;
    gathered.resize(attrs_.size() * n);
    const auto copy = [&](uint32_t i) {
      const ClusterId* rec = records_.Record((*cluster_)[i]);
      for (size_t s = 0; s < attrs_.size(); ++s) {
        gathered[s * n + i] = rec[attrs_[s]];
      }
    };
    if (batch_begin_ == 0) {
      for (uint32_t i = 0; i < n; ++i) copy(i);
    } else {
      for (uint32_t i : arena_->depth_idx[0]) copy(i);
    }
  }

  const ClusterId* Column(int attr) const {
    return arena_->gathered.data() +
           static_cast<size_t>(slot_[static_cast<size_t>(attr)]) *
               cluster_->size();
  }

  bool AllDead(size_t lo, size_t hi) const {
    for (size_t k = lo; k < hi; ++k) {
      if (out_->leaves[k].complete) return false;
    }
    return true;
  }

  /// Leaves [lo, hi) share their first `depth` others, all have more, and
  /// the groups by that prefix are at depth_idx[depth].
  void Descend(size_t depth, size_t lo, size_t hi) {
    for (size_t i = lo; i < hi;) {
      const int attr = job_.leaves[i].others[depth];
      size_t j = i + 1;
      while (j < hi && job_.leaves[j].others[depth] == attr) ++j;
      // Lexicographic order puts the leaves ending at this attribute first.
      size_t k = i;
      for (; k < j && job_.leaves[k].num_others == depth + 1; ++k) {
        if (out_->leaves[k].complete) FinalRound(k, depth, attr);
      }
      if (k < j && !AllDead(k, j)) {
        const ClusterId* column = Column(attr);
        const auto code_at = [column](uint32_t p) { return column[p]; };
        // A cluster of only batch rows (batch_begin_ 0) needs no filter.
        if (batch_begin_ > 0) {
          SplitGroups</*kBatchOnly=*/true>(
              code_at, job_.other_code_bound, arena_->depth_idx[depth],
              arena_->depth_offsets[depth], /*drop_singletons=*/true,
              batch_begin_, arena_, &arena_->depth_idx[depth + 1],
              &arena_->depth_offsets[depth + 1]);
        } else {
          SplitGroups</*kBatchOnly=*/false>(
              code_at, job_.other_code_bound, arena_->depth_idx[depth],
              arena_->depth_offsets[depth], /*drop_singletons=*/true,
              /*batch_begin=*/0, arena_, &arena_->depth_idx[depth + 1],
              &arena_->depth_offsets[depth + 1]);
        }
        if (!arena_->depth_idx[depth + 1].empty()) Descend(depth + 1, k, j);
      }
      i = j;
    }
  }

  /// Checks leaf `k`, whose last attribute is `attr`, over the groups at
  /// `depth`.
  void FinalRound(size_t k, size_t depth, int attr) {
    const RefineLeaf& leaf = job_.leaves[k];
    RefineLeafOut& out = out_->leaves[k];
    const std::vector<RecordId>& cluster = *cluster_;
    const auto& idx = arena_->depth_idx[depth];
    const auto& offsets = arena_->depth_offsets[depth];
    const size_t num_rhs = leaf.num_rhs;
    size_t& alive = arena_->leaf_alive[k];
    // Once every RHS has a witness, rows past the latest one cannot move
    // any witness: each group's scan stops there.
    const auto latest_witness = [&] {
      uint64_t latest = 0;
      for (const RefineWitness& w : out.witnesses) {
        latest = std::max(latest, w.pos);
      }
      return latest;
    };
    uint64_t bound = alive > 0 ? kNoWitnessPos : latest_witness();
    const size_t collect_begin = out.collected.size();
    arena_->collect_order.clear();
    // Hot loop state in locals: the stores below cannot then force reloads.
    const int* const rhs_attrs = leaf.rhs_attrs;
    RefineWitness* const witnesses = out.witnesses.data();
    uint64_t* const code_epoch = arena_->code_epoch.data();
    uint32_t* const code_slot = arena_->code_slot.data();
    RecordId* reps = arena_->reps.data();
    ClusterId* rep_rhs = arena_->rep_rhs.data();
    for (size_t g = 0; g + 1 < offsets.size(); ++g) {
      const uint64_t ep = ++arena_->epoch;
      uint32_t num_slots = 0;
      for (uint32_t p = offsets[g]; p < offsets[g + 1]; ++p) {
        const uint32_t i = idx[p];
        const uint64_t pos = WitnessPos(ci_, i);
        if (pos > bound) break;
        const RecordId row = cluster[i];
        const ClusterId* rec = records_.Record(row);
        const ClusterId code = rec[attr];
        if (code == kUniqueCluster) continue;  // unique in LHS: no pair
        const auto c = static_cast<size_t>(code);
        HYFD_DCHECK(c < job_.other_code_bound,
                    "RunRefineTask: cluster code exceeds other_code_bound");
        if (code_epoch[c] != ep) {
          // First row of its group: becomes the representative.
          code_epoch[c] = ep;
          code_slot[c] = num_slots;
          if (arena_->reps.size() <= num_slots) {
            arena_->reps.resize(num_slots + 1);
            arena_->rep_collect.resize(num_slots + 1);
            reps = arena_->reps.data();
          }
          // Sized separately from reps: num_rhs varies between leaves.
          if (arena_->rep_rhs.size() < (num_slots + 1) * num_rhs) {
            arena_->rep_rhs.resize((num_slots + 1) * num_rhs);
            rep_rhs = arena_->rep_rhs.data();
          }
          reps[num_slots] = row;
          arena_->rep_collect[num_slots] = -1;
          ClusterId* stored = rep_rhs + num_slots * num_rhs;
          for (size_t j = 0; j < num_rhs; ++j) stored[j] = rec[rhs_attrs[j]];
          ++num_slots;
          continue;
        }
        const uint32_t slot = code_slot[c];
        if (leaf.collect) Collect(&out, slot, i, row);
        const ClusterId* stored = rep_rhs + slot * num_rhs;
        for (size_t j = 0; j < num_rhs; ++j) {
          RefineWitness& w = witnesses[j];
          // A witness at or before this row cannot move; one after it (in a
          // group visited earlier) still can.
          if (w.pos <= pos) continue;
          if (stored[j] == kUniqueCluster || stored[j] != rec[rhs_attrs[j]]) {
            const bool fresh = w.pos == kNoWitnessPos;
            w = {pos, reps[slot], row};
            if (fresh && --alive == 0) bound = latest_witness();
          }
        }
      }
    }
    if (leaf.collect) OrderCollected(&out.collected, collect_begin);
  }

  /// Adds the row at position `i` to the collected cluster of its group
  /// (in `slot`), opening it with the representative at the second member.
  void Collect(RefineLeafOut* out, uint32_t slot, uint32_t i, RecordId row) {
    int32_t& index = arena_->rep_collect[slot];
    if (index < 0) {
      index = static_cast<int32_t>(out->collected.size());
      arena_->collect_order.emplace_back(i, static_cast<uint32_t>(index));
      out->collected.push_back({arena_->reps[slot]});
    }
    out->collected[static_cast<size_t>(index)].push_back(row);
  }

  /// Emits this cluster's collected groups in the order each gained its
  /// second record — the order the legacy pass materialized them — so cached
  /// partitions (and hence later cache-hit scans) stay byte-identical.
  void OrderCollected(std::vector<std::vector<RecordId>>* collected,
                      size_t begin) {
    auto& order = arena_->collect_order;
    if (std::is_sorted(order.begin(), order.end())) return;
    std::sort(order.begin(), order.end());
    std::vector<std::vector<RecordId>> sorted;
    sorted.reserve(order.size());
    for (const auto& [second_pos, index] : order) {
      (void)second_pos;
      sorted.push_back(std::move((*collected)[index]));
    }
    std::move(sorted.begin(), sorted.end(), collected->begin() + begin);
  }

  const RefineJob& job_;
  const CompressedRecords& records_;
  RefineArena* arena_;
  RefineTaskOut* out_;
  /// Column slot per schema attribute (-1: unused) and attribute per slot.
  std::vector<int> slot_;
  std::vector<int> attrs_;
  const std::vector<RecordId>* cluster_ = nullptr;
  size_t ci_ = 0;
  /// The current cluster's first batch row (FirstBatchPos).
  uint32_t batch_begin_ = 0;
};

}  // namespace

void RunRefineTask(const RefineJob& job, size_t cluster_begin,
                   size_t cluster_end, uint32_t rec_begin, uint32_t rec_end,
                   RefineArena* arena, RefineTaskOut* out) {
  out->leaves.resize(job.num_leaves);
  out->root_rows = 0;
  for (size_t k = 0; k < job.num_leaves; ++k) {
    RefineLeafOut& leaf_out = out->leaves[k];
    HYFD_DCHECK(job.leaves[k].num_rhs > 0, "RunRefineTask: leaf without RHS");
    HYFD_DCHECK(!job.leaves[k].collect || job.first_new_record == 0,
                "RunRefineTask: a batch-filtered walk cannot collect");
    leaf_out.witnesses.assign(job.leaves[k].num_rhs, RefineWitness{});
    leaf_out.collected.clear();
    leaf_out.complete = true;
  }
  if (job.num_leaves == 0) return;
  if (job.leaves[0].num_others == 0) {
    HYFD_DCHECK(job.num_leaves == 1,
                "RunRefineTask: a compare-to-first job has one leaf");
    RunCompareToFirst(job, cluster_begin, cluster_end, rec_begin, rec_end,
                      out);
    return;
  }
  HYFD_DCHECK(rec_end == 0,
              "RunRefineTask: record-range splits require the "
              "compare-to-first shape");
  HYFD_DCHECK(job.first_new_record == 0 ||
                  std::all_of(job.leaves, job.leaves + job.num_leaves,
                              [&](const RefineLeaf& leaf) {
                                return leaf.others[0] == job.leaves[0].others[0];
                              }),
              "RunRefineTask: a batch job's leaves share their first "
              "non-pivot attribute");
  TrieWalk(job, arena, out).Run(cluster_begin, cluster_end);
}

void MergeTaskOut(RefineTaskOut* into, RefineTaskOut&& from) {
  HYFD_DCHECK(into->leaves.size() == from.leaves.size(),
              "MergeTaskOut: outputs of different jobs");
  into->root_rows += from.root_rows;
  for (size_t k = 0; k < into->leaves.size(); ++k) {
    RefineLeafOut& to = into->leaves[k];
    RefineLeafOut& add = from.leaves[k];
    HYFD_DCHECK(to.witnesses.size() == add.witnesses.size(),
                "MergeTaskOut: outputs of different jobs");
    for (size_t j = 0; j < to.witnesses.size(); ++j) {
      if (add.witnesses[j].pos < to.witnesses[j].pos) {
        to.witnesses[j] = add.witnesses[j];
      }
    }
    to.complete = to.complete && add.complete;
    if (to.collected.empty()) {
      to.collected = std::move(add.collected);
    } else {
      to.collected.insert(to.collected.end(),
                          std::make_move_iterator(add.collected.begin()),
                          std::make_move_iterator(add.collected.end()));
    }
  }
}

}  // namespace hyfd
