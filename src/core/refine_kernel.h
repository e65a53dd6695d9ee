#ifndef HYFD_CORE_REFINE_KERNEL_H_
#define HYFD_CORE_REFINE_KERNEL_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "pli/compressed_records.h"
#include "pli/pli.h"

namespace hyfd {

/// Position of a violation witness inside one refinement job: the global
/// scan position `(cluster index in visit order << 32) | record index in
/// cluster`. Witnesses merge across parallel subtasks by taking the minimum
/// position, so the surviving witness per RHS is the first one in scan order
/// regardless of how the job was split — the property that keeps the
/// Validator's comparison suggestions bit-identical for any thread count.
inline constexpr uint64_t kNoWitnessPos = ~uint64_t{0};

/// One violation witness: the record pair that first proved lhs -> rhs
/// wrong, plus its scan position (kNoWitnessPos = the RHS survived).
struct RefineWitness {
  uint64_t pos = kNoWitnessPos;
  RecordId a = 0;
  RecordId b = 0;
};

/// Per-worker scratch arena of the refinement kernel.
///
/// All grouping state lives here — the epoch-stamped dense code table that
/// replaces the old `unordered_map<ClusterId, …>` / vector-keyed hash maps,
/// the ping-pong index buffers of GroupRowsByCodes, one grouping buffer per
/// depth of the trie walk, and the per-group representative storage of a
/// leaf's final round. Buffers grow to their high-water mark and are reused
/// across every cluster, node, and level of a run: the per-record hot path
/// performs no allocation and no hashing. One arena per pool worker (plus one
/// for the calling thread); arenas are NOT thread-safe and must never be
/// shared between concurrently running tasks.
class RefineArena {
 public:
  // --- Epoch-stamped dense code table (code -> slot). ----------------------
  // `code_epoch[c] == epoch` marks the entry live; bumping `epoch` clears
  // the whole table in O(1). Codes are dense cluster ids (PR 6), so the
  // table is a flat array — no hashing, no per-cluster clearing.
  std::vector<uint64_t> code_epoch;
  std::vector<uint32_t> code_slot;
  uint64_t epoch = 0;

  /// Grows the code table to cover codes in [0, bound). New entries carry
  /// epoch 0, which is never current (the first use pre-increments).
  void EnsureCodeTable(size_t bound) {
    if (code_epoch.size() < bound) {
      code_epoch.resize(bound, 0);
      code_slot.resize(bound, 0);
    }
  }

  // --- GroupRowsByCodes outputs. -------------------------------------------
  /// Kept row indexes (positions into the caller's `rows` span) in stable
  /// group-contiguous order: groups appear in hierarchical first-encounter
  /// order, rows within a group in original scan order.
  std::vector<uint32_t> grouped_idx;
  /// Group start offsets into `grouped_idx`; size = num_groups + 1.
  std::vector<uint32_t> group_offsets;
  /// Rows dropped for carrying kUniqueCluster in a grouping attribute.
  size_t dropped = 0;

  // --- Internal scratch (grouping rounds, counting sorts). -----------------
  std::vector<uint32_t> scratch_idx;
  std::vector<uint32_t> scratch_offsets;
  std::vector<uint32_t> scratch_group;
  std::vector<uint32_t> hist;

  // --- Trie walk: the groups of one shared LHS prefix per depth. -----------
  /// `depth_idx[d]` holds cluster positions grouped by the first d non-pivot
  /// attributes of the current path (singletons dropped), `depth_offsets[d]`
  /// the group boundaries.
  std::vector<std::vector<uint32_t>> depth_idx;
  std::vector<std::vector<uint32_t>> depth_offsets;
  /// Per leaf: RHSs still without a witness in the running task.
  std::vector<size_t> leaf_alive;
  /// Batch-filtered splits: per subgroup, whether it holds a batch row.
  std::vector<uint8_t> sub_has_batch;
  /// The current pivot cluster's codes of every attribute a split round
  /// groups by, one contiguous column per attribute.
  std::vector<ClusterId> gathered;

  // --- A leaf's final round: per-group representative storage. ------------
  std::vector<RecordId> reps;        ///< each group's representative
  std::vector<ClusterId> rep_rhs;    ///< reps.size() × num_rhs cluster ids
  std::vector<int32_t> rep_collect;  ///< collected-cluster slot or -1

  // --- Collection order scratch: (second-member position, collected index)
  // pairs, so collected clusters appear in the order each group gained its
  // second record — byte-identical to the legacy hash-grouping pass.
  std::vector<std::pair<uint32_t, uint32_t>> collect_order;

  /// Approximate heap footprint (observability gauge).
  size_t MemoryBytes() const;
};

/// One LHS of a refinement trie: checks (pivot ∪ others) -> rhs for every
/// rhs in `rhs_attrs`.
struct RefineLeaf {
  /// Non-pivot LHS attributes in grouping order; empty only for the
  /// compare-to-first shape (single-attribute LHS or cached partition:
  /// every record compares against its cluster's first record).
  const int* others = nullptr;
  size_t num_others = 0;
  const int* rhs_attrs = nullptr;  ///< at least one
  size_t num_rhs = 0;
  /// Assemble the grouped LHS partition as stripped clusters (PliCache
  /// warm-up). Only meaningful with num_others >= 1.
  bool collect = false;
};

/// One refinement job: a trie of LHSs that share the pivot attribute (whose
/// PLI clusters, or a cached LHS partition, the job scans) and the visit
/// list. Per pivot cluster the kernel groups each shared prefix of the
/// leaves' `others` once and branches per child. The kernel never hashes:
/// grouping runs over dense cluster codes via the arena's flat tables.
struct RefineJob {
  const CompressedRecords* records = nullptr;
  /// Pivot (or cached-partition) clusters, each a sorted record-id list.
  const std::vector<std::vector<RecordId>>* clusters = nullptr;
  /// Optional subset of cluster indexes to scan (restricted/incremental
  /// mode); nullptr = all clusters. Witness positions index into this visit
  /// order, so splits of the same job always agree on positions.
  const std::vector<uint32_t>* visit = nullptr;
  /// Either one compare-to-first leaf, or leaves that all group (num_others
  /// >= 1) sorted lexicographically by `others` — so every shared prefix is
  /// one contiguous run.
  const RefineLeaf* leaves = nullptr;
  size_t num_leaves = 0;
  /// Exclusive upper bound on the cluster codes of every `others` attribute
  /// (max stripped-cluster count); sizes the arena's dense code table.
  size_t other_code_bound = 0;
  /// Restricted (incremental) jobs: the first record id of the current
  /// batch, so every cluster's batch rows are its tail. The caller promises
  /// that no two rows below it violate any leaf's lhs -> rhs — each was
  /// proven before the batch, and deletes only remove pairs — so the only
  /// groups that can hold a violation are those holding a batch row, and
  /// the walk keeps no other:
  ///   - the root keeps the rows whose code in the trie's first non-pivot
  ///     attribute a batch row of the cluster also carries (every leaf of a
  ///     batch job must share that attribute, as the Validator's tries do);
  ///   - every split drops the groups without a batch row;
  ///   - compare-to-first starts at the cluster's first batch row.
  /// Positions and representatives do not move, so witnesses equal those of
  /// the full walk. 0 = no promise: every row is walked. Never combined
  /// with `collect` (a filtered partition is partial).
  RecordId first_new_record = 0;
};

/// What one task found for one leaf.
struct RefineLeafOut {
  /// One cell per rhs_attrs entry; pos == kNoWitnessPos means the RHS
  /// survived this task's range.
  std::vector<RefineWitness> witnesses;
  /// Collected partition clusters of this range (leaf.collect only), in
  /// deterministic scan order.
  std::vector<std::vector<RecordId>> collected;
  /// False iff every RHS was violated within the task's range — the leaf's
  /// scan then stopped, so `collected` is partial and must not be cached. A
  /// leaf with any surviving RHS always has every task complete.
  bool complete = true;
};

/// Output of one task (a whole job, or one cluster/record range of a split
/// job): one cell per leaf.
struct RefineTaskOut {
  std::vector<RefineLeafOut> leaves;
  /// Rows the task's clusters put into a walk: each root after the batch
  /// filter, or the records the compare-to-first shape checks. A job with a
  /// visit list counts every cluster of the range, also those after an early
  /// exit, so the sum over its tasks does not depend on how it was split.
  size_t root_rows = 0;
};

/// Runs one task of `job` over clusters [cluster_begin, cluster_end) of the
/// visit order. When `rec_end > 0`, the task instead covers records
/// [rec_begin, rec_end) of the single cluster `cluster_begin` — only legal
/// for the compare-to-first shape, which is the one shape whose records are
/// independent (a giant pivot cluster splits across workers this way).
/// Scratch comes from `arena`; results land in `out` (overwritten).
///
/// Each leaf's witnesses, `complete` flag and collected clusters equal those
/// of grouping its whole LHS with GroupRowsByCodes per cluster and checking
/// every group against its first member: the trie shares the grouping work,
/// never its outcome.
void RunRefineTask(const RefineJob& job, size_t cluster_begin,
                   size_t cluster_end, uint32_t rec_begin, uint32_t rec_end,
                   RefineArena* arena, RefineTaskOut* out);

/// Merges `from` into `into`, leaf by leaf: per-RHS minimum witness
/// position, collected clusters appended in call order; root rows are
/// summed. Call in task order so collected cluster order stays
/// deterministic.
void MergeTaskOut(RefineTaskOut* into, RefineTaskOut&& from);

/// Groups the `n` rows of `rows` by their cluster-code tuple over `attrs`
/// (schema attribute indexes) via iterative (group, code) refinement on the
/// arena's dense tables — the PliBuilder idiom, hash-free. Rows carrying
/// kUniqueCluster in any grouping attribute are dropped (they cannot collide
/// with anything). `code_bound` must exceed every cluster code of `attrs`
/// (records.num_records() is always safe; the max stripped-cluster count is
/// tight). With num_attrs == 0 all rows form one group. Returns the group
/// count; results are in arena->grouped_idx / group_offsets / dropped.
size_t GroupRowsByCodes(const CompressedRecords& records, const int* attrs,
                        size_t num_attrs, const RecordId* rows, size_t n,
                        size_t code_bound, RefineArena* arena);

}  // namespace hyfd

#endif  // HYFD_CORE_REFINE_KERNEL_H_
