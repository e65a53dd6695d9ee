#ifndef HYFD_PLI_PLI_H_
#define HYFD_PLI_PLI_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace hyfd {

using RecordId = uint32_t;
using ClusterId = int32_t;

/// Cluster id of records that are unique in the indexed attribute set
/// (stripped from the PLI).
inline constexpr ClusterId kUniqueCluster = -1;

/// FNV-1a hash over a vector of cluster ids. Production grouping moved to
/// the hash-free refinement kernel (core/refine_kernel.h); this stays as the
/// key hasher of the preserved legacy implementation (tests/legacy_validator.h)
/// that the kernel is differential-tested and benchmarked against.
struct ClusterVectorHash {
  size_t operator()(const std::vector<ClusterId>& v) const {
    size_t h = 1469598103934665603ull;
    for (ClusterId c : v) {
      h ^= static_cast<size_t>(static_cast<uint32_t>(c));
      h *= 1099511628211ull;
    }
    return h;
  }
};

/// A position list index (stripped partition) π_X over an attribute set X.
///
/// Records with equal values in X form equivalence classes ("clusters");
/// clusters of size one are stripped (paper §5). A PLI supports the two
/// operations the discovery algorithms need:
///   * Refines(other): does every cluster of π_X fit inside one cluster of
///     π_A? — the FD check X→A.
///   * Intersect(other, n): π_{X∪Y} from π_X and π_Y — TANE-style lattice
///     traversal.
///
/// Deletes (IncrementalHyFd::DeleteRows/UpdateRows) shrink the partition in
/// place via RemoveRows(): dead record ids are erased from their slots, a
/// slot that drops to one survivor is eagerly demoted (the survivor becomes
/// an implicit singleton and the slot empties), and emptied slots linger so
/// slot indexes stay stable until CompactSlots() renumbers them. A PLI that
/// has seen RemoveRows() is "tombstoned": slots are always size 0 or ≥ 2,
/// num_records() stays the physical row count, and the live-record count
/// drives NumClusters()/IsConstant()/IsUnique()/Error().
class Pli {
 public:
  Pli() = default;
  explicit Pli(std::vector<std::vector<RecordId>> clusters, size_t num_records);

  const std::vector<std::vector<RecordId>>& clusters() const { return clusters_; }
  size_t num_records() const { return num_records_; }

  /// Records not removed by RemoveRows(); == num_records() for fresh PLIs.
  size_t num_live_records() const { return num_live_; }

  /// Slots emptied by RemoveRows() and not yet compacted away.
  size_t num_empty_slots() const { return num_empty_slots_; }

  /// True once RemoveRows() ran (empty slots become legal, counts go
  /// live-aware). Cleared by CompactSlots() only if no rows are dead.
  bool tombstoned() const { return tombstoned_; }

  /// Number of slots, including tombstoned empties — the bound kernel code
  /// tables are sized with (RefineJob::other_code_bound), so it must track
  /// slot *indexes*, not live clusters.
  size_t NumStrippedClusters() const { return clusters_.size(); }

  /// Number of equivalence classes over *live* records, including implicit
  /// singletons; equals the number of distinct values of X among live rows.
  size_t NumClusters() const { return num_clusters_total_; }

  /// Records covered by stripped clusters.
  size_t NumNonUniqueRecords() const { return size_; }

  /// True iff every live record is unique in X (X is a key).
  bool IsUnique() const { return clusters_.size() == num_empty_slots_; }

  /// True iff all live records fall into one cluster (X is constant).
  /// Degenerate relations with < 2 live records are constant as well.
  bool IsConstant() const {
    return num_live_ < 2 ||
           (size_ == num_live_ && clusters_.size() - num_empty_slots_ == 1);
  }

  /// TANE's partition error e(X): (non-unique records − stripped clusters).
  /// e(X) == e(X∪A) is equivalent to X→A (Huhtala et al., 1999).
  size_t Error() const { return size_ - (clusters_.size() - num_empty_slots_); }

  /// Grows the partition in place after a batch of rows was appended to the
  /// underlying relation (IncrementalHyFd::ApplyBatch). `appends` lists
  /// (existing stripped-cluster index, new record id) pairs for new rows
  /// whose value joins a pre-existing cluster; `new_clusters` holds brand-new
  /// clusters of size ≥ 2 (e.g. an old singleton promoted by a matching new
  /// row, or several equal new rows). Every appended id must exceed the
  /// cluster's current tail and be ≥ the old num_records(); `new_num_records`
  /// becomes the new record count. Throws ContractViolation on malformed
  /// input.
  void AppendRows(size_t new_num_records,
                  const std::vector<std::pair<uint32_t, RecordId>>& appends,
                  std::vector<std::vector<RecordId>> new_clusters);

  /// Shrinks the partition in place after rows were deleted from the
  /// underlying relation (IncrementalHyFd::DeleteRows/UpdateRows).
  /// `removals` lists (slot index, dead record id) pairs for dead rows that
  /// were members of a stripped cluster; `num_dead_rows` is the total number
  /// of rows dying in this batch (≥ removals.size() — rows that were implicit
  /// singletons in this attribute die too and only shrink the live count).
  /// A slot left with exactly one member is eagerly demoted: the survivor is
  /// erased as well (it becomes an implicit singleton) and reported through
  /// `demoted` as (slot, survivor) so the caller can restamp its compressed
  /// cell. Demoted and emptied slots stay in place (slot indexes remain
  /// stable) until CompactSlots(). Throws ContractViolation if a removal
  /// names a nonexistent slot or a record not in that slot.
  void RemoveRows(const std::vector<std::pair<uint32_t, RecordId>>& removals,
                  size_t num_dead_rows,
                  std::vector<std::pair<uint32_t, RecordId>>* demoted);

  /// Drops empty slots and renumbers the survivors, preserving their order.
  /// `remap` receives one entry per old slot: the new slot index, or -1 for
  /// dropped empties. The caller must restamp the compressed cells of every
  /// moved slot. No-op (remap = identity) when there are no empties.
  void CompactSlots(std::vector<int32_t>* remap);

  /// Builds the probing table: record → cluster id, kUniqueCluster for
  /// singletons.
  std::vector<ClusterId> BuildProbingTable() const;

  /// Returns π over X∪Y by refining *this with `other`'s probing table.
  Pli Intersect(const std::vector<ClusterId>& other_probing_table) const;
  Pli Intersect(const Pli& other) const;

  /// True iff every cluster of *this is contained in one cluster of `other`
  /// (given as probing table): the direct FD check "this refines other".
  bool Refines(const std::vector<ClusterId>& other_probing_table) const;

  /// Approximate heap footprint (Table 3 accounting).
  size_t MemoryBytes() const;

  /// Deep structural audit of the stripped partition (paper §5): every
  /// cluster holds ≥ 2 strictly ascending record ids (never exactly one —
  /// RemoveRows demotes survivors eagerly), clusters are pairwise disjoint,
  /// all ids are in [0, num_records()), and the cached size / cluster-count /
  /// live-count fields are mutually consistent. Empty clusters are legal only
  /// on tombstoned PLIs. Throws ContractViolation on the first violation.
  /// Runs automatically after every construction (hence after every
  /// intersection) in audit builds (-DHYFD_AUDIT=ON); callable from any
  /// build.
  void CheckInvariants() const;

 private:
  std::vector<std::vector<RecordId>> clusters_;
  size_t num_records_ = 0;         ///< physical rows, incl. tombstoned
  size_t num_live_ = 0;            ///< rows not removed by RemoveRows()
  size_t size_ = 0;                ///< records in stripped clusters
  size_t num_clusters_total_ = 0;  ///< live classes incl. singletons
  size_t num_empty_slots_ = 0;     ///< tombstoned, not yet compacted
  bool tombstoned_ = false;        ///< RemoveRows() has run
};

}  // namespace hyfd

#endif  // HYFD_PLI_PLI_H_
