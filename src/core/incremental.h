#ifndef HYFD_CORE_INCREMENTAL_H_
#define HYFD_CORE_INCREMENTAL_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "core/hybrid_loop.h"
#include "core/inductor.h"
#include "core/negative_cover.h"
#include "core/preprocessor.h"
#include "core/validator.h"
#include "data/relation.h"
#include "fd/fd_set.h"
#include "fd/fd_tree.h"
#include "pli/pli_builder.h"
#include "util/attribute_set.h"
#include "util/metrics.h"
#include "util/run_report.h"
#include "util/thread_pool.h"

namespace hyfd {

/// Tuning knobs of an incremental discovery session. A deliberate subset of
/// HyFdConfig: the session never prunes its tree (no memory guardian) and
/// keeps no PLI cache — its Validator refines each candidate directly, and
/// every batch changes the data a cached partition would describe.
struct IncrementalConfig {
  NullSemantics null_semantics = NullSemantics::kNullEqualsNull;
  /// Phase-switch threshold, as in HyFdConfig (paper Figure 8).
  double efficiency_threshold = 0.01;
  /// > 1 parallelizes sampling and validation on one shared pool.
  int num_threads = 1;
};

/// The counters of the last batch (or of the seeding discovery) most read
/// outside the session, as last_batch_stats() reads them from report():
/// the `incremental.*` counters of the same names. The report carries the
/// rest (batch and deleted rows, invalidated and re-validated FDs,
/// generalization candidates, phase switches).
struct IncrementalBatchStats {
  /// Stripped clusters (summed over attributes) that received a new row —
  /// the restricted validation scope.
  size_t touched_clusters = 0;
  size_t validations = 0;  ///< candidates checked by the Validator
  /// Record pairs matched by sampling, targeted pair matching and the final
  /// witness fold.
  size_t comparisons = 0;
  /// FDs in the post-batch cover that were not minimal FDs before it — on a
  /// delete/update batch these moved *down* the lattice (violating pairs
  /// died). Only computed when rows were deleted.
  size_t fds_generalized = 0;
};

/// EAIFD-style incremental FD discovery session.
///
/// The session owns a Relation plus everything HyFD derives from it — the
/// single-column PLIs, the compressed records and the candidate FDTree with
/// its per-node `confirmed` proofs — and keeps all of it consistent across
/// row-batch inserts:
///
///   IncrementalHyFd session(initial_relation);
///   const FDSet& fds0 = session.fds();            // full HyFD discovery
///   const FDSet& fds1 = session.ApplyBatch(rows); // incremental update
///
/// ApplyBatch() appends the rows, grows each single-column PLI and the
/// compressed records *in place* (Pli::AppendRows / CompressedRecords::
/// Append), samples only record pairs that involve new rows (every pair
/// inside an untouched cluster was matched — or deliberately skipped — when
/// its rows arrived), and re-runs the Inductor/Validator loop seeded from
/// the previous tree: FDs proven before the batch take a restricted
/// re-validation over only the clusters the batch touched (sound because a
/// newly-violating pair must involve a new row and shares its pivot cluster
/// with it — Validator::ClusterDelta), while candidates specialized during
/// this batch get the standard full check.
///
/// DeleteRows()/UpdateRows() close the other half of the CRUD surface.
/// Deletes tombstone rows in place: each column PLI erases the dead ids from
/// its clusters (Pli::RemoveRows — lone survivors are demoted to implicit
/// singletons, emptied slots linger until compaction), the compressed
/// records wipe the dead cells, and row ids are never reused. Deletes can
/// make previously-false FDs *valid*, so the session keeps the *witnessed*
/// negative cover its seeding Sampler built (NegativeCover: every agree set
/// with the record pair that first produced it), matches each batch's pairs
/// through it, and on a delete batch drops the entries whose witness died
/// (NegativeCover::RetainLive), rebuilds the candidate tree from the
/// surviving agree sets, and transfers proofs
/// via FDTree::ConfirmFrom (a confirmed FD survives deletion; only
/// insert-touched clusters need re-checking). The stored-but-unconfirmed
/// remainder are exactly the generalization candidates; the normal
/// Validator/Sampler loop then settles them downward and re-specializes
/// anything the batch's inserted rows broke. An update is delete + insert
/// sharing one such repair pass.
///
/// Equivalence guarantee: after every batch, fds() equals what a from-
/// scratch HyFD run on the current *live* rows returns. For appends the
/// seeded tree is a superset-closure starting point (rows only break FDs);
/// for deletes the rebuilt-from-witnesses tree is a generalization-closure
/// starting point (dropping an agree set can only make the tree too
/// general, and the exhaustive Validator — not sampling completeness — is
/// what settles every candidate). tests/incremental_test.cc enforces both
/// differentially.
class IncrementalHyFd {
 public:
  /// Takes ownership of `relation` and runs one full discovery to seed the
  /// session (available immediately via fds()).
  explicit IncrementalHyFd(Relation relation, IncrementalConfig config = {});

  // The session owns mutable derived state keyed to `this`; not copyable.
  IncrementalHyFd(const IncrementalHyFd&) = delete;
  IncrementalHyFd& operator=(const IncrementalHyFd&) = delete;

  /// Minimal FDs of the current relation (after all applied batches).
  const FDSet& fds() const { return fds_; }

  /// Appends `rows` (std::nullopt cells become NULL) and returns the updated
  /// FD set. Row widths must match the schema; the whole batch is rejected
  /// before any row is appended on a width mismatch. An empty batch is a
  /// no-op that still refreshes report().
  const FDSet& ApplyBatch(
      const std::vector<std::vector<std::optional<std::string>>>& rows);

  /// Convenience for all-non-NULL batches.
  const FDSet& ApplyBatchStrings(
      const std::vector<std::vector<std::string>>& rows);

  /// Tombstones the listed rows and returns the FD set of the surviving live
  /// rows. Ids are positions in relation() (the physical row space — ids are
  /// never reused); each must be live and listed once, or the whole batch is
  /// rejected with ContractViolation before any state changes.
  const FDSet& DeleteRows(const std::vector<RecordId>& ids);

  /// Replaces each listed row: the old id is tombstoned and the new version
  /// appended (receiving a fresh id), both sides sharing one repair pass.
  /// Same id/width contract as DeleteRows()/ApplyBatch().
  const FDSet& UpdateRows(
      const std::vector<
          std::pair<RecordId, std::vector<std::optional<std::string>>>>&
          updates);

  /// The whole CRUD surface in one batch sharing a single repair pass —
  /// for mixed workloads this is ~3x cheaper than three separate calls
  /// (one cover repair, one state growth, one hybrid loop instead of
  /// three). A delete/update id must not name a row inserted by the same
  /// call. New physical ids: `inserts` first (in order), then the updates'
  /// fresh versions (in order). ApplyBatch, DeleteRows and UpdateRows are
  /// its special cases.
  const FDSet& ApplyMixed(
      const std::vector<std::vector<std::optional<std::string>>>& inserts,
      const std::vector<RecordId>& deletes,
      const std::vector<
          std::pair<RecordId, std::vector<std::optional<std::string>>>>&
          updates);

  /// The owned relation, including every applied batch *and every
  /// tombstoned row* — deletes never rewrite the relation (row ids stay
  /// stable for the session's lifetime); consult IsRowLive() for liveness.
  /// Mutating the relation behind the session's back is detected: the next
  /// batch throws ContractViolation (PreprocessedData::CheckSyncedWith).
  const Relation& relation() const { return relation_; }

  /// True iff physical row `id` has not been deleted (or replaced by
  /// UpdateRows). Out-of-range ids throw.
  bool IsRowLive(RecordId id) const;

  /// Deep copy of the current *live* rows, tombstones compacted away and id
  /// order preserved — the bridge from a long-lived session to the one-shot
  /// discoverers (Relation::LiveRows). When nothing is tombstoned this
  /// equals relation() up to dictionary numbering.
  Relation LiveRelation() const;

  /// LiveRelation().ContentFingerprint(), folded over relation() in place
  /// (Relation::LiveContentFingerprint) without copying the live rows.
  uint64_t LiveContentFingerprint() const;

  /// All minimal UCCs of the live rows — what HyUcc returns on
  /// LiveRelation(), in its order (by size, then lexicographically) —
  /// derived from the maintained FD tree with no pass over the data but a
  /// duplicate-row check. The tree stores every minimal FD, so X is a
  /// superkey iff every attribute outside X has a stored LHS ⊆ X; without
  /// two identical live rows the minimal superkeys are exactly the minimal
  /// UCCs, and with them no attribute set is unique.
  std::vector<AttributeSet> MinimalUccs() const;

  /// Rows the FD set is computed over: relation().num_rows() minus
  /// tombstones.
  size_t num_live_rows() const { return num_live_rows_; }

  /// Four of report()'s counters, read into a view (IncrementalBatchStats).
  IncrementalBatchStats last_batch_stats() const;
  /// Structured report of the last batch (or of the seeding run). Its
  /// `incremental.*` counters: batches, batch_rows, deleted_rows (deletes
  /// plus the old versions of updates), live_rows, touched_clusters,
  /// fds_invalidated (proven FDs the batch broke), fds_revalidated (proven
  /// FDs re-checked over the touched clusters only),
  /// generalization_candidates (after a delete's cover rebuild, stored FDs
  /// with no surviving proof), fds_generalized, validations, comparisons,
  /// and phase_switches.
  const RunReport& report() const { return report_; }
  /// Batches applied so far (the seeding discovery is not a batch).
  int num_batches() const { return num_batches_; }

 private:
  /// Marks a value with no live row in value_rows_ / null_rows_.
  static constexpr RecordId kNoRow = ~RecordId{0};

  /// Builds every piece of derived state from relation() — PLIs, compressed
  /// records, tree, witnessed negative cover, value rows — and runs the
  /// full hybrid discovery over it, adding its counts and times to the
  /// report under way.
  void Seed();
  /// The value_rows_ / null_rows_ entry of `code` in column `c`, or nullptr
  /// for a NULL under kNullUnequal (every such NULL is a singleton forever).
  RecordId* ValueRow(int c, uint32_t code);
  /// Audit: every value_rows_ / null_rows_ entry is a live row carrying its
  /// code, and every indexed row's value has an entry in the row's cluster.
  void CheckValueRows() const;
  /// Shrinks PLIs + compressed records for the (live, distinct) `dead` rows:
  /// erases them from their clusters, demotes lone survivors, moves dead
  /// value rows onto survivors, and compacts columns whose empty-slot
  /// fraction crossed kCompactThreshold.
  void ShrinkDerivedState(const std::vector<RecordId>& dead);
  /// Drops witnessed agree sets whose witness died, rebuilds the candidate
  /// tree from the survivors, and transfers proofs from the old tree
  /// (FDTree::ConfirmFrom). The unconfirmed remainder are the batch's
  /// generalization candidates.
  void RepairCoverAfterDeletes();
  /// Grows PLIs + compressed records for rows [old_n, new_n) and fills the
  /// touched-cluster delta.
  void GrowDerivedState(size_t old_n, size_t new_n,
                        Validator::ClusterDelta* delta);
  /// Sorts and deduplicates `pairs`, counts them, and matches them through
  /// the negative cover's pair loop; returns the fresh agree sets in pair
  /// order (each now in the cover, witnessed by its pair).
  std::vector<AttributeSet> MatchPairs(
      std::vector<std::pair<RecordId, RecordId>> pairs);
  /// Zeroes the registry and opens a fresh report with its phases at 0 s.
  void StartReport();
  void FillReport(double total_seconds);

  IncrementalConfig config_;
  Relation relation_;
  PreprocessedData data_;
  FDTree tree_;
  FDSet fds_;
  /// Built over each fresh tree_, which its constructor seeds with the most
  /// general FDs ∅ → A; persistent across the batches that follow.
  std::unique_ptr<Inductor> inductor_;
  std::unique_ptr<ThreadPool> pool_;
  /// The witnessed negative cover: every agree set ever observed, with the
  /// record pair that witnessed it — taken over from the seeding Sampler,
  /// then grown by every batch's pair matching. Duplicates are sound but
  /// wasted work, so batches only forward fresh sets to the Inductor. On
  /// deletes, entries whose witness died are dropped (the agree set may no
  /// longer have any live witness — keeping it would wrongly pin FDs above
  /// it), and the candidate tree is rebuilt from the survivors; an agree
  /// set's identity depends only on its records' values, so entries with
  /// live witnesses stay valid verbatim.
  NegativeCover negative_cover_;
  /// One live row per value, so a new row finds its cluster through that
  /// row's compressed cell (kUniqueCluster: the value is a singleton so
  /// far). value_rows_[c][code] is a live row carrying `code` in column c,
  /// or kNoRow; null_rows_[c] is the same for NULL under kNullEqualsNull.
  /// Keyed by the column segment's dictionary code — value identity is code
  /// identity, and an append never changes an existing row's code. Row ids
  /// survive PLI compaction, so these entries never need renumbering.
  std::vector<std::vector<RecordId>> value_rows_;
  std::vector<RecordId> null_rows_;
  /// Liveness per physical row id; tombstones are never reused. Sized to
  /// relation().num_rows().
  std::vector<uint8_t> live_;
  size_t num_live_rows_ = 0;

  /// The session's incremental.* cells and the components' sampler.*,
  /// inductor.* and validator.* of the current seed or batch; reset at the
  /// start of each, merged into report_.
  MetricsRegistry metrics_;
  RunReport report_;
  int num_batches_ = 0;
};

}  // namespace hyfd

#endif  // HYFD_CORE_INCREMENTAL_H_
