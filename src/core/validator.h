#ifndef HYFD_CORE_VALIDATOR_H_
#define HYFD_CORE_VALIDATOR_H_

#include <utility>
#include <vector>

#include "core/preprocessor.h"
#include "core/refine_kernel.h"
#include "fd/fd_tree.h"
#include "util/attribute_set.h"
#include "util/metrics.h"
#include "util/thread_pool.h"

namespace hyfd {

class PliCache;

/// Outcome of one validation phase.
struct ValidatorResult {
  /// True iff every candidate in the tree has been validated — the whole
  /// HyFD run is finished.
  bool done = false;
  /// Record pairs that violated some candidate; the Sampler matches them
  /// first in the next sampling phase (paper: comparisonSuggestions).
  /// Deduplicated and canonically sorted: one pair can violate many
  /// candidates in one phase (several RHSs of one node, several nodes), but
  /// replaying it more than once would inflate the Sampler's
  /// total_comparisons() — and with it every efficiency figure — without
  /// ever discovering a new agree set.
  std::vector<std::pair<RecordId, RecordId>> comparison_suggestions;
};

/// HyFD's Validator component (paper §8, Algorithm 4).
///
/// Traverses the candidate FDTree level-wise bottom-up, validating each
/// node's FDs against the full dataset with *direct* refinement checks on
/// the single-column PLIs and compressed records — no hierarchical PLI
/// intersections (paper Figure 5). Invalid FDs are replaced by their
/// minimal, non-trivial specializations. If a level produces more than
/// `efficiency_threshold` × (valid FDs) invalid FDs, the Validator pauses
/// and hands control back to the sampling phase.
class Validator {
 public:
  /// Which stripped clusters a row batch touched — the restricted-validation
  /// input of IncrementalHyFd. `touched[attr]` holds the (ascending) indexes
  /// of the stripped clusters of π_attr that contain at least one record id
  /// ≥ `first_new_record`. Soundness of re-validating a previously-proven FD
  /// over touched pivot clusters only: a pair that *newly* violates lhs → rhs
  /// must involve a new row (old-old pairs are unchanged, and deletes only
  /// remove pairs), and both members of a violating pair share the pivot
  /// cluster — so that cluster is touched.
  ///
  /// `first_new_record` buys the same inside each touched cluster: no two
  /// rows below it violate a proven FD, so a restricted walk keeps only the
  /// LHS groups that hold a new row (RefineJob::first_new_record). Its cost
  /// then tracks the rows that can pair with the batch, not the clusters'
  /// sizes. 0 is valid and filters nothing.
  struct ClusterDelta {
    RecordId first_new_record = 0;
    std::vector<std::vector<uint32_t>> touched;
  };

  /// `data` and `tree` must outlive the Validator. A non-null `pool`
  /// parallelizes the refinement checks (paper §10.4). A non-null `cache` is
  /// probed for each multi-attribute LHS partition — a hit replaces the
  /// grouping with a compare-to-first scan of the cached clusters — and kept
  /// warm with the LHS partitions the grouping assembles anyway, so repeated
  /// discovery passes over the same data reuse them. The cache must be thread-safe when a pool is
  /// given (probes run concurrently). A non-null `metrics` registry
  /// receives per-level counters (levels, candidates, suggestion dedup).
  Validator(const PreprocessedData* data, FDTree* tree,
            double efficiency_threshold, ThreadPool* pool = nullptr,
            PliCache* cache = nullptr, MetricsRegistry* metrics = nullptr);

  /// Enables incremental mode: candidates already proven on the pre-batch
  /// data (FDTree::Node::confirmed) are re-checked only over the delta's
  /// touched pivot clusters; fresh candidates still get the full check. The
  /// delta must outlive the Validator and describe the *current* grown
  /// `data`. A non-null delta requires a Validator built without a cache
  /// (ContractViolation otherwise): a touched-only scan yields partial
  /// partitions that must not be cached.
  void set_delta(const ClusterDelta* delta);

  /// Continues the level-wise traversal from where it last stopped.
  ValidatorResult Run();

  size_t total_validations() const { return total_validations_; }
  /// Candidate (lhs → rhs) checks served by the restricted touched-clusters
  /// scan instead of a full pass (incremental mode only). The registry gets
  /// two row counters per level in incremental mode:
  /// `validator.restricted_rows` (Σ visited cluster sizes of restricted
  /// jobs) and `validator.restricted_rows_kept` (rows that entered their
  /// walks after the batch filter); both are thread-count invariant.
  size_t restricted_validations() const { return restricted_validations_; }
  /// Previously-confirmed FDs the current batch invalidated.
  size_t delta_invalidated() const { return delta_invalidated_; }
  /// Number of lattice levels fully validated (LHS sizes 0 through
  /// levels_validated() - 1) — also the level the next Run() call validates
  /// first. The deepest validated LHS size is levels_validated() - 1, NOT
  /// levels_validated() — the historical off-by-one misreading.
  int levels_validated() const { return levels_validated_; }

 private:
  struct RefineOutcome {
    AttributeSet valid_rhss;
    std::vector<std::pair<RecordId, RecordId>> suggestions;
  };

  /// Validates one lattice level on the refinement kernel: plans one unit
  /// per (node, restriction mode), joins the units that share a pivot, a
  /// visit list and their first non-pivot attribute into one trie job,
  /// splits costly jobs into cluster / record ranges (cost = pivot mass ×
  /// trie rounds), runs the flattened task list across the pool, and merges
  /// each unit's partial witness sets deterministically into `outcomes` (one
  /// per level entry, already sized). Cache warm-up Puts happen here,
  /// serially and in level order, after the parallel section.
  void ValidateLevel(const std::vector<FDTree::LevelEntry>& level,
                     std::vector<RefineOutcome>* outcomes);

  /// Grows arenas_ to one slot per pool worker plus one for the calling
  /// thread; buffers persist across levels and Run() calls.
  void EnsureArenas();
  RefineArena& LocalArena();

  const PreprocessedData* data_;
  FDTree* tree_;
  double threshold_;
  ThreadPool* pool_;
  PliCache* cache_;
  MetricsRegistry* metrics_;
  const ClusterDelta* delta_ = nullptr;
  /// Per-worker refinement scratch (last slot: the calling thread). Reused
  /// across every cluster, node, and level — the hot path never allocates.
  std::vector<RefineArena> arenas_;
  int levels_validated_ = 0;
  size_t total_validations_ = 0;
  size_t restricted_validations_ = 0;
  size_t delta_invalidated_ = 0;
};

}  // namespace hyfd

#endif  // HYFD_CORE_VALIDATOR_H_
