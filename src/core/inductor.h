#ifndef HYFD_CORE_INDUCTOR_H_
#define HYFD_CORE_INDUCTOR_H_

#include <cstddef>
#include <vector>

#include "fd/fd_tree.h"
#include "util/attribute_set.h"
#include "util/metrics.h"

namespace hyfd {

/// HyFD's Inductor component (paper §7, Algorithm 3).
///
/// Converts non-FD agree sets from the Sampler into the candidate FDTree by
/// successive specialization (FDEP-style): every FD in the tree that the
/// non-FD invalidates is removed and replaced by all minimal, non-trivial,
/// still-plausible specializations. The tree persists across calls, so each
/// sampling round only folds in the *new* non-FDs.
///
/// Each agree set is specialized for all of its violated RHSs at once: one
/// tree descent collects the invalid LHSs with the RHS mask each stores, and
/// one descent per (invalid LHS, extension attribute) tells which RHSs of
/// that mask already have a generalization. Operations for different RHSs
/// touch disjoint RHS bits and each RHS keeps its single-RHS operation
/// order, so the tree equals the one a per-RHS loop builds.
class Inductor {
 public:
  /// `tree` must outlive the Inductor. An empty tree is seeded here with the
  /// most general FDs ∅ → A; a tree that already holds FDs is kept as the
  /// caller seeded it (HyUcc's ∅ → K). A non-null `metrics` registry
  /// receives per-update counters.
  explicit Inductor(FDTree* tree, MetricsRegistry* metrics = nullptr);

  /// Folds `new_non_fds` into the candidate tree. Sorting by descending
  /// cardinality (longest agree sets first) keeps the tree small during
  /// specialization (paper §7). Returns how many confirmed FDs
  /// (FDTree::Node::confirmed) the update removed — the proofs an
  /// incremental batch broke.
  size_t Update(std::vector<AttributeSet> new_non_fds);

 private:
  FDTree* tree_;
  MetricsRegistry* metrics_;
};

}  // namespace hyfd

#endif  // HYFD_CORE_INDUCTOR_H_
