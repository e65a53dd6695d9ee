#ifndef HYFD_TESTS_LEGACY_INDUCTOR_H_
#define HYFD_TESTS_LEGACY_INDUCTOR_H_

// The per-RHS Inductor, preserved as the differential oracle for the
// batched multi-RHS Inductor (src/core/inductor.h).
//
// This is the implementation the batched one replaced: agree sets sorted by
// descending popcount, then for every agree set and every RHS outside it one
// single-RHS descent collecting the invalid LHSs, a RemoveFd per invalid
// LHS, and one single-RHS ContainsFdOrGeneralization per extension. Tests
// (inductor_test) diff the production Inductor against it: equal FD sets,
// node counts and confirmed-removal counts. Behavior must stay frozen — fix
// bugs in the production Inductor, not here.

#include <algorithm>
#include <cstddef>
#include <vector>

#include "fd/fd_tree.h"
#include "util/attribute_set.h"

namespace hyfd {
namespace legacy {

/// HyFD's Inductor as of before the batched multi-RHS rewrite.
class LegacyInductor {
 public:
  explicit LegacyInductor(FDTree* tree) : tree_(tree) {}

  /// Folds `new_non_fds` into the tree; returns the confirmed FDs removed.
  size_t Update(std::vector<AttributeSet> new_non_fds) {
    if (!initialized_) {
      tree_->AddMostGeneralFds();
      initialized_ = true;
    }
    std::sort(new_non_fds.begin(), new_non_fds.end(),
              [](const AttributeSet& a, const AttributeSet& b) {
                return a.Count() > b.Count();
              });
    size_t confirmed_removed = 0;
    for (const AttributeSet& lhs : new_non_fds) {
      AttributeSet rhss = lhs.Complement();
      ForEachBit(rhss,
                 [&](int rhs) { confirmed_removed += Specialize(lhs, rhs); });
    }
    return confirmed_removed;
  }

 private:
  /// The single-RHS generalization collection the tree used to offer.
  static void CollectGeneralizations(const FDTree::Node* node,
                                     const AttributeSet& lhs, int rhs,
                                     int from, AttributeSet* path,
                                     std::vector<AttributeSet>* out) {
    if (node->fds.Test(rhs)) out->push_back(*path);
    if (!node->rhs_attrs.Test(rhs)) return;
    for (int attr = from < 0 ? lhs.First() : lhs.NextAfter(from);
         attr != AttributeSet::kNpos; attr = lhs.NextAfter(attr)) {
      const FDTree::Node* child = node->Child(attr);
      if (child == nullptr) continue;
      path->Set(attr);
      CollectGeneralizations(child, lhs, rhs, attr, path, out);
      path->Reset(attr);
    }
  }

  size_t Specialize(const AttributeSet& non_fd_lhs, int rhs) {
    std::vector<AttributeSet> invalid_lhss;
    AttributeSet path(tree_->num_attributes());
    CollectGeneralizations(tree_->root(), non_fd_lhs, rhs, -1, &path,
                           &invalid_lhss);
    size_t confirmed_removed = 0;
    for (const AttributeSet& invalid_lhs : invalid_lhss) {
      if (tree_->RemoveFd(invalid_lhs, rhs)) ++confirmed_removed;
      const int m = tree_->num_attributes();
      for (int attr = 0; attr < m; ++attr) {
        if (non_fd_lhs.Test(attr) || attr == rhs) continue;
        AttributeSet new_lhs = invalid_lhs.With(attr);
        if (tree_->ContainsFdOrGeneralization(new_lhs, rhs)) continue;
        tree_->AddFd(new_lhs, rhs);
      }
    }
    return confirmed_removed;
  }

  FDTree* tree_;
  bool initialized_ = false;
};

}  // namespace legacy
}  // namespace hyfd

#endif  // HYFD_TESTS_LEGACY_INDUCTOR_H_
