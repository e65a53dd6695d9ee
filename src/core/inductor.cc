#include "core/inductor.h"

#include <algorithm>

namespace hyfd {

Inductor::Inductor(FDTree* tree, MetricsRegistry* metrics)
    : tree_(tree), metrics_(metrics) {}

size_t Inductor::Update(std::vector<AttributeSet> new_non_fds) {
  if (!initialized_) {
    tree_->AddMostGeneralFds();
    initialized_ = true;
  }
  if (metrics_ != nullptr) {
    metrics_->GetCounter("inductor.updates")->Add(1);
    metrics_->GetCounter("inductor.non_fds_folded")->Add(new_non_fds.size());
  }
  // Longest agree sets first: their specializations prune the most
  // generalization lookups for the shorter ones (Algorithm 3 line 1).
  std::sort(new_non_fds.begin(), new_non_fds.end(),
            [](const AttributeSet& a, const AttributeSet& b) {
              return a.Count() > b.Count();
            });
  size_t confirmed_removed = 0;
  for (const AttributeSet& lhs : new_non_fds) {
    // Every zero bit is the RHS of a violated FD lhs -> rhs.
    AttributeSet rhss = lhs.Complement();
    ForEachBit(rhss,
               [&](int rhs) { confirmed_removed += Specialize(lhs, rhs); });
  }
  return confirmed_removed;
}

size_t Inductor::Specialize(const AttributeSet& non_fd_lhs, int rhs) {
  // All stored FDs X -> rhs with X ⊆ non_fd_lhs are invalid.
  std::vector<AttributeSet> invalid_lhss =
      tree_->GetFdAndGeneralizations(non_fd_lhs, rhs);
  size_t confirmed_removed = 0;
  for (const AttributeSet& invalid_lhs : invalid_lhss) {
    if (tree_->RemoveFd(invalid_lhs, rhs)) ++confirmed_removed;
    // Extend by any attribute outside the non-FD's agree set (an attribute
    // inside it would leave the FD violated by the same record pair) and
    // different from the RHS.
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

}  // namespace hyfd
