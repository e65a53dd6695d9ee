#include "core/inductor.h"

#include <algorithm>
#include <utility>

namespace hyfd {

Inductor::Inductor(FDTree* tree, MetricsRegistry* metrics)
    : tree_(tree), metrics_(metrics) {
  if (tree_->CountFds() == 0) tree_->AddMostGeneralFds();
}

size_t Inductor::Update(std::vector<AttributeSet> new_non_fds) {
  if (metrics_ != nullptr) {
    metrics_->GetCounter("inductor.updates")->Add(1);
    metrics_->GetCounter("inductor.non_fds_folded")->Add(new_non_fds.size());
  }
  // Longest agree sets first: their specializations prune the most
  // generalization lookups for the shorter ones (Algorithm 3 line 1). The
  // counts are computed once; sorting (count, index) pairs on the count
  // yields the permutation sorting the sets themselves by count would.
  std::vector<std::pair<int, size_t>> order;
  order.reserve(new_non_fds.size());
  for (size_t i = 0; i < new_non_fds.size(); ++i) {
    order.emplace_back(new_non_fds[i].Count(), i);
  }
  std::sort(order.begin(), order.end(),
            [](const std::pair<int, size_t>& a,
               const std::pair<int, size_t>& b) { return a.first > b.first; });
  size_t confirmed_removed = 0;
  for (const auto& entry : order) {
    const AttributeSet& agree = new_non_fds[entry.second];
    // Every zero bit is the RHS of a violated FD agree -> rhs, and also an
    // extension attribute: one inside the agree set would leave the FD
    // violated by the same record pair.
    const AttributeSet rhss = agree.Complement();
    // All stored FDs X -> A with X ⊆ agree and A ∉ agree are invalid.
    for (const FDTree::FdGroup& invalid :
         tree_->GetFdAndGeneralizations(agree, rhss)) {
      ForEachBit(invalid.rhss, [&](int rhs) {
        if (tree_->RemoveFd(invalid.lhs, rhs)) ++confirmed_removed;
      });
      ForEachBit(rhss, [&](int attr) {
        AttributeSet want = invalid.rhss;
        want.Reset(attr);  // X ∪ {attr} -> attr would be trivial
        if (want.Empty()) return;
        const AttributeSet new_lhs = invalid.lhs.With(attr);
        want.AndNot(tree_->GeneralizedRhss(new_lhs, want));
        ForEachBit(want, [&](int rhs) { tree_->AddFd(new_lhs, rhs); });
      });
    }
  }
  return confirmed_removed;
}

}  // namespace hyfd
