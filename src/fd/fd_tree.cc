#include "fd/fd_tree.h"

#include <algorithm>
#include <cstddef>
#include <numeric>
#include <utility>

#include "util/check.h"

namespace hyfd {
namespace {

/// Recursive helper for ContainsFdOrGeneralization: scan subsets of the
/// remaining LHS bits (at or after `from`) along existing tree paths.
bool FindGeneralization(const FDTree::Node* node, const AttributeSet& lhs,
                        int rhs, int from) {
  if (node->fds.Test(rhs)) return true;
  if (!node->rhs_attrs.Test(rhs)) return false;
  for (int attr = from < 0 ? lhs.First() : lhs.NextAfter(from);
       attr != AttributeSet::kNpos; attr = lhs.NextAfter(attr)) {
    const FDTree::Node* child = node->Child(attr);
    if (child != nullptr && FindGeneralization(child, lhs, rhs, attr)) {
      return true;
    }
  }
  return false;
}

/// Recursive helper for GeneralizedRhss: drops from `pending` every RHS
/// stored at `node` or below it along subsets of the remaining LHS bits (at
/// or after `from`). Returns true once `pending` is empty.
bool ResolveGeneralizedRhss(const FDTree::Node* node, const AttributeSet& lhs,
                            int from, AttributeSet* pending) {
  pending->AndNot(node->fds);
  if (pending->Empty()) return true;
  for (int attr = from < 0 ? lhs.First() : lhs.NextAfter(from);
       attr != AttributeSet::kNpos; attr = lhs.NextAfter(attr)) {
    const FDTree::Node* child = node->Child(attr);
    if (child != nullptr && child->rhs_attrs.Intersects(*pending) &&
        ResolveGeneralizedRhss(child, lhs, attr, pending)) {
      return true;
    }
  }
  return false;
}

void CollectGeneralizations(const FDTree::Node* node, const AttributeSet& lhs,
                            const AttributeSet& rhss, int from,
                            AttributeSet* path,
                            std::vector<FDTree::FdGroup>* out) {
  AttributeSet stored = node->fds & rhss;
  if (!stored.Empty()) out->push_back({*path, std::move(stored)});
  for (int attr = from < 0 ? lhs.First() : lhs.NextAfter(from);
       attr != AttributeSet::kNpos; attr = lhs.NextAfter(attr)) {
    const FDTree::Node* child = node->Child(attr);
    if (child == nullptr || !child->rhs_attrs.Intersects(rhss)) continue;
    path->Set(attr);
    CollectGeneralizations(child, lhs, rhss, attr, path, out);
    path->Reset(attr);
  }
}

void CollectLevel(FDTree::Node* node, int remaining, AttributeSet* path,
                  std::vector<FDTree::LevelEntry>* out) {
  if (remaining == 0) {
    out->push_back({node, *path});
    return;
  }
  if (node->children.empty()) return;
  for (size_t attr = 0; attr < node->children.size(); ++attr) {
    FDTree::Node* child = node->children[attr].get();
    if (child == nullptr) continue;
    path->Set(static_cast<int>(attr));
    CollectLevel(child, remaining - 1, path, out);
    path->Reset(static_cast<int>(attr));
  }
}

/// ToFdSet's first walk: ++(*slots)[rhs * depths + depth] per stored FD.
void CountFdBuckets(const FDTree::Node* node, size_t depth, size_t depths,
                    std::vector<size_t>* slots) {
  ForEachBit(node->fds, [&](int rhs) {
    ++(*slots)[static_cast<size_t>(rhs) * depths + depth];
  });
  for (const auto& child : node->children) {
    if (child) CountFdBuckets(child.get(), depth + 1, depths, slots);
  }
}

/// ToFdSet's second walk: fills each (rhs, depth) bucket backwards from its
/// end, decrementing (*slots)[rhs * depths + depth] down to the bucket start.
void PlaceFds(const FDTree::Node* node, size_t depth, size_t depths,
              AttributeSet* path, std::vector<size_t>* slots,
              std::vector<FD>* out) {
  ForEachBit(node->fds, [&](int rhs) {
    FD& fd = (*out)[--(*slots)[static_cast<size_t>(rhs) * depths + depth]];
    fd.lhs = *path;
    fd.rhs = rhs;
  });
  if (node->children.empty()) return;
  for (size_t attr = 0; attr < node->children.size(); ++attr) {
    const FDTree::Node* child = node->children[attr].get();
    if (child == nullptr) continue;
    path->Set(static_cast<int>(attr));
    PlaceFds(child, depth + 1, depths, path, slots, out);
    path->Reset(static_cast<int>(attr));
  }
}

size_t CountFdsRec(const FDTree::Node* node) {
  size_t n = static_cast<size_t>(node->fds.Count());
  for (const auto& child : node->children) {
    if (child) n += CountFdsRec(child.get());
  }
  return n;
}

size_t CountConfirmedFdsRec(const FDTree::Node* node) {
  size_t n = static_cast<size_t>(node->confirmed.Count());
  for (const auto& child : node->children) {
    if (child) n += CountConfirmedFdsRec(child.get());
  }
  return n;
}

void ConfirmAllRec(FDTree::Node* node) {
  node->confirmed = node->fds;
  for (const auto& child : node->children) {
    if (child) ConfirmAllRec(child.get());
  }
}

/// Recursive twin of FindGeneralization over the `confirmed` bits. The
/// rhs_attrs pruning stays valid: confirmed ⊆ fds ⊆ rhs_attrs.
bool FindConfirmedGeneralization(const FDTree::Node* node,
                                 const AttributeSet& lhs, int rhs, int from) {
  if (node->confirmed.Test(rhs)) return true;
  if (!node->rhs_attrs.Test(rhs)) return false;
  for (int attr = from < 0 ? lhs.First() : lhs.NextAfter(from);
       attr != AttributeSet::kNpos; attr = lhs.NextAfter(attr)) {
    const FDTree::Node* child = node->Child(attr);
    if (child != nullptr && FindConfirmedGeneralization(child, lhs, rhs, attr)) {
      return true;
    }
  }
  return false;
}

void ConfirmFromRec(FDTree::Node* node, AttributeSet* path,
                    const FDTree& proven) {
  ForEachBit(node->fds, [&](int rhs) {
    if (proven.ContainsConfirmedFdOrGeneralization(*path, rhs)) {
      node->confirmed.Set(rhs);
    }
  });
  if (node->children.empty()) return;
  for (size_t attr = 0; attr < node->children.size(); ++attr) {
    FDTree::Node* child = node->children[attr].get();
    if (child == nullptr) continue;
    path->Set(static_cast<int>(attr));
    ConfirmFromRec(child, path, proven);
    path->Reset(static_cast<int>(attr));
  }
}

size_t CountNodesRec(const FDTree::Node* node) {
  size_t n = 1;
  for (const auto& child : node->children) {
    if (child) n += CountNodesRec(child.get());
  }
  return n;
}

int DepthRec(const FDTree::Node* node) {
  int depth = 0;
  for (const auto& child : node->children) {
    if (child) depth = std::max(depth, 1 + DepthRec(child.get()));
  }
  return depth;
}

size_t MemoryBytesRec(const FDTree::Node* node) {
  size_t bytes = sizeof(FDTree::Node) + node->fds.MemoryBytes() +
                 node->rhs_attrs.MemoryBytes() + node->confirmed.MemoryBytes() +
                 node->children.capacity() * sizeof(std::unique_ptr<FDTree::Node>);
  for (const auto& child : node->children) {
    if (child) bytes += MemoryBytesRec(child.get());
  }
  return bytes;
}

/// Recursive audit for FDTree::CheckInvariants; `path` is the LHS `node`
/// spells.
void CheckNodeInvariants(const FDTree& tree, const FDTree::Node* node,
                         int depth, AttributeSet* path) {
  const int num_attributes = tree.num_attributes();
  const int max_lhs_size = tree.max_lhs_size();
  HYFD_CHECK(node->fds.size() == num_attributes,
             "FDTree: fds bitset ranges over the wrong attribute count");
  HYFD_CHECK(node->rhs_attrs.size() == num_attributes,
             "FDTree: rhs_attrs bitset ranges over the wrong attribute count");
  HYFD_CHECK(node->fds.IsSubsetOf(node->rhs_attrs),
             "FDTree: stored RHS missing from the node's rhs_attrs superset");
  HYFD_CHECK(node->confirmed.size() == num_attributes,
             "FDTree: confirmed bitset ranges over the wrong attribute count");
  HYFD_CHECK(node->confirmed.IsSubsetOf(node->fds),
             "FDTree: confirmed RHS that is not a stored FD");
  HYFD_CHECK(node->children.empty() ||
                 node->children.size() == static_cast<size_t>(num_attributes),
             "FDTree: child slots outside the attribute range");
  HYFD_CHECK(max_lhs_size < 0 || depth <= max_lhs_size,
             "FDTree: node deeper than the Guardian's LHS cap");
  ForEachBit(node->fds, [&](int rhs) {
    ForEachBit(*path, [&](int b) {
      HYFD_CHECK(!tree.ContainsFdOrGeneralization(path->Without(b), rhs),
                 "FDTree: FD stored beside a stored generalization "
                 "(non-minimal)");
    });
  });
  AttributeSet child_union(num_attributes);
  for (size_t attr = 0; attr < node->children.size(); ++attr) {
    const FDTree::Node* child = node->children[attr].get();
    if (child == nullptr) continue;
    path->Set(static_cast<int>(attr));
    CheckNodeInvariants(tree, child, depth + 1, path);
    path->Reset(static_cast<int>(attr));
    child_union |= child->rhs_attrs;
  }
  HYFD_CHECK(child_union.IsSubsetOf(node->rhs_attrs),
             "FDTree: rhs_attrs under-approximates the subtree's RHS union");
}

/// Prunes nodes deeper than `remaining` levels; recomputes rhs_attrs from
/// the surviving FDs. Returns the subtree's new rhs_attrs union.
AttributeSet PruneDeep(FDTree::Node* node, int remaining) {
  AttributeSet rhs_union = node->fds;
  if (remaining == 0) {
    node->children.clear();
  } else {
    for (auto& child : node->children) {
      if (child) rhs_union |= PruneDeep(child.get(), remaining - 1);
    }
  }
  node->rhs_attrs = rhs_union;
  return rhs_union;
}

}  // namespace

FDTree::FDTree(int num_attributes)
    : num_attributes_(num_attributes),
      root_(std::make_unique<Node>(num_attributes)) {}

void FDTree::AddMostGeneralFds() {
  root_->fds.SetAll();
  root_->rhs_attrs.SetAll();
}

FDTree::Node* FDTree::GetOrCreateChild(Node* node, int attr) {
  if (node->children.empty()) {
    node->children.resize(static_cast<size_t>(num_attributes_));
  }
  auto& slot = node->children[static_cast<size_t>(attr)];
  if (!slot) slot = std::make_unique<Node>(num_attributes_);
  return slot.get();
}

bool FDTree::AddFd(const AttributeSet& lhs, int rhs) {
  bool added = false;
  AddFdAndGetIfNewNode(lhs, rhs, &added);
  return added;
}

FDTree::Node* FDTree::AddFdAndGetIfNewNode(const AttributeSet& lhs, int rhs,
                                           bool* added) {
  if (max_lhs_size_ >= 0 && lhs.Count() > max_lhs_size_) {
    if (added != nullptr) *added = false;
    return nullptr;
  }
  Node* node = root_.get();
  node->rhs_attrs.Set(rhs);
  bool created_node = false;
  ForEachBit(lhs, [&](int attr) {
    Node* child = node->Child(attr);
    if (child == nullptr) {
      child = GetOrCreateChild(node, attr);
      created_node = true;
    }
    child->rhs_attrs.Set(rhs);
    node = child;
  });
  bool was_present = node->fds.Test(rhs);
  node->fds.Set(rhs);
  if (added != nullptr) *added = !was_present;
  return created_node ? node : nullptr;
}

bool FDTree::RemoveFd(const AttributeSet& lhs, int rhs) {
  Node* node = root_.get();
  for (int attr = lhs.First(); attr != AttributeSet::kNpos;
       attr = lhs.NextAfter(attr)) {
    node = node->Child(attr);
    if (node == nullptr) return false;
  }
  const bool was_confirmed = node->confirmed.Test(rhs);
  node->fds.Reset(rhs);
  node->confirmed.Reset(rhs);
  // rhs_attrs along the path may now over-approximate; that only costs lookup
  // time, never correctness, so we do not recompute it here.
  return was_confirmed;
}

bool FDTree::ContainsFd(const AttributeSet& lhs, int rhs) const {
  const Node* node = root_.get();
  for (int attr = lhs.First(); attr != AttributeSet::kNpos;
       attr = lhs.NextAfter(attr)) {
    node = node->Child(attr);
    if (node == nullptr) return false;
  }
  return node->fds.Test(rhs);
}

bool FDTree::ContainsFdOrGeneralization(const AttributeSet& lhs, int rhs) const {
  return FindGeneralization(root_.get(), lhs, rhs, -1);
}

AttributeSet FDTree::GeneralizedRhss(const AttributeSet& lhs,
                                     const AttributeSet& rhss) const {
  AttributeSet pending = rhss;
  ResolveGeneralizedRhss(root_.get(), lhs, -1, &pending);
  return rhss ^ pending;
}

std::vector<FDTree::FdGroup> FDTree::GetFdAndGeneralizations(
    const AttributeSet& lhs, const AttributeSet& rhss) const {
  std::vector<FdGroup> out;
  AttributeSet path(num_attributes_);
  CollectGeneralizations(root_.get(), lhs, rhss, -1, &path, &out);
  return out;
}

std::vector<FDTree::LevelEntry> FDTree::GetLevel(int level) {
  std::vector<LevelEntry> out;
  AttributeSet path(num_attributes_);
  CollectLevel(root_.get(), level, &path, &out);
  return out;
}

FDSet FDTree::ToFdSet() const {
  // Canonical order is (RHS, |LHS|, LHS words), and a node's depth is its
  // LHS size. So bucket rhs * depths + depth holds one (RHS, |LHS|) run of
  // the result, buckets in ascending order: count them, turn the counts
  // into bucket ends, fill, and sort each bucket on its LHS words alone.
  const size_t depths = static_cast<size_t>(Depth()) + 1;
  std::vector<size_t> slots(static_cast<size_t>(num_attributes_) * depths, 0);
  CountFdBuckets(root_.get(), 0, depths, &slots);
  std::partial_sum(slots.begin(), slots.end(), slots.begin());
  std::vector<FD> fds(slots.empty() ? 0 : slots.back());
  AttributeSet path(num_attributes_);
  PlaceFds(root_.get(), 0, depths, &path, &slots, &fds);
  for (size_t b = 0; b < slots.size(); ++b) {
    const size_t end = b + 1 < slots.size() ? slots[b + 1] : fds.size();
    std::sort(fds.begin() + static_cast<std::ptrdiff_t>(slots[b]),
              fds.begin() + static_cast<std::ptrdiff_t>(end),
              [](const FD& x, const FD& y) { return x.lhs < y.lhs; });
  }
  HYFD_DCHECK(IsCanonicalOrder(fds),
              "FDTree::ToFdSet: output not sorted and duplicate-free");
  return FDSet(std::move(fds));
}

size_t FDTree::CountFds() const { return CountFdsRec(root_.get()); }
size_t FDTree::CountConfirmedFds() const {
  return CountConfirmedFdsRec(root_.get());
}
void FDTree::ConfirmAll() { ConfirmAllRec(root_.get()); }

bool FDTree::ContainsConfirmedFdOrGeneralization(const AttributeSet& lhs,
                                                 int rhs) const {
  return FindConfirmedGeneralization(root_.get(), lhs, rhs, -1);
}

void FDTree::ConfirmFrom(const FDTree& proven) {
  HYFD_CHECK(proven.num_attributes() == num_attributes_,
             "FDTree::ConfirmFrom: attribute counts disagree");
  AttributeSet path(num_attributes_);
  ConfirmFromRec(root_.get(), &path, proven);
}

size_t FDTree::CountNodes() const { return CountNodesRec(root_.get()); }
int FDTree::Depth() const { return DepthRec(root_.get()); }
size_t FDTree::MemoryBytes() const { return MemoryBytesRec(root_.get()); }

void FDTree::SetMaxLhsSize(int k) {
  max_lhs_size_ = k;
  if (k >= 0) PruneDeep(root_.get(), k);
}

void FDTree::CheckInvariants() const {
  HYFD_CHECK(root_ != nullptr, "FDTree: missing root node");
  AttributeSet path(num_attributes_);
  CheckNodeInvariants(*this, root_.get(), 0, &path);
}

}  // namespace hyfd
