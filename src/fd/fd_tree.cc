#include "fd/fd_tree.h"

#include <algorithm>

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

void CollectGeneralizations(const FDTree::Node* node, const AttributeSet& lhs,
                            int rhs, int from, AttributeSet* path,
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

void CollectFds(const FDTree::Node* node, AttributeSet* path,
                std::vector<FD>* out) {
  ForEachBit(node->fds, [&](int rhs) { out->emplace_back(*path, rhs); });
  if (node->children.empty()) return;
  for (size_t attr = 0; attr < node->children.size(); ++attr) {
    const FDTree::Node* child = node->children[attr].get();
    if (child == nullptr) continue;
    path->Set(static_cast<int>(attr));
    CollectFds(child, path, out);
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

/// Recursive audit for FDTree::CheckInvariants. `ancestor_fds` is the union
/// of `fds` along the path above `node` (by value: the tree is shallow and
/// the audit is not a hot path).
void CheckNodeInvariants(const FDTree::Node* node, int num_attributes,
                         int depth, int max_lhs_size,
                         AttributeSet ancestor_fds) {
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
  HYFD_CHECK(!node->fds.Intersects(ancestor_fds),
             "FDTree: FD stored below a stored generalization (non-minimal)");
  ancestor_fds |= node->fds;
  AttributeSet child_union(num_attributes);
  for (const auto& child : node->children) {
    if (child == nullptr) continue;
    CheckNodeInvariants(child.get(), num_attributes, depth + 1, max_lhs_size,
                        ancestor_fds);
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

std::vector<AttributeSet> FDTree::GetFdAndGeneralizations(const AttributeSet& lhs,
                                                          int rhs) const {
  std::vector<AttributeSet> out;
  AttributeSet path(num_attributes_);
  CollectGeneralizations(root_.get(), lhs, rhs, -1, &path, &out);
  return out;
}

std::vector<FDTree::LevelEntry> FDTree::GetLevel(int level) {
  std::vector<LevelEntry> out;
  AttributeSet path(num_attributes_);
  CollectLevel(root_.get(), level, &path, &out);
  return out;
}

FDSet FDTree::ToFdSet() const {
  std::vector<FD> fds;
  AttributeSet path(num_attributes_);
  CollectFds(root_.get(), &path, &fds);
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
  CheckNodeInvariants(root_.get(), num_attributes_, 0, max_lhs_size_,
                      AttributeSet(num_attributes_));
}

}  // namespace hyfd
