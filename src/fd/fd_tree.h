#ifndef HYFD_FD_FD_TREE_H_
#define HYFD_FD_FD_TREE_H_

#include <cstddef>
#include <memory>
#include <vector>

#include "fd/fd_set.h"
#include "util/attribute_set.h"

namespace hyfd {

/// Prefix tree over FD left-hand sides (paper §7, after Flach & Savnik).
///
/// A path root → n1 → n2 (edges labeled with ascending attribute indexes)
/// spells an LHS; the node's `fds` bitset marks the RHS attributes A for
/// which LHS → A is stored. Every node additionally keeps `rhs_attrs`, a
/// superset of all RHS attributes stored in its subtree, which prunes
/// generalization lookups — the operation the Inductor and Validator hammer.
///
/// The tree enforces an optional maximum LHS size (set by the Memory
/// Guardian, paper §9): FDs with longer LHSs are rejected on add and pruned
/// retroactively when the cap shrinks.
class FDTree {
 public:
  struct Node {
    explicit Node(int num_attributes)
        : fds(num_attributes),
          rhs_attrs(num_attributes),
          confirmed(num_attributes) {}

    /// RHS attributes whose FD ends at this node.
    AttributeSet fds;
    /// Superset of RHS attributes stored anywhere in this subtree.
    AttributeSet rhs_attrs;
    /// Subset of `fds` that a completed Validator pass proved to hold on the
    /// data (vs. merely candidate after Inductor specialization). The
    /// incremental session uses this to route previously-proven FDs through
    /// the cheap restricted re-check (only clusters touched by new rows)
    /// while fresh candidates get the full check. Invariant: confirmed ⊆ fds.
    AttributeSet confirmed;
    /// Children indexed by attribute; allocated lazily.
    std::vector<std::unique_ptr<Node>> children;

    Node* Child(int attr) const {
      if (children.empty()) return nullptr;
      return children[static_cast<size_t>(attr)].get();
    }
  };

  /// A node paired with the LHS its path spells — what GetLevel() hands to
  /// the Validator.
  struct LevelEntry {
    Node* node;
    AttributeSet lhs;
  };

  /// A stored LHS with the RHSs of a queried mask it stores — one entry of
  /// GetFdAndGeneralizations().
  struct FdGroup {
    AttributeSet lhs;
    AttributeSet rhss;
  };

  explicit FDTree(int num_attributes);

  int num_attributes() const { return num_attributes_; }
  Node* root() { return root_.get(); }
  const Node* root() const { return root_.get(); }

  /// Adds the most general FDs ∅ → A for every attribute A (Inductor init).
  void AddMostGeneralFds();

  /// Adds LHS → rhs. Returns false if it was already present or exceeds the
  /// LHS size cap. Does not check minimality.
  bool AddFd(const AttributeSet& lhs, int rhs);

  /// Adds LHS → rhs and reports whether a *new tree node* was created for it
  /// (the Validator must enqueue new nodes into the next level). Output
  /// `added` says whether the FD itself was new.
  Node* AddFdAndGetIfNewNode(const AttributeSet& lhs, int rhs, bool* added);

  /// Removes LHS → rhs if present (exact match). Returns true iff the removed
  /// FD was confirmed.
  bool RemoveFd(const AttributeSet& lhs, int rhs);

  bool ContainsFd(const AttributeSet& lhs, int rhs) const;

  /// True iff the tree stores LHS → rhs or any generalization X → rhs with
  /// X ⊆ LHS. This is the minimality check of Inductor and Validator.
  bool ContainsFdOrGeneralization(const AttributeSet& lhs, int rhs) const;

  /// The RHSs A of `rhss` for which the tree stores LHS → A or a
  /// generalization X → A with X ⊆ LHS: ContainsFdOrGeneralization for a
  /// whole RHS mask in one descent.
  AttributeSet GeneralizedRhss(const AttributeSet& lhs,
                               const AttributeSet& rhss) const;

  /// In one descent, collects every stored generalization LHS' ⊆ LHS
  /// (including LHS itself) that stores an RHS of `rhss`, paired with the
  /// RHSs of `rhss` it stores — the Inductor's and HyUCC's specialization
  /// input. Entries come in path pre-order with ascending attributes, so the
  /// entries holding any one RHS appear in the order a single-RHS descent
  /// would find them.
  std::vector<FdGroup> GetFdAndGeneralizations(const AttributeSet& lhs,
                                               const AttributeSet& rhss) const;

  /// All nodes whose depth (LHS size) equals `level`, with their LHS.
  std::vector<LevelEntry> GetLevel(int level);

  /// All stored FDs, emitted directly in canonical order (RHS, LHS size,
  /// LHS bits): the walk buckets FDs by (RHS, depth) and sorts each bucket
  /// on its LHS words alone.
  FDSet ToFdSet() const;

  size_t CountFds() const;
  /// FDs marked validated-on-data (Node::confirmed bits).
  size_t CountConfirmedFds() const;
  /// Marks every stored FD as validated-on-data (confirmed = fds everywhere);
  /// used when seeding an incremental session from a completed discovery.
  void ConfirmAll();

  /// True iff the tree stores a *confirmed* LHS → rhs or confirmed
  /// generalization X → rhs with X ⊆ LHS.
  bool ContainsConfirmedFdOrGeneralization(const AttributeSet& lhs,
                                           int rhs) const;

  /// Transfers proof obligations after a delete-driven cover rebuild
  /// (IncrementalHyFd): marks each stored FD LHS → rhs confirmed iff
  /// `proven` holds a confirmed generalization X → rhs with X ⊆ LHS. Sound
  /// because deleting rows can only remove violating pairs — a proven
  /// generalization still implies the (weaker) specialization on the
  /// shrunken data; violations introduced by *inserted* rows are caught by
  /// the Validator's restricted re-check over touched clusters.
  void ConfirmFrom(const FDTree& proven);

  size_t CountNodes() const;
  /// Depth of the deepest node (longest stored LHS).
  int Depth() const;
  /// Approximate heap footprint (guardian / Table 3 accounting).
  size_t MemoryBytes() const;

  int max_lhs_size() const { return max_lhs_size_; }
  /// Caps the LHS size: prunes all FDs with |LHS| > k and rejects longer
  /// adds from now on. k < 0 means unlimited.
  void SetMaxLhsSize(int k);

  /// Deep structural audit (paper §5.3 / §7): every node's bitsets range
  /// over num_attributes(), child slots are either absent or one per
  /// attribute, `rhs_attrs` covers the node's own `fds` and every child's
  /// `rhs_attrs` (it may over-approximate after RemoveFd, never
  /// under-approximate), no node is deeper than the Guardian's LHS cap, and
  /// every stored FD is minimal within the tree: no stored X → A has a
  /// stored proper generalization, on its own path or on any other branch
  /// (checked as !ContainsFdOrGeneralization(X \ {b}, A) for every b ∈ X) —
  /// the property the Inductor's and Validator's guarded adds maintain.
  /// Throws ContractViolation on the first violation. Invoked
  /// after each Inductor/Validator phase in audit builds (-DHYFD_AUDIT=ON);
  /// callable from any build (but only meaningful for trees populated
  /// through guarded adds — tests may legally store non-minimal FDs).
  void CheckInvariants() const;

 private:
  Node* GetOrCreateChild(Node* node, int attr);

  int num_attributes_;
  int max_lhs_size_ = -1;
  std::unique_ptr<Node> root_;
};

}  // namespace hyfd

#endif  // HYFD_FD_FD_TREE_H_
