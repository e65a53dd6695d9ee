#ifndef HYFD_FD_FD_SET_H_
#define HYFD_FD_FD_SET_H_

#include <string>
#include <vector>

#include "fd/fd.h"

namespace hyfd {

/// True iff `fds` is strictly increasing in canonical order, i.e. sorted
/// and duplicate-free.
bool IsCanonicalOrder(const std::vector<FD>& fds);

/// The result of a discovery run: a set of FDs in canonical order.
///
/// All eight algorithms in this library return an FDSet; equality between two
/// FDSets (after Canonicalize()) is the cross-checking criterion of the test
/// suite.
class FDSet {
 public:
  FDSet() = default;
  /// Takes `fds` as is when already canonical (a linear check), otherwise
  /// canonicalizes.
  explicit FDSet(std::vector<FD> fds) : fds_(std::move(fds)) {
    if (!IsCanonicalOrder(fds_)) Canonicalize();
  }

  void Add(FD fd) { fds_.push_back(std::move(fd)); }
  void Add(const AttributeSet& lhs, int rhs) { fds_.emplace_back(lhs, rhs); }

  /// Sorts canonically and removes duplicates.
  void Canonicalize();

  size_t size() const { return fds_.size(); }
  bool empty() const { return fds_.empty(); }
  const FD& operator[](size_t i) const { return fds_[i]; }
  auto begin() const { return fds_.begin(); }
  auto end() const { return fds_.end(); }
  const std::vector<FD>& fds() const { return fds_; }

  /// True iff the set holds `fd` (linear scan; meant for tests and small
  /// sets, not for inner loops — diff two sets with one merge walk).
  bool Contains(const FD& fd) const;
  /// True iff the set holds `fd` or any generalization of it (linear scan;
  /// meant for tests and small sets, not for inner loops).
  bool ContainsGeneralizationOf(const FD& fd) const;

  /// True iff no FD in the set has a proper generalization in the set.
  bool IsMinimal() const;

  /// All FDs as human-readable strings, canonical order.
  std::vector<std::string> ToStrings() const;
  std::vector<std::string> ToStrings(const std::vector<std::string>& names) const;

  friend bool operator==(const FDSet& a, const FDSet& b) {
    return a.fds_ == b.fds_;
  }

 private:
  std::vector<FD> fds_;
};

}  // namespace hyfd

#endif  // HYFD_FD_FD_SET_H_
