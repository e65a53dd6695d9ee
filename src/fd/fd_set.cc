#include "fd/fd_set.h"

#include <algorithm>

namespace hyfd {

bool IsCanonicalOrder(const std::vector<FD>& fds) {
  return std::adjacent_find(fds.begin(), fds.end(),
                            [](const FD& a, const FD& b) { return !(a < b); }) ==
         fds.end();
}

void FDSet::Canonicalize() {
  std::sort(fds_.begin(), fds_.end());
  fds_.erase(std::unique(fds_.begin(), fds_.end()), fds_.end());
}

bool FDSet::Contains(const FD& fd) const {
  return std::find(fds_.begin(), fds_.end(), fd) != fds_.end();
}

bool FDSet::ContainsGeneralizationOf(const FD& fd) const {
  for (const FD& candidate : fds_) {
    if (candidate.Generalizes(fd)) return true;
  }
  return false;
}

bool FDSet::IsMinimal() const {
  for (const FD& a : fds_) {
    for (const FD& b : fds_) {
      if (&a != &b && a.rhs == b.rhs && a.lhs.IsProperSubsetOf(b.lhs)) {
        return false;
      }
    }
  }
  return true;
}

std::vector<std::string> FDSet::ToStrings() const {
  std::vector<std::string> out;
  out.reserve(fds_.size());
  for (const FD& fd : fds_) out.push_back(fd.ToString());
  return out;
}

std::vector<std::string> FDSet::ToStrings(
    const std::vector<std::string>& names) const {
  std::vector<std::string> out;
  out.reserve(fds_.size());
  for (const FD& fd : fds_) out.push_back(fd.ToString(names));
  return out;
}

}  // namespace hyfd
