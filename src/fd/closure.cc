#include "fd/closure.h"

#include <algorithm>

namespace hyfd {

AttributeSet Closure(const AttributeSet& attrs, const FDSet& fds) {
  AttributeSet closure = attrs;
  bool changed = true;
  while (changed) {
    changed = false;
    for (const FD& fd : fds) {
      if (!closure.Test(fd.rhs) && fd.lhs.IsSubsetOf(closure)) {
        closure.Set(fd.rhs);
        changed = true;
      }
    }
  }
  return closure;
}

bool Implies(const FDSet& fds, const FD& fd) {
  return Closure(fd.lhs, fds).Test(fd.rhs);
}

bool Equivalent(const FDSet& a, const FDSet& b, int /*num_attributes*/) {
  for (const FD& fd : a) {
    if (!Implies(b, fd)) return false;
  }
  for (const FD& fd : b) {
    if (!Implies(a, fd)) return false;
  }
  return true;
}

FDSet MinimalCover(const FDSet& fds, int /*num_attributes*/) {
  // 1. Left-reduce: drop extraneous LHS attributes.
  std::vector<FD> reduced;
  reduced.reserve(fds.size());
  for (const FD& fd : fds) {
    FD current = fd;
    bool shrunk = true;
    while (shrunk) {
      shrunk = false;
      for (int attr = current.lhs.First(); attr != AttributeSet::kNpos;
           attr = current.lhs.NextAfter(attr)) {
        FD candidate(current.lhs.Without(attr), current.rhs);
        if (Implies(fds, candidate)) {
          current = candidate;
          shrunk = true;
          break;
        }
      }
    }
    reduced.push_back(std::move(current));
  }
  FDSet left_reduced(std::move(reduced));

  // 2. Drop redundant FDs (implied by the remainder).
  std::vector<FD> kept(left_reduced.begin(), left_reduced.end());
  for (size_t i = 0; i < kept.size();) {
    std::vector<FD> rest;
    rest.reserve(kept.size() - 1);
    for (size_t j = 0; j < kept.size(); ++j) {
      if (j != i) rest.push_back(kept[j]);
    }
    if (Implies(FDSet(rest), kept[i])) {
      kept.erase(kept.begin() + static_cast<std::ptrdiff_t>(i));
    } else {
      ++i;
    }
  }
  return FDSet(std::move(kept));
}

bool IsSuperKey(const AttributeSet& attrs, const FDSet& fds, int num_attributes) {
  return Closure(attrs, fds).Count() == num_attributes;
}

std::vector<AttributeSet> CandidateKeys(const FDSet& fds, int num_attributes,
                                        size_t max_results) {
  return CandidateKeysWithin(fds, AttributeSet::Full(num_attributes), max_results);
}

namespace {

/// A cover of the FDs `fds` implies among the attributes of `universe`,
/// by Gottlob's reduction by resolution: each outside attribute b that an
/// FD mentions is eliminated by resolving every X → b with every Y → A,
/// b ∈ Y, into (X ∪ Y \ {b}) → A, then dropping every FD that mentions b.
/// A no-op scan when every FD already lies inside `universe`.
std::vector<FD> ProjectOnto(const FDSet& fds, const AttributeSet& universe) {
  std::vector<FD> cover;
  for (const FD& fd : fds) {
    if (!fd.IsTrivial()) cover.push_back(fd);
  }
  const AttributeSet outside = universe.Complement();
  for (int b = outside.First(); b != AttributeSet::kNpos;
       b = outside.NextAfter(b)) {
    std::vector<FD> into_b;
    std::vector<FD> from_b;
    std::vector<FD> kept;
    for (FD& fd : cover) {
      if (fd.rhs == b) {
        into_b.push_back(std::move(fd));
      } else if (fd.lhs.Test(b)) {
        from_b.push_back(std::move(fd));
      } else {
        kept.push_back(std::move(fd));
      }
    }
    for (const FD& x : into_b) {
      for (const FD& y : from_b) {
        FD resolved(x.lhs | y.lhs.Without(b), y.rhs);
        if (resolved.IsTrivial()) continue;
        const bool implied = std::any_of(kept.begin(), kept.end(), [&](const FD& k) {
          return k.rhs == resolved.rhs && k.lhs.IsSubsetOf(resolved.lhs);
        });
        if (!implied) kept.push_back(std::move(resolved));
      }
    }
    cover = std::move(kept);
  }
  return cover;
}

}  // namespace

std::vector<AttributeSet> CandidateKeysWithin(const FDSet& fds,
                                              const AttributeSet& universe,
                                              size_t max_results) {
  // Lucchesi–Osborn over a cover of the FDs within the universe: start from
  // one key; for every key K and FD X → A with A ∈ K, the superkey
  // X ∪ (K \ {A}) either contains a known key or minimizes to a new one.
  // Seeds that contain a known key are skipped before any closure.
  const std::vector<FD> cover = ProjectOnto(fds, universe);
  const FDSet within(cover);
  auto is_key = [&](const AttributeSet& attrs) {
    return universe.IsSubsetOf(Closure(attrs, within));
  };
  auto minimize = [&](AttributeSet key) {
    for (int attr = key.First(); attr != AttributeSet::kNpos;
         attr = key.NextAfter(attr)) {
      AttributeSet candidate = key.Without(attr);
      if (is_key(candidate)) key = std::move(candidate);
    }
    return key;
  };
  std::vector<AttributeSet> keys{minimize(universe)};
  auto full = [&] { return max_results != 0 && keys.size() >= max_results; };
  for (size_t i = 0; i < keys.size() && !full(); ++i) {
    const AttributeSet key = keys[i];
    for (const FD& fd : cover) {
      if (full()) break;
      if (!key.Test(fd.rhs) || fd.lhs.IsSubsetOf(key)) continue;
      AttributeSet seed = fd.lhs | key.Without(fd.rhs);
      const bool known = std::any_of(
          keys.begin(), keys.end(),
          [&](const AttributeSet& k) { return k.IsSubsetOf(seed); });
      if (!known) keys.push_back(minimize(std::move(seed)));
    }
  }
  std::sort(keys.begin(), keys.end(), SmallerThenLess);
  return keys;
}

}  // namespace hyfd
