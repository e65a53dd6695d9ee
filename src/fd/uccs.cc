#include "fd/uccs.h"

#include <algorithm>
#include <unordered_map>

#include "pli/pli.h"

namespace hyfd {

std::vector<AttributeSet> DiscoverUccs(const Relation& relation,
                                       NullSemantics nulls) {
  const int m = relation.num_columns();
  std::vector<AttributeSet> uccs;
  if (relation.num_rows() < 2) {
    // Degenerate: even the empty set identifies at most one record.
    uccs.push_back(AttributeSet(m));
    return uccs;
  }

  auto plis = BuildAllColumnPlis(relation, nulls);

  // Level-wise candidate lattice with PLIs carried along; supersets of
  // found UCCs are pruned (they cannot be minimal).
  std::unordered_map<AttributeSet, Pli> level;
  for (int a = 0; a < m; ++a) {
    AttributeSet lhs(m);
    lhs.Set(a);
    if (plis[static_cast<size_t>(a)].IsUnique()) {
      uccs.push_back(lhs);
    } else {
      level.emplace(lhs, std::move(plis[static_cast<size_t>(a)]));
    }
  }

  while (!level.empty()) {
    // Apriori join over prefix blocks.
    std::vector<AttributeSet> keys;
    keys.reserve(level.size());
    for (const auto& [lhs, _] : level) keys.push_back(lhs);
    std::unordered_map<AttributeSet, std::vector<AttributeSet>> blocks;
    for (const AttributeSet& lhs : keys) {
      std::vector<int> attrs = lhs.ToIndexes();
      blocks[lhs.Without(attrs.back())].push_back(lhs);
    }
    std::unordered_map<AttributeSet, Pli> next;
    for (auto& [prefix, members] : blocks) {
      for (size_t i = 0; i < members.size(); ++i) {
        for (size_t j = i + 1; j < members.size(); ++j) {
          AttributeSet joined = members[i] | members[j];
          if (next.contains(joined)) continue;
          // All immediate subsets must be non-unique survivors.
          bool viable = true;
          for (int a = joined.First(); a != AttributeSet::kNpos && viable;
               a = joined.NextAfter(a)) {
            if (!level.contains(joined.Without(a))) viable = false;
          }
          if (!viable) continue;
          Pli combined =
              level.at(members[i]).Intersect(level.at(members[j]));
          if (combined.IsUnique()) {
            uccs.push_back(joined);
          } else {
            next.emplace(std::move(joined), std::move(combined));
          }
        }
      }
    }
    level = std::move(next);
  }

  std::sort(uccs.begin(), uccs.end(), SmallerThenLess);
  return uccs;
}

}  // namespace hyfd
