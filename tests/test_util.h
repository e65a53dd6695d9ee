#ifndef HYFD_TESTS_TEST_UTIL_H_
#define HYFD_TESTS_TEST_UTIL_H_

#include <algorithm>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "data/relation.h"
#include "fd/fd_set.h"
#include "gtest/gtest.h"
#include "pli/compressed_records.h"
#include "pli/pli_builder.h"
#include "util/attribute_set.h"
#include "util/run_report.h"

namespace hyfd::testing {

/// Builds a small random relation: values drawn from per-column domains of
/// random size in [1, max_domain], optional NULLs. Deterministic in `seed`.
inline Relation RandomRelation(int cols, size_t rows, uint64_t seed,
                               int max_domain = 4, double null_rate = 0.0) {
  std::mt19937_64 rng(seed);
  Relation r{Schema::Generic(cols)};
  std::vector<int> domains(static_cast<size_t>(cols));
  for (auto& d : domains) {
    d = std::uniform_int_distribution<int>(1, max_domain)(rng);
  }
  std::vector<std::optional<std::string>> row(static_cast<size_t>(cols));
  std::uniform_real_distribution<double> null_draw(0.0, 1.0);
  for (size_t i = 0; i < rows; ++i) {
    for (int c = 0; c < cols; ++c) {
      if (null_rate > 0 && null_draw(rng) < null_rate) {
        row[static_cast<size_t>(c)] = std::nullopt;
      } else {
        int v = std::uniform_int_distribution<int>(
            0, domains[static_cast<size_t>(c)] - 1)(rng);
        row[static_cast<size_t>(c)] = "v" + std::to_string(v);
      }
    }
    r.AppendRow(row);
  }
  return r;
}

/// EXPECT-style comparison of two FD sets with a readable diff.
inline void ExpectSameFds(const FDSet& expected, const FDSet& actual,
                          const std::string& context) {
  if (expected == actual) {
    SUCCEED();
    return;
  }
  std::string message = context + ": FD sets differ.\n";
  for (const FD& fd : expected) {
    if (!actual.Contains(fd)) message += "  missing:   " + fd.ToString() + "\n";
  }
  for (const FD& fd : actual) {
    if (!expected.Contains(fd)) message += "  unexpected: " + fd.ToString() + "\n";
  }
  ADD_FAILURE() << message;
}

/// EXPECT-style comparison of two runs' whole counter sets, names and
/// values, except `validator.arena_bytes`: the high-water mark of the
/// Validator's scratch, which follows how the thread count splits its work.
/// Every other counter is part of the determinism contract.
inline void ExpectSameCounters(const RunReport& expected,
                               const RunReport& actual,
                               const std::string& context) {
  const auto comparable = [](const RunReport& report) {
    std::vector<std::pair<std::string, uint64_t>> counters;
    for (const auto& entry : report.counters) {
      if (entry.first != "validator.arena_bytes") counters.push_back(entry);
    }
    return counters;
  };
  const auto want = comparable(expected);
  const auto got = comparable(actual);
  if (want == got) return;
  std::string message = context + ": counters differ.\n";
  for (const auto& [name, value] : want) {
    const std::optional<uint64_t> other = actual.FindCounter(name);
    if (other != value) {
      message += "  " + name + ": " + std::to_string(value) + " vs " +
                 (other ? std::to_string(*other) : "absent") + "\n";
    }
  }
  for (const auto& [name, value] : got) {
    if (!expected.FindCounter(name).has_value()) {
      message += "  " + name + ": absent vs " + std::to_string(value) + "\n";
    }
  }
  ADD_FAILURE() << message;
}

/// Minimal unique column combinations by brute force: every attribute
/// subset X is tested on the per-column cluster codes (a row with a unique
/// code on X differs from all others on X; the rest must have distinct code
/// tuples), and a unique X is minimal when no X \ {a} is unique. Sorted by
/// size, then lexicographically, like HyUCC's output. Exponential in the
/// column count: for test relations only.
inline std::vector<AttributeSet> BruteForceUccs(
    const Relation& r, NullSemantics nulls = NullSemantics::kNullEqualsNull) {
  const int m = r.num_columns();
  EXPECT_LE(m, 16) << "BruteForceUccs: too many columns";
  CompressedRecords records(BuildAllColumnPlis(r, nulls), r.num_rows());
  std::vector<bool> unique(size_t{1} << m);
  for (uint32_t mask = 0; mask < unique.size(); ++mask) {
    std::set<std::vector<ClusterId>> seen;
    bool distinct = true;
    for (size_t row = 0; row < r.num_rows() && distinct; ++row) {
      std::vector<ClusterId> key;
      bool singleton = false;
      for (int a = 0; a < m && !singleton; ++a) {
        if ((mask >> a & 1) == 0) continue;
        const ClusterId code =
            records.Cluster(static_cast<RecordId>(row), a);
        singleton = code == kUniqueCluster;
        key.push_back(code);
      }
      if (!singleton) distinct = seen.insert(key).second;
    }
    unique[mask] = distinct;
  }
  std::vector<AttributeSet> uccs;
  for (uint32_t mask = 0; mask < unique.size(); ++mask) {
    if (!unique[mask]) continue;
    AttributeSet ucc(m);
    bool minimal = true;
    for (int a = 0; a < m; ++a) {
      if ((mask >> a & 1) == 0) continue;
      ucc.Set(a);
      minimal = minimal && !unique[mask & ~(uint32_t{1} << a)];
    }
    if (minimal) uccs.push_back(ucc);
  }
  std::sort(uccs.begin(), uccs.end(), SmallerThenLess);
  return uccs;
}

}  // namespace hyfd::testing

#endif  // HYFD_TESTS_TEST_UTIL_H_
