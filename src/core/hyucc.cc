#include "core/hyucc.h"

#include <algorithm>
#include <memory>
#include <string>
#include <utility>

#include "core/hybrid_loop.h"
#include "core/preprocessor.h"
#include "core/refine_kernel.h"
#include "fd/fd_tree.h"
#include "pli/pli.h"
#include "util/check.h"
#include "util/metrics.h"
#include "util/timer.h"

namespace hyfd {
namespace {

/// Candidate UCCs live in an FDTree with the fixed pseudo-RHS 0: a stored
/// "LHS -> 0" means "LHS is a candidate minimal UCC". All of the tree's
/// generalization machinery carries over unchanged.
constexpr int kUccMarker = 0;

/// Specializes the candidate tree with one non-unique set (an agree set):
/// every candidate contained in it is not unique; extend minimally.
void SpecializeUcc(FDTree* tree, const AttributeSet& agree) {
  const int m = tree->num_attributes();
  const AttributeSet marker(m, {kUccMarker});
  for (const FDTree::FdGroup& invalid :
       tree->GetFdAndGeneralizations(agree, marker)) {
    const AttributeSet& candidate = invalid.lhs;
    tree->RemoveFd(candidate, kUccMarker);
    for (int attr = 0; attr < m; ++attr) {
      if (agree.Test(attr)) continue;  // still inside the agreeing pair
      AttributeSet extended = candidate.With(attr);
      if (tree->ContainsFdOrGeneralization(extended, kUccMarker)) continue;
      tree->AddFd(extended, kUccMarker);
    }
  }
}

/// Checks whether `lhs` is unique on the data; on violation returns one
/// offending record pair through `violation`. Grouping runs on the shared
/// refinement kernel (dense-code refinement, no hash maps); `arena` is the
/// discovery run's reusable scratch.
bool IsUnique(const PreprocessedData& data, const AttributeSet& lhs,
              RefineArena* arena, std::pair<RecordId, RecordId>* violation) {
  if (lhs.Empty()) {
    if (data.num_records < 2) return true;
    *violation = {0, 1};
    return false;
  }
  // Pivot on the attribute with the most (smallest) clusters.
  int pivot = -1;
  for (int attr = lhs.First(); attr != AttributeSet::kNpos;
       attr = lhs.NextAfter(attr)) {
    if (pivot == -1 || data.rank[static_cast<size_t>(attr)] <
                           data.rank[static_cast<size_t>(pivot)]) {
      pivot = attr;
    }
  }
  std::vector<int> other;
  size_t code_bound = 1;
  for (int attr = lhs.First(); attr != AttributeSet::kNpos;
       attr = lhs.NextAfter(attr)) {
    if (attr == pivot) continue;
    other.push_back(attr);
    code_bound = std::max(
        code_bound, data.plis[static_cast<size_t>(attr)].NumStrippedClusters());
  }
  for (const auto& cluster : data.plis[static_cast<size_t>(pivot)].clusters()) {
    const size_t num_groups =
        GroupRowsByCodes(data.records, other.data(), other.size(),
                         cluster.data(), cluster.size(), code_bound, arena);
    // The sequential scan would stop at the first record that repeats an
    // earlier LHS tuple — i.e. at the minimum second-member position over
    // this cluster's groups. Report that exact pair so the suggestion fed to
    // the Sampler is identical to the old hash-probing scan's.
    uint32_t best_second = UINT32_MAX;
    uint32_t best_first = 0;
    for (size_t g = 0; g < num_groups; ++g) {
      const uint32_t begin = arena->group_offsets[g];
      if (arena->group_offsets[g + 1] - begin < 2) continue;
      const uint32_t second = arena->grouped_idx[begin + 1];
      if (second < best_second) {
        best_second = second;
        best_first = arena->grouped_idx[begin];
      }
    }
    if (best_second != UINT32_MAX) {
      *violation = {cluster[best_first], cluster[best_second]};
      return false;
    }
  }
  return true;
}

}  // namespace

std::vector<AttributeSet> HyUcc::Discover(const Relation& relation) {
  report_ = RunReport{};
  Timer total_timer;
  MetricsRegistry metrics;
  Timer timer;
  PreprocessedData data = Preprocess(relation, config_.null_semantics);
  report_.AddPhase("preprocess", timer.ElapsedSeconds());
  const int m = data.num_attributes;

  std::unique_ptr<ThreadPool> pool;
  if (config_.num_threads > 1) {
    pool = std::make_unique<ThreadPool>(static_cast<size_t>(config_.num_threads));
  }

  FDTree tree(m);
  tree.AddFd(AttributeSet(m), kUccMarker);  // start from "∅ is unique"
  Sampler sampler(&data, config_.efficiency_threshold, config_.sampling_strategy,
                  pool.get(), &metrics);

  std::vector<std::pair<RecordId, RecordId>> suggestions;
  RefineArena arena;  // one reusable grouping scratch for the whole run
  int levels_validated = 0;
  size_t validations = 0;
  int phase_switches = 0;
  while (true) {
    // ---- Phase 1: sample violations, specialize the candidate tree. ------
    timer.Restart();
    // The same violating pair can be suggested by several invalidated
    // candidates of one level; replaying duplicates only inflates the
    // comparison count (the agree set is already in the negative cover).
    std::sort(suggestions.begin(), suggestions.end());
    suggestions.erase(std::unique(suggestions.begin(), suggestions.end()),
                      suggestions.end());
    auto new_agree_sets = sampler.Run(suggestions);
    suggestions.clear();
    report_.AddPhase("sampling", timer.ElapsedSeconds());

    // Sampler::Run returns the agree sets longest first, the order that
    // keeps the candidate tree small during specialization.
    timer.Restart();
    for (const AttributeSet& agree : new_agree_sets) {
      SpecializeUcc(&tree, agree);
    }
    // Audit seam: the candidate tree was just specialized from samples.
    HYFD_AUDIT_ONLY(tree.CheckInvariants());
    report_.AddPhase("induction", timer.ElapsedSeconds());

    // ---- Phase 2: validate level-wise until done or inefficient. ---------
    timer.Restart();
    bool done = false;
    while (true) {
      auto level = tree.GetLevel(levels_validated);
      if (level.empty()) {
        done = true;
        break;
      }
      size_t num_valid = 0;
      std::vector<AttributeSet> invalid;
      for (auto& entry : level) {
        if (!entry.node->fds.Test(kUccMarker)) continue;
        ++validations;
        std::pair<RecordId, RecordId> violation;
        if (IsUnique(data, entry.lhs, &arena, &violation)) {
          ++num_valid;
          continue;
        }
        entry.node->fds.Reset(kUccMarker);
        invalid.push_back(entry.lhs);
        suggestions.push_back(violation);
      }
      for (const AttributeSet& lhs : invalid) {
        for (int attr = 0; attr < m; ++attr) {
          if (lhs.Test(attr)) continue;
          AttributeSet extended = lhs.With(attr);
          if (tree.ContainsFdOrGeneralization(extended, kUccMarker)) continue;
          tree.AddFd(extended, kUccMarker);
        }
      }
      ++levels_validated;
      metrics.GetCounter("validator.levels")->Add(1);
      if (static_cast<double>(invalid.size()) >
          config_.efficiency_threshold * static_cast<double>(num_valid)) {
        break;  // inefficient: go sample the violating pairs
      }
    }
    // Audit seam: validation pruned non-unique candidates and extended them.
    HYFD_AUDIT_ONLY(tree.CheckInvariants());
    report_.AddPhase("validation", timer.ElapsedSeconds());
    if (done) break;
    ++phase_switches;
  }

  std::vector<AttributeSet> uccs;
  for (const FD& fd : tree.ToFdSet()) uccs.push_back(fd.lhs);
  std::sort(uccs.begin(), uccs.end(), SmallerThenLess);

  metrics.Set("hyucc.phase_switches", static_cast<uint64_t>(phase_switches));
  metrics.Set("hyucc.comparisons", sampler.total_comparisons());
  metrics.Set("hyucc.validations", validations);
  FinishHybridReport("hyucc", "uccs", uccs.size(), data,
                     total_timer.ElapsedSeconds(), metrics, &report_);
  return uccs;
}

}  // namespace hyfd
