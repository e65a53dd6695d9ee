#include "core/validator.h"

#include <algorithm>
#include <limits>
#include <memory>
#include <numeric>
#include <tuple>

#include "pli/pli_cache.h"
#include "util/check.h"

namespace hyfd {
namespace {

/// Below this many record-rounds a job is never split: the merge overhead
/// would exceed the scan itself.
constexpr size_t kMinSplitCost = 4096;
/// Target tasks per worker; >1 so dynamic chunking can rebalance when one
/// range turns out heavier than its cost estimate.
constexpr size_t kTasksPerWorker = 4;

/// One candidate check: a (node, restriction-mode) pair of a level. Empty-LHS
/// candidates never become units — the IsConstant check resolves them during
/// planning.
struct Unit {
  size_t entry = 0;  ///< index into the level
  std::vector<int> rhs_attrs;
  /// Non-pivot LHS attributes, ascending; empty for a single-attribute LHS
  /// and a cache hit.
  std::vector<int> others;
  int pivot = -1;
  bool restricted = false;
  /// Keep-alive for a cache hit; its job then scans this Pli's clusters.
  std::shared_ptr<const Pli> cached;
};

/// One refinement job: the units that share a pivot, a visit list and their
/// first non-pivot attribute, as one trie (or a single compare-to-first
/// unit). Sibling tries share nothing below the pivot, so this split loses
/// no grouping work and keeps parallel work fine-grained.
struct Trie {
  std::vector<size_t> units;  ///< unit indexes, in leaf order
  std::vector<RefineLeaf> leaves;
  RefineJob job;
  /// Records the job scans (Σ visited cluster sizes).
  size_t mass = 0;
  /// Trie nodes below the pivot: the grouping rounds each scanned record
  /// takes (1 for compare-to-first). A job costs mass × rounds.
  size_t rounds = 1;
  size_t first_task = 0;
  size_t num_tasks = 0;
};

/// One schedulable slice of a trie (whole job, a cluster range, or a record
/// range of one oversized compare-to-first cluster).
struct Task {
  uint32_t trie;
  uint32_t cluster_begin;
  uint32_t cluster_end;
  uint32_t rec_begin;
  uint32_t rec_end;  ///< 0 = whole clusters
};

size_t NumVisit(const RefineJob& job) {
  return job.visit != nullptr ? job.visit->size() : job.clusters->size();
}

const std::vector<RecordId>& ClusterAt(const RefineJob& job, size_t ci) {
  return (*job.clusters)[job.visit != nullptr ? (*job.visit)[ci] : ci];
}

}  // namespace

Validator::Validator(const PreprocessedData* data, FDTree* tree,
                     double efficiency_threshold, ThreadPool* pool,
                     PliCache* cache, MetricsRegistry* metrics)
    : data_(data),
      tree_(tree),
      threshold_(efficiency_threshold),
      pool_(pool),
      cache_(cache),
      metrics_(metrics) {
  HYFD_CHECK(data != nullptr && tree != nullptr,
             "Validator: preprocessed data and FD tree are required");
  HYFD_CHECK(tree->num_attributes() == data->num_attributes,
             "Validator: FD tree and data disagree on the attribute count");
}

void Validator::set_delta(const ClusterDelta* delta) {
  if (delta != nullptr) {
    // A touched-only scan yields partial partitions, and cached partitions
    // describe the whole relation: delta mode and a cache never mix.
    HYFD_CHECK(cache_ == nullptr,
               "Validator: delta mode takes no PLI cache");
    HYFD_CHECK(delta->touched.size() ==
                   static_cast<size_t>(data_->num_attributes),
               "Validator: delta touched-cluster lists do not cover every "
               "attribute");
    for (size_t attr = 0; attr < delta->touched.size(); ++attr) {
      for (uint32_t ci : delta->touched[attr]) {
        HYFD_CHECK(ci < data_->plis[attr].clusters().size(),
                   "Validator: delta references a nonexistent cluster");
      }
    }
  }
  delta_ = delta;
}

void Validator::EnsureArenas() {
  const size_t slots = (pool_ != nullptr ? pool_->num_threads() : 0) + 1;
  if (arenas_.size() < slots) arenas_.resize(slots);
}

RefineArena& Validator::LocalArena() {
  const int w = ThreadPool::CurrentWorkerIndex();
  // Non-workers (the thread driving Run()) take the extra last slot; a
  // worker index from a *foreign* pool larger than ours clamps there too.
  const size_t slot = w == ThreadPool::kNotAWorker
                          ? arenas_.size() - 1
                          : std::min(static_cast<size_t>(w), arenas_.size() - 1);
  return arenas_[slot];
}

void Validator::ValidateLevel(const std::vector<FDTree::LevelEntry>& level,
                              std::vector<RefineOutcome>* outcomes) {
  // --- Plan: one unit per (node, restriction mode). -----------------------
  std::vector<Unit> units;
  units.reserve(level.size());

  auto plan_unit = [&](size_t i, const AttributeSet& rhss, bool restricted) {
    HYFD_DCHECK(!restricted || delta_ != nullptr,
                "Validator: restricted refinement without a cluster delta");
    if (rhss.Empty()) return;
    const auto& entry = level[i];
    if (entry.lhs.Empty()) {
      // ∅ → A holds iff column A is constant (O(1) either way, so the
      // restricted mode just rechecks in full).
      ForEachBit(rhss, [&](int rhs) {
        if (data_->plis[static_cast<size_t>(rhs)].IsConstant()) {
          (*outcomes)[i].valid_rhss.Set(rhs);
        }
      });
      return;
    }

    Unit u;
    u.entry = i;
    u.rhs_attrs = rhss.ToIndexes();
    u.restricted = restricted;

    const bool multi_lhs = entry.lhs.Count() >= 2;
    // A cached LHS partition (from an earlier discovery pass) replaces the
    // grouping pass entirely.
    if (cache_ != nullptr && multi_lhs) {
      if (auto cached = cache_->Probe(entry.lhs)) {
        u.cached = std::move(cached);
        units.push_back(std::move(u));
        return;
      }
    }

    // Pivot: the LHS attribute whose PLI has the most (smallest) clusters —
    // minimizes the records we group (the paper's "first" attribute after
    // the Preprocessor's sort).
    for (int attr = entry.lhs.First(); attr != AttributeSet::kNpos;
         attr = entry.lhs.NextAfter(attr)) {
      if (u.pivot == -1 || data_->rank[static_cast<size_t>(attr)] <
                               data_->rank[static_cast<size_t>(u.pivot)]) {
        u.pivot = attr;
      }
    }
    for (int attr = entry.lhs.First(); attr != AttributeSet::kNpos;
         attr = entry.lhs.NextAfter(attr)) {
      if (attr != u.pivot) u.others.push_back(attr);
    }
    units.push_back(std::move(u));
  };

  for (size_t i = 0; i < level.size(); ++i) {
    const auto& entry = level[i];
    if (entry.node->fds.Empty()) continue;
    if (delta_ == nullptr) {
      plan_unit(i, entry.node->fds, /*restricted=*/false);
      continue;
    }
    // Incremental mode: candidates proven on the pre-batch data only need
    // the restricted touched-clusters scan; candidates the Inductor added
    // this batch get the full check. confirmed ⊆ fds, so the two RHS sets
    // partition the node's candidates.
    const AttributeSet& inherited = entry.node->confirmed;
    AttributeSet fresh = entry.node->fds;
    fresh.AndNot(inherited);
    plan_unit(i, inherited, /*restricted=*/true);
    plan_unit(i, fresh, /*restricted=*/false);
  }

  // --- Tries: sort the grouping units by (pivot, visit list, others). -----
  // Each run of equal (pivot, visit list, first other) becomes one trie
  // whose leaves are in lexicographic order of `others`, so every shared
  // prefix is contiguous; compare-to-first units stay single-leaf jobs.
  std::vector<size_t> order(units.size());
  std::iota(order.begin(), order.end(), size_t{0});
  const auto key = [&](size_t ui) {
    const Unit& u = units[ui];
    return std::tie(u.pivot, u.restricted, u.others);
  };
  std::stable_sort(order.begin(), order.end(),
                   [&](size_t a, size_t b) { return key(a) < key(b); });
  std::vector<Trie> tries;
  for (size_t ui : order) {
    const Unit& u = units[ui];
    bool joins = false;
    if (!tries.empty() && !u.others.empty()) {
      const Unit& prev = units[tries.back().units.back()];
      joins = !prev.others.empty() && prev.pivot == u.pivot &&
              prev.restricted == u.restricted &&
              prev.others[0] == u.others[0];
    }
    if (!joins) tries.emplace_back();
    tries.back().units.push_back(ui);
  }

  // Bind each trie's job. The unit and trie vectors are final, so pointers
  // into their storage stay valid through execution.
  size_t restricted_rows = 0;
  for (Trie& trie : tries) {
    RefineJob& job = trie.job;
    job.records = &data_->records;
    size_t code_bound = 1;
    const std::vector<int>* prev = nullptr;
    trie.rounds = 0;
    for (size_t ui : trie.units) {
      const Unit& u = units[ui];
      RefineLeaf& leaf = trie.leaves.emplace_back();
      leaf.others = u.others.data();
      leaf.num_others = u.others.size();
      leaf.rhs_attrs = u.rhs_attrs.data();
      leaf.num_rhs = u.rhs_attrs.size();
      // With a cache attached, the grouping doubles as a builder for π_lhs:
      // every group that gains a second record becomes one of its stripped
      // clusters. Abandoned on early exit (partial partitions are never
      // cached).
      leaf.collect = cache_ != nullptr && !u.others.empty();
      for (int attr : u.others) {
        code_bound = std::max(
            code_bound,
            data_->plis[static_cast<size_t>(attr)].NumStrippedClusters());
      }
      // New trie nodes: the leaf's attributes past its common prefix with
      // the previous leaf.
      const size_t shared =
          prev == nullptr ? 0
                          : static_cast<size_t>(
                                std::mismatch(prev->begin(), prev->end(),
                                              u.others.begin(), u.others.end())
                                    .first -
                                prev->begin());
      trie.rounds += u.others.size() - shared;
      prev = &u.others;
    }
    trie.rounds = std::max<size_t>(trie.rounds, 1);
    job.leaves = trie.leaves.data();
    job.num_leaves = trie.leaves.size();
    job.other_code_bound = code_bound;
    const Unit& head = units[trie.units.front()];
    if (head.cached != nullptr) {
      job.clusters = &head.cached->clusters();
      trie.mass = head.cached->NumNonUniqueRecords();
      continue;
    }
    const Pli& pivot_pli = data_->plis[static_cast<size_t>(head.pivot)];
    job.clusters = &pivot_pli.clusters();
    if (head.restricted) {
      // Restricted mode scans only the pivot clusters the batch touched; any
      // newly-violating pair shares its pivot cluster with a new row, so no
      // violation hides in an untouched cluster, and inside one it walks
      // only groups holding a new row (see ClusterDelta).
      job.visit = &delta_->touched[static_cast<size_t>(head.pivot)];
      job.first_new_record = delta_->first_new_record;
      for (uint32_t ci : *job.visit) {
        trie.mass += pivot_pli.clusters()[ci].size();
      }
      restricted_rows += trie.mass;
    } else {
      trie.mass = pivot_pli.NumNonUniqueRecords();
    }
  }

  // --- Split: two-level parallelism. --------------------------------------
  // Level 1 is the task list itself (dynamic chunking across tries); level 2
  // splits costly tries into pivot-cluster ranges — and, for the
  // compare-to-first shape whose records are independent, record ranges of a
  // single giant cluster — so one skewed pivot can no longer serialize the
  // level. A cluster costs its size times the trie's rounds. Grouping shapes
  // never split below cluster granularity: an LHS group never spans pivot
  // clusters, so cluster ranges are the finest sound partition for them.
  std::vector<Task> tasks;
  size_t grain = std::numeric_limits<size_t>::max();
  if (pool_ != nullptr && pool_->num_threads() > 1) {
    size_t total_cost = 0;
    for (const Trie& trie : tries) total_cost += trie.mass * trie.rounds;
    grain = std::max(kMinSplitCost,
                     total_cost / (pool_->num_threads() * kTasksPerWorker) + 1);
  }
  for (size_t ti = 0; ti < tries.size(); ++ti) {
    Trie& trie = tries[ti];
    trie.first_task = tasks.size();
    const size_t num_visit = NumVisit(trie.job);
    if (num_visit == 0) continue;
    const auto trie_id = static_cast<uint32_t>(ti);
    if (trie.mass * trie.rounds <= grain) {
      tasks.push_back({trie_id, 0, static_cast<uint32_t>(num_visit), 0, 0});
    } else {
      const bool record_splittable = trie.leaves[0].num_others == 0;
      size_t acc = 0;
      size_t begin = 0;
      for (size_t ci = 0; ci < num_visit; ++ci) {
        const size_t cluster_size = ClusterAt(trie.job, ci).size();
        if (record_splittable && cluster_size > 2 * grain) {
          if (ci > begin) {
            tasks.push_back({trie_id, static_cast<uint32_t>(begin),
                             static_cast<uint32_t>(ci), 0, 0});
          }
          for (size_t r = 0; r < cluster_size; r += grain) {
            tasks.push_back({trie_id, static_cast<uint32_t>(ci),
                             static_cast<uint32_t>(ci + 1),
                             static_cast<uint32_t>(r),
                             static_cast<uint32_t>(
                                 std::min(cluster_size, r + grain))});
          }
          begin = ci + 1;
          acc = 0;
          continue;
        }
        acc += cluster_size * trie.rounds;
        if (acc >= grain) {
          tasks.push_back({trie_id, static_cast<uint32_t>(begin),
                           static_cast<uint32_t>(ci + 1), 0, 0});
          begin = ci + 1;
          acc = 0;
        }
      }
      if (begin < num_visit) {
        tasks.push_back({trie_id, static_cast<uint32_t>(begin),
                         static_cast<uint32_t>(num_visit), 0, 0});
      }
    }
    trie.num_tasks = tasks.size() - trie.first_task;
  }

  // --- Execute. -----------------------------------------------------------
  std::vector<RefineTaskOut> outs(tasks.size());
  auto run_task = [&](size_t t) {
    const Task& task = tasks[t];
    RunRefineTask(tries[task.trie].job, task.cluster_begin, task.cluster_end,
                  task.rec_begin, task.rec_end, &LocalArena(), &outs[t]);
  };
  if (pool_ != nullptr && tasks.size() > 1) {
    // Dynamic chunking: tasks still vary in cost (cost is an estimate, early
    // exits truncate scans), so workers claim them one at a time.
    pool_->ParallelForDynamic(tasks.size(), 1, run_task);
  } else {
    for (size_t t = 0; t < tasks.size(); ++t) run_task(t);
  }

  // --- Merge (deterministic for any thread count and split). --------------
  // Per RHS the minimum witness position survives, which is exactly the
  // record where the sequential interleaved scan would have killed it — so
  // valid_rhss AND the suggestion pairs are bit-identical no matter how the
  // trie was split.
  std::vector<RefineLeafOut> results(units.size());
  size_t restricted_rows_kept = 0;
  for (const Trie& trie : tries) {
    RefineTaskOut merged;
    if (trie.num_tasks == 0) {
      merged.leaves.resize(trie.leaves.size());
      for (size_t k = 0; k < trie.leaves.size(); ++k) {
        merged.leaves[k].witnesses.assign(trie.leaves[k].num_rhs,
                                          RefineWitness{});
      }
    } else {
      merged = std::move(outs[trie.first_task]);
      for (size_t t = 1; t < trie.num_tasks; ++t) {
        MergeTaskOut(&merged, std::move(outs[trie.first_task + t]));
      }
    }
    if (trie.job.visit != nullptr) {  // a restricted trie
      restricted_rows_kept += merged.root_rows;
    }
    for (size_t k = 0; k < trie.units.size(); ++k) {
      results[trie.units[k]] = std::move(merged.leaves[k]);
    }
  }
  if (delta_ != nullptr && metrics_ != nullptr) {
    metrics_->GetCounter("validator.restricted_rows")->Add(restricted_rows);
    metrics_->GetCounter("validator.restricted_rows_kept")
        ->Add(restricted_rows_kept);
  }
  // Outcomes and cache warm-up Puts in level order, serially.
  for (size_t ui = 0; ui < units.size(); ++ui) {
    const Unit& u = units[ui];
    RefineLeafOut& result = results[ui];
    RefineOutcome& outcome = (*outcomes)[u.entry];
    bool any_alive = false;
    for (size_t j = 0; j < result.witnesses.size(); ++j) {
      const RefineWitness& w = result.witnesses[j];
      if (w.pos == kNoWitnessPos) {
        outcome.valid_rhss.Set(u.rhs_attrs[j]);
        any_alive = true;
      } else {
        outcome.suggestions.emplace_back(w.a, w.b);
      }
    }
    // A leaf stops early only when every RHS is dead within its range, which
    // implies every RHS is dead globally — so `any_alive` already implies
    // all tasks completed and the collected partition is whole. The explicit
    // `complete` check keeps the invariant load-bearing rather than implied.
    if (cache_ != nullptr && !u.others.empty() && any_alive &&
        result.complete) {
      cache_->Put(level[u.entry].lhs,
                  Pli(std::move(result.collected), data_->num_records));
    }
  }
}

ValidatorResult Validator::Run() {
  ValidatorResult result;
  const int m = data_->num_attributes;
  EnsureArenas();

  // Raw (pre-dedup) suggestion emissions this Run, for the dedup counters:
  // the buffer itself is deduplicated every level, so its final size no
  // longer reflects how much was emitted.
  size_t raw_emitted = 0;

  // One record pair often violates several candidates of one level (several
  // RHSs of a node, several nodes sharing the violating pair). Replaying a
  // pair twice in the Sampler can never discover a new agree set, but it
  // does bump total_comparisons() — which drifted the comparison statistics
  // (and sampling efficiency) upward on every phase switch. Canonical
  // sort + unique keeps the suggestion list deterministic for any thread
  // count and replay-minimal.
  auto finalize_suggestions = [this, &result, &raw_emitted] {
    auto& suggestions = result.comparison_suggestions;
    std::sort(suggestions.begin(), suggestions.end());
    suggestions.erase(std::unique(suggestions.begin(), suggestions.end()),
                      suggestions.end());
    if (metrics_ != nullptr) {
      metrics_->GetCounter("validator.suggestions")->Add(suggestions.size());
      metrics_->GetCounter("validator.suggestions_deduped")
          ->Add(raw_emitted - suggestions.size());
      size_t arena_bytes = 0;
      for (const RefineArena& arena : arenas_) {
        arena_bytes += arena.MemoryBytes();
      }
      metrics_->GetGauge("validator.arena_bytes")->SetMax(arena_bytes);
    }
  };

  while (true) {
    std::vector<FDTree::LevelEntry> level = tree_->GetLevel(levels_validated_);
    if (level.empty()) {
      result.done = true;
      finalize_suggestions();
      return result;
    }

    // --- Validate all candidates on this level (possibly in parallel). ----
    std::vector<RefineOutcome> outcomes(level.size());
    for (auto& outcome : outcomes) outcome.valid_rhss = AttributeSet(m);
    ValidateLevel(level, &outcomes);

    // --- Merge: update nodes, collect invalid FDs and suggestions. --------
    size_t num_valid = 0;
    std::vector<FD> invalid_fds;
    for (size_t i = 0; i < level.size(); ++i) {
      auto& entry = level[i];
      if (entry.node->fds.Empty()) continue;
      total_validations_ += static_cast<size_t>(entry.node->fds.Count());
      AttributeSet invalid_rhss = entry.node->fds;
      invalid_rhss.AndNot(outcomes[i].valid_rhss);
      num_valid += static_cast<size_t>(outcomes[i].valid_rhss.Count());
      if (delta_ != nullptr) {
        // Counters must read `confirmed` before the node is overwritten.
        restricted_validations_ +=
            static_cast<size_t>(entry.node->confirmed.Count());
        AttributeSet broken = entry.node->confirmed;
        broken.AndNot(outcomes[i].valid_rhss);
        delta_invalidated_ += static_cast<size_t>(broken.Count());
      }
      entry.node->fds = outcomes[i].valid_rhss;
      // Everything that survived this pass is now proven on the full current
      // data (restricted survivors by the ClusterDelta soundness argument),
      // so the node is fully confirmed either way.
      entry.node->confirmed = entry.node->fds;
      ForEachBit(invalid_rhss,
                 [&](int rhs) { invalid_fds.emplace_back(entry.lhs, rhs); });
      raw_emitted += outcomes[i].suggestions.size();
      for (auto& suggestion : outcomes[i].suggestions) {
        result.comparison_suggestions.push_back(suggestion);
      }
    }

    // Bound the suggestion buffer: dedup at every level merge instead of
    // once per phase, so the peak footprint is (deduped so far + one level's
    // emissions) rather than a whole phase's raw emissions. The peak gauge
    // samples the buffer at its per-level maximum, before the dedup.
    if (metrics_ != nullptr) {
      metrics_->GetGauge("validator.suggestions_peak")
          ->SetMax(result.comparison_suggestions.size());
    }
    {
      auto& suggestions = result.comparison_suggestions;
      std::sort(suggestions.begin(), suggestions.end());
      suggestions.erase(std::unique(suggestions.begin(), suggestions.end()),
                        suggestions.end());
    }

    // --- Specialize the invalid FDs (Algorithm 4, lines 21-33). -----------
    for (const FD& fd : invalid_fds) {
      for (int attr = 0; attr < m; ++attr) {
        if (fd.lhs.Test(attr) || attr == fd.rhs) continue;
        // Minimality 1: if lhs → attr is (already validated as) valid, the
        // closure of lhs ∪ {attr} equals the closure of lhs, so the
        // specialization would be invalid too.
        if (tree_->ContainsFdOrGeneralization(fd.lhs, attr)) continue;
        AttributeSet new_lhs = fd.lhs.With(attr);
        // Minimality 2: skip if a generalization (or the FD itself) exists.
        if (tree_->ContainsFdOrGeneralization(new_lhs, fd.rhs)) continue;
        tree_->AddFd(new_lhs, fd.rhs);
      }
    }

    ++levels_validated_;
    if (metrics_ != nullptr) {
      metrics_->GetCounter("validator.levels")->Add(1);
      metrics_->GetCounter("validator.candidates")->Add(level.size());
      metrics_->GetCounter("validator.invalid_fds")->Add(invalid_fds.size());
    }

    // --- Phase-switch test (Algorithm 4, line 36). -------------------------
    if (static_cast<double>(invalid_fds.size()) >
        threshold_ * static_cast<double>(num_valid)) {
      finalize_suggestions();
      return result;  // validation inefficient: back to sampling
    }
  }
}

}  // namespace hyfd
