#ifndef HYFD_CORE_SAMPLER_H_
#define HYFD_CORE_SAMPLER_H_

#include <cstdint>
#include <random>
#include <utility>
#include <vector>

#include "core/negative_cover.h"
#include "core/preprocessor.h"
#include "util/attribute_set.h"
#include "util/metrics.h"
#include "util/thread_pool.h"

namespace hyfd {

/// Pair-selection strategy of the Sampler. The paper's technique is cluster
/// windowing; random pair sampling is kept as an ablation baseline
/// (bench_ablation compares the two).
enum class SamplingStrategy {
  kClusterWindowing,
  kRandomPairs,
};

/// HyFD's Sampler component (paper §6, Algorithm 2).
///
/// Compares carefully chosen record pairs on the compressed records and
/// collects their agree sets as non-FDs. Pairs are drawn per attribute by
/// sliding ever larger windows over that attribute's PLI clusters (sorted by
/// neighboring attributes' cluster ids), governed by a progressive
/// efficiency ranking. Each call to Run() is one sampling phase; the
/// efficiency threshold halves on every re-entry. Only the ranked attributes
/// (PreprocessedData::by_rank) are windowed; agree sets span every column.
///
/// The Sampler owns the negative cover (NegativeCover) and only chooses
/// pairs: every pair — window runs, replayed suggestions, random pairs —
/// goes through the cover's one pair loop, which computes the agree set as
/// raw words, probes the cover, and builds an AttributeSet only on a miss.
/// The cover keeps each agree set's witness, the first pair in serial match
/// order that produced it.
///
/// With a ThreadPool attached, Phase 1 runs parallel end-to-end (paper
/// §10.4): cluster sortings are built concurrently per attribute, each
/// window run partitions its pair space across workers. During a window run
/// the cover is read-only, so workers probe it without locks; each keeps
/// the pair index of its first miss on each agree set. The calling thread
/// then replays the sorted union of those indices through the serial loop,
/// so the globally first pair of each set wins. The result is
/// deterministic: the returned non-FD batch (canonically sorted), the
/// cover's entries and witnesses, total_comparisons(), num_non_fds(),
/// NegativeCoverBytes() and every per-window efficiency value are
/// bit-identical for any thread count, including none.
class Sampler {
 public:
  /// A non-null `metrics` registry receives window/phase counters — updated
  /// per window run, never per pair, so the hot loop stays metric-free.
  Sampler(const PreprocessedData* data, double efficiency_threshold,
          SamplingStrategy strategy = SamplingStrategy::kClusterWindowing,
          ThreadPool* pool = nullptr, MetricsRegistry* metrics = nullptr);

  /// Runs one sampling phase. `suggestions` are record pairs the Validator
  /// saw violating a candidate (paper: comparisonSuggestions); they are
  /// matched first. Returns the non-FD agree sets newly discovered in this
  /// phase, sorted by descending bit count then lexicographically (the order
  /// the Inductor wants, and a canonical order independent of the thread
  /// count).
  std::vector<AttributeSet> Run(
      const std::vector<std::pair<RecordId, RecordId>>& suggestions);

  size_t total_comparisons() const { return total_comparisons_; }
  size_t num_non_fds() const { return cover_.size(); }
  double current_threshold() const { return threshold_; }

  /// Bytes allocated by the negative cover (Table 3 accounting): its slots'
  /// key words and witness pairs. Constant time; moves only when the table
  /// rehashes.
  size_t NegativeCoverBytes() const { return cover_.MemoryBytes(); }

  /// Every agree set sampled so far, with its witness.
  const NegativeCover& negative_cover() const { return cover_; }
  /// Hands the cover to its next owner (the incremental session keeps its
  /// seeding Sampler's cover); the Sampler is spent.
  NegativeCover TakeNegativeCover() && { return std::move(cover_); }

 private:
  struct Efficiency {
    int attribute = 0;
    size_t window = 2;
    size_t comps = 0;
    size_t results = 0;
    bool exhausted = false;  ///< window outgrew every cluster

    double Eval() const {
      if (exhausted) return 0.0;
      if (comps == 0) return 0.0;
      return static_cast<double>(results) / static_cast<double>(comps);
    }
  };

  /// Slides the current window of `eff` over its attribute's sorted clusters
  /// (Algorithm 2, runWindow), across the pool when one is attached.
  void RunWindow(Efficiency* eff, std::vector<AttributeSet>* new_non_fds);

  void InitializeClusterSortings();
  void SortClustersOfAttribute(int attr);
  void RunProgressive(std::vector<AttributeSet>* new_non_fds);
  void RunRandom(std::vector<AttributeSet>* new_non_fds);

  const PreprocessedData* data_;
  SamplingStrategy strategy_;
  double threshold_;
  ThreadPool* pool_;
  MetricsRegistry* metrics_;
  bool initialized_ = false;

  /// Written only by the calling thread, never during a parallel window
  /// run.
  NegativeCover cover_;
  /// Per attribute: that PLI's clusters with records sorted by the
  /// neighbor-attribute keys (paper Figure 3.1).
  std::vector<std::vector<std::vector<RecordId>>> sorted_clusters_;
  std::vector<Efficiency> efficiencies_;
  size_t total_comparisons_ = 0;
  std::mt19937_64 rng_{0x5eed5eedULL};
};

}  // namespace hyfd

#endif  // HYFD_CORE_SAMPLER_H_
