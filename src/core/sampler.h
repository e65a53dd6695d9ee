#ifndef HYFD_CORE_SAMPLER_H_
#define HYFD_CORE_SAMPLER_H_

#include <cstdint>
#include <random>
#include <utility>
#include <vector>

#include "core/preprocessor.h"
#include "util/attribute_set.h"
#include "util/flat_word_set.h"
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

/// A freshly discovered non-FD agree set together with the record pair that
/// witnessed it. The incremental session keys its witnessed negative cover on
/// these: when a witness row dies (DeleteRows/UpdateRows) the agree set can
/// no longer be trusted and is dropped from the cover. The witness is the
/// first pair in serial traversal order that produced the agree set, so
/// witnesses are bit-identical for any thread count, like the batch itself.
struct SampledNonFd {
  AttributeSet agree;
  RecordId a = 0;
  RecordId b = 0;
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
/// Every pair — window runs, replayed suggestions, random pairs — goes
/// through one pair loop: the agree set is computed as raw words
/// (CompressedRecords::AgreeWords) and probed in the negative cover, a flat
/// table keyed by those words (FlatWordSet). Only a pair whose agree set the
/// cover lacks builds an AttributeSet.
///
/// With a ThreadPool attached, Phase 1 runs parallel end-to-end (paper
/// §10.4): cluster sortings are built concurrently per attribute, each
/// window run partitions its pair space across workers. During a window run
/// the negative cover is read-only, so workers probe it without locks and
/// collect unknown agree sets in their own fresh maps; the calling thread
/// merges those into the cover once the run returns. The result is
/// deterministic: the returned non-FD batch (canonically sorted) and its
/// witnesses, total_comparisons(), num_non_fds(), NegativeCoverBytes() and
/// every per-window efficiency value are bit-identical for any thread
/// count, including none.
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

  /// Same phase as Run(), but keeps the witnessing record pair of every
  /// newly discovered agree set (IncrementalHyFd's witnessed negative
  /// cover). The agree-set batch and all counters are identical to Run()'s.
  std::vector<SampledNonFd> RunWithWitnesses(
      const std::vector<std::pair<RecordId, RecordId>>& suggestions);

  size_t total_comparisons() const { return total_comparisons_; }
  size_t num_non_fds() const { return non_fds_.size(); }
  double current_threshold() const { return threshold_; }

  /// Bytes allocated by the negative cover (Table 3 accounting): its slots'
  /// key words and occupancy bytes. Constant time; moves only when the
  /// table rehashes.
  size_t NegativeCoverBytes() const { return non_fds_.MemoryBytes(); }

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

  /// The pair loop: matches the `count` pairs `pair_at(k)`, k < count,
  /// against the negative cover with `kWords`-word agree sets (0: the
  /// record width's word count, read at run time) and calls
  /// `on_miss(words, k, a, b)` for each pair whose agree set the cover lacks.
  template <size_t kWords, typename PairAt, typename OnMiss>
  void MatchPairs(size_t count, PairAt&& pair_at, OnMiss&& on_miss) const;

  /// The serial form of the pair loop: each new agree set goes into the
  /// cover at once and into `new_non_fds` with its pair.
  template <typename PairAt>
  void MatchSerial(size_t count, PairAt&& pair_at,
                   std::vector<SampledNonFd>* new_non_fds);

  /// The agree set whose raw words are `words`.
  AttributeSet ToAgreeSet(const uint64_t* words) const;

  /// Slides the current window of `eff` over its attribute's sorted clusters
  /// (Algorithm 2, runWindow), across the pool when one is attached.
  void RunWindow(Efficiency* eff, std::vector<SampledNonFd>* new_non_fds);

  void InitializeClusterSortings();
  void SortClustersOfAttribute(int attr);
  void RunProgressive(std::vector<SampledNonFd>* new_non_fds);
  void RunRandom(std::vector<SampledNonFd>* new_non_fds);

  const PreprocessedData* data_;
  SamplingStrategy strategy_;
  double threshold_;
  ThreadPool* pool_;
  MetricsRegistry* metrics_;
  bool initialized_ = false;

  /// The negative cover, keyed by agree-set words. Written only by the
  /// calling thread, never during a parallel window run.
  FlatWordSet non_fds_;
  /// Per attribute: that PLI's clusters with records sorted by the
  /// neighbor-attribute keys (paper Figure 3.1).
  std::vector<std::vector<std::vector<RecordId>>> sorted_clusters_;
  std::vector<Efficiency> efficiencies_;
  size_t total_comparisons_ = 0;
  std::mt19937_64 rng_{0x5eed5eedULL};
};

}  // namespace hyfd

#endif  // HYFD_CORE_SAMPLER_H_
