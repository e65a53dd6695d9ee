#include "core/sampler.h"

#include <algorithm>
#include <unordered_map>

#include "util/check.h"

namespace hyfd {
namespace {

/// Window runs with fewer pairs than this stay serial: below it the pool's
/// submit/latch round-trip costs more than the comparisons themselves.
constexpr size_t kMinParallelPairs = 2048;

/// Pairs claimed per atomic fetch in a parallel window run.
constexpr size_t kPairGrain = 512;

}  // namespace

Sampler::Sampler(const PreprocessedData* data, double efficiency_threshold,
                 SamplingStrategy strategy, ThreadPool* pool,
                 MetricsRegistry* metrics)
    : data_(data),
      strategy_(strategy),
      threshold_(efficiency_threshold),
      pool_(pool),
      metrics_(metrics) {}

void Sampler::MatchPair(RecordId a, RecordId b,
                        std::vector<SampledNonFd>* new_non_fds) {
  ++total_comparisons_;
  data_->records.MatchInto(a, b, &scratch_);
  if (non_fds_.insert(scratch_).second) {
    new_non_fds->push_back({scratch_, a, b});
  }
}

void Sampler::SortClustersOfAttribute(int attr) {
  const int m = static_cast<int>(data_->by_rank.size());
  // Sort each cluster of π_attr by the cluster ids of the neighbors in the
  // cluster-count ranking: the left neighbor has more (smaller) clusters —
  // a promising key — the right one breaks ties (paper Figure 3.1). Using
  // different neighbors per attribute gives each record a different
  // neighborhood in every sorting. Ties fall back to the record id, so the
  // sorting (and everything downstream) is deterministic.
  int p = data_->rank[static_cast<size_t>(attr)];
  int left = data_->by_rank[static_cast<size_t>((p + m - 1) % m)];
  int right = data_->by_rank[static_cast<size_t>((p + 1) % m)];
  auto clusters = data_->plis[static_cast<size_t>(attr)].clusters();
  for (auto& cluster : clusters) {
    std::sort(cluster.begin(), cluster.end(), [&](RecordId a, RecordId b) {
      ClusterId la = data_->records.Cluster(a, left);
      ClusterId lb = data_->records.Cluster(b, left);
      if (la != lb) return la < lb;
      ClusterId ra = data_->records.Cluster(a, right);
      ClusterId rb = data_->records.Cluster(b, right);
      if (ra != rb) return ra < rb;
      return a < b;
    });
  }
  sorted_clusters_[static_cast<size_t>(attr)] = std::move(clusters);
}

void Sampler::InitializeClusterSortings() {
  const int m = static_cast<int>(data_->by_rank.size());
  sorted_clusters_.resize(static_cast<size_t>(m));
  efficiencies_.clear();
  if (pool_ != nullptr && m > 1) {
    // Attributes sort independently; cluster-count skew between them is why
    // this claims attributes dynamically instead of pre-chunking.
    pool_->ParallelForDynamic(static_cast<size_t>(m), 1, [this](size_t attr) {
      SortClustersOfAttribute(static_cast<int>(attr));
    });
  } else {
    for (int attr = 0; attr < m; ++attr) SortClustersOfAttribute(attr);
  }
}

void Sampler::RunWindow(Efficiency* eff, std::vector<SampledNonFd>* new_non_fds) {
  const auto& clusters = sorted_clusters_[static_cast<size_t>(eff->attribute)];
  const size_t w = eff->window;
  if (metrics_ != nullptr) metrics_->GetCounter("sampler.windows")->Add(1);

  // Pair space of this window run: cluster c contributes size-w+1 sliding
  // pairs when it is large enough. first_pair[] is the prefix sum over the
  // eligible clusters (plus a total sentinel), so workers can map a global
  // pair index back to (cluster, offset) — this balances a single huge
  // cluster across all workers, where partitioning by cluster could not.
  std::vector<uint32_t> eligible;
  std::vector<size_t> first_pair;
  size_t total_pairs = 0;
  for (size_t c = 0; c < clusters.size(); ++c) {
    if (clusters[c].size() < w) continue;
    eligible.push_back(static_cast<uint32_t>(c));
    first_pair.push_back(total_pairs);
    total_pairs += clusters[c].size() - w + 1;
  }
  if (total_pairs == 0) {
    eff->exhausted = true;  // window outgrew all clusters
    return;
  }

  if (pool_ == nullptr || total_pairs < kMinParallelPairs) {
    const size_t new_before = new_non_fds->size();
    for (uint32_t c : eligible) {
      const auto& cluster = clusters[c];
      for (size_t i = 0; i + w - 1 < cluster.size(); ++i) {
        MatchPair(cluster[i], cluster[i + w - 1], new_non_fds);
      }
    }
    eff->comps += total_pairs;
    eff->results += new_non_fds->size() - new_before;
    return;
  }

  first_pair.push_back(total_pairs);

  // Parallel path: nothing writes the negative cover while the pool runs,
  // so workers probe it with a plain lock-free find. An agree set the cover
  // lacks goes into the worker's own fresh map, which keeps the smallest
  // global pair index per set — the pair the serial path matches first.
  struct Witness {
    size_t pair;
    RecordId a;
    RecordId b;
  };
  using FreshMap = std::unordered_map<AttributeSet, Witness>;
  auto keep_first = [](FreshMap* fresh, const AttributeSet& agree,
                       const Witness& found) {
    auto [it, inserted] = fresh->try_emplace(agree, found);
    if (!inserted && found.pair < it->second.pair) it->second = found;
  };
  struct WorkerState {
    FreshMap fresh;
    AttributeSet scratch;
  };
  std::vector<WorkerState> workers(pool_->num_threads());
  const std::unordered_set<AttributeSet>& cover = non_fds_;
  pool_->ParallelForRanges(
      total_pairs, kPairGrain, [&](size_t begin, size_t end) {
        const int wid = ThreadPool::CurrentWorkerIndex();
        HYFD_DCHECK(wid >= 0, "Sampler window task off the pool");
        WorkerState& state = workers[static_cast<size_t>(wid)];
        size_t k = static_cast<size_t>(
                       std::upper_bound(first_pair.begin(), first_pair.end(),
                                        begin) -
                       first_pair.begin()) -
                   1;
        size_t p = begin;
        while (p < end) {
          const auto& cluster = clusters[eligible[k]];
          const size_t stop = std::min(end, first_pair[k + 1]);
          size_t i = p - first_pair[k];
          for (; p < stop; ++p, ++i) {
            data_->records.MatchInto(cluster[i], cluster[i + w - 1],
                                     &state.scratch);
            if (cover.find(state.scratch) != cover.end()) continue;
            keep_first(&state.fresh, state.scratch,
                       {p, cluster[i], cluster[i + w - 1]});
          }
          ++k;
        }
      });

  // Merge on the calling thread: union the fresh maps (smallest pair index
  // wins), then publish the union into the cover. Comparison and result
  // counts equal the serial path's; the batch is canonically re-sorted in
  // Run().
  FreshMap& merged = workers[0].fresh;
  for (size_t t = 1; t < workers.size(); ++t) {
    for (const auto& [agree, found] : workers[t].fresh) {
      keep_first(&merged, agree, found);
    }
  }
  for (const auto& [agree, found] : merged) {
    non_fds_.insert(agree);
    new_non_fds->push_back({agree, found.a, found.b});
  }
  total_comparisons_ += total_pairs;
  eff->comps += total_pairs;
  eff->results += merged.size();
}

void Sampler::RunProgressive(std::vector<SampledNonFd>* new_non_fds) {
  while (true) {
    Efficiency* best = nullptr;
    for (auto& eff : efficiencies_) {
      if (eff.exhausted) continue;
      if (best == nullptr || eff.Eval() > best->Eval()) best = &eff;
    }
    if (best == nullptr || best->Eval() < threshold_) break;
    ++best->window;
    RunWindow(best, new_non_fds);
  }
}

void Sampler::RunRandom(std::vector<SampledNonFd>* new_non_fds) {
  const size_t n = data_->num_records;
  if (n < 2) return;
  constexpr size_t kBatch = 1000;
  std::uniform_int_distribution<RecordId> pick(0, static_cast<RecordId>(n - 1));
  while (true) {
    size_t new_before = new_non_fds->size();
    size_t comps_before = total_comparisons_;
    for (size_t i = 0; i < kBatch; ++i) {
      RecordId a = pick(rng_);
      RecordId b = pick(rng_);
      if (a == b) continue;
      MatchPair(a, b, new_non_fds);
    }
    // Efficiency over the comparisons actually performed: a == b draws are
    // skipped above, and on small relations they are a sizable share of the
    // batch — dividing by kBatch would deflate the ratio and terminate
    // sampling early exactly where samples are cheapest.
    size_t performed = total_comparisons_ - comps_before;
    if (performed == 0) break;
    double efficiency =
        static_cast<double>(new_non_fds->size() - new_before) /
        static_cast<double>(performed);
    if (efficiency < threshold_) break;
  }
}

std::vector<AttributeSet> Sampler::Run(
    const std::vector<std::pair<RecordId, RecordId>>& suggestions) {
  std::vector<SampledNonFd> found = RunWithWitnesses(suggestions);
  std::vector<AttributeSet> new_non_fds;
  new_non_fds.reserve(found.size());
  for (SampledNonFd& f : found) new_non_fds.push_back(std::move(f.agree));
  return new_non_fds;
}

std::vector<SampledNonFd> Sampler::RunWithWitnesses(
    const std::vector<std::pair<RecordId, RecordId>>& suggestions) {
  std::vector<SampledNonFd> new_non_fds;
  const size_t comparisons_before = total_comparisons_;
  if (!initialized_) {
    initialized_ = true;
    if (strategy_ == SamplingStrategy::kClusterWindowing) {
      InitializeClusterSortings();
      // Initial efficiency measurement: window 2 over every ranked attribute.
      const int m = static_cast<int>(data_->by_rank.size());
      efficiencies_.resize(static_cast<size_t>(m));
      for (int attr = 0; attr < m; ++attr) {
        auto& eff = efficiencies_[static_cast<size_t>(attr)];
        eff.attribute = attr;
        eff.window = 2;
        RunWindow(&eff, &new_non_fds);
      }
    }
  } else {
    // Re-entry from the validation phase: relax the efficiency bar
    // (Algorithm 2 line 17) and replay the suggested violating pairs.
    threshold_ /= 2.0;
  }
  if (metrics_ != nullptr) {
    metrics_->GetCounter("sampler.phases")->Add(1);
    metrics_->GetCounter("sampler.suggestions_replayed")->Add(suggestions.size());
  }
  for (const auto& [a, b] : suggestions) MatchPair(a, b, &new_non_fds);

  if (strategy_ == SamplingStrategy::kClusterWindowing) {
    RunProgressive(&new_non_fds);
  } else {
    RunRandom(&new_non_fds);
  }
  if (metrics_ != nullptr) {
    metrics_->GetCounter("sampler.comparisons")
        ->Add(total_comparisons_ - comparisons_before);
  }
  // Canonical batch order: descending bit count (the Inductor specializes
  // longest-first anyway), ties lexicographic. Parallel window runs append
  // in hash-map order, so this sort is what makes the returned agree-set batch
  // — and hence the induced FDTree — bit-identical for any thread count.
  std::sort(new_non_fds.begin(), new_non_fds.end(),
            [](const SampledNonFd& a, const SampledNonFd& b) {
              const int ca = a.agree.Count();
              const int cb = b.agree.Count();
              if (ca != cb) return ca > cb;
              return a.agree < b.agree;
            });
  return new_non_fds;
}

size_t Sampler::NegativeCoverBytes() const {
  const size_t per_set =
      sizeof(AttributeSet) + AttributeSet(data_->num_attributes).MemoryBytes();
  // Rough accounting of the hash-set buckets.
  return non_fds_.size() * per_set + non_fds_.bucket_count() * sizeof(void*);
}

}  // namespace hyfd
