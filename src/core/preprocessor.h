#ifndef HYFD_CORE_PREPROCESSOR_H_
#define HYFD_CORE_PREPROCESSOR_H_

#include <vector>

#include "data/relation.h"
#include "pli/compressed_records.h"
#include "pli/pli.h"
#include "pli/pli_builder.h"

namespace hyfd {

/// Output of HyFD's Preprocessor component (paper §5): single-column PLIs,
/// the PLI-compressed records, and the cluster-count ordering that drives
/// both the Sampler's sort keys and the Validator's pivot choice.
struct PreprocessedData {
  /// π_A per attribute, in *schema* order.
  std::vector<Pli> plis;
  /// Dictionary-compressed records (row-major cluster ids).
  CompressedRecords records;
  /// Attributes sorted by descending NumClusters() — by_rank[0] is the
  /// attribute whose PLI has the most (hence smallest) clusters. Covers the
  /// attributes 0 .. by_rank.size() - 1 only: HyUcc appends an unranked key
  /// column after them, which the Sampler never windows and no LHS holds.
  std::vector<int> by_rank;
  /// Inverse of by_rank: rank[attr] = position of attr in by_rank.
  std::vector<int> rank;

  size_t num_records = 0;
  int num_attributes = 0;

  /// Relation::version() at the time the PLIs/records were built (or last
  /// grown by IncrementalHyFd). Guards against silently consuming stale
  /// derived state after the relation mutated underneath it.
  uint64_t source_version = 0;

  /// Recomputes by_rank/rank from the current plis' cluster counts. Called
  /// by Preprocess() and again after IncrementalHyFd grows the PLIs in place
  /// (appends can reorder the cluster-count ranking).
  void RecomputeRanks();

  /// Throws ContractViolation unless `relation` still has the row count and
  /// mutation version this derived state was built from. Every
  /// IncrementalHyFd batch starts with this check, so appending to the
  /// relation behind the session's back throws instead of silently
  /// discovering FDs over stale partitions.
  void CheckSyncedWith(const Relation& relation) const;

  /// Bytes held by PLIs + compressed records (Table 3 accounting).
  size_t MemoryBytes() const;
};

/// Builds PLIs and compressed records for `relation`.
///
/// The paper sorts the PLI array itself; we keep PLIs in schema order and
/// expose the sorted view through `by_rank`/`rank`, which spares the final
/// result from attribute-index remapping.
PreprocessedData Preprocess(const Relation& relation,
                            NullSemantics nulls = NullSemantics::kNullEqualsNull);

/// Fingerprint that keys HyFd's owned PliCache to its source data, so
/// the cache survives a repeat Discover() on the same data only. Combines
/// the relation's storage-layer ContentFingerprint (format version, names,
/// dictionaries, codes) with the compressed records' cluster-structure
/// fingerprint: two datasets whose cluster structure coincides but whose
/// values differ (e.g. a CSV edited behind its binary cache) must not alias
/// each other's cached partitions.
uint64_t DataFingerprint(const Relation& relation,
                         const CompressedRecords& records);

}  // namespace hyfd

#endif  // HYFD_CORE_PREPROCESSOR_H_
