#ifndef HYFD_PLI_COMPRESSED_RECORDS_H_
#define HYFD_PLI_COMPRESSED_RECORDS_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

#include "pli/pli.h"
#include "util/attribute_set.h"

namespace hyfd {

/// The agree-word kernel, the paper's match() on at most 64 attributes: bit
/// k of the result is set iff `pa[k] == pb[k]` and the id is not
/// kUniqueCluster (two unique cells are distinct values by definition). On
/// x86-64 SSE2 compares four cluster ids per step and packs the lane masks
/// with movemask; the scalar loop finishes the tail and is the whole kernel
/// on other targets. Bits at positions >= n stay zero.
inline uint64_t AgreeWord(const ClusterId* pa, const ClusterId* pb, int n) {
  uint64_t word = 0;
  int k = 0;
#if defined(__SSE2__)
  const __m128i unique = _mm_set1_epi32(kUniqueCluster);
  for (; k + 4 <= n; k += 4) {
    const __m128i a = _mm_loadu_si128(reinterpret_cast<const __m128i*>(pa + k));
    const __m128i b = _mm_loadu_si128(reinterpret_cast<const __m128i*>(pb + k));
    const __m128i agree =
        _mm_andnot_si128(_mm_cmpeq_epi32(a, unique), _mm_cmpeq_epi32(a, b));
    word |= static_cast<uint64_t>(_mm_movemask_ps(_mm_castsi128_ps(agree)))
            << k;
  }
#endif
  for (; k < n; ++k) {
    word |= static_cast<uint64_t>((pa[k] == pb[k]) & (pa[k] != kUniqueCluster))
            << k;
  }
  return word;
}

/// The paper's `pliRecords`: every record dictionary-compressed to the array
/// of its cluster ids, one per attribute (paper §5). Records that are unique
/// in an attribute carry kUniqueCluster there; two kUniqueCluster entries
/// never match (they are distinct values by definition).
///
/// Rows are stored contiguously (row-major) so the Sampler's match() touches
/// one cache line per record for narrow schemas.
class CompressedRecords {
 public:
  CompressedRecords() = default;

  /// Builds from per-attribute PLIs (in *schema* order).
  CompressedRecords(const std::vector<Pli>& plis, size_t num_records);

  size_t num_records() const { return num_records_; }
  int num_attributes() const { return num_attributes_; }

  /// Pointer to the `num_attributes()` cluster ids of record `r`.
  const ClusterId* Record(RecordId r) const {
    return &values_[static_cast<size_t>(r) * num_attributes_];
  }

  ClusterId Cluster(RecordId r, int attr) const {
    return values_[static_cast<size_t>(r) * num_attributes_ + attr];
  }

  /// The paper's match(): the agree set of two records — a bitset with a 1
  /// for every attribute where both records carry the same non-unique
  /// cluster id.
  AttributeSet Match(RecordId a, RecordId b) const;

  /// The agree set of records `a`, `b` as raw AttributeSet words: writes
  /// ceil(num_attributes() / 64) words to `out`, one AgreeWord() per word,
  /// with the bits past num_attributes() zero. Every word is overwritten.
  /// The negative cover's pair loop keys on these words directly.
  void AgreeWords(RecordId a, RecordId b, uint64_t* out) const {
    const ClusterId* ra = Record(a);
    const ClusterId* rb = Record(b);
    for (int base = 0; base < num_attributes_; base += 64) {
      *out++ = AgreeWord(ra + base, rb + base,
                         std::min(64, num_attributes_ - base));
    }
  }

  /// Grows the matrix to `new_num_records` rows, every new cell initialised
  /// to kUniqueCluster (IncrementalHyFd::ApplyBatch then stamps cluster ids
  /// via SetCluster as the per-column PLIs grow). Shrinking throws.
  void Append(size_t new_num_records);

  /// Tombstones deleted rows: every cell of each listed record is reset to
  /// kUniqueCluster (a dead row agrees with nothing — two kUniqueCluster
  /// entries never match) and the tombstone epoch is bumped so the
  /// fingerprint moves even when the dead rows were all-unique already.
  /// The matrix keeps its physical row count; row ids are never reused.
  void RemoveRows(const std::vector<RecordId>& rows);

  /// Overwrites one cell; used only while replaying a batch append so the
  /// matrix tracks the grown PLIs (new rows joining clusters, old singletons
  /// promoted into fresh clusters).
  void SetCluster(RecordId r, int attr, ClusterId c) {
    values_[static_cast<size_t>(r) * num_attributes_ + attr] = c;
  }

  /// FNV-1a fingerprint over the matrix shape, the tombstone epoch, and
  /// every cluster id. Half of DataFingerprint, which keys HyFd's owned
  /// cross-run PLI cache: equal fingerprints ⇒ identical compressed
  /// input, so cached partitions remain valid; any append, edit, or delete
  /// changes the fingerprint (deletes through the epoch — wiping an
  /// all-unique row leaves the cells untouched).
  uint64_t Fingerprint() const;

  /// Deep audit for the grown state: rebuilds the matrix from `plis` (which
  /// must be the per-attribute PLIs in schema order, already grown to the
  /// same record count) and checks cell-for-cell agreement. Throws
  /// ContractViolation on the first mismatch. O(num_records × attributes);
  /// intended for audit builds and tests, not the hot path.
  void CheckInvariants(const std::vector<Pli>& plis) const;

  size_t MemoryBytes() const { return values_.capacity() * sizeof(ClusterId); }

 private:
  std::vector<ClusterId> values_;
  size_t num_records_ = 0;
  int num_attributes_ = 0;
  uint64_t tombstone_epoch_ = 0;  ///< bumped once per RemoveRows() call
};

}  // namespace hyfd

#endif  // HYFD_PLI_COMPRESSED_RECORDS_H_
