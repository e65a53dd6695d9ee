#ifndef HYFD_DATA_COLUMN_SEGMENT_H_
#define HYFD_DATA_COLUMN_SEGMENT_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

namespace hyfd {

/// Code stored for a NULL cell. NULLs never enter the dictionary, so every
/// dictionary must stay smaller than this sentinel.
inline constexpr uint32_t kNullCode = 0xFFFFFFFFu;

/// One dictionary-encoded column: a dictionary of lexemes plus one dense u32
/// code per row (kNullCode for NULL cells), in the spirit of hyrise's
/// dictionary segments.
///
/// A cell's identity is its lexeme, the exact bytes appended: "07" and "7"
/// are two values, as are "2.50" and "2.5". Within one segment two cells are
/// equal iff their codes are equal, and an append or overwrite never changes
/// the code of any other row — derived state keyed on codes (PLIs, the
/// incremental session's value rows) can grow with the segment.
///
/// Codes are assigned in first-occurrence order while a column is being
/// built, which keeps Append() O(1) amortized; `Normalize()` (or the binary
/// table writer, which normalizes on the fly) re-sorts the dictionary into
/// byte order, drops unreferenced entries, and remaps the codes — the
/// canonical layout the on-disk format stores and `sorted()` advertises.
class ColumnSegment {
 public:
  ColumnSegment() = default;

  /// Rebuilds a segment from its serialized parts (the binary table loader).
  /// Validates everything the format promises — sorted-unique dictionary,
  /// codes in range, every entry referenced — and throws ContractViolation
  /// on the first violation.
  static ColumnSegment FromParts(std::vector<std::string> dictionary,
                                 std::vector<uint32_t> codes);

  size_t size() const { return codes_.size(); }
  bool IsNull(size_t row) const { return codes_[row] == kNullCode; }

  /// Lexeme of row `row`; the empty string for NULL cells. The reference is
  /// invalidated by any mutation of the segment.
  const std::string& Value(size_t row) const {
    const uint32_t code = codes_[row];
    return code == kNullCode ? EmptyValue() : dictionary_[code];
  }

  uint32_t code(size_t row) const { return codes_[row]; }
  const std::vector<uint32_t>& codes() const { return codes_; }
  const std::vector<std::string>& dictionary() const { return dictionary_; }
  /// True when the dictionary is in canonical layout: sorted order with
  /// every entry referenced by at least one code (the on-disk layout).
  bool sorted() const { return sorted_; }

  /// Appends one cell.
  void Append(const std::string& lexeme);
  void AppendNull();

  /// Overwrites one cell (the generators' build path). Overwrites can orphan
  /// the previous value's dictionary entry, so they drop the canonical-layout
  /// claim (`sorted()` becomes false) until the next Normalize().
  void Set(size_t row, const std::string& lexeme);
  void SetNull(size_t row);

  /// Grows (new cells NULL) or truncates to `n` rows.
  void Resize(size_t n);

  /// Copy of the first `n` rows (dictionary kept as-is, possibly with
  /// entries the retained codes no longer reference).
  ColumnSegment Head(size_t n) const;

  /// Number of distinct non-NULL values actually referenced by the codes.
  size_t DistinctCount() const;

  /// Re-sorts the dictionary, drops unreferenced entries, and remaps every
  /// code to the canonical layout (`sorted()` afterwards).
  void Normalize();

  /// The permutation Normalize() would apply: `slots[new_code]` is the old
  /// code, `old_to_new[old_code]` the new one (kNullCode for unreferenced
  /// entries). Lets the binary writer serialize a const segment in canonical
  /// layout without mutating it.
  struct NormalizationPlan {
    std::vector<uint32_t> slots;
    std::vector<uint32_t> old_to_new;
  };
  NormalizationPlan PlanNormalization() const;

  /// Folds the segment's logical content — dictionary, codes — into a
  /// running FNV-1a hash (Relation::ContentFingerprint).
  uint64_t FoldFingerprint(uint64_t h) const;

  /// Copy of the rows with `live[row] != 0`, in row order: what Append() of
  /// each live row's Value() (AppendNull() for NULLs) would build, with
  /// codes numbered in first-appearance order.
  ColumnSegment LiveRows(const std::vector<uint8_t>& live) const;

  /// Folds, in place, what FoldFingerprint() of LiveRows(live) would fold.
  uint64_t FoldLiveFingerprint(uint64_t h,
                               const std::vector<uint8_t>& live) const;

  size_t MemoryBytes() const;

  /// Deep structural audit: every code in range or kNullCode, dictionary
  /// entries unique, the encode index (when built — it is lazy after
  /// FromParts) a bijection onto the dictionary, and — when sorted() —
  /// sorted order with no unreferenced entries. Throws ContractViolation on
  /// the first violation.
  void CheckInvariants() const;

  /// Test-only corruption hooks proving the audit negatives actually fire.
  /// Never called by library code.
  void CorruptCodeForTest(size_t row, uint32_t code) { codes_[row] = code; }
  void CorruptDictionaryForTest(size_t slot, std::string lexeme) {
    dictionary_[slot] = std::move(lexeme);
  }
  void MarkSortedForTest() { sorted_ = true; }

 private:
  static const std::string& EmptyValue();

  /// The dictionary code of `lexeme`, added at the end when new.
  uint32_t Encode(const std::string& lexeme);
  /// Rebuilds the lexeme → code index from the dictionary. The index is
  /// built lazily: FromParts() leaves it empty (read-only loads never pay for
  /// it) and the first Encode() afterwards restores it.
  void RebuildEncodeIndex();
  /// The live rows' codes renumbered in first-appearance order (NULLs kept),
  /// and `order[new_code]` = old code: the codes and dictionary of
  /// LiveRows(live), shared with FoldLiveFingerprint().
  void RemapLive(const std::vector<uint8_t>& live, std::vector<uint32_t>* order,
                 std::vector<uint32_t>* codes) const;

  bool sorted_ = true;  ///< vacuously canonical while empty
  std::vector<std::string> dictionary_;
  std::vector<uint32_t> codes_;
  std::unordered_map<std::string, uint32_t> encode_;  ///< lexeme → code
                                                      ///< (lazy; may be empty)
};

}  // namespace hyfd

#endif  // HYFD_DATA_COLUMN_SEGMENT_H_
