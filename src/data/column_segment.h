#ifndef HYFD_DATA_COLUMN_SEGMENT_H_
#define HYFD_DATA_COLUMN_SEGMENT_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

namespace hyfd {

/// Inferred value type of a column. The lattice is
///
///     kInt ⊂ kDouble ⊂ kString      kDate ⊂ kString
///
/// and a column's type is the join of its non-NULL lexemes' narrowest types:
/// it only ever widens as values are appended, never narrows. Typed columns
/// compare by *value*, not lexeme — "07" and "7" share one dictionary code in
/// an int column — which is the identity FD discovery actually wants for
/// numeric data (and what type-aware error/ranking extensions assume).
enum class ColumnType : uint8_t {
  kString = 0,
  kInt = 1,     ///< int64 lexemes within ±2^53 (so widening to double is exact)
  kDouble = 2,  ///< finite doubles; canonical form is the shortest round-trip
  kDate = 3,    ///< strict ISO YYYY-MM-DD
};

const char* ColumnTypeName(ColumnType type);

/// Narrowest type of a single lexeme. Integers outside ±2^53 classify as
/// kString — whether they still fit int64 or overflow it — because their
/// exactness would not survive an int→double widening (and distinct >64-bit
/// ids must never share a lossy double rendering).
ColumnType LexemeType(const std::string& lexeme);

/// Join of two types in the widening lattice (kInt ∪ kDate = kString, ...).
ColumnType WidenType(ColumnType a, ColumnType b);

/// Canonical dictionary form of `lexeme` under `type`: "007" → "7" (int),
/// "2.50" → "2.5" and "-0.0" → "0" (double), identity for strings and dates.
/// `lexeme` must be of `type` or a narrowing of it.
std::string CanonicalForm(ColumnType type, const std::string& lexeme);

/// Dictionary order of canonical forms under `type`: numeric for kInt and
/// kDouble, lexicographic (= chronological for ISO dates) otherwise.
bool TypedLess(ColumnType type, const std::string& a, const std::string& b);

/// Code stored for a NULL cell. NULLs never enter the dictionary, so every
/// dictionary must stay smaller than this sentinel.
inline constexpr uint32_t kNullCode = 0xFFFFFFFFu;

/// One dictionary-encoded column: a dictionary of canonical lexemes plus one
/// dense u32 code per row (kNullCode for NULL cells), in the spirit of
/// hyrise's dictionary segments.
///
/// Codes are assigned in first-occurrence order while a column is being
/// built, which keeps Append() O(1) amortized; `Normalize()` (or the binary
/// table writer, which normalizes on the fly) re-sorts the dictionary into
/// typed order, drops unreferenced entries, and remaps the codes — the
/// canonical layout the on-disk format stores and `sorted()` advertises.
///
/// Within one segment, value identity and code identity coincide: two cells
/// are equal iff their codes are equal. Value identity is defined by the
/// column's *final* type and is independent of append order: while a column
/// is numeric, raw spellings that differ from the canonical rendering are
/// retained on the side ("07" for the int value 7), so a later widening to
/// kString can re-derive lexeme identity and split values that were merged
/// numerically. Numeric widenings (int → double) never merge or renumber
/// codes; a widening to kString may *split* codes of rows whose raw spelling
/// had been numerically merged — every such split bumps identity_epoch(), so
/// derived state keyed on codes (PLIs, incremental column indexes) can
/// detect the retroactive change and rebuild.
class ColumnSegment {
 public:
  ColumnSegment() = default;

  /// A (code → raw spelling) override retained while the column is numeric:
  /// the spelling that created `code` when it differs from the canonical
  /// rendering (e.g. {0, "07"} when dictionary[0] == "7").
  using RawSpelling = std::pair<uint32_t, std::string>;
  /// A (row → raw lexeme) record for a row whose spelling differs from its
  /// code's creating spelling — the rows a string widening splits off.
  using VariantRow = std::pair<uint64_t, std::string>;

  /// Rebuilds a segment from its serialized parts (the binary table loader).
  /// Validates everything the format promises — canonical forms, typed
  /// sorted-unique dictionary, codes in range, well-formed raw-spelling
  /// state — and throws ContractViolation on the first violation.
  static ColumnSegment FromParts(ColumnType type,
                                 std::vector<std::string> dictionary,
                                 std::vector<uint32_t> codes,
                                 std::vector<RawSpelling> raw_spellings = {},
                                 std::vector<VariantRow> variant_rows = {});

  size_t size() const { return codes_.size(); }
  bool IsNull(size_t row) const { return codes_[row] == kNullCode; }

  /// Canonical lexeme of row `row`; the empty string for NULL cells. The
  /// reference is invalidated by any mutation of the segment.
  const std::string& Value(size_t row) const {
    const uint32_t code = codes_[row];
    return code == kNullCode ? EmptyValue() : dictionary_[code];
  }

  uint32_t code(size_t row) const { return codes_[row]; }
  const std::vector<uint32_t>& codes() const { return codes_; }
  const std::vector<std::string>& dictionary() const { return dictionary_; }
  ColumnType type() const { return type_; }
  /// True when the dictionary is in canonical layout: typed sorted order
  /// with every entry referenced by at least one code (the on-disk layout).
  bool sorted() const { return sorted_; }

  /// Bumped every time a widening to kString rewrites codes of existing rows
  /// (raw spellings that had been numerically merged split apart). Derived
  /// state keyed on codes must treat an epoch change as a full invalidation.
  uint64_t identity_epoch() const { return identity_epoch_; }

  /// Raw-spelling state in deterministic (sorted-by-key) order, for the
  /// binary table writer and the fingerprint. Empty unless the column is
  /// currently numeric and a non-canonical spelling was appended.
  std::vector<RawSpelling> SortedRawSpellings() const;
  std::vector<VariantRow> SortedVariantRows() const;

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

  /// Re-sorts the dictionary into typed order, drops unreferenced entries,
  /// and remaps every code to the canonical layout (`sorted()` afterwards).
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

  /// Folds the segment's logical content — type, dictionary, codes — into a
  /// running FNV-1a hash (Relation::ContentFingerprint).
  uint64_t FoldFingerprint(uint64_t h) const;

  /// Copy of the rows with `live[row] != 0`, in row order, that keeps this
  /// segment's type: Append() of each live row's Value() (AppendNull() for
  /// NULLs) into a segment already of type(). Codes are numbered in
  /// first-appearance order and no raw spellings are kept. Retyping from the
  /// live values alone could merge values this column keeps apart ("07" and
  /// "7" in a string column whose widening row is gone).
  ColumnSegment LiveRows(const std::vector<uint8_t>& live) const;

  /// Folds, in place, what FoldFingerprint() of LiveRows(live) would fold.
  uint64_t FoldLiveFingerprint(uint64_t h,
                               const std::vector<uint8_t>& live) const;

  size_t MemoryBytes() const;

  /// Deep structural audit: every code in range or kNullCode, dictionary
  /// entries unique and canonical under the column type, the encode index
  /// (when built — it is lazy after FromParts) a bijection onto the
  /// dictionary, and — when sorted() — typed sorted order with no
  /// unreferenced entries. Throws ContractViolation on the first violation.
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

  /// Encodes the lexeme destined for `row`, widening the column type first
  /// if needed; returns the (possibly fresh) dictionary code. `row` lets the
  /// segment remember raw spellings that a later string widening must split.
  uint32_t Encode(const std::string& lexeme, size_t row);
  /// Rebuilds the canonical → code index from the dictionary. The index is
  /// built lazily: FromParts() leaves it empty (read-only loads never pay for
  /// it) and the first Encode() afterwards restores it.
  void RebuildEncodeIndex();
  /// Re-renders every dictionary entry under a widened numeric type (codes
  /// untouched: exact ints map to distinct doubles), or — when `wider` is
  /// kString and the column was numeric — restores each code's creating raw
  /// spelling and splits variant rows onto their own codes (lexeme identity).
  void Widen(ColumnType wider);
  /// The kString arm of Widen() for a previously numeric column.
  void WidenNumericToString();
  /// The raw spelling that created `code` (the dictionary entry itself when
  /// no override is recorded).
  const std::string& CreatingSpelling(uint32_t code) const;
  /// Shared FromParts/CheckInvariants validation of the raw-spelling state.
  void CheckRawSpellingInvariants() const;

  ColumnType type_ = ColumnType::kString;
  bool has_values_ = false;  ///< type_ is meaningless until the first non-NULL
  bool sorted_ = true;       ///< vacuously canonical while empty
  std::vector<std::string> dictionary_;
  std::vector<uint32_t> codes_;
  std::unordered_map<std::string, uint32_t> encode_;  ///< canonical → code
                                                      ///< (lazy; may be empty)
  /// Raw spellings retained while the column is numeric (empty otherwise):
  /// the spelling that created a code when it differs from the canonical
  /// rendering, and the rows whose spelling differs from their code's
  /// creating spelling. Together they let WidenNumericToString() recover
  /// order-independent lexeme identity.
  std::unordered_map<uint32_t, std::string> raw_spelling_;
  std::unordered_map<uint64_t, std::string> variant_rows_;
  uint64_t identity_epoch_ = 0;
};

}  // namespace hyfd

#endif  // HYFD_DATA_COLUMN_SEGMENT_H_
