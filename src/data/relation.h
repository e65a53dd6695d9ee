#ifndef HYFD_DATA_RELATION_H_
#define HYFD_DATA_RELATION_H_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "data/column_segment.h"
#include "data/schema.h"

namespace hyfd {

/// A relational instance: a column-major table of dictionary-encoded string
/// column segments with NULLs.
///
/// The Relation is the sole input to every discovery algorithm in this
/// library. FD discovery only needs value *identity* per column (paper §4:
/// "The values itself, however, must not be known"), and the segments make
/// that identity explicit: each column stores a dictionary of lexemes plus
/// one dense u32 code per row, so PLI construction is a counting pass over
/// codes and two cells are equal iff their codes are. A value is its lexeme:
/// "07" and "7" are two values, and `Value()` returns the bytes appended.
class Relation {
 public:
  Relation() = default;
  explicit Relation(Schema schema)
      : schema_(std::move(schema)),
        segments_(static_cast<size_t>(schema_.num_columns())) {}

  /// Builds a relation row-wise; `std::nullopt` cells become NULL.
  static Relation FromRows(
      Schema schema,
      const std::vector<std::vector<std::optional<std::string>>>& rows);

  /// Convenience builder for tests: all cells non-NULL.
  static Relation FromStringRows(Schema schema,
                                 const std::vector<std::vector<std::string>>& rows);

  /// Reassembles a relation from loaded segments (the binary table reader).
  /// Throws ContractViolation on schema/segment arity or length mismatch.
  static Relation FromSegments(Schema schema,
                               std::vector<ColumnSegment> segments);

  const Schema& schema() const { return schema_; }
  int num_columns() const { return schema_.num_columns(); }
  size_t num_rows() const { return segments_.empty() ? 0 : segments_[0].size(); }

  const std::string& Value(size_t row, int col) const {
    return segments_[static_cast<size_t>(col)].Value(row);
  }
  bool IsNull(size_t row, int col) const {
    return segments_[static_cast<size_t>(col)].IsNull(row);
  }

  /// The dictionary-encoded segment backing column `col` — codes and
  /// dictionary. PLI builders and the incremental session
  /// work on codes directly instead of re-hashing strings.
  const ColumnSegment& segment(int col) const {
    return segments_[static_cast<size_t>(col)];
  }

  /// Appends one row; the row size must match the schema.
  void AppendRow(const std::vector<std::optional<std::string>>& row);

  /// Mutation counter: bumped by every AppendRow/SetValue/SetNull/Resize/
  /// Normalize. Derived state (PLIs, compressed records) records the version
  /// it was built from, so using it against a since-mutated relation throws
  /// instead of silently reading stale partitions (see
  /// PreprocessedData::CheckSyncedWith).
  uint64_t version() const { return version_; }

  /// Direct cell write used by the generators (rows must exist already).
  void SetValue(size_t row, int col, const std::string& value);
  void SetNull(size_t row, int col);

  /// Appends `n` empty (all-NULL) rows.
  void Resize(size_t n);

  /// Returns a copy restricted to the first `n` rows.
  Relation HeadRows(size_t n) const;
  /// Returns a copy restricted to the first `k` columns.
  Relation HeadColumns(int k) const;

  /// Number of distinct non-NULL values in column `col` (for stats/tests).
  size_t DistinctCount(int col) const;

  /// Re-sorts every column dictionary into its canonical sorted layout (the
  /// on-disk binary layout) and remaps the codes. Logical content is
  /// unchanged, but the physical encoding mutates, so the version is bumped
  /// like any other mutation.
  void Normalize();

  /// FNV-1a fingerprint over the relation's logical content *and* physical
  /// encoding contract: binary storage format version, schema names,
  /// dictionaries, and code vectors. Two relations share a
  /// fingerprint only if they are byte-identical at the storage layer, so a
  /// binary-cache reload of a changed CSV can never alias the old data even
  /// when the cluster structure happens to match (see DataFingerprint, which
  /// keys HyFd's owned PLI cache).
  uint64_t ContentFingerprint() const;

  /// Copy of the rows with `live[row] != 0`, in row order
  /// (ColumnSegment::LiveRows). `live` has one entry per row.
  Relation LiveRows(const std::vector<uint8_t>& live) const;

  /// LiveRows(live).ContentFingerprint(), computed without building it: each
  /// column is folded in place (ColumnSegment::FoldLiveFingerprint).
  uint64_t LiveContentFingerprint(const std::vector<uint8_t>& live) const;

  /// Deep structural audit: schema/segment arity agreement, rectangular
  /// columns, and every segment's own invariants (codes in dictionary range
  /// or the NULL sentinel, unique dictionaries, sorted layout
  /// where claimed). Throws ContractViolation on the first violation.
  /// Invoked automatically at the discovery seams in audit builds
  /// (-DHYFD_AUDIT=ON); callable from any build.
  void CheckInvariants() const;

 private:
  /// The fingerprint's prefix: format version, shape and column names.
  uint64_t FingerprintHeader(size_t num_rows) const;

  Schema schema_;
  std::vector<ColumnSegment> segments_;
  uint64_t version_ = 0;
};

}  // namespace hyfd

#endif  // HYFD_DATA_RELATION_H_
