#include "data/relation.h"

#include <algorithm>

#include "util/check.h"

namespace hyfd {
namespace {

/// Storage format version folded into ContentFingerprint(): a format bump
/// must invalidate every fingerprint-keyed consumer (HyFd's owned PLI cache,
/// via DataFingerprint) even if the logical data is unchanged. Kept in lockstep with
/// table_io.h's kTableFormatVersion by a static_assert there.
constexpr uint64_t kStorageFingerprintVersion = 3;

}  // namespace

Relation Relation::FromRows(
    Schema schema,
    const std::vector<std::vector<std::optional<std::string>>>& rows) {
  Relation r(std::move(schema));
  for (const auto& row : rows) r.AppendRow(row);
  return r;
}

Relation Relation::FromStringRows(
    Schema schema, const std::vector<std::vector<std::string>>& rows) {
  Relation r(std::move(schema));
  std::vector<std::optional<std::string>> tmp;
  for (const auto& row : rows) {
    tmp.assign(row.begin(), row.end());
    r.AppendRow(tmp);
  }
  return r;
}

Relation Relation::FromSegments(Schema schema,
                                std::vector<ColumnSegment> segments) {
  HYFD_CHECK(segments.size() == static_cast<size_t>(schema.num_columns()),
             "Relation::FromSegments: segment count disagrees with the schema");
  for (const ColumnSegment& segment : segments) {
    HYFD_CHECK(segment.size() == segments[0].size(),
               "Relation::FromSegments: ragged segments");
  }
  Relation r;
  r.schema_ = std::move(schema);
  r.segments_ = std::move(segments);
  return r;
}

void Relation::AppendRow(const std::vector<std::optional<std::string>>& row) {
  HYFD_CHECK(row.size() == static_cast<size_t>(num_columns()),
             "Relation::AppendRow: row width does not match the schema");
  for (size_t c = 0; c < row.size(); ++c) {
    if (row[c].has_value()) {
      segments_[c].Append(*row[c]);
    } else {
      segments_[c].AppendNull();
    }
  }
  ++version_;
}

void Relation::SetValue(size_t row, int col, const std::string& value) {
  HYFD_DCHECK(col >= 0 && col < num_columns() && row < num_rows(),
              "Relation::SetValue: cell out of range");
  segments_[static_cast<size_t>(col)].Set(row, value);
  ++version_;
}

void Relation::SetNull(size_t row, int col) {
  HYFD_DCHECK(col >= 0 && col < num_columns() && row < num_rows(),
              "Relation::SetNull: cell out of range");
  segments_[static_cast<size_t>(col)].SetNull(row);
  ++version_;
}

void Relation::Resize(size_t n) {
  for (ColumnSegment& segment : segments_) segment.Resize(n);
  ++version_;
}

Relation Relation::HeadRows(size_t n) const {
  Relation r(schema_);
  for (size_t c = 0; c < segments_.size(); ++c) {
    r.segments_[c] = segments_[c].Head(n);
  }
  return r;
}

Relation Relation::HeadColumns(int k) const {
  k = std::min(k, num_columns());
  std::vector<std::string> names(schema_.names().begin(),
                                 schema_.names().begin() + k);
  Relation r{Schema(std::move(names))};
  for (int c = 0; c < k; ++c) {
    r.segments_[static_cast<size_t>(c)] = segments_[static_cast<size_t>(c)];
  }
  return r;
}

size_t Relation::DistinctCount(int col) const {
  return segments_[static_cast<size_t>(col)].DistinctCount();
}

void Relation::Normalize() {
  for (ColumnSegment& segment : segments_) segment.Normalize();
  ++version_;
}

uint64_t Relation::FingerprintHeader(size_t num_rows) const {
  uint64_t h = 1469598103934665603ull;  // FNV-1a offset basis
  auto fold = [&h](uint64_t v) {
    for (size_t i = 0; i < sizeof(v); ++i) {
      h ^= (v >> (8 * i)) & 0xFF;
      h *= 1099511628211ull;
    }
  };
  auto fold_string = [&](const std::string& s) {
    fold(s.size());
    for (unsigned char ch : s) {
      h ^= ch;
      h *= 1099511628211ull;
    }
  };
  fold(kStorageFingerprintVersion);
  fold(static_cast<uint64_t>(num_columns()));
  fold(num_rows);
  for (const std::string& name : schema_.names()) fold_string(name);
  return h;
}

uint64_t Relation::ContentFingerprint() const {
  uint64_t h = FingerprintHeader(num_rows());
  for (const ColumnSegment& segment : segments_) {
    h = segment.FoldFingerprint(h);
  }
  return h;
}

Relation Relation::LiveRows(const std::vector<uint8_t>& live) const {
  HYFD_CHECK(live.size() == num_rows(),
             "Relation::LiveRows: live mask size mismatch");
  Relation out(schema_);
  for (size_t c = 0; c < segments_.size(); ++c) {
    out.segments_[c] = segments_[c].LiveRows(live);
  }
  return out;
}

uint64_t Relation::LiveContentFingerprint(
    const std::vector<uint8_t>& live) const {
  HYFD_CHECK(live.size() == num_rows(),
             "Relation::LiveContentFingerprint: live mask size mismatch");
  const size_t num_live = static_cast<size_t>(
      std::count_if(live.begin(), live.end(), [](uint8_t l) { return l != 0; }));
  uint64_t h = FingerprintHeader(num_live);
  for (const ColumnSegment& segment : segments_) {
    h = segment.FoldLiveFingerprint(h, live);
  }
  return h;
}

void Relation::CheckInvariants() const {
  HYFD_CHECK(segments_.size() == static_cast<size_t>(schema_.num_columns()),
             "Relation: column count disagrees with the schema");
  const size_t rows = num_rows();
  for (const ColumnSegment& segment : segments_) {
    HYFD_CHECK(segment.size() == rows, "Relation: ragged value column");
    segment.CheckInvariants();
  }
}

}  // namespace hyfd
