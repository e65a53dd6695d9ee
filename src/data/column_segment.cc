#include "data/column_segment.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <numeric>

#include "util/check.h"

namespace hyfd {
namespace {

/// Largest integer magnitude that survives an int → double widening exactly.
constexpr int64_t kMaxExactInt = int64_t{1} << 53;

enum class IntParse { kNo, kYes, kOverflow };

IntParse ParseIntStatus(const std::string& lexeme, int64_t* value) {
  if (lexeme.empty()) return IntParse::kNo;
  const char* first = lexeme.data();
  const char* last = first + lexeme.size();
  auto [ptr, ec] = std::from_chars(first, last, *value);
  if (ptr != last) return IntParse::kNo;
  if (ec == std::errc()) return IntParse::kYes;
  if (ec == std::errc::result_out_of_range) return IntParse::kOverflow;
  return IntParse::kNo;
}

bool ParseInt(const std::string& lexeme, int64_t* value) {
  return ParseIntStatus(lexeme, value) == IntParse::kYes;
}

bool ParseDouble(const std::string& lexeme, double* value) {
  if (lexeme.empty()) return false;
  const char* first = lexeme.data();
  const char* last = first + lexeme.size();
  auto [ptr, ec] = std::from_chars(first, last, *value);
  return ec == std::errc() && ptr == last && std::isfinite(*value);
}

bool IsDigits(const std::string& s, size_t begin, size_t end) {
  for (size_t i = begin; i < end; ++i) {
    if (s[i] < '0' || s[i] > '9') return false;
  }
  return true;
}

/// Strict ISO date: "YYYY-MM-DD" with month 01–12 and day 01–31. Strictness
/// keeps canonicalization the identity and chronological order lexicographic.
bool IsDate(const std::string& s) {
  if (s.size() != 10 || s[4] != '-' || s[7] != '-') return false;
  if (!IsDigits(s, 0, 4) || !IsDigits(s, 5, 7) || !IsDigits(s, 8, 10)) {
    return false;
  }
  const int month = (s[5] - '0') * 10 + (s[6] - '0');
  const int day = (s[8] - '0') * 10 + (s[9] - '0');
  return month >= 1 && month <= 12 && day >= 1 && day <= 31;
}

std::string RenderInt(int64_t value) { return std::to_string(value); }

std::string RenderDouble(double value) {
  if (value == 0.0) return "0";  // fold -0 into 0: they are value-equal
  char buf[32];
  auto [ptr, ec] = std::to_chars(buf, buf + sizeof(buf), value);
  HYFD_CHECK(ec == std::errc(), "ColumnSegment: double rendering overflow");
  return std::string(buf, ptr);
}

uint64_t FoldBytes(uint64_t h, const void* data, size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 1099511628211ull;
  }
  return h;
}

uint64_t FoldValue(uint64_t h, uint64_t v) { return FoldBytes(h, &v, sizeof(v)); }

}  // namespace

const char* ColumnTypeName(ColumnType type) {
  switch (type) {
    case ColumnType::kString:
      return "string";
    case ColumnType::kInt:
      return "int";
    case ColumnType::kDouble:
      return "double";
    case ColumnType::kDate:
      return "date";
  }
  return "?";
}

ColumnType LexemeType(const std::string& lexeme) {
  int64_t i;
  switch (ParseIntStatus(lexeme, &i)) {
    case IntParse::kYes:
      return (i >= -kMaxExactInt && i <= kMaxExactInt) ? ColumnType::kInt
                                                       : ColumnType::kString;
    case IntParse::kOverflow:
      // An integer lexeme too large for int64 must not fall through to the
      // double parse: distinct 20-digit ids would merge onto one inexact
      // double. Same exactness rule as the ±2^53 guard above.
      return ColumnType::kString;
    case IntParse::kNo:
      break;
  }
  if (IsDate(lexeme)) return ColumnType::kDate;
  double d;
  if (ParseDouble(lexeme, &d)) return ColumnType::kDouble;
  return ColumnType::kString;
}

ColumnType WidenType(ColumnType a, ColumnType b) {
  if (a == b) return a;
  if (a == ColumnType::kString || b == ColumnType::kString) {
    return ColumnType::kString;
  }
  const bool numeric_a = a == ColumnType::kInt || a == ColumnType::kDouble;
  const bool numeric_b = b == ColumnType::kInt || b == ColumnType::kDouble;
  if (numeric_a && numeric_b) return ColumnType::kDouble;
  return ColumnType::kString;  // numeric vs date: no common supertype but string
}

std::string CanonicalForm(ColumnType type, const std::string& lexeme) {
  switch (type) {
    case ColumnType::kInt: {
      int64_t v;
      HYFD_CHECK(ParseInt(lexeme, &v),
                 "CanonicalForm: lexeme is not an integer");
      return RenderInt(v);
    }
    case ColumnType::kDouble: {
      double v;
      HYFD_CHECK(ParseDouble(lexeme, &v),
                 "CanonicalForm: lexeme is not a finite double");
      return RenderDouble(v);
    }
    case ColumnType::kDate:
    case ColumnType::kString:
      return lexeme;
  }
  return lexeme;
}

bool TypedLess(ColumnType type, const std::string& a, const std::string& b) {
  switch (type) {
    case ColumnType::kInt: {
      int64_t va = 0;
      int64_t vb = 0;
      ParseInt(a, &va);
      ParseInt(b, &vb);
      return va < vb;
    }
    case ColumnType::kDouble: {
      double va = 0;
      double vb = 0;
      ParseDouble(a, &va);
      ParseDouble(b, &vb);
      if (va != vb) return va < vb;
      return a < b;  // canonical forms make ties impossible; keep total order
    }
    case ColumnType::kDate:
    case ColumnType::kString:
      return a < b;
  }
  return a < b;
}

const std::string& ColumnSegment::EmptyValue() {
  static const std::string* empty = new std::string();
  return *empty;
}

ColumnSegment ColumnSegment::FromParts(ColumnType type,
                                       std::vector<std::string> dictionary,
                                       std::vector<uint32_t> codes,
                                       std::vector<RawSpelling> raw_spellings,
                                       std::vector<VariantRow> variant_rows) {
  HYFD_CHECK(dictionary.size() < kNullCode,
             "ColumnSegment: dictionary too large (the NULL code is reserved)");
  ColumnSegment segment;
  segment.type_ = type;
  segment.has_values_ = !dictionary.empty();
  segment.sorted_ = true;
  segment.dictionary_ = std::move(dictionary);
  segment.codes_ = std::move(codes);
  for (RawSpelling& spelling : raw_spellings) {
    HYFD_CHECK(segment.raw_spelling_
                   .emplace(spelling.first, std::move(spelling.second))
                   .second,
               "ColumnSegment: duplicate raw-spelling code");
  }
  for (VariantRow& variant : variant_rows) {
    HYFD_CHECK(segment.variant_rows_
                   .emplace(variant.first, std::move(variant.second))
                   .second,
               "ColumnSegment: duplicate variant row");
  }
  segment.CheckRawSpellingInvariants();
  // The encode index is built lazily on the first Encode() — a loaded
  // segment that is only ever read never pays for it.
  for (uint32_t i = 0; i < segment.dictionary_.size(); ++i) {
    const std::string& entry = segment.dictionary_[i];
    // Canonical-form check, specialized by type: for strings the canonical
    // form is the identity (nothing to check), which keeps the hot loader
    // path free of per-entry allocations.
    switch (type) {
      case ColumnType::kString:
        break;
      case ColumnType::kDate:
        HYFD_CHECK(IsDate(entry),
                   "ColumnSegment: dictionary entry is not an ISO date");
        break;
      case ColumnType::kInt:
      case ColumnType::kDouble:
        HYFD_CHECK(CanonicalForm(type, entry) == entry,
                   "ColumnSegment: dictionary entry is not in canonical form");
        break;
    }
    if (i > 0) {
      HYFD_CHECK(TypedLess(type, segment.dictionary_[i - 1], entry),
                 "ColumnSegment: dictionary is not sorted-unique");
    }
  }
  std::vector<uint8_t> referenced(segment.dictionary_.size(), 0);
  for (uint32_t code : segment.codes_) {
    if (code == kNullCode) continue;
    HYFD_CHECK(code < segment.dictionary_.size(),
               "ColumnSegment: code out of dictionary range");
    referenced[code] = 1;
  }
  for (size_t i = 0; i < referenced.size(); ++i) {
    HYFD_CHECK(referenced[i] != 0,
               "ColumnSegment: dictionary entry referenced by no code");
  }
  return segment;
}

void ColumnSegment::RebuildEncodeIndex() {
  encode_.clear();
  encode_.reserve(dictionary_.size());
  for (uint32_t i = 0; i < dictionary_.size(); ++i) {
    encode_.emplace(dictionary_[i], i);
  }
}

const std::string& ColumnSegment::CreatingSpelling(uint32_t code) const {
  const auto it = raw_spelling_.find(code);
  return it != raw_spelling_.end() ? it->second : dictionary_[code];
}

uint32_t ColumnSegment::Encode(const std::string& lexeme, size_t row) {
  if (encode_.size() != dictionary_.size()) RebuildEncodeIndex();
  const ColumnType narrowest = LexemeType(lexeme);
  if (!has_values_) {
    has_values_ = true;
    type_ = narrowest;
  } else if (WidenType(type_, narrowest) != type_) {
    Widen(WidenType(type_, narrowest));
  }
  const bool numeric =
      type_ == ColumnType::kInt || type_ == ColumnType::kDouble;
  std::string canonical = CanonicalForm(type_, lexeme);
  if (auto it = encode_.find(canonical); it != encode_.end()) {
    // Numeric merging of a different spelling ("07" joining the value "7")
    // is provisional: remember the raw lexeme so a later widening to string
    // can split this row back out. Lexeme identity must not depend on the
    // order in which spellings arrived.
    if (numeric && lexeme != CreatingSpelling(it->second)) {
      variant_rows_[row] = lexeme;
    }
    return it->second;
  }
  HYFD_CHECK(dictionary_.size() + 1 < kNullCode,
             "ColumnSegment: dictionary overflow (the NULL code is reserved)");
  const auto code = static_cast<uint32_t>(dictionary_.size());
  // First-occurrence order: appending at the end breaks the canonical sorted
  // layout unless the new value happens to extend it.
  if (sorted_ && !dictionary_.empty() &&
      !TypedLess(type_, dictionary_.back(), canonical)) {
    sorted_ = false;
  }
  if (numeric && lexeme != canonical) raw_spelling_.emplace(code, lexeme);
  dictionary_.push_back(canonical);
  encode_.emplace(std::move(canonical), code);
  return code;
}

void ColumnSegment::Widen(ColumnType wider) {
  const ColumnType narrow = type_;
  if (wider == ColumnType::kString &&
      (narrow == ColumnType::kInt || narrow == ColumnType::kDouble)) {
    WidenNumericToString();
    return;
  }
  type_ = wider;
  encode_.clear();
  encode_.reserve(dictionary_.size());
  for (uint32_t i = 0; i < dictionary_.size(); ++i) {
    // Injective re-render: exact ints map to distinct doubles, and a date
    // column falls back to string verbatim (dates are their own canonical
    // form) — so codes never merge and stay valid identity.
    std::string rendered = CanonicalForm(wider, dictionary_[i]);
    // An int whose rendering changes under double ("1000000000000000" →
    // "1e+15") was itself a raw spelling of the double value; keep it so a
    // later widening to string restores it.
    if (wider == ColumnType::kDouble && rendered != dictionary_[i] &&
        raw_spelling_.find(i) == raw_spelling_.end()) {
      raw_spelling_.emplace(i, std::move(dictionary_[i]));
    }
    dictionary_[i] = std::move(rendered);
    const bool inserted = encode_.emplace(dictionary_[i], i).second;
    HYFD_CHECK(inserted, "ColumnSegment: type widening merged two values");
  }
  sorted_ = false;
}

void ColumnSegment::WidenNumericToString() {
  type_ = ColumnType::kString;
  // String identity is lexeme identity: each code's dictionary entry becomes
  // the raw spelling that created it, and every row whose spelling had been
  // numerically merged onto another spelling's code splits onto its own.
  for (auto& [code, spelling] : raw_spelling_) {
    dictionary_[code] = std::move(spelling);
  }
  raw_spelling_.clear();
  // The index keyed the old numeric canonical forms; re-key it on the
  // restored lexemes before the caller's lookup (and the splits below).
  RebuildEncodeIndex();
  if (!variant_rows_.empty()) {
    // Split in ascending row order so code numbering is deterministic.
    std::vector<uint64_t> rows;
    rows.reserve(variant_rows_.size());
    for (const auto& [row, raw] : variant_rows_) rows.push_back(row);
    std::sort(rows.begin(), rows.end());
    for (uint64_t row : rows) {
      std::string& raw = variant_rows_[row];
      uint32_t code;
      if (auto it = encode_.find(raw); it != encode_.end()) {
        code = it->second;  // an earlier variant row already split this lexeme
      } else {
        HYFD_CHECK(dictionary_.size() + 1 < kNullCode,
                   "ColumnSegment: dictionary overflow (the NULL code is "
                   "reserved)");
        code = static_cast<uint32_t>(dictionary_.size());
        dictionary_.push_back(raw);
        encode_.emplace(std::move(raw), code);
      }
      codes_[row] = code;
    }
    variant_rows_.clear();
    // Codes of existing rows changed: anything keyed on them is invalid.
    ++identity_epoch_;
  }
  sorted_ = false;
}

void ColumnSegment::Append(const std::string& lexeme) {
  const size_t row = codes_.size();
  codes_.push_back(Encode(lexeme, row));
}

void ColumnSegment::AppendNull() { codes_.push_back(kNullCode); }

void ColumnSegment::Set(size_t row, const std::string& lexeme) {
  variant_rows_.erase(row);  // the overwritten cell's spelling is gone
  codes_[row] = Encode(lexeme, row);
  sorted_ = false;
}

void ColumnSegment::SetNull(size_t row) {
  variant_rows_.erase(row);
  codes_[row] = kNullCode;
  sorted_ = false;
}

void ColumnSegment::Resize(size_t n) {
  if (n < codes_.size()) {
    sorted_ = false;  // truncation can orphan entries
    for (auto it = variant_rows_.begin(); it != variant_rows_.end();) {
      it = it->first >= n ? variant_rows_.erase(it) : std::next(it);
    }
  }
  codes_.resize(n, kNullCode);
}

ColumnSegment ColumnSegment::Head(size_t n) const {
  ColumnSegment head = *this;
  head.Resize(std::min(n, codes_.size()));
  head.sorted_ = false;  // truncation may orphan dictionary entries
  return head;
}

size_t ColumnSegment::DistinctCount() const {
  std::vector<uint8_t> seen(dictionary_.size(), 0);
  size_t distinct = 0;
  for (uint32_t code : codes_) {
    if (code == kNullCode || seen[code] != 0) continue;
    seen[code] = 1;
    ++distinct;
  }
  return distinct;
}

ColumnSegment::NormalizationPlan ColumnSegment::PlanNormalization() const {
  NormalizationPlan plan;
  std::vector<uint8_t> referenced(dictionary_.size(), 0);
  for (uint32_t code : codes_) {
    if (code != kNullCode) referenced[code] = 1;
  }
  plan.slots.reserve(dictionary_.size());
  for (uint32_t i = 0; i < dictionary_.size(); ++i) {
    if (referenced[i] != 0) plan.slots.push_back(i);
  }
  std::sort(plan.slots.begin(), plan.slots.end(), [&](uint32_t a, uint32_t b) {
    return TypedLess(type_, dictionary_[a], dictionary_[b]);
  });
  plan.old_to_new.assign(dictionary_.size(), kNullCode);
  for (uint32_t new_code = 0; new_code < plan.slots.size(); ++new_code) {
    plan.old_to_new[plan.slots[new_code]] = new_code;
  }
  return plan;
}

void ColumnSegment::Normalize() {
  const NormalizationPlan plan = PlanNormalization();
  std::vector<std::string> sorted_dictionary;
  sorted_dictionary.reserve(plan.slots.size());
  for (uint32_t old_code : plan.slots) {
    sorted_dictionary.push_back(std::move(dictionary_[old_code]));
  }
  dictionary_ = std::move(sorted_dictionary);
  for (uint32_t& code : codes_) {
    if (code != kNullCode) code = plan.old_to_new[code];
  }
  // Re-key the raw spellings; overrides of dropped (unreferenced) codes go
  // with their entries.
  std::unordered_map<uint32_t, std::string> remapped;
  remapped.reserve(raw_spelling_.size());
  for (auto& [old_code, spelling] : raw_spelling_) {
    const uint32_t new_code = plan.old_to_new[old_code];
    if (new_code != kNullCode) remapped.emplace(new_code, std::move(spelling));
  }
  raw_spelling_ = std::move(remapped);
  RebuildEncodeIndex();
  sorted_ = true;
}

std::vector<ColumnSegment::RawSpelling> ColumnSegment::SortedRawSpellings()
    const {
  std::vector<RawSpelling> spellings(raw_spelling_.begin(),
                                     raw_spelling_.end());
  std::sort(spellings.begin(), spellings.end(),
            [](const RawSpelling& a, const RawSpelling& b) {
              return a.first < b.first;
            });
  return spellings;
}

std::vector<ColumnSegment::VariantRow> ColumnSegment::SortedVariantRows()
    const {
  std::vector<VariantRow> variants(variant_rows_.begin(), variant_rows_.end());
  std::sort(variants.begin(), variants.end(),
            [](const VariantRow& a, const VariantRow& b) {
              return a.first < b.first;
            });
  return variants;
}

uint64_t ColumnSegment::FoldFingerprint(uint64_t h) const {
  h = FoldValue(h, static_cast<uint64_t>(type_));
  h = FoldValue(h, dictionary_.size());
  for (const std::string& entry : dictionary_) {
    h = FoldValue(h, entry.size());
    h = FoldBytes(h, entry.data(), entry.size());
  }
  h = FoldValue(h, codes_.size());
  h = FoldBytes(h, codes_.data(), codes_.size() * sizeof(uint32_t));
  // Raw spellings are logical state (they decide identity after a future
  // widening to string), so they are part of the fingerprint.
  h = FoldValue(h, raw_spelling_.size());
  for (const RawSpelling& spelling : SortedRawSpellings()) {
    h = FoldValue(h, spelling.first);
    h = FoldValue(h, spelling.second.size());
    h = FoldBytes(h, spelling.second.data(), spelling.second.size());
  }
  h = FoldValue(h, variant_rows_.size());
  for (const VariantRow& variant : SortedVariantRows()) {
    h = FoldValue(h, variant.first);
    h = FoldValue(h, variant.second.size());
    h = FoldBytes(h, variant.second.data(), variant.second.size());
  }
  return h;
}

ColumnSegment ColumnSegment::LiveRows(const std::vector<uint8_t>& live) const {
  ColumnSegment out;
  out.type_ = type_;
  out.has_values_ = has_values_;
  for (size_t row = 0; row < codes_.size(); ++row) {
    if (live[row] == 0) continue;
    if (IsNull(row)) {
      out.AppendNull();
    } else {
      out.Append(Value(row));
    }
  }
  return out;
}

uint64_t ColumnSegment::FoldLiveFingerprint(
    uint64_t h, const std::vector<uint8_t>& live) const {
  // First-appearance remap of the live codes, as LiveRows()' Append()s
  // number them; `order[new_code]` is the old code. Every dictionary entry
  // is canonical under type_, so those appends record no raw spelling.
  std::vector<uint32_t> remap(dictionary_.size(), kNullCode);
  std::vector<uint32_t> order;
  std::vector<uint32_t> codes;
  for (size_t row = 0; row < codes_.size(); ++row) {
    if (live[row] == 0) continue;
    uint32_t code = codes_[row];
    if (code != kNullCode) {
      if (remap[code] == kNullCode) {
        remap[code] = static_cast<uint32_t>(order.size());
        order.push_back(code);
      }
      code = remap[code];
    }
    codes.push_back(code);
  }
  h = FoldValue(h, static_cast<uint64_t>(type_));
  h = FoldValue(h, order.size());
  for (uint32_t code : order) {
    const std::string& entry = dictionary_[code];
    h = FoldValue(h, entry.size());
    h = FoldBytes(h, entry.data(), entry.size());
  }
  h = FoldValue(h, codes.size());
  h = FoldBytes(h, codes.data(), codes.size() * sizeof(uint32_t));
  h = FoldValue(h, 0);  // no raw spellings
  h = FoldValue(h, 0);  // no variant rows
  return h;
}

size_t ColumnSegment::MemoryBytes() const {
  size_t bytes = codes_.capacity() * sizeof(uint32_t);
  for (const std::string& entry : dictionary_) {
    bytes += sizeof(std::string) + entry.capacity();
  }
  // The encode index roughly doubles the dictionary footprint.
  bytes += encode_.size() * (sizeof(std::string) + sizeof(uint32_t) * 2);
  for (const auto& [code, spelling] : raw_spelling_) {
    bytes += sizeof(uint32_t) + sizeof(std::string) + spelling.capacity();
  }
  for (const auto& [row, raw] : variant_rows_) {
    bytes += sizeof(uint64_t) + sizeof(std::string) + raw.capacity();
  }
  return bytes;
}

void ColumnSegment::CheckRawSpellingInvariants() const {
  if (type_ != ColumnType::kInt && type_ != ColumnType::kDouble) {
    HYFD_CHECK(raw_spelling_.empty() && variant_rows_.empty(),
               "ColumnSegment: raw spellings outside a numeric column");
    return;
  }
  for (const auto& [code, spelling] : raw_spelling_) {
    HYFD_CHECK(code < dictionary_.size(),
               "ColumnSegment: raw-spelling code out of dictionary range");
    HYFD_CHECK(spelling != dictionary_[code],
               "ColumnSegment: raw spelling equals the canonical form");
    HYFD_CHECK(LexemeType(spelling) != ColumnType::kString &&
                   CanonicalForm(type_, spelling) == dictionary_[code],
               "ColumnSegment: raw spelling does not canonicalize to its "
               "dictionary entry");
  }
  for (const auto& [row, raw] : variant_rows_) {
    HYFD_CHECK(row < codes_.size(),
               "ColumnSegment: variant row out of range");
    const uint32_t code = codes_[row];
    HYFD_CHECK(code != kNullCode, "ColumnSegment: variant row is NULL");
    HYFD_CHECK(code < dictionary_.size(),
               "ColumnSegment: variant row's code out of dictionary range");
    HYFD_CHECK(raw != CreatingSpelling(code),
               "ColumnSegment: variant row equals its code's raw spelling");
    HYFD_CHECK(LexemeType(raw) != ColumnType::kString &&
                   CanonicalForm(type_, raw) == dictionary_[code],
               "ColumnSegment: variant row does not canonicalize to its "
               "code's dictionary entry");
  }
}

void ColumnSegment::CheckInvariants() const {
  HYFD_CHECK(dictionary_.size() < kNullCode,
             "ColumnSegment: dictionary size collides with the NULL code");
  CheckRawSpellingInvariants();
  HYFD_CHECK(encode_.empty() || encode_.size() == dictionary_.size(),
             "ColumnSegment: encode index size disagrees with the dictionary");
  for (uint32_t i = 0; i < dictionary_.size(); ++i) {
    const std::string& entry = dictionary_[i];
    HYFD_CHECK(CanonicalForm(type_, entry) == entry,
               "ColumnSegment: dictionary entry is not in canonical form");
    if (!encode_.empty()) {
      auto it = encode_.find(entry);
      HYFD_CHECK(it != encode_.end() && it->second == i,
                 "ColumnSegment: encode index does not map entry to its code");
    }
  }
  for (uint32_t code : codes_) {
    HYFD_CHECK(code == kNullCode || code < dictionary_.size(),
               "ColumnSegment: code out of dictionary range");
  }
  if (sorted_) {
    for (size_t i = 1; i < dictionary_.size(); ++i) {
      HYFD_CHECK(TypedLess(type_, dictionary_[i - 1], dictionary_[i]),
                 "ColumnSegment: sorted segment has an unsorted or duplicate "
                 "dictionary");
    }
    std::vector<uint8_t> referenced(dictionary_.size(), 0);
    for (uint32_t code : codes_) {
      if (code != kNullCode) referenced[code] = 1;
    }
    for (size_t i = 0; i < referenced.size(); ++i) {
      HYFD_CHECK(referenced[i] != 0,
                 "ColumnSegment: sorted segment has an unreferenced "
                 "dictionary entry");
    }
  }
}

}  // namespace hyfd
