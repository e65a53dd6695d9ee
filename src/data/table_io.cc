#include "data/table_io.h"

#include <algorithm>
#include <bit>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <random>
#include <stdexcept>
#include <utility>
#include <vector>

#include "util/check.h"

namespace hyfd {
namespace {

/// FNV-1a-style fold, 8 input bytes per step (a byte-serial FNV costs more
/// than the rest of a warm cache load combined). Corruption detection and
/// staleness checks need speed and dispersion, not cryptographic strength.
uint64_t FingerprintRange(const char* data, size_t n) {
  constexpr uint64_t kPrime = 1099511628211ull;
  uint64_t h = 1469598103934665603ull ^ (static_cast<uint64_t>(n) * kPrime);
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    uint64_t chunk;
    std::memcpy(&chunk, data + i, 8);
    h = (h ^ chunk) * kPrime;
    h ^= h >> 29;  // multiply alone never mixes high bits back down
  }
  uint64_t tail = 0;
  for (size_t j = 0; i + j < n; ++j) {
    tail |= static_cast<uint64_t>(static_cast<unsigned char>(data[i + j]))
            << (8 * j);
  }
  h = (h ^ tail) * kPrime;
  h ^= h >> 32;
  return h;
}

constexpr char kMagic[kTableMagicBytes] = {'H', 'Y', 'F', 'D',
                                           'T', 'B', 'L', '\0'};

static_assert(kTableFormatVersion == 2,
              "bump Relation's kStorageFingerprintVersion (relation.cc) in "
              "lockstep with the table format version");

void AppendRaw(std::string* out, const void* data, size_t n) {
  out->append(static_cast<const char*>(data), n);
}

void AppendU8(std::string* out, uint8_t v) { AppendRaw(out, &v, 1); }

void AppendU32(std::string* out, uint32_t v) {
  char bytes[4];
  for (int i = 0; i < 4; ++i) bytes[i] = static_cast<char>((v >> (8 * i)) & 0xFF);
  out->append(bytes, 4);
}

void AppendU64(std::string* out, uint64_t v) {
  char bytes[8];
  for (int i = 0; i < 8; ++i) bytes[i] = static_cast<char>((v >> (8 * i)) & 0xFF);
  out->append(bytes, 8);
}

void AppendString(std::string* out, const std::string& s) {
  HYFD_CHECK(s.size() <= UINT32_MAX, "table_io: string too long to serialize");
  AppendU32(out, static_cast<uint32_t>(s.size()));
  out->append(s);
}

/// Bounds-checked little-endian reader over the payload. Every read that
/// would run past the end throws ContractViolation — the "truncated file"
/// failure mode when the checksum happens to be patched up too.
class ByteReader {
 public:
  ByteReader(const std::string& buffer, size_t pos)
      : buffer_(buffer), pos_(pos) {}

  uint8_t ReadU8() {
    Require(1);
    return static_cast<uint8_t>(buffer_[pos_++]);
  }

  uint32_t ReadU32() {
    Require(4);
    uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      v |= static_cast<uint32_t>(static_cast<uint8_t>(buffer_[pos_ + i]))
           << (8 * i);
    }
    pos_ += 4;
    return v;
  }

  uint64_t ReadU64() {
    Require(8);
    uint64_t v = 0;
    for (int i = 0; i < 8; ++i) {
      v |= static_cast<uint64_t>(static_cast<uint8_t>(buffer_[pos_ + i]))
           << (8 * i);
    }
    pos_ += 8;
    return v;
  }

  std::string ReadString() {
    const uint32_t n = ReadU32();
    Require(n);
    std::string s = buffer_.substr(pos_, n);
    pos_ += n;
    return s;
  }

  /// Bulk read of `n` little-endian u32 values — the code-vector fast path.
  /// One bounds check for the whole vector, then a memcpy on little-endian
  /// hosts (a per-element decode loop elsewhere).
  std::vector<uint32_t> ReadU32Vector(size_t n) {
    // Divide instead of multiplying: n comes from the file, and an absurd
    // row count must hit the truncation check, not overflow size_t.
    HYFD_CHECK(n <= (buffer_.size() - pos_) / sizeof(uint32_t),
               "table_io: truncated table (read past end of payload)");
    std::vector<uint32_t> values(n);
    if constexpr (std::endian::native == std::endian::little) {
      // An empty vector's data() may be null, which memcpy must not get.
      if (n > 0) {
        std::memcpy(values.data(), buffer_.data() + pos_,
                    n * sizeof(uint32_t));
      }
      pos_ += n * sizeof(uint32_t);
    } else {
      for (size_t i = 0; i < n; ++i) values[i] = ReadU32();
    }
    return values;
  }

  size_t pos() const { return pos_; }
  size_t remaining() const { return buffer_.size() - pos_; }
  bool AtEnd() const { return pos_ == buffer_.size(); }

 private:
  void Require(size_t n) {
    HYFD_CHECK(buffer_.size() - pos_ >= n,
               "table_io: truncated table (read past end of payload)");
  }

  const std::string& buffer_;
  size_t pos_ = 0;
};

bool CacheDisabledByEnv() {
  const char* v = std::getenv("HYFD_TABLE_CACHE");
  return v != nullptr && (std::strcmp(v, "0") == 0 ||
                          std::strcmp(v, "off") == 0 ||
                          std::strcmp(v, "OFF") == 0);
}

/// Single-allocation file slurp: size the buffer from the end offset and do
/// one read() — the stringstream idiom copies every byte twice.
bool SlurpFile(const std::string& path, std::string* out) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) return false;
  const std::streamoff size = in.tellg();
  if (size < 0) return false;
  out->resize(static_cast<size_t>(size));
  in.seekg(0);
  in.read(out->data(), size);
  return static_cast<bool>(in);
}

std::string ReadFileBytes(const std::string& path) {
  std::string bytes;
  if (!SlurpFile(path, &bytes)) {
    throw std::runtime_error("table_io: cannot open " + path);
  }
  return bytes;
}

}  // namespace

uint64_t FingerprintBytes(const std::string& bytes) {
  return FingerprintRange(bytes.data(), bytes.size());
}

std::string SerializeTable(const Relation& relation,
                           uint64_t source_fingerprint) {
  std::string payload;
  const auto num_columns = static_cast<uint32_t>(relation.num_columns());
  AppendU32(&payload, num_columns);
  AppendU64(&payload, relation.num_rows());

  // Canonical layout is produced on the fly: the per-column plan sorts the
  // referenced dictionary entries into typed order, and codes are remapped
  // while streaming — the (const) relation itself is never normalized.
  std::vector<ColumnSegment::NormalizationPlan> plans;
  plans.reserve(num_columns);
  for (int c = 0; c < relation.num_columns(); ++c) {
    const ColumnSegment& segment = relation.segment(c);
    plans.push_back(segment.PlanNormalization());
    const ColumnSegment::NormalizationPlan& plan = plans.back();
    AppendString(&payload, relation.schema().name(c));
    AppendU8(&payload, static_cast<uint8_t>(segment.type()));
    AppendU32(&payload, static_cast<uint32_t>(plan.slots.size()));
    for (uint32_t old_code : plan.slots) {
      AppendString(&payload, segment.dictionary()[old_code]);
    }
    // Raw-spelling sections, remapped into the normalized code numbering
    // (overrides of dropped, unreferenced codes go with their entries).
    std::vector<ColumnSegment::RawSpelling> spellings;
    for (ColumnSegment::RawSpelling& spelling : segment.SortedRawSpellings()) {
      const uint32_t new_code = plan.old_to_new[spelling.first];
      if (new_code != kNullCode) {
        spellings.emplace_back(new_code, std::move(spelling.second));
      }
    }
    std::sort(spellings.begin(), spellings.end(),
              [](const ColumnSegment::RawSpelling& a,
                 const ColumnSegment::RawSpelling& b) {
                return a.first < b.first;
              });
    AppendU32(&payload, static_cast<uint32_t>(spellings.size()));
    for (const auto& [code, spelling] : spellings) {
      AppendU32(&payload, code);
      AppendString(&payload, spelling);
    }
    const std::vector<ColumnSegment::VariantRow> variants =
        segment.SortedVariantRows();
    AppendU64(&payload, variants.size());
    for (const auto& [row, raw] : variants) {
      AppendU64(&payload, row);
      AppendString(&payload, raw);
    }
  }
  for (int c = 0; c < relation.num_columns(); ++c) {
    const std::vector<uint32_t>& old_to_new = plans[static_cast<size_t>(c)].old_to_new;
    for (uint32_t code : relation.segment(c).codes()) {
      AppendU32(&payload, code == kNullCode ? kNullCode : old_to_new[code]);
    }
  }

  std::string out;
  out.reserve(kTableHeaderBytes + payload.size());
  AppendRaw(&out, kMagic, kTableMagicBytes);
  AppendU32(&out, kTableFormatVersion);
  AppendU32(&out, 0);  // flags (reserved)
  AppendU64(&out, FingerprintBytes(payload));
  AppendU64(&out, source_fingerprint);
  out += payload;
  return out;
}

Relation ParseTable(const std::string& bytes, uint64_t* source_fingerprint) {
  HYFD_CHECK(bytes.size() >= kTableHeaderBytes,
             "table_io: truncated table (shorter than the header)");
  HYFD_CHECK(std::memcmp(bytes.data(), kMagic, kTableMagicBytes) == 0,
             "table_io: bad magic (not a hyfd binary table)");
  ByteReader header(bytes, kTableMagicBytes);
  const uint32_t version = header.ReadU32();
  HYFD_CHECK(version == kTableFormatVersion,
             "table_io: unsupported format version");
  header.ReadU32();  // flags (reserved)
  const uint64_t stored_checksum = header.ReadU64();
  const uint64_t stored_source = header.ReadU64();
  HYFD_CHECK(stored_checksum ==
                 FingerprintRange(bytes.data() + kTableHeaderBytes,
                                  bytes.size() - kTableHeaderBytes),
             "table_io: payload checksum mismatch (corrupted table)");

  ByteReader reader(bytes, kTableHeaderBytes);
  const uint32_t num_columns = reader.ReadU32();
  const uint64_t num_rows = reader.ReadU64();
  // Bound every count against the bytes that could possibly back it before
  // reserving: a crafted file with an internally-consistent checksum must
  // fail as a ContractViolation, not as std::length_error/std::bad_alloc
  // escaping from an absurd reserve. Each column costs ≥ 21 payload bytes
  // (name length, type tag, three section counts).
  HYFD_CHECK(num_columns <= reader.remaining() / 21,
             "table_io: column count exceeds the payload size");

  std::vector<std::string> names;
  std::vector<ColumnType> types;
  std::vector<std::vector<std::string>> dictionaries;
  std::vector<std::vector<ColumnSegment::RawSpelling>> raw_spellings;
  std::vector<std::vector<ColumnSegment::VariantRow>> variant_rows;
  names.reserve(num_columns);
  types.reserve(num_columns);
  dictionaries.reserve(num_columns);
  raw_spellings.reserve(num_columns);
  variant_rows.reserve(num_columns);
  for (uint32_t c = 0; c < num_columns; ++c) {
    names.push_back(reader.ReadString());
    const uint8_t type = reader.ReadU8();
    HYFD_CHECK(type <= static_cast<uint8_t>(ColumnType::kDate),
               "table_io: unknown column type tag");
    types.push_back(static_cast<ColumnType>(type));
    const uint32_t dict_size = reader.ReadU32();
    HYFD_CHECK(dict_size < kNullCode,
               "table_io: dictionary size collides with the NULL code");
    HYFD_CHECK(dict_size <= reader.remaining() / 4,
               "table_io: dictionary size exceeds the payload size");
    std::vector<std::string> dictionary;
    dictionary.reserve(dict_size);
    for (uint32_t i = 0; i < dict_size; ++i) {
      dictionary.push_back(reader.ReadString());
    }
    dictionaries.push_back(std::move(dictionary));
    const uint32_t spelling_count = reader.ReadU32();
    HYFD_CHECK(spelling_count <= reader.remaining() / 8,
               "table_io: raw-spelling count exceeds the payload size");
    std::vector<ColumnSegment::RawSpelling> spellings;
    spellings.reserve(spelling_count);
    for (uint32_t i = 0; i < spelling_count; ++i) {
      const uint32_t code = reader.ReadU32();
      spellings.emplace_back(code, reader.ReadString());
    }
    raw_spellings.push_back(std::move(spellings));
    const uint64_t variant_count = reader.ReadU64();
    HYFD_CHECK(variant_count <= reader.remaining() / 12,
               "table_io: variant-row count exceeds the payload size");
    std::vector<ColumnSegment::VariantRow> variants;
    variants.reserve(variant_count);
    for (uint64_t i = 0; i < variant_count; ++i) {
      const uint64_t row = reader.ReadU64();
      variants.emplace_back(row, reader.ReadString());
    }
    variant_rows.push_back(std::move(variants));
  }

  std::vector<ColumnSegment> segments;
  segments.reserve(num_columns);
  for (uint32_t c = 0; c < num_columns; ++c) {
    std::vector<uint32_t> codes = reader.ReadU32Vector(num_rows);
    // FromParts re-validates everything the format promises: canonical
    // forms, typed sorted-unique dictionary, codes in range, every entry
    // referenced, well-formed raw spellings. A dictionary/code-count
    // mismatch surfaces here (or as a truncation above) before any Relation
    // exists.
    segments.push_back(ColumnSegment::FromParts(
        types[c], std::move(dictionaries[c]), std::move(codes),
        std::move(raw_spellings[c]), std::move(variant_rows[c])));
  }
  HYFD_CHECK(reader.AtEnd(),
             "table_io: trailing bytes after the last code vector");

  if (source_fingerprint != nullptr) *source_fingerprint = stored_source;
  return Relation::FromSegments(Schema(std::move(names)), std::move(segments));
}

void WriteTableFile(const Relation& relation, const std::string& path,
                    uint64_t source_fingerprint) {
  // Write to a unique sibling and rename over the target: rename within one
  // directory is atomic on POSIX, so concurrent writers of the same cache
  // file never expose a torn file to a concurrent reader (at worst the last
  // publisher wins — both wrote the same logical content anyway).
  //
  // Concurrency contract (DESIGN.md §11): the cache writer holds no
  // in-process capability on purpose — the publication point is the rename
  // itself, which also serializes against *other processes* sharing the
  // cache directory, something no hyfd::Mutex could do. The random tmp-name
  // suffix keeps concurrent writers' staging files from colliding.
  std::random_device entropy;
  const std::string tmp_path =
      path + ".tmp." + std::to_string(static_cast<uint64_t>(entropy()) << 32 |
                                      entropy());
  {
    std::ofstream out(tmp_path, std::ios::binary | std::ios::trunc);
    if (!out) throw std::runtime_error("table_io: cannot write " + tmp_path);
    const std::string bytes = SerializeTable(relation, source_fingerprint);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    if (!out) {
      out.close();
      std::error_code ec;
      std::filesystem::remove(tmp_path, ec);
      throw std::runtime_error("table_io: short write to " + tmp_path);
    }
  }
  std::error_code ec;
  std::filesystem::rename(tmp_path, path, ec);
  if (ec) {
    std::error_code remove_ec;
    std::filesystem::remove(tmp_path, remove_ec);
    throw std::runtime_error("table_io: cannot publish " + path + ": " +
                             ec.message());
  }
}

Relation ReadTableFile(const std::string& path, uint64_t* source_fingerprint) {
  return ParseTable(ReadFileBytes(path), source_fingerprint);
}

Relation LoadCsvWithCache(const std::string& csv_path,
                          const CsvOptions& options, bool force_cold,
                          TableCacheStats* stats) {
  TableCacheStats local;
  local.cache_path = csv_path + kTableCacheSuffix;
  const std::string csv_bytes = ReadFileBytes(csv_path);
  const uint64_t csv_fingerprint = FingerprintBytes(csv_bytes);
  const bool cache_enabled = !force_cold && !CacheDisabledByEnv();

  if (cache_enabled) {
    std::string cached;
    if (SlurpFile(local.cache_path, &cached)) {
      try {
        uint64_t stored_source = 0;
        Relation relation = ParseTable(cached, &stored_source);
        if (stored_source == csv_fingerprint) {
          local.cache_hit = true;
          if (stats != nullptr) *stats = std::move(local);
          return relation;
        }
        // Stale: the CSV changed behind the cache file. Fall through to the
        // cold parse, which rewrites the cache under the new fingerprint.
      } catch (const std::exception&) {
        // Corrupt or version-skewed cache (ContractViolation), or anything
        // else a hostile cache file can trigger: a cache must never fail a
        // load its source could serve, so fall through and rewrite it.
      }
    }
  }

  Relation relation = ReadCsvString(csv_bytes, options);
  if (cache_enabled) {
    try {
      WriteTableFile(relation, local.cache_path, csv_fingerprint);
      local.cache_written = true;
    } catch (const std::runtime_error&) {
      // Best-effort: an unwritable cache directory degrades to cold parses.
    }
  }
  if (stats != nullptr) *stats = std::move(local);
  return relation;
}

}  // namespace hyfd
