#ifndef HYFD_DATA_TABLE_IO_H_
#define HYFD_DATA_TABLE_IO_H_

#include <cstdint>
#include <string>

#include "data/csv.h"
#include "data/relation.h"

namespace hyfd {

/// Versioned, checksummed binary table format — the parse-once answer to
/// CSV's parse-every-run cost (hyrise's binary table cache is the exemplar).
///
/// Layout (all integers little-endian):
///
///   offset  0  magic            "HYFDTBL\0" (8 bytes)
///   offset  8  format version   u32 (kTableFormatVersion)
///   offset 12  flags            u32 (reserved, 0)
///   offset 16  payload checksum u64 (FingerprintBytes of the payload)
///   offset 24  source fingerprint u64 (FingerprintBytes of the source CSV,
///                                      or a caller-chosen provenance key)
///   offset 32  payload:
///     u32 column count, u64 row count
///     per column: name (u32 length + bytes),
///                 dictionary (u32 entry count, then u32 length + bytes each)
///     per column: codes (u32 × row count; kNullCode marks NULL)
///
/// A column is untyped: a dictionary entry is the exact lexeme read, and two
/// cells are one value iff their bytes are equal. Format v3 dropped v2's
/// per-column type tag and its raw-spelling sections; the loader refuses
/// any other version by its number.
///
/// Dictionaries are stored in canonical layout — byte-wise sorted order,
/// every entry referenced — which the writer produces on the fly (the
/// in-memory relation is not mutated) and the loader verifies. Any
/// structural violation — bad magic, unknown version, checksum mismatch,
/// truncation, trailing bytes, dictionary/code-count mismatch, out-of-range
/// code, unsorted or duplicate dictionary, unreferenced entry — throws
/// ContractViolation before any Relation is returned; a partially-parsed
/// table can never escape. Counts are bounded against the payload size
/// before any allocation, so a crafted file with an internally-consistent
/// checksum still fails with ContractViolation instead of an allocation
/// failure. Cache files are published atomically (temp file + rename), so
/// concurrent writers never expose a torn file.
inline constexpr uint32_t kTableFormatVersion = 3;
inline constexpr size_t kTableMagicBytes = 8;
inline constexpr size_t kTableChecksumOffset = 16;
inline constexpr size_t kTableSourceFingerprintOffset = 24;
inline constexpr size_t kTableHeaderBytes = 32;
inline constexpr char kTableCacheSuffix[] = ".hyfdbin";

/// Fast 64-bit content fingerprint (FNV-1a-style, folded a word at a time;
/// host-endian, so fingerprints are stable per machine, which is all a
/// beside-the-source cache file needs). Fingerprints source CSVs
/// (cache-freshness keys) and doubles as the payload checksum.
uint64_t FingerprintBytes(const std::string& bytes);

/// Serializes `relation` to the binary format (canonical layout, checksum
/// filled in). `source_fingerprint` records the provenance of the data so a
/// cache load can prove it still matches its source.
std::string SerializeTable(const Relation& relation,
                           uint64_t source_fingerprint = 0);

/// Parses a serialized table, validating magic, version, checksum, and every
/// structural contract. Throws ContractViolation on the first violation. If
/// `source_fingerprint` is non-null it receives the stored provenance key.
Relation ParseTable(const std::string& bytes,
                    uint64_t* source_fingerprint = nullptr);

/// File variants. Missing/unwritable files throw std::runtime_error (an
/// environment failure, not a format violation).
void WriteTableFile(const Relation& relation, const std::string& path,
                    uint64_t source_fingerprint = 0);
Relation ReadTableFile(const std::string& path,
                       uint64_t* source_fingerprint = nullptr);

/// Outcome of a LoadCsvWithCache call (for tests and benchmarks).
struct TableCacheStats {
  bool cache_hit = false;      ///< served from the binary cache file
  bool cache_written = false;  ///< cold parse refreshed the cache file
  std::string cache_path;
};

/// Loads a CSV with a transparent binary cache kept beside it
/// (`<csv>.hyfdbin`). A fresh cache — readable, matching format version, and
/// carrying the CSV's current byte fingerprint — is served in place of the
/// parse; anything else (missing, corrupt, stale, version-skewed) falls back
/// to a cold CSV parse that then rewrites the cache best-effort. Setting the
/// environment variable HYFD_TABLE_CACHE=0 (or passing `force_cold`)
/// disables both reading and writing the cache.
Relation LoadCsvWithCache(const std::string& csv_path,
                          const CsvOptions& options = {},
                          bool force_cold = false,
                          TableCacheStats* stats = nullptr);

}  // namespace hyfd

#endif  // HYFD_DATA_TABLE_IO_H_
