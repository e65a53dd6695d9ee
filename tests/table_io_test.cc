// Storage differential harness for the binary table format (table_io.h):
// round-trip equality on every bundled dataset stand-in, bit-identical
// discovery results on CSV-parsed vs binary-loaded input across the whole
// algorithm registry, a negative corpus proving each format contract fires,
// and the transparent cache-beside-the-CSV loading path.

#include "data/table_io.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <optional>
#include <string>
#include <vector>

#include "baselines/registry.h"
#include "core/hyfd.h"
#include "core/hyucc.h"
#include "core/incremental.h"
#include "data/csv.h"
#include "data/datasets.h"
#include "data/generators.h"
#include "gtest/gtest.h"
#include "test_util.h"
#include "util/check.h"

namespace hyfd {
namespace {

namespace fs = std::filesystem;

/// Serialize → parse round trip.
Relation RoundTrip(const Relation& r, uint64_t source_fingerprint = 0) {
  return ParseTable(SerializeTable(r, source_fingerprint));
}

/// Column-by-column logical equality: schema, values, NULL flags.
void ExpectSameTable(const Relation& a, const Relation& b,
                     const std::string& context) {
  ASSERT_EQ(a.num_columns(), b.num_columns()) << context;
  ASSERT_EQ(a.num_rows(), b.num_rows()) << context;
  for (int c = 0; c < a.num_columns(); ++c) {
    EXPECT_EQ(a.schema().name(c), b.schema().name(c)) << context;
    for (size_t r = 0; r < a.num_rows(); ++r) {
      ASSERT_EQ(a.IsNull(r, c), b.IsNull(r, c))
          << context << ": null flag at (" << r << ", " << c << ")";
      ASSERT_EQ(a.Value(r, c), b.Value(r, c))
          << context << ": value at (" << r << ", " << c << ")";
    }
  }
}

/// The relation a consumer would get from the CSV path: write the relation
/// out as CSV and parse it back (fresh dictionaries).
Relation ViaCsv(const Relation& r) { return ReadCsvString(WriteCsvString(r)); }

// ---- Round-trip equality over every bundled dataset config ----------------

TEST(TableIoRoundTripTest, EveryRegisteredDataset) {
  for (const DatasetSpec& spec : PaperDatasets()) {
    Relation original = MakeDataset(spec.name, 50, std::min(spec.columns, 12));
    Relation loaded = RoundTrip(original, 1234);
    ExpectSameTable(original, loaded, spec.name);
    // The loaded relation is a fresh object in canonical layout.
    EXPECT_EQ(loaded.version(), 0u) << spec.name;
    for (int c = 0; c < loaded.num_columns(); ++c) {
      EXPECT_TRUE(loaded.segment(c).sorted()) << spec.name;
    }
    loaded.CheckInvariants();
    // A second round trip is byte-stable (canonical layout is a fixpoint).
    EXPECT_EQ(SerializeTable(loaded, 1234), SerializeTable(loaded, 1234));
    EXPECT_EQ(loaded.ContentFingerprint(),
              RoundTrip(loaded, 1234).ContentFingerprint())
        << spec.name;
  }
}

// Numeric-looking and date-looking spellings are plain lexemes: the round
// trip keeps every one of them, stores each column's distinct spellings in
// byte order, and a reloaded relation keeps growing exactly like the one it
// was written from.
TEST(TableIoRoundTripTest, NumericAndDateSpellingsSurvive) {
  Relation r = Relation::FromRows(
      Schema({"i", "d", "date", "s"}),
      {{std::string("07"), std::string("2.50"), std::string("2024-01-31"),
        std::string("x")},
       {std::nullopt, std::string("-0.0"), std::nullopt, std::string("")},
       {std::string("7"), std::string("1e3"), std::string("2023-12-01"),
        std::string("07")},
       {std::string("007"), std::string("2.5"), std::string("2024-1-31"),
        std::string("7")},
       {std::string("7"), std::string("1000"), std::string("2023-12-01"),
        std::nullopt}});
  Relation loaded = RoundTrip(r);
  ExpectSameTable(r, loaded, "spellings");
  EXPECT_EQ(loaded.segment(0).dictionary(),
            (std::vector<std::string>{"007", "07", "7"}));
  EXPECT_EQ(loaded.segment(1).dictionary(),
            (std::vector<std::string>{"-0.0", "1000", "1e3", "2.5", "2.50"}));
  EXPECT_EQ(loaded.segment(2).dictionary(),
            (std::vector<std::string>{"2023-12-01", "2024-01-31",
                                      "2024-1-31"}));
  EXPECT_EQ(loaded.segment(3).dictionary(),
            (std::vector<std::string>{"", "07", "7", "x"}));
  Relation normalized = r;
  normalized.Normalize();
  EXPECT_EQ(normalized.ContentFingerprint(), loaded.ContentFingerprint());

  const std::vector<std::optional<std::string>> more = {
      std::string("7.0"), std::string("2.50"), std::string("n/a"),
      std::string("07")};
  r.AppendRow(more);
  loaded.AppendRow(more);
  ExpectSameTable(r, loaded, "after an append");
  for (int c = 0; c < r.num_columns(); ++c) {
    EXPECT_EQ(loaded.DistinctCount(c), r.DistinctCount(c)) << "column " << c;
  }
  loaded.CheckInvariants();
}

TEST(TableIoRoundTripTest, EmptyAndDegenerateTables) {
  Relation empty{Schema({"a", "b"})};
  ExpectSameTable(empty, RoundTrip(empty), "zero rows");
  Relation nulls = Relation::FromRows(Schema({"a"}),
                                      {{std::nullopt}, {std::nullopt}});
  Relation loaded = RoundTrip(nulls);
  ExpectSameTable(nulls, loaded, "all NULL");
  EXPECT_TRUE(loaded.segment(0).dictionary().empty());
}

TEST(TableIoRoundTripTest, SourceFingerprintIsPreserved) {
  Relation r = testing::RandomRelation(3, 20, 77);
  uint64_t stored = 0;
  ParseTable(SerializeTable(r, 0xDEADBEEFCAFEull), &stored);
  EXPECT_EQ(stored, 0xDEADBEEFCAFEull);
}

// ---- Differential discovery: CSV-parsed vs binary-loaded ------------------

TEST(TableIoDifferentialTest, RegistryAlgorithmsAgreeOnBothPaths) {
  // Every registry algorithm, both NULL semantics, on representative
  // families (full 25-dataset × 8-algorithm sweep is integration_test's
  // job; here the differential is CSV path vs binary path).
  for (const char* name : {"iris", "bridges", "adult", "plista"}) {
    const DatasetSpec& spec = FindDataset(name);
    Relation original = MakeDataset(name, 50, std::min(spec.columns, 8));
    Relation from_csv = ViaCsv(original);
    Relation from_binary = RoundTrip(original);
    ExpectSameTable(from_csv, from_binary, name);
    for (NullSemantics nulls :
         {NullSemantics::kNullEqualsNull, NullSemantics::kNullUnequal}) {
      AlgoOptions options;
      options.null_semantics = nulls;
      for (const AlgoInfo& algo : AllAlgorithms()) {
        testing::ExpectSameFds(
            algo.run(from_csv, options), algo.run(from_binary, options),
            std::string(name) + "/" + algo.name +
                (nulls == NullSemantics::kNullUnequal ? "/null-unequal"
                                                      : "/null-equals"));
      }
    }
  }
}

TEST(TableIoDifferentialTest, EveryDatasetAgreesUnderHyFd) {
  // The cheap end of the cross product covers all 25 bundled configs.
  for (const DatasetSpec& spec : PaperDatasets()) {
    Relation original = MakeDataset(spec.name, 50, std::min(spec.columns, 12));
    Relation from_csv = ViaCsv(original);
    Relation from_binary = RoundTrip(original);
    for (NullSemantics nulls :
         {NullSemantics::kNullEqualsNull, NullSemantics::kNullUnequal}) {
      HyFdConfig config;
      config.null_semantics = nulls;
      testing::ExpectSameFds(HyFd(config).Discover(from_csv),
                             HyFd(config).Discover(from_binary), spec.name);
    }
  }
}

TEST(TableIoDifferentialTest, HyFdAndHyUccAcrossThreads) {
  Relation original = MakeDataset("ncvoter", 200, 10);
  Relation from_csv = ViaCsv(original);
  Relation from_binary = RoundTrip(original);
  for (NullSemantics nulls :
       {NullSemantics::kNullEqualsNull, NullSemantics::kNullUnequal}) {
    for (int threads : {1, 8}) {
      HyFdConfig fd_config;
      fd_config.null_semantics = nulls;
      fd_config.num_threads = threads;
      testing::ExpectSameFds(
          HyFd(fd_config).Discover(from_csv),
          HyFd(fd_config).Discover(from_binary),
          "hyfd threads=" + std::to_string(threads));
      HyUccConfig ucc_config;
      ucc_config.null_semantics = nulls;
      ucc_config.num_threads = threads;
      EXPECT_EQ(HyUcc(ucc_config).Discover(from_csv),
                HyUcc(ucc_config).Discover(from_binary))
          << "hyucc threads=" << threads;
    }
  }
}

TEST(TableIoDifferentialTest, IncrementalSessionAgreesOnBothPaths) {
  // Seed two sessions — one from the CSV path, one from the binary path —
  // and feed both the same batch ladder; FD sets must stay bit-identical
  // after every batch (and match a from-scratch run on the final data).
  Relation full = MakeDataset("adult", 240, 8);
  const size_t seed_rows = 80;
  auto row_of = [&](size_t r) {
    std::vector<std::optional<std::string>> row;
    for (int c = 0; c < full.num_columns(); ++c) {
      if (full.IsNull(r, c)) {
        row.emplace_back(std::nullopt);
      } else {
        row.emplace_back(full.Value(r, c));
      }
    }
    return row;
  };
  for (NullSemantics nulls :
       {NullSemantics::kNullEqualsNull, NullSemantics::kNullUnequal}) {
    for (int threads : {1, 8}) {
      IncrementalConfig config;
      config.null_semantics = nulls;
      config.num_threads = threads;
      Relation head = full.HeadRows(seed_rows);
      IncrementalHyFd from_csv(ViaCsv(head), config);
      IncrementalHyFd from_binary(RoundTrip(head), config);
      testing::ExpectSameFds(from_csv.fds(), from_binary.fds(), "seed");
      size_t at = seed_rows;
      for (size_t batch : {1u, 40u, 119u}) {
        std::vector<std::vector<std::optional<std::string>>> rows;
        for (size_t r = at; r < at + batch; ++r) rows.push_back(row_of(r));
        at += batch;
        testing::ExpectSameFds(
            from_csv.ApplyBatch(rows), from_binary.ApplyBatch(rows),
            "batch to " + std::to_string(at) + " threads=" +
                std::to_string(threads));
      }
      ASSERT_EQ(at, full.num_rows());
      HyFdConfig oracle;
      oracle.null_semantics = nulls;
      testing::ExpectSameFds(HyFd(oracle).Discover(full), from_binary.fds(),
                             "vs from-scratch");
    }
  }
}

// ---- Negative corpus: every violation throws, never a partial table -------

class TableIoNegativeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    relation_ = testing::RandomRelation(4, 30, 42, 5, 0.1);
    bytes_ = SerializeTable(relation_, 99);
  }

  /// Re-stamps the header checksum so structural corruptions are reached
  /// (instead of tripping the checksum gate first).
  static std::string Restamp(std::string bytes) {
    if (bytes.size() < kTableHeaderBytes) return bytes;  // header gate fires
    const uint64_t checksum =
        FingerprintBytes(bytes.substr(kTableHeaderBytes));
    for (size_t i = 0; i < 8; ++i) {
      bytes[kTableChecksumOffset + i] =
          static_cast<char>((checksum >> (8 * i)) & 0xFF);
    }
    return bytes;
  }

  Relation relation_;
  std::string bytes_;
};

TEST_F(TableIoNegativeTest, TruncatedFile) {
  for (size_t keep : {0ul, 4ul, kTableHeaderBytes - 1, kTableHeaderBytes + 3,
                      bytes_.size() - 1}) {
    EXPECT_THROW(ParseTable(Restamp(bytes_.substr(0, keep))),
                 ContractViolation)
        << "kept " << keep << " bytes";
  }
}

TEST_F(TableIoNegativeTest, TrailingGarbage) {
  EXPECT_THROW(ParseTable(Restamp(bytes_ + std::string(4, '\0'))),
               ContractViolation);
}

TEST_F(TableIoNegativeTest, FlippedMagic) {
  std::string bad = bytes_;
  bad[0] ^= 0x20;
  EXPECT_THROW(ParseTable(bad), ContractViolation);
}

TEST_F(TableIoNegativeTest, WrongFormatVersion) {
  std::string bad = bytes_;
  bad[kTableMagicBytes] = static_cast<char>(kTableFormatVersion + 1);
  EXPECT_THROW(ParseTable(bad), ContractViolation);

  // A well-formed format-v2 table — per-column type tag and empty
  // raw-spelling sections, checksum intact — is refused by its version.
  const auto put = [](std::string* out, uint64_t v, int bytes) {
    for (int i = 0; i < bytes; ++i) {
      out->push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
    }
  };
  std::string body;
  const auto put_string = [&](const std::string& text) {
    put(&body, text.size(), 4);
    body += text;
  };
  put(&body, 1, 4);  // column count
  put(&body, 2, 8);  // row count
  put_string("a");   // name
  put(&body, 0, 1);  // type tag: string
  put(&body, 2, 4);  // dictionary entries
  put_string("x");
  put_string("y");
  put(&body, 0, 4);  // raw spellings
  put(&body, 0, 8);  // variant rows
  put(&body, 0, 4);  // codes
  put(&body, 1, 4);
  std::string v2 = bytes_.substr(0, kTableMagicBytes);
  put(&v2, 2, 4);  // format version
  put(&v2, 0, 4);  // flags
  put(&v2, FingerprintBytes(body), 8);
  put(&v2, 0, 8);  // source fingerprint
  v2 += body;
  try {
    ParseTable(v2);
    ADD_FAILURE() << "a v2 table was accepted";
  } catch (const ContractViolation& e) {
    EXPECT_NE(std::string(e.what()).find("format version"), std::string::npos)
        << e.what();
  }
}

TEST_F(TableIoNegativeTest, CorruptedChecksum) {
  // Flip a payload byte without re-stamping: the checksum gate must fire.
  std::string bad = bytes_;
  bad[bytes_.size() - 1] ^= 0xFF;
  EXPECT_THROW(ParseTable(bad), ContractViolation);
  // And a corrupted checksum field itself over an intact payload.
  bad = bytes_;
  bad[kTableChecksumOffset] ^= 0xFF;
  EXPECT_THROW(ParseTable(bad), ContractViolation);
}

TEST_F(TableIoNegativeTest, DictionaryCodeCountMismatch) {
  // Dropping the last 4 payload bytes shears one code off the final column:
  // the reader runs out mid code vector.
  EXPECT_THROW(ParseTable(Restamp(bytes_.substr(0, bytes_.size() - 4))),
               ContractViolation);
}

TEST_F(TableIoNegativeTest, OutOfRangeCode) {
  // The last 4 payload bytes are the last column's last code; point it past
  // the dictionary (but below kNullCode, which would be legal).
  std::string bad = bytes_;
  const size_t off = bad.size() - 4;
  bad[off + 0] = static_cast<char>(0xF0);
  bad[off + 1] = static_cast<char>(0xFF);
  bad[off + 2] = static_cast<char>(0xFF);
  bad[off + 3] = static_cast<char>(0x7F);
  EXPECT_THROW(ParseTable(Restamp(bad)), ContractViolation);
}

TEST_F(TableIoNegativeTest, AbsurdCountsFailAsFormatViolationsNotAllocs) {
  // Each count field, patched to a huge value in a checksum-consistent file,
  // must fail the payload-size bound as a ContractViolation — never escape
  // as std::length_error/std::bad_alloc from an absurd reserve.
  auto read_u32 = [](const std::string& b, size_t off) {
    uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      v |= static_cast<uint32_t>(static_cast<uint8_t>(b[off + i])) << (8 * i);
    }
    return v;
  };
  auto put_u32 = [](std::string* b, size_t off, uint32_t v) {
    for (int i = 0; i < 4; ++i) {
      (*b)[off + i] = static_cast<char>((v >> (8 * i)) & 0xFF);
    }
  };
  auto put_u64 = [](std::string* b, size_t off, uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      (*b)[off + i] = static_cast<char>((v >> (8 * i)) & 0xFF);
    }
  };

  // Column count (first payload field).
  std::string bad = bytes_;
  put_u32(&bad, kTableHeaderBytes, 0x7FFFFFFFu);
  EXPECT_THROW(ParseTable(Restamp(bad)), ContractViolation) << "column count";
  // One above the loader's bound: every column costs at least its name
  // length and dictionary count, 8 bytes, of what follows the two counts.
  const size_t after_counts = bytes_.size() - kTableHeaderBytes - 4 - 8;
  bad = bytes_;
  put_u32(&bad, kTableHeaderBytes,
          static_cast<uint32_t>(after_counts / 8 + 1));
  EXPECT_THROW(ParseTable(Restamp(bad)), ContractViolation)
      << "column count one above the bound";

  // Column 0's dictionary size sits right after its name.
  const size_t name_off = kTableHeaderBytes + 4 + 8;
  const size_t dict_count_off = name_off + 4 + read_u32(bytes_, name_off);
  bad = bytes_;
  put_u32(&bad, dict_count_off, 0x7FFFFF00u);  // below kNullCode, still absurd
  EXPECT_THROW(ParseTable(Restamp(bad)), ContractViolation) << "dict size";

  // Row count: the code vectors cannot back it.
  bad = bytes_;
  put_u64(&bad, kTableHeaderBytes + 4, 0x00FFFFFFFFFFFFull);
  EXPECT_THROW(ParseTable(Restamp(bad)), ContractViolation) << "row count";
}

TEST_F(TableIoNegativeTest, NonCanonicalDictionaryRejected) {
  // Hand-build parts the serializer would never emit; the loader's
  // FromParts validation must reject them (satellite: loader never trusts).
  Relation bad_dict = Relation::FromStringRows(Schema({"x"}), {{"b"}, {"a"}});
  // Serialize normalizes, so corrupt the *parsed* segment path directly.
  EXPECT_THROW(ColumnSegment::FromParts({"b", "a"}, {0, 1}),
               ContractViolation);
  (void)bad_dict;
}

TEST_F(TableIoNegativeTest, FileVariantsReportIoVsFormatDistinctly) {
  EXPECT_THROW(ReadTableFile("/nonexistent/dir/table.hyfdbin"),
               std::runtime_error);
  const std::string path =
      (fs::temp_directory_path() / "hyfd_tio_neg.hyfdbin").string();
  std::ofstream(path, std::ios::binary) << "not a table at all";
  EXPECT_THROW(ReadTableFile(path), ContractViolation);
  std::remove(path.c_str());
}

// ---- LoadCsvWithCache -----------------------------------------------------

class TableCacheTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() / "hyfd_table_cache_test";
    fs::create_directories(dir_);
    csv_path_ = (dir_ / "data.csv").string();
    relation_ = MakeDataset("bridges", 60, 8);
    WriteCsvFile(relation_, csv_path_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  fs::path dir_;
  std::string csv_path_;
  Relation relation_;
};

TEST_F(TableCacheTest, ColdThenWarm) {
  TableCacheStats stats;
  Relation cold = LoadCsvWithCache(csv_path_, {}, false, &stats);
  EXPECT_FALSE(stats.cache_hit);
  EXPECT_TRUE(stats.cache_written);
  EXPECT_TRUE(fs::exists(stats.cache_path));
  ExpectSameTable(relation_, cold, "cold");

  Relation warm = LoadCsvWithCache(csv_path_, {}, false, &stats);
  EXPECT_TRUE(stats.cache_hit);
  ExpectSameTable(cold, warm, "warm");
  testing::ExpectSameFds(HyFd().Discover(cold), HyFd().Discover(warm),
                         "cold vs warm");
}

TEST_F(TableCacheTest, StaleCacheIsRefreshedWhenCsvChanges) {
  LoadCsvWithCache(csv_path_);
  // Change the CSV behind the cache file.
  Relation changed = MakeDataset("bridges", 60, 8);
  changed.SetValue(0, 0, "mutated");
  WriteCsvFile(changed, csv_path_);

  TableCacheStats stats;
  Relation loaded = LoadCsvWithCache(csv_path_, {}, false, &stats);
  EXPECT_FALSE(stats.cache_hit);  // fingerprint mismatch → cold parse
  EXPECT_TRUE(stats.cache_written);
  ExpectSameTable(changed, loaded, "after mutation");
  // And the refreshed cache now serves the new content.
  Relation warm = LoadCsvWithCache(csv_path_, {}, false, &stats);
  EXPECT_TRUE(stats.cache_hit);
  ExpectSameTable(changed, warm, "refreshed");
}

TEST_F(TableCacheTest, CorruptCacheFallsBackToColdParse) {
  TableCacheStats stats;
  LoadCsvWithCache(csv_path_, {}, false, &stats);
  // Corrupt one payload byte of the cache file.
  std::string bytes;
  {
    std::ifstream in(stats.cache_path, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(in), {});
  }
  bytes[bytes.size() - 1] ^= 0xFF;
  std::ofstream(stats.cache_path, std::ios::binary | std::ios::trunc)
      << bytes;

  Relation loaded = LoadCsvWithCache(csv_path_, {}, false, &stats);
  EXPECT_FALSE(stats.cache_hit);
  EXPECT_TRUE(stats.cache_written);  // rewritten after the fallback
  ExpectSameTable(relation_, loaded, "after corruption");
}

TEST_F(TableCacheTest, CacheWriteLeavesNoTempFiles) {
  // WriteTableFile publishes via a unique sibling + atomic rename; after a
  // successful write the directory holds exactly the CSV and its cache.
  TableCacheStats stats;
  LoadCsvWithCache(csv_path_, {}, false, &stats);
  EXPECT_TRUE(stats.cache_written);
  size_t entries = 0;
  for (const auto& entry : fs::directory_iterator(dir_)) {
    ++entries;
    EXPECT_EQ(entry.path().string().find(".tmp."), std::string::npos)
        << "leftover temp file: " << entry.path();
  }
  EXPECT_EQ(entries, 2u);
}

TEST_F(TableCacheTest, ForceColdSkipsCacheEntirely) {
  TableCacheStats stats;
  Relation loaded = LoadCsvWithCache(csv_path_, {}, /*force_cold=*/true,
                                     &stats);
  EXPECT_FALSE(stats.cache_hit);
  EXPECT_FALSE(stats.cache_written);
  EXPECT_FALSE(fs::exists(std::string(csv_path_) + kTableCacheSuffix));
  ExpectSameTable(relation_, loaded, "forced cold");
}

TEST_F(TableCacheTest, MakeDatasetCachedRoundTrip) {
  const fs::path cache_dir = dir_ / "dataset-cache";
  ASSERT_EQ(setenv("HYFD_TABLE_CACHE_DIR", cache_dir.string().c_str(), 1), 0);
  DatasetCacheStats stats;
  Relation cold = MakeDatasetCached("iris", 60, 4, &stats);
  EXPECT_FALSE(stats.cache_hit);
  EXPECT_TRUE(stats.cache_written);
  Relation warm = MakeDatasetCached("iris", 60, 4, &stats);
  EXPECT_TRUE(stats.cache_hit);
  ExpectSameTable(cold, warm, "dataset cache");
  // A different shape is a different cache entry, not a stale hit.
  Relation other = MakeDatasetCached("iris", 40, 4, &stats);
  EXPECT_FALSE(stats.cache_hit || other.num_rows() != 40u);
  unsetenv("HYFD_TABLE_CACHE_DIR");
}

}  // namespace
}  // namespace hyfd
