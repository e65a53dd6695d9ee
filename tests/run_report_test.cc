#include "util/run_report.h"

#include <optional>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "baselines/registry.h"
#include "core/hyfd.h"
#include "core/hyucc.h"
#include "core/incremental.h"
#include "data/datasets.h"
#include "util/metrics.h"

namespace hyfd {
namespace {

/// A report with every field populated with a non-default value, so a lossy
/// serializer or parser cannot hide behind defaults.
RunReport FullyPopulatedReport() {
  RunReport report;
  report.algorithm = "hyfd";
  report.dataset = "ncvoter \"quoted\"\n\ttabbed";  // exercises escaping
  report.rows = 123456;
  report.columns = 19;
  report.result_kind = "fds";
  report.result_count = 758;
  report.total_seconds = 1.2500000000000071;  // needs %.17g to survive
  report.MarkIncomplete("memory guardian pruned FDs with LHS size > 3");
  report.MarkIncomplete("deadline of 10s exceeded");
  report.pli_cache_hits = 10;
  report.pli_cache_misses = 4;
  report.pli_cache_evictions = 1;
  report.peak_memory_bytes = 1 << 20;
  report.memory_components = {{"fd_tree", 2048}, {"plis", 65536}};
  report.AddPhase("preprocess", 0.01);
  report.AddPhase("sampling", 0.25);
  report.AddPhase("validation", 0.99);
  report.SetCounter("guardian.pruned_lhs_cap", 3);
  report.SetCounter("hyfd.comparisons", 1234567);
  report.SetCounter("sampler.windows", 42);
  return report;
}

TEST(RunReportTest, RoundTripEqualsOriginal) {
  RunReport original = FullyPopulatedReport();
  std::string json = original.ToJson();
  std::string error;
  auto parsed = RunReport::FromJson(json, &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  EXPECT_EQ(*parsed, original);
  // Second generation must be byte-identical (stable serialization).
  EXPECT_EQ(parsed->ToJson(), json);
}

TEST(RunReportTest, DefaultReportRoundTrips) {
  RunReport original;  // all defaults, empty collections
  auto parsed = RunReport::FromJson(original.ToJson());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(*parsed, original);
  EXPECT_TRUE(RunReport::ValidateJsonSchema(original.ToJson()).empty());
}

TEST(RunReportTest, EmittedJsonIsSchemaValid) {
  EXPECT_TRUE(
      RunReport::ValidateJsonSchema(FullyPopulatedReport().ToJson()).empty());
}

TEST(RunReportTest, MarkIncompleteFlipsCompleteAndRecordsReason) {
  RunReport report;
  EXPECT_TRUE(report.complete);
  report.MarkIncomplete("deadline exceeded");
  EXPECT_FALSE(report.complete);
  ASSERT_EQ(report.degradation_reasons.size(), 1u);
  EXPECT_EQ(report.degradation_reasons[0], "deadline exceeded");
}

TEST(RunReportTest, SetCounterUpsertsSorted) {
  RunReport report;
  report.SetCounter("b", 2);
  report.SetCounter("a", 1);
  report.SetCounter("c", 3);
  report.SetCounter("b", 20);  // upsert, no duplicate
  ASSERT_EQ(report.counters.size(), 3u);
  EXPECT_EQ(report.counters[0].first, "a");
  EXPECT_EQ(report.counters[1].first, "b");
  EXPECT_EQ(report.counters[1].second, 20u);
  EXPECT_EQ(report.counters[2].first, "c");
  EXPECT_EQ(report.FindCounter("b"), 20u);
  EXPECT_FALSE(report.FindCounter("missing").has_value());
}

TEST(RunReportTest, MergeMetricsUpserts) {
  MetricsRegistry metrics;
  metrics.Add("sampler.windows", 7);
  metrics.Add("validator.levels", 3);
  RunReport report;
  report.SetCounter("sampler.windows", 1);  // stale; merge must overwrite
  report.MergeMetrics(metrics);
  EXPECT_EQ(report.FindCounter("sampler.windows"), 7u);
  EXPECT_EQ(report.FindCounter("validator.levels"), 3u);
}

TEST(RunReportTest, ScopedPhaseAppendsSpanAndIsNullSafe) {
  RunReport report;
  { ScopedPhase phase(&report, "work"); }
  ASSERT_EQ(report.phases.size(), 1u);
  EXPECT_EQ(report.phases[0].name, "work");
  EXPECT_GE(report.phases[0].seconds, 0.0);
  { ScopedPhase phase(nullptr, "nowhere"); }  // must not crash
}

TEST(RunReportTest, RepeatedPhaseAccumulatesIntoItsFirstSpan) {
  RunReport report;
  report.AddPhase("sampling", 0.25);
  report.AddPhase("validation", 1.0);
  report.AddPhase("sampling", 0.5);
  ASSERT_EQ(report.phases.size(), 2u);
  EXPECT_EQ(report.phases[0], (PhaseSpan{"sampling", 0.75}));
  EXPECT_EQ(report.phases[1], (PhaseSpan{"validation", 1.0}));
  EXPECT_EQ(report.PhaseSeconds("sampling"), 0.75);
  EXPECT_EQ(report.PhaseSeconds("absent"), 0.0);
}

TEST(RunReportTest, SetMemoryTakesPeakAndSortedNonZeroComponents) {
  MemoryTracker tracker;
  tracker.SetComponent(MemoryTracker::kPlis, 300);
  tracker.SetComponent(MemoryTracker::kFdTree, 200);
  tracker.SetComponent(MemoryTracker::kFdTree, 100);
  RunReport report;
  report.memory_components = {{"stale", 1}};
  report.SetMemory(tracker);
  EXPECT_EQ(report.peak_memory_bytes, tracker.peak_bytes());
  EXPECT_EQ(report.peak_memory_bytes, 500u);
  const std::vector<std::pair<std::string, size_t>> want = {
      {MemoryTracker::ComponentName(MemoryTracker::kFdTree), 100},
      {MemoryTracker::ComponentName(MemoryTracker::kPlis), 300}};
  EXPECT_EQ(report.memory_components, want);
}

TEST(RunReportValidateTest, RejectsMalformedJson) {
  EXPECT_FALSE(RunReport::ValidateJsonSchema("{ not json").empty());
  EXPECT_FALSE(RunReport::ValidateJsonSchema("").empty());
  std::string error;
  EXPECT_FALSE(RunReport::FromJson("[1, 2", &error).has_value());
  EXPECT_FALSE(error.empty());
}

TEST(RunReportValidateTest, RejectsNonObjectDocument) {
  EXPECT_FALSE(RunReport::ValidateJsonSchema("[]").empty());
  EXPECT_FALSE(RunReport::ValidateJsonSchema("42").empty());
}

/// Removes the first occurrence of `field` ("\"name\": value,") from a
/// serialized report by splicing the document text.
std::string DropField(std::string json, const std::string& field) {
  std::string needle = "\"" + field + "\":";
  size_t start = json.find(needle);
  EXPECT_NE(start, std::string::npos) << field;
  size_t end = json.find('\n', start);
  EXPECT_NE(end, std::string::npos) << field;
  json.erase(start, end - start + 1);
  return json;
}

TEST(RunReportValidateTest, ReportsEveryMissingRequiredField) {
  std::string json = FullyPopulatedReport().ToJson();
  for (const char* field :
       {"schema_version", "algorithm", "dataset", "rows", "columns",
        "result_kind", "result_count", "total_seconds", "complete",
        "degradation_reasons", "pli_cache", "memory", "phases", "counters"}) {
    auto problems = RunReport::ValidateJsonSchema(DropField(json, field));
    EXPECT_FALSE(problems.empty()) << "dropping " << field << " not detected";
  }
}

TEST(RunReportValidateTest, ReportsMissingNestedField) {
  std::string json = FullyPopulatedReport().ToJson();
  for (const char* field :
       {"hits", "misses", "evictions", "peak_bytes", "components"}) {
    auto problems = RunReport::ValidateJsonSchema(DropField(json, field));
    EXPECT_FALSE(problems.empty()) << "dropping " << field << " not detected";
  }
}

TEST(RunReportValidateTest, RejectsWrongFieldType) {
  std::string json = FullyPopulatedReport().ToJson();
  size_t pos = json.find("\"rows\": ");
  ASSERT_NE(pos, std::string::npos);
  size_t end = json.find(',', pos);
  json.replace(pos, end - pos, "\"rows\": \"many\"");
  auto problems = RunReport::ValidateJsonSchema(json);
  EXPECT_FALSE(problems.empty());
  EXPECT_FALSE(RunReport::FromJson(json).has_value());
}

TEST(RunReportValidateTest, RejectsWrongSchemaVersion) {
  std::string json = FullyPopulatedReport().ToJson();
  size_t pos = json.find("\"schema_version\": 3");
  ASSERT_NE(pos, std::string::npos);
  json.replace(pos, std::string("\"schema_version\": 3").size(),
               "\"schema_version\": 4");
  EXPECT_FALSE(RunReport::ValidateJsonSchema(json).empty());
  EXPECT_FALSE(RunReport::FromJson(json).has_value());
}

TEST(RunReportValidateTest, RefusesAVersionOneDocumentByItsVersion) {
  // Version 1 carried pli_cache.external_rejected and rejection_reason. A v1
  // document holds every v3 field, so its version is what refuses it.
  std::string json = FullyPopulatedReport().ToJson();
  const std::string v3 = "\"schema_version\": 3";
  json.replace(json.find(v3), v3.size(), "\"schema_version\": 1");
  const std::string hits = "\"hits\":";
  json.insert(json.find(hits),
              "\"external_rejected\": false,\n    "
              "\"rejection_reason\": \"\",\n    ");
  ASSERT_TRUE(ParseJson(json).has_value()) << json;
  std::vector<std::string> problems = RunReport::ValidateJsonSchema(json);
  ASSERT_EQ(problems.size(), 1u);
  EXPECT_EQ(problems.front(), "unsupported schema_version 1");
  std::string error;
  EXPECT_FALSE(RunReport::FromJson(json, &error).has_value());
  EXPECT_EQ(error, "unsupported schema_version 1");
}

TEST(RunReportValidateTest, RefusesAVersionTwoDocumentByItsVersion) {
  // Version 2 carried the guardian object, whose values are guardian.*
  // counters since version 3. A v2 document holds every v3 field, so its
  // version is what refuses it.
  std::string json = FullyPopulatedReport().ToJson();
  const std::string v3 = "\"schema_version\": 3";
  json.replace(json.find(v3), v3.size(), "\"schema_version\": 2");
  const std::string pli_cache = "  \"pli_cache\":";
  json.insert(json.find(pli_cache),
              "  \"guardian\": {\n    \"pruned_lhs_cap\": 3,\n"
              "    \"prunes\": 2,\n    \"give_ups\": 1,\n"
              "    \"overrun_bytes\": 4096\n  },\n");
  ASSERT_TRUE(ParseJson(json).has_value()) << json;
  std::vector<std::string> problems = RunReport::ValidateJsonSchema(json);
  ASSERT_EQ(problems.size(), 1u);
  EXPECT_EQ(problems.front(), "unsupported schema_version 2");
  std::string error;
  EXPECT_FALSE(RunReport::FromJson(json, &error).has_value());
  EXPECT_EQ(error, "unsupported schema_version 2");
}

TEST(JsonParserTest, ParsesEscapesAndStructure) {
  auto v = ParseJson(R"({"a": [1, -2.5e3, true, null], "b": "x\n\"y\"\t"})");
  ASSERT_TRUE(v.has_value());
  ASSERT_TRUE(v->IsObject());
  const JsonValue* a = v->Find("a");
  ASSERT_NE(a, nullptr);
  ASSERT_TRUE(a->IsArray());
  ASSERT_EQ(a->array.size(), 4u);
  EXPECT_EQ(a->array[0].number, 1);
  EXPECT_EQ(a->array[1].number, -2500);
  EXPECT_TRUE(a->array[2].boolean);
  EXPECT_EQ(a->array[3].kind, JsonValue::Kind::kNull);
  const JsonValue* b = v->Find("b");
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(b->string, "x\n\"y\"\t");
  EXPECT_EQ(v->Find("missing"), nullptr);
}

TEST(JsonParserTest, RejectsTrailingGarbage) {
  EXPECT_FALSE(ParseJson("{} extra").has_value());
  EXPECT_FALSE(ParseJson("{\"a\": 1,}").has_value());
}

TEST(JsonQuoteTest, EscapesControlCharacters) {
  EXPECT_EQ(JsonQuote("plain"), "\"plain\"");
  EXPECT_EQ(JsonQuote("a\"b\\c"), "\"a\\\"b\\\\c\"");
  EXPECT_EQ(JsonQuote(std::string("\x01", 1)), "\"\\u0001\"");
}

TEST(JsonParserTest, ParsesUnicodeEscapes) {
  // BMP code points: ASCII, 2-byte, and 3-byte UTF-8.
  auto v = ParseJson(R"({"s": "\u0041\u00e9\u20ac"})");
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(v->Find("s")->string, "A\xC3\xA9\xE2\x82\xAC");  // A é €
  // Control characters, exactly as JsonQuote writes them.
  v = ParseJson(R"({"s": "\u0001\u001f"})");
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(v->Find("s")->string, std::string("\x01\x1f", 2));
  // A surrogate pair combines into one astral code point (U+1F600).
  v = ParseJson(R"({"s": "\ud83d\ude00"})");
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(v->Find("s")->string, "\xF0\x9F\x98\x80");
  // Uppercase hex digits are legal.
  v = ParseJson(R"({"s": "\u00E9"})");
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(v->Find("s")->string, "\xC3\xA9");
}

TEST(JsonParserTest, RejectsBrokenUnicodeEscapes) {
  std::string error;
  // Unpaired high surrogate (end of string, non-escape follower, and a
  // following non-surrogate escape).
  EXPECT_FALSE(ParseJson(R"({"s": "\ud83d"})", &error).has_value());
  EXPECT_FALSE(ParseJson(R"({"s": "\ud83dx"})").has_value());
  EXPECT_FALSE(ParseJson(R"({"s": "\ud83d\u0041"})").has_value());
  // A lone low surrogate.
  EXPECT_FALSE(ParseJson(R"({"s": "\ude00"})").has_value());
  // Malformed hex.
  EXPECT_FALSE(ParseJson(R"({"s": "\u00g1"})").has_value());
  EXPECT_FALSE(ParseJson(R"({"s": "\u00"})").has_value());
}

TEST(RunReportTest, ControlCharactersRoundTripThroughEveryStringField) {
  // The writer escapes control characters as \u00XX; the parser must bring
  // them back byte-identical in every string-valued field of the schema.
  const std::string hostile = std::string("ctl:\x01\x02\x1f", 7) + "\ttail";
  RunReport report;
  report.algorithm = "hyfd" + hostile;
  report.dataset = "data" + hostile;
  report.result_kind = "fds" + hostile;
  report.MarkIncomplete("reason" + hostile);
  report.MarkIncomplete("why" + hostile);
  report.memory_components = {{"comp" + hostile, 17}};
  report.AddPhase("phase" + hostile, 0.5);
  report.SetCounter("counter" + hostile, 3);

  std::string error;
  auto parsed = RunReport::FromJson(report.ToJson(), &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  EXPECT_EQ(parsed->algorithm, report.algorithm);
  EXPECT_EQ(parsed->dataset, report.dataset);
  EXPECT_EQ(parsed->result_kind, report.result_kind);
  ASSERT_EQ(parsed->degradation_reasons.size(), 2u);
  EXPECT_EQ(parsed->degradation_reasons[0], "reason" + hostile);
  EXPECT_EQ(parsed->degradation_reasons[1], "why" + hostile);
  ASSERT_EQ(parsed->memory_components.size(), 1u);
  EXPECT_EQ(parsed->memory_components[0].first, "comp" + hostile);
  ASSERT_EQ(parsed->phases.size(), 1u);
  EXPECT_EQ(parsed->phases[0].name, "phase" + hostile);
  ASSERT_EQ(parsed->counters.size(), 1u);
  EXPECT_EQ(parsed->counters[0].first, "counter" + hostile);
  // And the whole document survives a second trip bit-identically.
  EXPECT_EQ(parsed->ToJson(), report.ToJson());
}

// Every algorithm in the registry, plus HyUCC, must emit a schema-valid
// report with non-empty phase timings — the PR's acceptance gate, enforced
// here in tier-1 (CI's bench_report_smoke covers the same ground on a
// bigger input).
TEST(RunReportSweepTest, EveryRegistryAlgorithmEmitsValidReport) {
  Relation relation = MakeDataset("iris", 100, 5);
  for (const AlgoInfo& algo : AllAlgorithms()) {
    RunReport report;
    report.dataset = "iris";
    AlgoOptions options;
    options.run_report = &report;
    FDSet fds = algo.run(relation, options);
    EXPECT_TRUE(RunReport::ValidateJsonSchema(report.ToJson()).empty())
        << algo.name;
    EXPECT_EQ(report.algorithm, algo.name);
    EXPECT_EQ(report.dataset, "iris") << algo.name;
    EXPECT_EQ(report.rows, relation.num_rows()) << algo.name;
    EXPECT_EQ(report.columns, static_cast<int>(relation.num_columns()))
        << algo.name;
    EXPECT_EQ(report.result_kind, "fds") << algo.name;
    EXPECT_EQ(report.result_count, fds.size()) << algo.name;
    EXPECT_FALSE(report.phases.empty()) << algo.name;
    EXPECT_TRUE(report.complete) << algo.name;
    auto parsed = RunReport::FromJson(report.ToJson());
    ASSERT_TRUE(parsed.has_value()) << algo.name;
    EXPECT_EQ(*parsed, report) << algo.name;
  }
}

TEST(RunReportSweepTest, HyUccEmitsValidReport) {
  Relation relation = MakeDataset("iris", 100, 5);
  HyUcc algo;
  auto uccs = algo.Discover(relation);
  const RunReport& report = algo.report();
  EXPECT_TRUE(RunReport::ValidateJsonSchema(report.ToJson()).empty());
  EXPECT_EQ(report.algorithm, "hyucc");
  EXPECT_EQ(report.columns, relation.num_columns());
  EXPECT_EQ(report.result_kind, "uccs");
  EXPECT_EQ(report.result_count, uccs.size());
  EXPECT_FALSE(report.phases.empty());
  EXPECT_TRUE(report.complete);
}

/// The hybrid loop's phases are reported separately — induction is no longer
/// folded into sampling — and, as disjoint spans of one run, they sum to at
/// most its wall time.
void ExpectHybridPhases(const RunReport& report, const std::string& label) {
  std::set<std::string> names;
  double sum = 0;
  for (const PhaseSpan& phase : report.phases) {
    names.insert(phase.name);
    sum += phase.seconds;
  }
  for (const char* name :
       {"preprocess", "sampling", "induction", "validation"}) {
    EXPECT_EQ(names.count(name), 1u) << label << ": no phase " << name;
  }
  // 1 ns of slack for the rounding of separately converted durations.
  EXPECT_LE(sum, report.total_seconds + 1e-9) << label;
  EXPECT_TRUE(RunReport::ValidateJsonSchema(report.ToJson()).empty()) << label;
}

TEST(RunReportSweepTest, HybridReportsSplitInductionFromSampling) {
  Relation relation = MakeDataset("abalone", 600, 8);

  HyFd hyfd;
  hyfd.Discover(relation);
  ExpectHybridPhases(hyfd.report(), "hyfd");
  EXPECT_GT(hyfd.report().PhaseSeconds("induction"), 0.0);

  HyUcc hyucc;
  hyucc.Discover(relation);
  ExpectHybridPhases(hyucc.report(), "hyucc");

  IncrementalHyFd session(relation);
  ExpectHybridPhases(session.report(), "incremental seed");
  std::vector<std::optional<std::string>> row;
  for (int c = 0; c < relation.num_columns(); ++c) row.emplace_back("new");
  session.ApplyMixed({row}, {0, 1}, {{2, row}});
  ExpectHybridPhases(session.report(), "incremental mixed batch");
}

}  // namespace
}  // namespace hyfd
