// Smoke test for the run-report layer, run in CI's default job: every
// discoverer in the registry plus HyUCC runs on a small dataset and must
// emit a schema-valid run report with non-empty phase timings. One extra
// HyFD run under a 1-byte memory budget checks that a guardian-pruned
// (truncated) result is machine-detectable as incomplete — the silent
// truncation this observability layer exists to prevent. One incremental
// session, seeded on half the relation, applies a mixed batch (inserts,
// deletes, an update); its report must be schema-valid and show no PLI-cache
// activity, since a session keeps no cache.
//
// Writes one REPORT_<algo>.json per run into --outdir (default ".") so CI
// can archive them; exits non-zero on any schema violation or missing
// degradation flag.
//
// Flags: --rows=N (default 300), --cols=N (default 8), --outdir=DIR.

#include <cstdio>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "core/hyfd.h"
#include "core/hyucc.h"
#include "core/incremental.h"
#include "data/datasets.h"
#include "data/generators.h"
#include "util/memory_tracker.h"

namespace {

using namespace hyfd;

/// Validates one emitted report; prints problems; returns false on any.
bool CheckReport(const RunReport& report, const char* label) {
  bool ok = true;
  std::string json = report.ToJson();
  for (const std::string& problem : RunReport::ValidateJsonSchema(json)) {
    std::fprintf(stderr, "FAIL %s: schema: %s\n", label, problem.c_str());
    ok = false;
  }
  if (report.phases.empty()) {
    std::fprintf(stderr, "FAIL %s: no phase timings recorded\n", label);
    ok = false;
  }
  if (report.algorithm.empty()) {
    std::fprintf(stderr, "FAIL %s: empty algorithm name\n", label);
    ok = false;
  }
  // Round-trip: the serialized document must parse back into an equal report
  // (this is what downstream tooling relies on).
  std::string error;
  auto parsed = RunReport::FromJson(json, &error);
  if (!parsed.has_value()) {
    std::fprintf(stderr, "FAIL %s: FromJson: %s\n", label, error.c_str());
    ok = false;
  } else if (!(*parsed == report)) {
    std::fprintf(stderr, "FAIL %s: JSON round-trip is lossy\n", label);
    ok = false;
  }
  return ok;
}

std::vector<std::optional<std::string>> RowOf(const Relation& r, size_t row) {
  std::vector<std::optional<std::string>> out;
  for (int c = 0; c < r.num_columns(); ++c) {
    if (r.IsNull(row, c)) {
      out.emplace_back(std::nullopt);
    } else {
      out.emplace_back(r.Value(row, c));
    }
  }
  return out;
}

bool WriteReport(const RunReport& report, const std::string& path) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "FAIL: cannot write %s\n", path.c_str());
    return false;
  }
  std::string json = report.ToJson();
  std::fwrite(json.data(), 1, json.size(), f);
  std::fputc('\n', f);
  std::fclose(f);
  std::printf("wrote %s\n", path.c_str());
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace hyfd::bench;
  Flags flags(argc, argv);
  size_t rows = static_cast<size_t>(flags.GetInt("rows", 300));
  int cols = static_cast<int>(flags.GetInt("cols", 8));
  std::string outdir = flags.GetString("outdir", ".");

  Relation relation = MakeDataset("bridges", rows, cols);
  bool ok = true;

  // Every registry algorithm (including hyfd) through the harness path.
  for (const AlgoInfo& algo : AllAlgorithms()) {
    MemoryTracker tracker;
    RunResult r;
    AlgoOptions options;
    options.deadline_seconds = 60;
    options.memory_tracker = &tracker;
    r.report.dataset = "bridges";
    options.run_report = &r.report;
    try {
      FDSet fds = algo.run(relation, options);
      r.status = RunResult::kOk;
      r.num_fds = fds.size();
    } catch (const TimeoutError&) {
      r.status = RunResult::kTimeLimit;
      r.report.MarkIncomplete("deadline exceeded");
    }
    ok = CheckReport(r.report, algo.name.c_str()) && ok;
    if (r.status == RunResult::kOk && !r.report.complete) {
      std::fprintf(stderr, "FAIL %s: unlimited run reported incomplete\n",
                   algo.name.c_str());
      ok = false;
    }
    ok = WriteReport(r.report, outdir + "/REPORT_" + algo.name + ".json") && ok;
  }

  // HyUCC (not in the FD registry, same report schema).
  {
    HyUcc algo;
    algo.Discover(relation);
    RunReport report = algo.report();
    report.dataset = "bridges";
    ok = CheckReport(report, "hyucc") && ok;
    ok = WriteReport(report, outdir + "/REPORT_hyucc.json") && ok;
  }

  // Incremental session: seed on the first half, then one mixed batch of ten
  // inserts from the second half, two deletes and one update.
  {
    const size_t half = relation.num_rows() / 2;
    IncrementalHyFd session(relation.HeadRows(half));
    std::vector<std::vector<std::optional<std::string>>> inserts;
    for (size_t row = half; row < half + 10 && row < relation.num_rows();
         ++row) {
      inserts.push_back(RowOf(relation, row));
    }
    const std::vector<RecordId> deletes = {0, 1};
    const std::vector<
        std::pair<RecordId, std::vector<std::optional<std::string>>>>
        updates = {{2, RowOf(relation, relation.num_rows() - 1)}};
    session.ApplyMixed(inserts, deletes, updates);
    RunReport report = session.report();
    report.dataset = "bridges";
    ok = CheckReport(report, "hyfd_incremental") && ok;
    if (report.pli_cache_hits != 0 || report.pli_cache_misses != 0 ||
        report.pli_cache_evictions != 0) {
      std::fprintf(stderr,
                   "FAIL hyfd_incremental: PLI-cache activity in a session "
                   "(hits %zu, misses %zu, evictions %zu)\n",
                   report.pli_cache_hits, report.pli_cache_misses,
                   report.pli_cache_evictions);
      ok = false;
    }
    for (const auto& [name, value] : report.counters) {
      if (name == "incremental.cache_stale_drops") {
        std::fprintf(stderr, "FAIL hyfd_incremental: counter %s present\n",
                     name.c_str());
        ok = false;
      }
    }
    ok = WriteReport(report, outdir + "/REPORT_incremental.json") && ok;
  }

  // Guardian-pruned run: a 1-byte budget forces pruning on FD-reduced data;
  // the report MUST say the result is incomplete and name the cap.
  {
    Relation dense = GenerateFdReduced(150, 8, 4, /*seed=*/19);
    HyFdConfig config;
    config.memory_limit_bytes = 1;
    HyFd algo(config);
    algo.Discover(dense);
    RunReport report = algo.report();
    report.dataset = "fd-reduced (generated)";
    ok = CheckReport(report, "hyfd-pruned") && ok;
    if (report.complete) {
      std::fprintf(stderr,
                   "FAIL hyfd-pruned: guardian pruned but complete=true — "
                   "silent truncation\n");
      ok = false;
    }
    if (report.degradation_reasons.empty()) {
      std::fprintf(stderr, "FAIL hyfd-pruned: no degradation reason\n");
      ok = false;
    }
    const uint64_t cap =
        report.FindCounter("guardian.pruned_lhs_cap").value_or(0);
    if (cap < 1) {
      std::fprintf(stderr, "FAIL hyfd-pruned: guardian.pruned_lhs_cap = %zu\n",
                   static_cast<size_t>(cap));
      ok = false;
    }
    ok = WriteReport(report, outdir + "/REPORT_hyfd_pruned.json") && ok;
  }

  std::printf(ok ? "report smoke: all reports schema-valid\n"
                 : "report smoke: FAILURES (see stderr)\n");
  return ok ? 0 : 1;
}
