#ifndef HYFD_BENCH_BENCH_UTIL_H_
#define HYFD_BENCH_BENCH_UTIL_H_

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "baselines/registry.h"
#include "data/relation.h"
#include "fd/fd_set.h"
#include "util/run_report.h"
#include "util/timer.h"

namespace hyfd::bench {

/// Outcome of one timed discovery run.
struct RunResult {
  enum Status { kOk, kTimeLimit, kSkipped } status = kSkipped;
  double seconds = 0;
  size_t num_fds = 0;
  /// Structured run report filled by the algorithm (empty for kSkipped).
  /// A timed-out run keeps whatever the algorithm recorded before the
  /// deadline fired, marked incomplete.
  RunReport report;

  /// Paper-style cell: runtime in seconds, "TL", or "-" (skipped).
  std::string Cell() const {
    char buf[32];
    switch (status) {
      case kOk:
        if (seconds < 10) {
          std::snprintf(buf, sizeof(buf), "%.2f", seconds);
        } else {
          std::snprintf(buf, sizeof(buf), "%.1f", seconds);
        }
        return buf;
      case kTimeLimit:
        return "TL";
      case kSkipped:
        return "-";
    }
    return "-";
  }
};

/// Runs `algo` on `relation` under a cooperative time limit. `dataset`
/// labels the attached run report (empty is allowed).
inline RunResult RunTimed(const AlgoInfo& algo, const Relation& relation,
                          double time_limit_seconds,
                          const std::string& dataset = "") {
  RunResult result;
  AlgoOptions options;
  options.deadline_seconds = time_limit_seconds;
  result.report.dataset = dataset;
  options.run_report = &result.report;
  Timer timer;
  try {
    FDSet fds = algo.run(relation, options);
    result.status = RunResult::kOk;
    result.num_fds = fds.size();
  } catch (const TimeoutError&) {
    result.status = RunResult::kTimeLimit;
    result.report.MarkIncomplete("deadline of " +
                                 std::to_string(time_limit_seconds) +
                                 "s exceeded");
  }
  result.seconds = timer.ElapsedSeconds();
  if (result.status == RunResult::kTimeLimit) {
    // The algorithm never reached its own finalization.
    result.report.total_seconds = result.seconds;
  }
  return result;
}

/// Collects run reports and writes them as one `BENCH_*.json` document:
///
///   {"benchmark": "...", "schema_version": 3, "runs": [<RunReport>, ...]}
///
/// (the version is RunReport::kSchemaVersion).
///
/// Every run entry is re-validated against the report schema on write, so a
/// harness that emits a malformed report fails its job instead of archiving
/// garbage.
class ReportSink {
 public:
  explicit ReportSink(std::string benchmark) : benchmark_(std::move(benchmark)) {}

  void Add(const RunReport& report) { reports_.push_back(report); }
  size_t size() const { return reports_.size(); }

  /// Serializes to `path`; false on I/O failure or any schema violation
  /// (problems go to stderr).
  bool WriteJson(const std::string& path) const {
    bool ok = true;
    std::string doc = "{\n  \"benchmark\": " + JsonQuote(benchmark_) +
                      ",\n  \"schema_version\": " +
                      std::to_string(RunReport::kSchemaVersion) +
                      ",\n  \"runs\": [\n";
    for (size_t i = 0; i < reports_.size(); ++i) {
      std::string json = reports_[i].ToJson();
      for (const std::string& problem : RunReport::ValidateJsonSchema(json)) {
        std::fprintf(stderr, "%s: run %zu (%s): %s\n", benchmark_.c_str(), i,
                     reports_[i].algorithm.c_str(), problem.c_str());
        ok = false;
      }
      doc += "    " + json;
      doc += i + 1 < reports_.size() ? ",\n" : "\n";
    }
    doc += "  ]\n}\n";
    FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", path.c_str());
      return false;
    }
    std::fwrite(doc.data(), 1, doc.size(), f);
    std::fclose(f);
    std::printf("wrote %s (%zu run reports)\n", path.c_str(), reports_.size());
    return ok;
  }

 private:
  std::string benchmark_;
  std::vector<RunReport> reports_;
};

/// Tiny flag parser: --name=value, with defaults.
class Flags {
 public:
  Flags(int argc, char** argv) : argc_(argc), argv_(argv) {}

  double GetDouble(const char* name, double fallback) const {
    const char* v = Find(name);
    return v != nullptr ? std::atof(v) : fallback;
  }
  long GetInt(const char* name, long fallback) const {
    const char* v = Find(name);
    return v != nullptr ? std::atol(v) : fallback;
  }
  bool GetBool(const char* name) const {
    std::string plain = std::string("--") + name;
    for (int i = 1; i < argc_; ++i) {
      if (plain == argv_[i]) return true;
    }
    return Find(name) != nullptr;
  }
  std::string GetString(const char* name, const char* fallback) const {
    const char* v = Find(name);
    return v != nullptr ? v : fallback;
  }

 private:
  const char* Find(const char* name) const {
    std::string prefix = std::string("--") + name + "=";
    for (int i = 1; i < argc_; ++i) {
      if (std::strncmp(argv_[i], prefix.c_str(), prefix.size()) == 0) {
        return argv_[i] + prefix.size();
      }
    }
    return nullptr;
  }

  int argc_;
  char** argv_;
};

}  // namespace hyfd::bench

#endif  // HYFD_BENCH_BENCH_UTIL_H_
