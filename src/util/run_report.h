#ifndef HYFD_UTIL_RUN_REPORT_H_
#define HYFD_UTIL_RUN_REPORT_H_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/metrics.h"
#include "util/timer.h"

namespace hyfd {

// ---------------------------------------------------------------------------
// Minimal JSON value model + parser.
//
// The bench harness emits run reports as JSON and CI must be able to
// validate them without external dependencies, so the report layer carries
// its own small recursive-descent parser (objects, arrays, strings, numbers,
// booleans, null, and \uXXXX escapes including surrogate pairs — the writer
// escapes control characters as \u00XX, so the parser must round-trip them;
// unpaired surrogates are a parse error, not a crash).
// ---------------------------------------------------------------------------

struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kObject, kArray };

  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0;
  std::string string;
  std::vector<std::pair<std::string, JsonValue>> object;  ///< insertion order
  std::vector<JsonValue> array;

  /// Object member lookup; nullptr when absent or not an object.
  const JsonValue* Find(std::string_view key) const;

  bool IsNumber() const { return kind == Kind::kNumber; }
  bool IsString() const { return kind == Kind::kString; }
  bool IsBool() const { return kind == Kind::kBool; }
  bool IsObject() const { return kind == Kind::kObject; }
  bool IsArray() const { return kind == Kind::kArray; }
};

/// Parses one JSON document (trailing whitespace allowed, nothing else).
/// Returns nullopt and fills `error` (if given) on malformed input.
std::optional<JsonValue> ParseJson(std::string_view text, std::string* error = nullptr);

/// Serializes a string with JSON escaping (quotes included).
std::string JsonQuote(std::string_view s);

// ---------------------------------------------------------------------------
// RunReport
// ---------------------------------------------------------------------------

/// One timed phase of a discovery run (the paper's per-phase breakdowns:
/// Tables 1–3 and Figures 6–9 are all built from spans like these).
struct PhaseSpan {
  std::string name;
  double seconds = 0;

  bool operator==(const PhaseSpan&) const = default;
};

/// Structured, serializable description of one discovery run.
///
/// Every discoverer in the registry (the eight baselines, HyFD, HyUCC) fills
/// one of these, so runs are comparable across algorithms and across
/// commits. The report is also the degradation channel: a result that is not
/// the complete answer (memory-guardian pruning, a deadline expiry) is
/// machine-detectable via `complete` + `degradation_reasons` instead of
/// silently looking like a smaller FD set.
///
/// JSON schema (version 1) — all fields below are REQUIRED in the emitted
/// document; `ValidateJsonSchema` enforces this and CI runs it on every
/// emitted report:
///
///   {
///     "schema_version": 2,
///     "algorithm": "hyfd",            // registry name, or "hyucc"
///     "dataset": "ncvoter",           // harness label, may be ""
///     "rows": 10000, "columns": 19,
///     "result_kind": "fds",           // "fds" | "uccs"
///     "result_count": 758,
///     "total_seconds": 1.25,
///     "complete": true,               // false => result is NOT the full answer
///     "degradation_reasons": ["..."], // why complete == false ([] otherwise)
///     "guardian": {
///       "pruned_lhs_cap": -1,         // -1 = never pruned
///       "prunes": 0,                  // times the guardian lowered the cap
///       "give_ups": 0,                // over-budget checks with cap already at 1
///       "overrun_bytes": 0            // max bytes over the limit at a give-up
///     },
///     "pli_cache": {                  // the run's own cache (0 without)
///       "hits": 0, "misses": 0, "evictions": 0
///     },
///     "memory": {
///       "peak_bytes": 0,              // tracker watermark (0 = untracked)
///       "components": {"plis": 0, ...}
///     },
///     "phases": [{"name": "preprocess", "seconds": 0.01}, ...],
///     "counters": {"sampler.windows": 12, ...}   // MetricsRegistry export
///   }
struct RunReport {
  /// 2: `pli_cache.external_rejected` and `pli_cache.rejection_reason`
  /// removed (HyFD no longer takes an external cache).
  static constexpr int kSchemaVersion = 2;

  std::string algorithm;
  std::string dataset;
  size_t rows = 0;
  int columns = 0;
  std::string result_kind = "fds";
  size_t result_count = 0;
  double total_seconds = 0;

  bool complete = true;
  std::vector<std::string> degradation_reasons;

  int pruned_lhs_cap = -1;
  int guardian_prunes = 0;
  int guardian_give_ups = 0;
  size_t guardian_overrun_bytes = 0;

  size_t pli_cache_hits = 0;
  size_t pli_cache_misses = 0;
  size_t pli_cache_evictions = 0;

  size_t peak_memory_bytes = 0;
  std::vector<std::pair<std::string, size_t>> memory_components;  ///< sorted

  std::vector<PhaseSpan> phases;
  std::vector<std::pair<std::string, uint64_t>> counters;  ///< sorted by name

  /// Appends a phase span (phases keep emission order, not sorted).
  void AddPhase(std::string name, double seconds);
  /// Upserts a counter, keeping `counters` sorted by name.
  void SetCounter(std::string_view name, uint64_t value);
  /// Counter lookup; nullopt when absent.
  std::optional<uint64_t> FindCounter(std::string_view name) const;
  /// Records why the result is not the complete answer; sets complete=false.
  void MarkIncomplete(std::string reason);
  /// Folds a registry export into `counters` (upsert per name).
  void MergeMetrics(const MetricsRegistry& metrics);

  std::string ToJson() const;

  /// Parses and schema-validates a serialized report. Returns nullopt and
  /// fills `error` (if given) on malformed JSON or schema violations.
  static std::optional<RunReport> FromJson(std::string_view json,
                                           std::string* error = nullptr);

  /// Validates arbitrary JSON text against the report schema. Returns one
  /// human-readable problem per missing / mistyped field; empty == valid.
  static std::vector<std::string> ValidateJsonSchema(std::string_view json);

  bool operator==(const RunReport&) const = default;
};

/// Null-safe RAII phase recorder: appends a PhaseSpan with the elapsed wall
/// time on destruction. Usable around any block of a discoverer:
///
///   { ScopedPhase phase(report, "build_plis"); ... }
class ScopedPhase {
 public:
  ScopedPhase(RunReport* report, std::string name)
      : report_(report), name_(std::move(name)) {}
  ScopedPhase(const ScopedPhase&) = delete;
  ScopedPhase& operator=(const ScopedPhase&) = delete;
  ~ScopedPhase() {
    if (report_ != nullptr) report_->AddPhase(std::move(name_), timer_.ElapsedSeconds());
  }

 private:
  RunReport* report_;
  std::string name_;
  Timer timer_;
};

}  // namespace hyfd

#endif  // HYFD_UTIL_RUN_REPORT_H_
