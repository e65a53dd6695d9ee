#ifndef HYFD_UTIL_RUN_REPORT_H_
#define HYFD_UTIL_RUN_REPORT_H_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/memory_tracker.h"
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
/// JSON schema (version 3) — all fields below are REQUIRED in the emitted
/// document; `ValidateJsonSchema` enforces this and CI runs it on every
/// emitted report:
///
///   {
///     "schema_version": 3,
///     "algorithm": "hyfd",            // registry name, or "hyucc"
///     "dataset": "ncvoter",           // harness label, may be ""
///     "rows": 10000, "columns": 19,
///     "result_kind": "fds",           // "fds" | "uccs"
///     "result_count": 758,
///     "total_seconds": 1.25,
///     "complete": true,               // false => result is NOT the full answer
///     "degradation_reasons": ["..."], // why complete == false ([] otherwise)
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
///
/// A HyFD run's memory guardian reports through counters:
/// `guardian.pruned_lhs_cap` (the final LHS cap, 0 = never pruned — the
/// guardian never caps below 1), `guardian.prunes` (times it lowered the
/// cap), `guardian.give_ups` (over-budget checks with the cap already at 1),
/// `guardian.overrun_bytes` (max bytes over the limit at a give-up) and
/// `guardian.reason_code` (GuardianReason).
struct RunReport {
  /// 2: `pli_cache.external_rejected` and `pli_cache.rejection_reason`
  /// removed (HyFD no longer takes an external cache). 3: the `guardian`
  /// object removed; its values are `guardian.*` counters.
  static constexpr int kSchemaVersion = 3;

  std::string algorithm;
  std::string dataset;
  size_t rows = 0;
  int columns = 0;
  std::string result_kind = "fds";
  size_t result_count = 0;
  double total_seconds = 0;

  bool complete = true;
  std::vector<std::string> degradation_reasons;

  size_t pli_cache_hits = 0;
  size_t pli_cache_misses = 0;
  size_t pli_cache_evictions = 0;

  size_t peak_memory_bytes = 0;
  std::vector<std::pair<std::string, size_t>> memory_components;  ///< sorted

  std::vector<PhaseSpan> phases;
  std::vector<std::pair<std::string, uint64_t>> counters;  ///< sorted by name

  /// Adds `seconds` to the span named `name`, appending the span on the
  /// name's first use (phases keep first-emission order, not sorted).
  void AddPhase(std::string name, double seconds);
  /// Seconds of the span named `name`; 0 when absent.
  double PhaseSeconds(std::string_view name) const;
  /// Upserts a counter, keeping `counters` sorted by name.
  void SetCounter(std::string_view name, uint64_t value);
  /// Counter lookup; nullopt when absent.
  std::optional<uint64_t> FindCounter(std::string_view name) const;
  /// Records why the result is not the complete answer; sets complete=false.
  void MarkIncomplete(std::string reason);
  /// Folds a registry export into `counters` (upsert per name).
  void MergeMetrics(const MetricsRegistry& metrics);
  /// Sets the memory section from `tracker`: its peak and the components
  /// holding bytes, sorted by name.
  void SetMemory(const MemoryTracker& tracker);

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

/// Null-safe RAII phase recorder: adds the elapsed wall time to the named
/// phase on destruction. Usable around any block of a discoverer:
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
