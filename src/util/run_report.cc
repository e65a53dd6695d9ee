#include "util/run_report.h"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <cstdlib>

namespace hyfd {

// ---------------------------------------------------------------------------
// JSON parsing
// ---------------------------------------------------------------------------

const JsonValue* JsonValue::Find(std::string_view key) const {
  if (kind != Kind::kObject) return nullptr;
  for (const auto& [name, value] : object) {
    if (name == key) return &value;
  }
  return nullptr;
}

namespace {

class JsonParser {
 public:
  explicit JsonParser(std::string_view text) : text_(text) {}

  std::optional<JsonValue> Parse(std::string* error) {
    JsonValue value;
    if (!ParseValue(&value)) {
      if (error != nullptr) *error = error_;
      return std::nullopt;
    }
    SkipWhitespace();
    if (pos_ != text_.size()) {
      if (error != nullptr) *error = Describe("trailing content after document");
      return std::nullopt;
    }
    return value;
  }

 private:
  bool Fail(const std::string& message) {
    if (error_.empty()) error_ = Describe(message);
    return false;
  }

  std::string Describe(const std::string& message) const {
    return "JSON error at offset " + std::to_string(pos_) + ": " + message;
  }

  void SkipWhitespace() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool Consume(char c) {
    SkipWhitespace();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool ParseValue(JsonValue* out) {
    SkipWhitespace();
    if (pos_ >= text_.size()) return Fail("unexpected end of input");
    switch (text_[pos_]) {
      case '{':
        return ParseObject(out);
      case '[':
        return ParseArray(out);
      case '"':
        out->kind = JsonValue::Kind::kString;
        return ParseString(&out->string);
      case 't':
      case 'f':
        return ParseLiteral(out);
      case 'n':
        if (text_.compare(pos_, 4, "null") == 0) {
          pos_ += 4;
          out->kind = JsonValue::Kind::kNull;
          return true;
        }
        return Fail("invalid literal");
      default:
        return ParseNumber(out);
    }
  }

  bool ParseLiteral(JsonValue* out) {
    if (text_.compare(pos_, 4, "true") == 0) {
      pos_ += 4;
      out->kind = JsonValue::Kind::kBool;
      out->boolean = true;
      return true;
    }
    if (text_.compare(pos_, 5, "false") == 0) {
      pos_ += 5;
      out->kind = JsonValue::Kind::kBool;
      out->boolean = false;
      return true;
    }
    return Fail("invalid literal");
  }

  bool ParseNumber(JsonValue* out) {
    size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) return Fail("expected a value");
    std::string token(text_.substr(start, pos_ - start));
    char* end = nullptr;
    double value = std::strtod(token.c_str(), &end);
    if (end == nullptr || *end != '\0') return Fail("malformed number");
    out->kind = JsonValue::Kind::kNumber;
    out->number = value;
    return true;
  }

  /// Reads exactly four hex digits at pos_ into `*cp`.
  bool ParseHex4(uint32_t* cp) {
    if (pos_ + 4 > text_.size()) return Fail("truncated \\u escape");
    uint32_t value = 0;
    for (int i = 0; i < 4; ++i) {
      const char h = text_[pos_++];
      value <<= 4;
      if (h >= '0' && h <= '9') {
        value |= static_cast<uint32_t>(h - '0');
      } else if (h >= 'a' && h <= 'f') {
        value |= static_cast<uint32_t>(h - 'a' + 10);
      } else if (h >= 'A' && h <= 'F') {
        value |= static_cast<uint32_t>(h - 'A' + 10);
      } else {
        return Fail("non-hex digit in \\u escape");
      }
    }
    *cp = value;
    return true;
  }

  static void AppendUtf8(uint32_t cp, std::string* out) {
    if (cp < 0x80) {
      out->push_back(static_cast<char>(cp));
    } else if (cp < 0x800) {
      out->push_back(static_cast<char>(0xC0 | (cp >> 6)));
      out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else if (cp < 0x10000) {
      out->push_back(static_cast<char>(0xE0 | (cp >> 12)));
      out->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else {
      out->push_back(static_cast<char>(0xF0 | (cp >> 18)));
      out->push_back(static_cast<char>(0x80 | ((cp >> 12) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    }
  }

  bool ParseString(std::string* out) {
    SkipWhitespace();
    if (pos_ >= text_.size() || text_[pos_] != '"') return Fail("expected string");
    ++pos_;
    out->clear();
    while (pos_ < text_.size()) {
      char c = text_[pos_++];
      if (c == '"') return true;
      if (c == '\\') {
        if (pos_ >= text_.size()) break;
        char esc = text_[pos_++];
        switch (esc) {
          case '"': out->push_back('"'); break;
          case '\\': out->push_back('\\'); break;
          case '/': out->push_back('/'); break;
          case 'b': out->push_back('\b'); break;
          case 'f': out->push_back('\f'); break;
          case 'n': out->push_back('\n'); break;
          case 'r': out->push_back('\r'); break;
          case 't': out->push_back('\t'); break;
          case 'u': {
            uint32_t cp = 0;
            if (!ParseHex4(&cp)) return false;
            if (cp >= 0xD800 && cp <= 0xDBFF) {
              // High surrogate: must be immediately followed by an escaped
              // low surrogate (this writer only ever emits BMP escapes, but
              // round-tripping arbitrary JSON needs the pair rule).
              if (pos_ + 1 >= text_.size() || text_[pos_] != '\\' ||
                  text_[pos_ + 1] != 'u') {
                return Fail("unpaired high surrogate in \\u escape");
              }
              pos_ += 2;
              uint32_t low = 0;
              if (!ParseHex4(&low)) return false;
              if (low < 0xDC00 || low > 0xDFFF) {
                return Fail("unpaired high surrogate in \\u escape");
              }
              cp = 0x10000 + ((cp - 0xD800) << 10) + (low - 0xDC00);
            } else if (cp >= 0xDC00 && cp <= 0xDFFF) {
              return Fail("unpaired low surrogate in \\u escape");
            }
            AppendUtf8(cp, out);
            break;
          }
          default:
            return Fail("unsupported escape sequence");
        }
      } else {
        out->push_back(c);
      }
    }
    return Fail("unterminated string");
  }

  bool ParseObject(JsonValue* out) {
    if (!Consume('{')) return Fail("expected '{'");
    out->kind = JsonValue::Kind::kObject;
    SkipWhitespace();
    if (Consume('}')) return true;
    while (true) {
      std::string key;
      if (!ParseString(&key)) return false;
      if (!Consume(':')) return Fail("expected ':' after object key");
      JsonValue value;
      if (!ParseValue(&value)) return false;
      out->object.emplace_back(std::move(key), std::move(value));
      if (Consume(',')) continue;
      if (Consume('}')) return true;
      return Fail("expected ',' or '}' in object");
    }
  }

  bool ParseArray(JsonValue* out) {
    if (!Consume('[')) return Fail("expected '['");
    out->kind = JsonValue::Kind::kArray;
    SkipWhitespace();
    if (Consume(']')) return true;
    while (true) {
      JsonValue value;
      if (!ParseValue(&value)) return false;
      out->array.push_back(std::move(value));
      if (Consume(',')) continue;
      if (Consume(']')) return true;
      return Fail("expected ',' or ']' in array");
    }
  }

  std::string_view text_;
  size_t pos_ = 0;
  std::string error_;
};

}  // namespace

std::optional<JsonValue> ParseJson(std::string_view text, std::string* error) {
  return JsonParser(text).Parse(error);
}

std::string JsonQuote(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 2);
  out.push_back('"');
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
  return out;
}

// ---------------------------------------------------------------------------
// RunReport
// ---------------------------------------------------------------------------

namespace {

/// %.17g guarantees double -> text -> the same double, so a serialized
/// report re-parses into a bit-identical struct (the round-trip tests rely
/// on this).
std::string DoubleToJson(double value) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

void AppendKeyValuePairs(
    std::string* out, const std::vector<std::pair<std::string, uint64_t>>& pairs,
    const char* indent) {
  for (size_t i = 0; i < pairs.size(); ++i) {
    *out += indent;
    *out += JsonQuote(pairs[i].first);
    *out += ": ";
    *out += std::to_string(pairs[i].second);
    if (i + 1 < pairs.size()) *out += ',';
    *out += '\n';
  }
}

}  // namespace

void RunReport::AddPhase(std::string name, double seconds) {
  for (PhaseSpan& phase : phases) {
    if (phase.name == name) {
      phase.seconds += seconds;
      return;
    }
  }
  phases.push_back(PhaseSpan{std::move(name), seconds});
}

double RunReport::PhaseSeconds(std::string_view name) const {
  for (const PhaseSpan& phase : phases) {
    if (phase.name == name) return phase.seconds;
  }
  return 0;
}

void RunReport::SetCounter(std::string_view name, uint64_t value) {
  auto it = std::lower_bound(
      counters.begin(), counters.end(), name,
      [](const auto& entry, std::string_view key) { return entry.first < key; });
  if (it != counters.end() && it->first == name) {
    it->second = value;
  } else {
    counters.emplace(it, std::string(name), value);
  }
}

std::optional<uint64_t> RunReport::FindCounter(std::string_view name) const {
  auto it = std::lower_bound(
      counters.begin(), counters.end(), name,
      [](const auto& entry, std::string_view key) { return entry.first < key; });
  if (it != counters.end() && it->first == name) return it->second;
  return std::nullopt;
}

void RunReport::MarkIncomplete(std::string reason) {
  complete = false;
  degradation_reasons.push_back(std::move(reason));
}

void RunReport::MergeMetrics(const MetricsRegistry& metrics) {
  for (const auto& [name, value] : metrics.Export()) SetCounter(name, value);
}

void RunReport::SetMemory(const MemoryTracker& tracker) {
  peak_memory_bytes = tracker.peak_bytes();
  memory_components.clear();
  for (int c = 0; c < MemoryTracker::kNumComponents; ++c) {
    const size_t bytes = tracker.component_bytes(c);
    if (bytes > 0) {
      memory_components.emplace_back(MemoryTracker::ComponentName(c), bytes);
    }
  }
  std::sort(memory_components.begin(), memory_components.end());
}

std::string RunReport::ToJson() const {
  std::string out;
  out.reserve(1024);
  out += "{\n";
  out += "  \"schema_version\": " + std::to_string(kSchemaVersion) + ",\n";
  out += "  \"algorithm\": " + JsonQuote(algorithm) + ",\n";
  out += "  \"dataset\": " + JsonQuote(dataset) + ",\n";
  out += "  \"rows\": " + std::to_string(rows) + ",\n";
  out += "  \"columns\": " + std::to_string(columns) + ",\n";
  out += "  \"result_kind\": " + JsonQuote(result_kind) + ",\n";
  out += "  \"result_count\": " + std::to_string(result_count) + ",\n";
  out += "  \"total_seconds\": " + DoubleToJson(total_seconds) + ",\n";
  out += std::string("  \"complete\": ") + (complete ? "true" : "false") + ",\n";
  out += "  \"degradation_reasons\": [";
  for (size_t i = 0; i < degradation_reasons.size(); ++i) {
    if (i > 0) out += ", ";
    out += JsonQuote(degradation_reasons[i]);
  }
  out += "],\n";
  out += "  \"pli_cache\": {\n";
  out += "    \"hits\": " + std::to_string(pli_cache_hits) + ",\n";
  out += "    \"misses\": " + std::to_string(pli_cache_misses) + ",\n";
  out += "    \"evictions\": " + std::to_string(pli_cache_evictions) + "\n";
  out += "  },\n";
  out += "  \"memory\": {\n";
  out += "    \"peak_bytes\": " + std::to_string(peak_memory_bytes) + ",\n";
  out += "    \"components\": {\n";
  {
    std::vector<std::pair<std::string, uint64_t>> pairs;
    pairs.reserve(memory_components.size());
    for (const auto& [name, bytes] : memory_components) pairs.emplace_back(name, bytes);
    AppendKeyValuePairs(&out, pairs, "      ");
  }
  out += "    }\n";
  out += "  },\n";
  out += "  \"phases\": [\n";
  for (size_t i = 0; i < phases.size(); ++i) {
    out += "    {\"name\": " + JsonQuote(phases[i].name) +
           ", \"seconds\": " + DoubleToJson(phases[i].seconds) + "}";
    if (i + 1 < phases.size()) out += ',';
    out += '\n';
  }
  out += "  ],\n";
  out += "  \"counters\": {\n";
  AppendKeyValuePairs(&out, counters, "    ");
  out += "  }\n";
  out += "}\n";
  return out;
}

namespace {

/// Schema description shared by ValidateJsonSchema and FromJson: one probe
/// per required field, each returning a problem string ("" = ok).
struct FieldCheck {
  const char* path;
  JsonValue::Kind kind;
};

const JsonValue* FindPath(const JsonValue& root, std::string_view path) {
  const JsonValue* node = &root;
  size_t start = 0;
  while (start <= path.size()) {
    size_t dot = path.find('.', start);
    std::string_view key =
        path.substr(start, dot == std::string_view::npos ? path.size() - start
                                                         : dot - start);
    node = node->Find(key);
    if (node == nullptr) return nullptr;
    if (dot == std::string_view::npos) break;
    start = dot + 1;
  }
  return node;
}

const char* KindName(JsonValue::Kind kind) {
  switch (kind) {
    case JsonValue::Kind::kNull: return "null";
    case JsonValue::Kind::kBool: return "bool";
    case JsonValue::Kind::kNumber: return "number";
    case JsonValue::Kind::kString: return "string";
    case JsonValue::Kind::kObject: return "object";
    case JsonValue::Kind::kArray: return "array";
  }
  return "?";
}

std::vector<std::string> ValidateParsed(const JsonValue& root) {
  std::vector<std::string> problems;
  if (!root.IsObject()) {
    problems.push_back("document root is not an object");
    return problems;
  }
  static const FieldCheck kRequired[] = {
      {"schema_version", JsonValue::Kind::kNumber},
      {"algorithm", JsonValue::Kind::kString},
      {"dataset", JsonValue::Kind::kString},
      {"rows", JsonValue::Kind::kNumber},
      {"columns", JsonValue::Kind::kNumber},
      {"result_kind", JsonValue::Kind::kString},
      {"result_count", JsonValue::Kind::kNumber},
      {"total_seconds", JsonValue::Kind::kNumber},
      {"complete", JsonValue::Kind::kBool},
      {"degradation_reasons", JsonValue::Kind::kArray},
      {"pli_cache", JsonValue::Kind::kObject},
      {"pli_cache.hits", JsonValue::Kind::kNumber},
      {"pli_cache.misses", JsonValue::Kind::kNumber},
      {"pli_cache.evictions", JsonValue::Kind::kNumber},
      {"memory", JsonValue::Kind::kObject},
      {"memory.peak_bytes", JsonValue::Kind::kNumber},
      {"memory.components", JsonValue::Kind::kObject},
      {"phases", JsonValue::Kind::kArray},
      {"counters", JsonValue::Kind::kObject},
  };
  // The version first: a document of another version is refused for that,
  // not for whichever field the versions disagree on.
  if (const JsonValue* version = FindPath(root, "schema_version");
      version != nullptr && version->IsNumber() &&
      static_cast<int>(version->number) != RunReport::kSchemaVersion) {
    problems.push_back("unsupported schema_version " +
                       std::to_string(static_cast<int>(version->number)));
  }
  for (const FieldCheck& check : kRequired) {
    const JsonValue* value = FindPath(root, check.path);
    if (value == nullptr) {
      problems.push_back(std::string("missing required field: ") + check.path);
    } else if (value->kind != check.kind) {
      problems.push_back(std::string("field ") + check.path + " must be " +
                         KindName(check.kind) + ", got " + KindName(value->kind));
    }
  }
  if (const JsonValue* phases = FindPath(root, "phases");
      phases != nullptr && phases->IsArray()) {
    for (size_t i = 0; i < phases->array.size(); ++i) {
      const JsonValue& span = phases->array[i];
      const JsonValue* name = span.Find("name");
      const JsonValue* seconds = span.Find("seconds");
      if (!span.IsObject() || name == nullptr || !name->IsString() ||
          seconds == nullptr || !seconds->IsNumber()) {
        problems.push_back("phases[" + std::to_string(i) +
                           "] must be {\"name\": string, \"seconds\": number}");
      }
    }
  }
  return problems;
}

}  // namespace

std::vector<std::string> RunReport::ValidateJsonSchema(std::string_view json) {
  std::string error;
  std::optional<JsonValue> root = ParseJson(json, &error);
  if (!root.has_value()) return {error};
  return ValidateParsed(*root);
}

std::optional<RunReport> RunReport::FromJson(std::string_view json,
                                             std::string* error) {
  std::string parse_error;
  std::optional<JsonValue> root = ParseJson(json, &parse_error);
  if (!root.has_value()) {
    if (error != nullptr) *error = parse_error;
    return std::nullopt;
  }
  std::vector<std::string> problems = ValidateParsed(*root);
  if (!problems.empty()) {
    if (error != nullptr) *error = problems.front();
    return std::nullopt;
  }

  RunReport report;
  auto num = [&](const char* path) { return FindPath(*root, path)->number; };
  auto str = [&](const char* path) { return FindPath(*root, path)->string; };
  report.algorithm = str("algorithm");
  report.dataset = str("dataset");
  report.rows = static_cast<size_t>(num("rows"));
  report.columns = static_cast<int>(num("columns"));
  report.result_kind = str("result_kind");
  report.result_count = static_cast<size_t>(num("result_count"));
  report.total_seconds = num("total_seconds");
  report.complete = FindPath(*root, "complete")->boolean;
  for (const JsonValue& reason : FindPath(*root, "degradation_reasons")->array) {
    if (!reason.IsString()) {
      if (error != nullptr) *error = "degradation_reasons entries must be strings";
      return std::nullopt;
    }
    report.degradation_reasons.push_back(reason.string);
  }
  report.pli_cache_hits = static_cast<size_t>(num("pli_cache.hits"));
  report.pli_cache_misses = static_cast<size_t>(num("pli_cache.misses"));
  report.pli_cache_evictions = static_cast<size_t>(num("pli_cache.evictions"));
  report.peak_memory_bytes = static_cast<size_t>(num("memory.peak_bytes"));
  for (const auto& [name, bytes] : FindPath(*root, "memory.components")->object) {
    if (!bytes.IsNumber()) {
      if (error != nullptr) *error = "memory.components values must be numbers";
      return std::nullopt;
    }
    report.memory_components.emplace_back(name, static_cast<size_t>(bytes.number));
  }
  for (const JsonValue& span : FindPath(*root, "phases")->array) {
    report.phases.push_back(
        PhaseSpan{span.Find("name")->string, span.Find("seconds")->number});
  }
  for (const auto& [name, value] : FindPath(*root, "counters")->object) {
    if (!value.IsNumber()) {
      if (error != nullptr) *error = "counters values must be numbers";
      return std::nullopt;
    }
    report.SetCounter(name, static_cast<uint64_t>(value.number));
  }
  return report;
}

}  // namespace hyfd
