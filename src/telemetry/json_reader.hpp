// Minimal JSON reader — the counterpart of JsonWriter (run_report.hpp).
//
// The telemetry plane writes pmsb.run_manifest/1 and pmsb.sweep_report/1
// documents; resumable sweeps need to read them back. parse() builds a
// Value tree from a complete JSON text. Scope matches what our writers
// emit: objects, arrays, strings (with the writer's escape set plus \uXXXX),
// numbers, booleans, null. Object keys are stored in a sorted map — our
// writers emit keys from sorted maps, so no information is lost.
//
// Numbers keep their raw token alongside the double so 64-bit integers
// (seeds) survive values above 2^53.
#pragma once

#include <map>
#include <stdexcept>
#include <string>
#include <vector>

namespace pmsb::telemetry::json {

/// Thrown by parse() with a byte offset and what was expected there.
class ParseError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

class Value {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string raw_number;  ///< untouched numeric token (64-bit-int safe)
  std::string string;
  std::vector<Value> array;
  std::map<std::string, Value> object;

  [[nodiscard]] bool is_null() const { return kind == Kind::kNull; }
  [[nodiscard]] bool is_bool() const { return kind == Kind::kBool; }
  [[nodiscard]] bool is_number() const { return kind == Kind::kNumber; }
  [[nodiscard]] bool is_string() const { return kind == Kind::kString; }
  [[nodiscard]] bool is_array() const { return kind == Kind::kArray; }
  [[nodiscard]] bool is_object() const { return kind == Kind::kObject; }

  /// Member lookup on an object; nullptr when absent or not an object.
  [[nodiscard]] const Value* find(const std::string& key) const;
  /// Member lookup that throws ParseError when absent or not an object.
  [[nodiscard]] const Value& at(const std::string& key) const;
};

/// Parses `text` as one JSON document (trailing whitespace allowed, trailing
/// garbage is an error). Throws ParseError on malformed or truncated input.
[[nodiscard]] Value parse(const std::string& text);

/// Serializes a Value back to JSON text through JsonWriter, keys in
/// sorted-map order, and numbers re-emitted from their raw token. A
/// document written with sorted keys (pmsb.profile/1) satisfies
/// to_json(parse(text)) == text — the byte-stability the regression tests
/// rely on for profile round-trips.
[[nodiscard]] std::string to_json(const Value& value);

}  // namespace pmsb::telemetry::json
