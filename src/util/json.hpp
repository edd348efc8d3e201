// The repository's one JSON implementation: a value model, a parser and
// a dumper, plus the two formatting primitives every JSON writer shares.
//
// Everything the project reads or writes as JSON goes through here: the
// serve wire protocol (framed requests and replies), the CLI's --json
// reports, --stats (obs::Registry::json) and --trace
// (obs::Tracer::chrome_trace_json), srclint's --json report, the bench
// --json result files and tools/bench_compare, which reads them back.
// Human-facing layouts that are hand-written for readability still call
// json_quote() and json_number() for every string and number they emit,
// so their output always parses and control characters and non-finite
// values are handled in exactly one place.
//
// A deliberately small recursive-descent implementation of RFC 8259:
// numbers are IEEE doubles (a literal outside the double range is a
// parse error, so every parsed value is finite), strings are
// uninterpreted bytes with the standard escapes (\uXXXX escapes outside
// the BMP are rejected rather than paired), and object keys are kept in a
// sorted map so serialization is deterministic — tests and differential
// oracles can compare replies textually.
//
// Parse errors carry a byte offset and a human-readable reason; the serve
// daemon turns them into clean `{"ok": false, "error": ...}` replies
// instead of dropping the connection (tests/serve/protocol_test.cpp pins
// this). This library depends only on the standard library and the
// header-only util/error.hpp, so obs (below util at link time) and
// srclint (which links no project library) can both use it.
#pragma once

#include <cstddef>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace streamcalc::util {

/// `s` as a JSON string literal: quoted, with `"`, backslash and every
/// control character escaped.
std::string json_quote(std::string_view s);

/// `v` as a JSON number literal: `%.17g` (round-trips every double, and
/// prints integers below 2^53 without exponent or decimal point); null for
/// NaN and infinities, which JSON cannot represent.
std::string json_number(double v);

/// json_quote(s) and json_number(v), appended to `out`: writers that build
/// one document string skip the temporary.
void append_json_quote(std::string& out, std::string_view s);
void append_json_number(std::string& out, double v);

/// One JSON value. A tagged union over the seven RFC 8259 kinds (null,
/// true/false collapse into kBool). Copyable; small protocol messages make
/// deep copies acceptable.
class Json {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  using Array = std::vector<Json>;
  using Object = std::map<std::string, Json>;

  Json() = default;  ///< null

  // Implicit by design: Json is a literal-building sum type, and the
  // builder idiom `Json::Object{{"key", 3}}` depends on these conversions.
  // NOLINTBEGIN(google-explicit-constructor): implicit JSON value literals
  Json(bool b) : kind_(Kind::kBool), bool_(b) {}
  Json(double n) : kind_(Kind::kNumber), num_(n) {}
  Json(int n) : kind_(Kind::kNumber), num_(n) {}
  Json(const char* s) : kind_(Kind::kString), str_(s) {}
  Json(std::string s) : kind_(Kind::kString), str_(std::move(s)) {}
  Json(Array a) : kind_(Kind::kArray), arr_(std::move(a)) {}
  Json(Object o) : kind_(Kind::kObject), obj_(std::move(o)) {}
  // NOLINTEND(google-explicit-constructor)

  Kind kind() const { return kind_; }
  bool is_null() const { return kind_ == Kind::kNull; }
  bool is_bool() const { return kind_ == Kind::kBool; }
  bool is_number() const { return kind_ == Kind::kNumber; }
  bool is_string() const { return kind_ == Kind::kString; }
  bool is_array() const { return kind_ == Kind::kArray; }
  bool is_object() const { return kind_ == Kind::kObject; }

  /// Typed accessors; each requires the matching kind (checked, throws
  /// util::PreconditionError otherwise).
  bool as_bool() const;
  double as_number() const;
  const std::string& as_string() const;
  const Array& as_array() const;

  /// Object field lookup: nullptr when this is not an object or the key is
  /// absent. The pointer is into this value; do not outlive it.
  const Json* find(const std::string& key) const;

  /// Convenience typed field readers with defaults (object values only).
  std::string string_or(const std::string& key,
                        const std::string& fallback) const;
  double number_or(const std::string& key, double fallback) const;
  bool bool_or(const std::string& key, bool fallback) const;

  /// Compact deterministic serialization: sorted object keys, no spaces,
  /// strings through json_quote() and numbers through json_number().
  std::string dump() const;

  bool operator==(const Json& other) const;

 private:
  void dump_to(std::string& out) const;

  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  double num_ = 0.0;
  std::string str_;
  Array arr_;
  Object obj_;
};

/// Result of parsing one JSON document.
struct JsonParseResult {
  Json value;
  std::string error;      ///< empty on success
  std::size_t offset = 0; ///< byte offset of the error
  bool ok() const { return error.empty(); }
};

/// Parses exactly one JSON document occupying the whole input (trailing
/// whitespace allowed, trailing garbage is an error). Never throws; all
/// failures are reported through JsonParseResult::error.
JsonParseResult json_parse(const std::string& text);

}  // namespace streamcalc::util
