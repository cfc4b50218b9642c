//===- support/Json.h - Dependency-free JSON value/writer/parser *- C++ -*-===//
//
// Part of simdflat. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A small JSON layer for the telemetry pipeline: benches serialize
/// their metrics to `BENCH_<name>.json`, flattenc dumps RunStats and
/// pipeline reports, flattend writes its replies and telemetry log as
/// JSON lines, and tools/perf_compare reads the files back to gate
/// regressions. Deliberately tiny - insertion-ordered objects,
/// int64/double distinction preserved, strict parsing, one writer for
/// both the indented and the one-line form - and free of third-party
/// dependencies.
///
//===----------------------------------------------------------------------===//

#ifndef SIMDFLAT_SUPPORT_JSON_H
#define SIMDFLAT_SUPPORT_JSON_H

#include "support/Result.h"

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace simdflat {
namespace json {

/// A parse/IO failure with position information.
struct JsonError {
  std::string Message;
  /// Byte offset into the input (parse errors only; 0 for IO errors).
  size_t Offset = 0;

  std::string render() const;
};

/// One JSON value. Objects preserve insertion order so emitted files
/// diff cleanly across runs.
class Value {
public:
  enum class Kind { Null, Bool, Int, Double, String, Array, Object };

  Value() : K(Kind::Null) {}
  Value(bool B) : K(Kind::Bool), BoolV(B) {}
  Value(int64_t I) : K(Kind::Int), IntV(I) {}
  Value(int I) : K(Kind::Int), IntV(I) {}
  Value(double D) : K(Kind::Double), DoubleV(D) {}
  Value(std::string S) : K(Kind::String), StringV(std::move(S)) {}
  Value(const char *S) : K(Kind::String), StringV(S) {}

  static Value array() {
    Value V;
    V.K = Kind::Array;
    return V;
  }
  static Value object() {
    Value V;
    V.K = Kind::Object;
    return V;
  }

  Kind kind() const { return K; }
  bool isNull() const { return K == Kind::Null; }
  bool isBool() const { return K == Kind::Bool; }
  bool isInt() const { return K == Kind::Int; }
  bool isNumber() const { return K == Kind::Int || K == Kind::Double; }
  bool isString() const { return K == Kind::String; }
  bool isArray() const { return K == Kind::Array; }
  bool isObject() const { return K == Kind::Object; }

  bool asBool() const;
  int64_t asInt() const;
  /// Numeric value as double (works for Int and Double kinds).
  double asDouble() const;
  const std::string &asString() const;

  /// \name Array access
  /// @{
  size_t size() const;
  const Value &at(size_t I) const;
  Value &push(Value V);
  /// @}

  /// \name Object access
  /// @{
  /// Sets (or overwrites) a member; returns a reference to the stored
  /// value so nested structures can be built in place.
  Value &set(const std::string &Key, Value V);
  /// Member lookup; nullptr when absent (or not an object).
  const Value *get(std::string_view Key) const;
  /// Members in insertion order (empty unless an object).
  const std::vector<std::pair<std::string, Value>> &members() const;
  /// @}

  /// Serializes with 2-space indentation, no trailing newline (\p Indent
  /// is the starting depth; callers use 0). The file form.
  std::string dump(int Indent = 0) const;
  /// Serializes on one line with no whitespace between tokens: the
  /// JSON-lines form flattend writes. Numbers and strings are spelled
  /// exactly as dump() spells them.
  std::string dumpLine() const;

  /// Strict parse of a complete JSON document (trailing junk rejected).
  static Expected<Value, JsonError> parse(std::string_view Text);

private:
  /// The one writer behind dump() and dumpLine(): appends this value to
  /// \p Out, indented at depth \p Indent, or on one line when \p Indent
  /// is negative.
  void write(std::string &Out, int Indent) const;

  Kind K;
  bool BoolV = false;
  int64_t IntV = 0;
  double DoubleV = 0.0;
  std::string StringV;
  std::vector<Value> ArrayV;
  std::vector<std::pair<std::string, Value>> ObjectV;
};

/// Escapes \p S for embedding in a JSON string literal (no quotes).
std::string escapeString(std::string_view S);

/// Writes \p V to \p Path (dump() form). Returns false on IO failure.
bool writeFile(const std::string &Path, const Value &V);

/// Reads and parses \p Path.
Expected<Value, JsonError> parseFile(const std::string &Path);

} // namespace json
} // namespace simdflat

#endif // SIMDFLAT_SUPPORT_JSON_H
