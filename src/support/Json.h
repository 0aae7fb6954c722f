//===- support/Json.h - JSON writing and parsing ----------------*- C++ -*-===//
//
// Part of ramloc, a reproduction of "Optimizing the flash-RAM energy
// trade-off in deeply embedded systems" (Pallister et al., CGO 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A small dependency-free JSON library for the machine-readable campaign
/// reports: a streaming writer with deterministic, round-trippable number
/// formatting, plus a recursive-descent parser used by tests and by tools
/// that consume reports. Output is byte-stable for identical inputs, which
/// the campaign engine relies on for its --jobs determinism guarantee.
///
//===----------------------------------------------------------------------===//

#ifndef RAMLOC_SUPPORT_JSON_H
#define RAMLOC_SUPPORT_JSON_H

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace ramloc {

/// Escapes \p S for inclusion in a JSON string literal (without the
/// surrounding quotes): quote, backslash and control characters become
/// their \-sequences; everything else (including UTF-8 bytes) passes
/// through untouched.
std::string jsonEscape(std::string_view S);

/// Shortest decimal representation of \p V that parses back to exactly
/// the same double: integral values below 2^53 as %.0f, else %.15g,
/// widened to %.17g when that does not round-trip. Printed with
/// std::to_chars, whose precision forms are specified to give printf's
/// bytes. Non-finite values, which JSON cannot represent, render as null.
std::string jsonNumber(double V);

/// Appends jsonNumber(V) to \p Out without a temporary string.
void appendJsonNumber(std::string &Out, double V);

/// Streaming JSON writer. Usage:
///
///   JsonWriter W;
///   W.beginObject();
///   W.key("jobs").beginArray();
///   W.value(1).value(2.5).value("three");
///   W.endArray();
///   W.endObject();
///   std::string Text = W.str();
///
/// In pretty mode (the default) output is indented with two spaces;
/// compact mode emits no whitespace at all. Both are deterministic.
class JsonWriter {
public:
  explicit JsonWriter(bool Pretty = true) : Pretty(Pretty) {}

  JsonWriter &beginObject();
  JsonWriter &endObject();
  JsonWriter &beginArray();
  JsonWriter &endArray();

  /// Emits an object key; the next emitted value becomes its value.
  JsonWriter &key(std::string_view K);

  JsonWriter &value(std::string_view S);
  JsonWriter &value(const std::string &S) {
    return value(std::string_view(S));
  }
  JsonWriter &value(const char *S) { return value(std::string_view(S)); }
  JsonWriter &value(double V);
  JsonWriter &value(int64_t V);
  JsonWriter &value(uint64_t V);
  JsonWriter &value(int V) { return value(static_cast<int64_t>(V)); }
  JsonWriter &value(unsigned V) { return value(static_cast<uint64_t>(V)); }
  JsonWriter &value(bool B);
  JsonWriter &null();

  /// key(K) followed by value(V).
  template <typename T> JsonWriter &field(std::string_view K, T &&V) {
    key(K);
    return value(std::forward<T>(V));
  }

  /// The document produced so far.
  const std::string &str() const & { return Out; }
  /// Moves the document out of a writer that is done.
  std::string str() && { return std::move(Out); }

private:
  void beforeValue();
  void newline();

  std::string Out;
  bool Pretty;
  /// One entry per open container: the number of items emitted in it.
  std::vector<unsigned> Counts;
  bool PendingKey = false;
};

/// A parsed JSON document. Object member order is preserved.
class JsonValue {
public:
  enum class Kind { Null, Bool, Number, String, Array, Object };

  Kind kind() const { return K; }
  bool isNull() const { return K == Kind::Null; }

  bool boolean() const { return Bool; }
  double number() const { return Num; }
  const std::string &string() const { return Str; }
  const std::vector<JsonValue> &items() const { return Items; }
  const std::vector<std::pair<std::string, JsonValue>> &members() const {
    return Members;
  }

  /// Object member lookup; nullptr when absent or not an object.
  const JsonValue *find(std::string_view Key) const;

  /// Parses \p Text (a complete document; trailing garbage is an error).
  /// On failure returns false and describes the problem in \p Error.
  /// Numbers are read as strtod reads them, bit for bit.
  static bool parse(std::string_view Text, JsonValue &Out,
                    std::string *Error = nullptr);

private:
  Kind K = Kind::Null;
  bool Bool = false;
  double Num = 0.0;
  std::string Str;
  std::vector<JsonValue> Items;
  std::vector<std::pair<std::string, JsonValue>> Members;

  friend class JsonParser;
};

} // namespace ramloc

#endif // RAMLOC_SUPPORT_JSON_H
