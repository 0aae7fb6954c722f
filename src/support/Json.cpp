//===- support/Json.cpp - JSON writing and parsing -----------------------------===//
//
// Part of ramloc, a reproduction of "Optimizing the flash-RAM energy
// trade-off in deeply embedded systems" (Pallister et al., CGO 2015).
//
//===----------------------------------------------------------------------===//

#include "support/Json.h"

#include "support/Format.h"

#include <algorithm>
#include <cassert>
#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdlib>

using namespace ramloc;

namespace {

/// Reads the whole of \p S as strtod would, bit for bit; false where
/// strtod would not consume all of it. from_chars takes every plain
/// decimal; the rest goes to strtod on a NUL-terminated copy: overflow
/// and underflow (where from_chars leaves the value unset), a leading
/// '+' (which from_chars refuses) and malformed text.
bool readDouble(std::string_view S, double &Out) {
  const char *End = S.data() + S.size();
  auto [Ptr, Ec] = std::from_chars(S.data(), End, Out);
  if (Ec == std::errc() && Ptr == End)
    return true;
  std::string Copy(S);
  char *Stop = nullptr;
  Out = std::strtod(Copy.c_str(), &Stop);
  return !Copy.empty() && Stop == Copy.c_str() + Copy.size();
}

/// Significant digits of the shortest decimal that reads back as \p V:
/// to_chars' round-trip form, which is minimal, in scientific notation
/// ([-]d[.ddd]e<exp>).
size_t shortestDigits(double V) {
  char Buf[32];
  char *End = std::to_chars(Buf, Buf + sizeof(Buf), V,
                            std::chars_format::scientific)
                  .ptr;
  size_t Chars = std::find(Buf, End, 'e') - Buf - (std::signbit(V) ? 1 : 0);
  return Chars > 1 ? Chars - 1 : Chars; // less the decimal point
}

/// Appends jsonEscape(S) to \p Out.
void appendJsonEscaped(std::string &Out, std::string_view S) {
  size_t Run = 0; // start of the pending run of bytes that need no escape
  for (size_t I = 0, N = S.size(); I != N; ++I) {
    unsigned char C = static_cast<unsigned char>(S[I]);
    if (C >= 0x20 && C != '"' && C != '\\')
      continue;
    Out.append(S.data() + Run, I - Run);
    Run = I + 1;
    switch (C) {
    case '"':
      Out += "\\\"";
      break;
    case '\\':
      Out += "\\\\";
      break;
    case '\b':
      Out += "\\b";
      break;
    case '\f':
      Out += "\\f";
      break;
    case '\n':
      Out += "\\n";
      break;
    case '\r':
      Out += "\\r";
      break;
    case '\t':
      Out += "\\t";
      break;
    default:
      Out += "\\u00";
      Out += "0123456789abcdef"[C >> 4];
      Out += "0123456789abcdef"[C & 0xF];
    }
  }
  Out.append(S.data() + Run, S.size() - Run);
}

} // namespace

std::string ramloc::jsonEscape(std::string_view S) {
  std::string Out;
  Out.reserve(S.size());
  appendJsonEscaped(Out, S);
  return Out;
}

void ramloc::appendJsonNumber(std::string &Out, double V) {
  if (!std::isfinite(V)) {
    Out += "null";
    return;
  }
  char Buf[32];
  char *const Cap = Buf + sizeof(Buf);
  // Integral values within the exact-double range print without a
  // fraction; everything else gets the shortest round-trippable form.
  if (V == std::floor(V) && std::fabs(V) < 9.007199254740992e15) {
    Out.append(Buf,
               std::to_chars(Buf, Cap, V, std::chars_format::fixed, 0).ptr);
    return;
  }
  // %.15g can read back only if some decimal of at most 15 digits does,
  // so a value whose shortest form is longer (most computed energies and
  // times) skips the 15-digit attempt.
  if (shortestDigits(V) <= 15) {
    char *End =
        std::to_chars(Buf, Cap, V, std::chars_format::general, 15).ptr;
    double Back;
    if (readDouble(std::string_view(Buf, End - Buf), Back) && Back == V) {
      Out.append(Buf, End);
      return;
    }
  }
  Out.append(Buf,
             std::to_chars(Buf, Cap, V, std::chars_format::general, 17).ptr);
}

std::string ramloc::jsonNumber(double V) {
  std::string Out;
  appendJsonNumber(Out, V);
  return Out;
}

//===----------------------------------------------------------------------===//
// JsonWriter
//===----------------------------------------------------------------------===//

void JsonWriter::newline() {
  if (!Pretty)
    return;
  Out += '\n';
  Out.append(2 * Counts.size(), ' ');
}

void JsonWriter::beforeValue() {
  if (PendingKey) {
    PendingKey = false;
    return;
  }
  if (Counts.empty())
    return;
  if (Counts.back() > 0)
    Out += ',';
  newline();
  ++Counts.back();
}

JsonWriter &JsonWriter::beginObject() {
  beforeValue();
  Out += '{';
  Counts.push_back(0);
  return *this;
}

JsonWriter &JsonWriter::endObject() {
  assert(!Counts.empty() && "endObject without beginObject");
  bool Empty = Counts.back() == 0;
  Counts.pop_back();
  if (!Empty)
    newline();
  Out += '}';
  return *this;
}

JsonWriter &JsonWriter::beginArray() {
  beforeValue();
  Out += '[';
  Counts.push_back(0);
  return *this;
}

JsonWriter &JsonWriter::endArray() {
  assert(!Counts.empty() && "endArray without beginArray");
  bool Empty = Counts.back() == 0;
  Counts.pop_back();
  if (!Empty)
    newline();
  Out += ']';
  return *this;
}

JsonWriter &JsonWriter::key(std::string_view K) {
  assert(!PendingKey && "two keys in a row");
  if (!Counts.empty() && Counts.back() > 0)
    Out += ',';
  newline();
  if (!Counts.empty())
    ++Counts.back();
  Out += '"';
  appendJsonEscaped(Out, K);
  Out += Pretty ? "\": " : "\":";
  PendingKey = true;
  return *this;
}

JsonWriter &JsonWriter::value(std::string_view S) {
  beforeValue();
  Out += '"';
  appendJsonEscaped(Out, S);
  Out += '"';
  return *this;
}

JsonWriter &JsonWriter::value(double V) {
  beforeValue();
  appendJsonNumber(Out, V);
  return *this;
}

JsonWriter &JsonWriter::value(int64_t V) {
  beforeValue();
  appendDecimal(Out, V);
  return *this;
}

JsonWriter &JsonWriter::value(uint64_t V) {
  beforeValue();
  appendDecimal(Out, V);
  return *this;
}

JsonWriter &JsonWriter::value(bool B) {
  beforeValue();
  Out += B ? "true" : "false";
  return *this;
}

JsonWriter &JsonWriter::null() {
  beforeValue();
  Out += "null";
  return *this;
}

//===----------------------------------------------------------------------===//
// JsonValue / parser
//===----------------------------------------------------------------------===//

const JsonValue *JsonValue::find(std::string_view Key) const {
  if (K != Kind::Object)
    return nullptr;
  for (const auto &[Name, Val] : Members)
    if (Name == Key)
      return &Val;
  return nullptr;
}

namespace ramloc {

class JsonParser {
public:
  JsonParser(std::string_view Text) : Text(Text) {}

  bool run(JsonValue &Out) {
    skipWs();
    if (!parseValue(Out))
      return false;
    skipWs();
    if (Pos != Text.size())
      return fail("trailing characters after document");
    return true;
  }

  std::string Error;

private:
  bool fail(const std::string &Msg) {
    Error = formatString("offset %zu: %s", Pos, Msg.c_str());
    return false;
  }

  void skipWs() {
    while (Pos < Text.size() &&
           (Text[Pos] == ' ' || Text[Pos] == '\t' || Text[Pos] == '\n' ||
            Text[Pos] == '\r'))
      ++Pos;
  }

  bool consume(char C) {
    if (Pos < Text.size() && Text[Pos] == C) {
      ++Pos;
      return true;
    }
    return false;
  }

  bool literal(std::string_view Word) {
    if (Text.substr(Pos, Word.size()) != Word)
      return fail("expected '" + std::string(Word) + "'");
    Pos += Word.size();
    return true;
  }

  bool parseValue(JsonValue &Out) {
    if (Pos >= Text.size())
      return fail("unexpected end of input");
    switch (Text[Pos]) {
    case '{':
      return parseObject(Out);
    case '[':
      return parseArray(Out);
    case '"':
      Out.K = JsonValue::Kind::String;
      return parseString(Out.Str);
    case 't':
      Out.K = JsonValue::Kind::Bool;
      Out.Bool = true;
      return literal("true");
    case 'f':
      Out.K = JsonValue::Kind::Bool;
      Out.Bool = false;
      return literal("false");
    case 'n':
      Out.K = JsonValue::Kind::Null;
      return literal("null");
    default:
      return parseNumber(Out);
    }
  }

  bool parseObject(JsonValue &Out) {
    Out.K = JsonValue::Kind::Object;
    ++Pos; // '{'
    skipWs();
    if (consume('}'))
      return true;
    for (;;) {
      skipWs();
      if (Pos >= Text.size() || Text[Pos] != '"')
        return fail("expected object key");
      auto &[Key, Member] = Out.Members.emplace_back();
      if (!parseString(Key))
        return false;
      skipWs();
      if (!consume(':'))
        return fail("expected ':' after key");
      skipWs();
      if (!parseValue(Member))
        return false;
      skipWs();
      if (consume(','))
        continue;
      if (consume('}'))
        return true;
      return fail("expected ',' or '}' in object");
    }
  }

  bool parseArray(JsonValue &Out) {
    Out.K = JsonValue::Kind::Array;
    ++Pos; // '['
    skipWs();
    if (consume(']'))
      return true;
    for (;;) {
      skipWs();
      if (!parseValue(Out.Items.emplace_back()))
        return false;
      skipWs();
      if (consume(','))
        continue;
      if (consume(']'))
        return true;
      return fail("expected ',' or ']' in array");
    }
  }

  bool parseString(std::string &Out) {
    ++Pos; // opening quote
    Out.clear();
    while (Pos < Text.size()) {
      size_t Stop = Text.find_first_of("\"\\", Pos);
      if (Stop == std::string_view::npos) {
        Pos = Text.size();
        break;
      }
      Out.append(Text.data() + Pos, Stop - Pos);
      Pos = Stop + 1;
      if (Text[Stop] == '"')
        return true;
      if (Pos >= Text.size())
        return fail("unterminated escape");
      char E = Text[Pos++];
      switch (E) {
      case '"':
      case '\\':
      case '/':
        Out += E;
        break;
      case 'b':
        Out += '\b';
        break;
      case 'f':
        Out += '\f';
        break;
      case 'n':
        Out += '\n';
        break;
      case 'r':
        Out += '\r';
        break;
      case 't':
        Out += '\t';
        break;
      case 'u': {
        if (Pos + 4 > Text.size())
          return fail("truncated \\u escape");
        unsigned Code = 0;
        for (int I = 0; I != 4; ++I) {
          char H = Text[Pos++];
          Code <<= 4;
          if (H >= '0' && H <= '9')
            Code |= H - '0';
          else if (H >= 'a' && H <= 'f')
            Code |= H - 'a' + 10;
          else if (H >= 'A' && H <= 'F')
            Code |= H - 'A' + 10;
          else
            return fail("bad hex digit in \\u escape");
        }
        // Encode the code point as UTF-8 (surrogate pairs are passed
        // through as two separate 3-byte sequences; the reports never
        // emit them).
        if (Code < 0x80) {
          Out += static_cast<char>(Code);
        } else if (Code < 0x800) {
          Out += static_cast<char>(0xC0 | (Code >> 6));
          Out += static_cast<char>(0x80 | (Code & 0x3F));
        } else {
          Out += static_cast<char>(0xE0 | (Code >> 12));
          Out += static_cast<char>(0x80 | ((Code >> 6) & 0x3F));
          Out += static_cast<char>(0x80 | (Code & 0x3F));
        }
        break;
      }
      default:
        return fail("unknown escape character");
      }
    }
    return fail("unterminated string");
  }

  bool parseNumber(JsonValue &Out) {
    size_t Start = Pos;
    if (Pos < Text.size() && Text[Pos] == '-')
      ++Pos;
    while (Pos < Text.size() &&
           (std::isdigit(static_cast<unsigned char>(Text[Pos])) ||
            Text[Pos] == '.' || Text[Pos] == 'e' || Text[Pos] == 'E' ||
            Text[Pos] == '+' || Text[Pos] == '-'))
      ++Pos;
    if (Pos == Start)
      return fail("expected a value");
    double V;
    if (!readDouble(Text.substr(Start, Pos - Start), V))
      return fail("malformed number");
    Out.K = JsonValue::Kind::Number;
    Out.Num = V;
    return true;
  }

  std::string_view Text;
  size_t Pos = 0;
};

} // namespace ramloc

bool JsonValue::parse(std::string_view Text, JsonValue &Out,
                      std::string *Error) {
  JsonParser P(Text);
  JsonValue V;
  if (!P.run(V)) {
    if (Error)
      *Error = P.Error;
    return false;
  }
  Out = std::move(V);
  return true;
}
