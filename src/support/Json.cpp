//===- support/Json.cpp - Dependency-free JSON implementation --*- C++ -*-===//
//
// Part of simdflat. MIT license.
//
//===----------------------------------------------------------------------===//

#include "support/Json.h"

#include "support/Format.h"

#include <cassert>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

using namespace simdflat;
using namespace simdflat::json;

std::string JsonError::render() const {
  return formatf("json: %s (at byte %zu)", Message.c_str(), Offset);
}

bool Value::asBool() const {
  assert(K == Kind::Bool && "asBool on a non-bool value");
  return BoolV;
}

int64_t Value::asInt() const {
  assert(K == Kind::Int && "asInt on a non-int value");
  return IntV;
}

double Value::asDouble() const {
  assert(isNumber() && "asDouble on a non-numeric value");
  return K == Kind::Int ? static_cast<double>(IntV) : DoubleV;
}

const std::string &Value::asString() const {
  assert(K == Kind::String && "asString on a non-string value");
  return StringV;
}

size_t Value::size() const {
  return K == Kind::Array ? ArrayV.size()
                          : K == Kind::Object ? ObjectV.size() : 0;
}

const Value &Value::at(size_t I) const {
  assert(K == Kind::Array && I < ArrayV.size() && "bad array index");
  return ArrayV[I];
}

Value &Value::push(Value V) {
  assert(K == Kind::Array && "push on a non-array value");
  ArrayV.push_back(std::move(V));
  return ArrayV.back();
}

Value &Value::set(const std::string &Key, Value V) {
  assert(K == Kind::Object && "set on a non-object value");
  for (auto &[K2, V2] : ObjectV) {
    if (K2 == Key) {
      V2 = std::move(V);
      return V2;
    }
  }
  ObjectV.emplace_back(Key, std::move(V));
  return ObjectV.back().second;
}

const Value *Value::get(std::string_view Key) const {
  if (K != Kind::Object)
    return nullptr;
  for (const auto &[K2, V2] : ObjectV)
    if (K2 == Key)
      return &V2;
  return nullptr;
}

const std::vector<std::pair<std::string, Value>> &Value::members() const {
  static const std::vector<std::pair<std::string, Value>> Empty;
  return K == Kind::Object ? ObjectV : Empty;
}

namespace {

/// Appends \p S to \p Out as the body of a JSON string literal.
void appendEscaped(std::string &Out, std::string_view S) {
  for (char C : S) {
    switch (C) {
    case '"':
      Out += "\\\"";
      break;
    case '\\':
      Out += "\\\\";
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
      if (static_cast<unsigned char>(C) < 0x20)
        Out += formatf("\\u%04x", static_cast<unsigned>(
                                      static_cast<unsigned char>(C)));
      else
        Out += C;
    }
  }
}

void appendQuoted(std::string &Out, std::string_view S) {
  Out += '"';
  appendEscaped(Out, S);
  Out += '"';
}

/// Line break plus 2-space indentation at \p Depth; nothing in the
/// one-line form (negative depth).
void appendBreak(std::string &Out, int Depth) {
  if (Depth >= 0) {
    Out += '\n';
    Out.append(static_cast<size_t>(Depth) * 2, ' ');
  }
}

} // namespace

std::string json::escapeString(std::string_view S) {
  std::string Out;
  Out.reserve(S.size());
  appendEscaped(Out, S);
  return Out;
}

void Value::write(std::string &Out, int Indent) const {
  switch (K) {
  case Kind::Null:
    Out += "null";
    return;
  case Kind::Bool:
    Out += BoolV ? "true" : "false";
    return;
  case Kind::Int: {
    char Buf[24];
    Out.append(Buf, std::to_chars(Buf, Buf + sizeof(Buf), IntV).ptr);
    return;
  }
  case Kind::Double:
    // JSON has no NaN or infinity; benches never emit one on purpose.
    if (std::isnan(DoubleV))
      Out += "null";
    else if (std::isinf(DoubleV))
      Out += DoubleV > 0 ? "1e308" : "-1e308";
    else
      Out += formatDouble(DoubleV);
    return;
  case Kind::String:
    appendQuoted(Out, StringV);
    return;
  case Kind::Array:
  case Kind::Object: {
    bool IsArray = K == Kind::Array;
    size_t N = IsArray ? ArrayV.size() : ObjectV.size();
    int Inner = Indent < 0 ? Indent : Indent + 1;
    Out += IsArray ? '[' : '{';
    for (size_t I = 0; I < N; ++I) {
      if (I > 0)
        Out += ',';
      appendBreak(Out, Inner);
      if (IsArray) {
        ArrayV[I].write(Out, Inner);
        continue;
      }
      appendQuoted(Out, ObjectV[I].first);
      Out += Indent < 0 ? ":" : ": ";
      ObjectV[I].second.write(Out, Inner);
    }
    if (N > 0)
      appendBreak(Out, Indent);
    Out += IsArray ? ']' : '}';
    return;
  }
  }
}

std::string Value::dump(int Indent) const {
  std::string Out;
  write(Out, Indent);
  return Out;
}

std::string Value::dumpLine() const {
  std::string Out;
  write(Out, -1);
  return Out;
}

namespace {

/// Recursive-descent parser over a string_view. Strict: no comments, no
/// trailing commas, full-document consumption enforced by the caller.
class Parser {
public:
  explicit Parser(std::string_view Text) : Text(Text) {}

  Expected<Value, JsonError> parseDocument() {
    Expected<Value, JsonError> V = parseValue();
    if (!V)
      return V;
    skipWs();
    if (Pos != Text.size())
      return fail("trailing characters after JSON document");
    return V;
  }

private:
  std::string_view Text;
  size_t Pos = 0;
  int Depth = 0;

  JsonError fail(const std::string &Msg) { return JsonError{Msg, Pos}; }

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

  bool consumeWord(std::string_view W) {
    if (Text.substr(Pos, W.size()) == W) {
      Pos += W.size();
      return true;
    }
    return false;
  }

  Expected<Value, JsonError> parseValue() {
    skipWs();
    if (Pos >= Text.size())
      return fail("unexpected end of input");
    if (Depth > 128)
      return fail("nesting too deep");
    char C = Text[Pos];
    if (C == '{')
      return parseObject();
    if (C == '[')
      return parseArray();
    if (C == '"') {
      Expected<std::string, JsonError> S = parseString();
      if (!S)
        return S.error();
      return Value(std::move(*S));
    }
    if (consumeWord("true"))
      return Value(true);
    if (consumeWord("false"))
      return Value(false);
    if (consumeWord("null"))
      return Value();
    if (C == '-' || (C >= '0' && C <= '9'))
      return parseNumber();
    return fail(formatf("unexpected character '%c'", C));
  }

  Expected<Value, JsonError> parseObject() {
    ++Pos; // '{'
    ++Depth;
    Value Out = Value::object();
    skipWs();
    if (consume('}')) {
      --Depth;
      return Out;
    }
    while (true) {
      skipWs();
      if (Pos >= Text.size() || Text[Pos] != '"')
        return fail("expected string key in object");
      Expected<std::string, JsonError> Key = parseString();
      if (!Key)
        return Key.error();
      skipWs();
      if (!consume(':'))
        return fail("expected ':' after object key");
      if (Out.get(*Key))
        return fail("duplicate object key \"" + *Key + "\"");
      Expected<Value, JsonError> V = parseValue();
      if (!V)
        return V;
      Out.set(*Key, std::move(*V));
      skipWs();
      if (consume(','))
        continue;
      if (consume('}')) {
        --Depth;
        return Out;
      }
      return fail("expected ',' or '}' in object");
    }
  }

  Expected<Value, JsonError> parseArray() {
    ++Pos; // '['
    ++Depth;
    Value Out = Value::array();
    skipWs();
    if (consume(']')) {
      --Depth;
      return Out;
    }
    while (true) {
      Expected<Value, JsonError> V = parseValue();
      if (!V)
        return V;
      Out.push(std::move(*V));
      skipWs();
      if (consume(','))
        continue;
      if (consume(']')) {
        --Depth;
        return Out;
      }
      return fail("expected ',' or ']' in array");
    }
  }

  Expected<std::string, JsonError> parseString() {
    ++Pos; // '"'
    std::string Out;
    while (true) {
      if (Pos >= Text.size())
        return fail("unterminated string");
      char C = Text[Pos++];
      if (C == '"')
        return Out;
      if (static_cast<unsigned char>(C) < 0x20)
        return fail("unescaped control character in string");
      if (C != '\\') {
        Out += C;
        continue;
      }
      if (Pos >= Text.size())
        return fail("unterminated escape");
      char E = Text[Pos++];
      switch (E) {
      case '"':
        Out += '"';
        break;
      case '\\':
        Out += '\\';
        break;
      case '/':
        Out += '/';
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
        for (int I = 0; I < 4; ++I) {
          char H = Text[Pos++];
          Code <<= 4;
          if (H >= '0' && H <= '9')
            Code |= static_cast<unsigned>(H - '0');
          else if (H >= 'a' && H <= 'f')
            Code |= static_cast<unsigned>(H - 'a' + 10);
          else if (H >= 'A' && H <= 'F')
            Code |= static_cast<unsigned>(H - 'A' + 10);
          else
            return fail("bad hex digit in \\u escape");
        }
        // UTF-8 encode the BMP code point (surrogate pairs are not
        // produced by our writer; decode them as-is).
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
        return fail(formatf("unknown escape '\\%c'", E));
      }
    }
  }

  Expected<Value, JsonError> parseNumber() {
    size_t Start = Pos;
    consume('-');
    size_t IntStart = Pos;
    while (Pos < Text.size() && Text[Pos] >= '0' && Text[Pos] <= '9')
      ++Pos;
    // JSON forbids leading zeros ("01"); a lone "0" is fine.
    if (Pos - IntStart > 1 && Text[IntStart] == '0')
      return fail("leading zero in number");
    bool IsDouble = false;
    if (Pos < Text.size() && Text[Pos] == '.') {
      IsDouble = true;
      ++Pos;
      while (Pos < Text.size() && Text[Pos] >= '0' && Text[Pos] <= '9')
        ++Pos;
    }
    if (Pos < Text.size() && (Text[Pos] == 'e' || Text[Pos] == 'E')) {
      IsDouble = true;
      ++Pos;
      if (Pos < Text.size() && (Text[Pos] == '+' || Text[Pos] == '-'))
        ++Pos;
      while (Pos < Text.size() && Text[Pos] >= '0' && Text[Pos] <= '9')
        ++Pos;
    }
    std::string Tok(Text.substr(Start, Pos - Start));
    if (Tok.empty() || Tok == "-")
      return fail("malformed number");
    try {
      if (!IsDouble) {
        size_t Used = 0;
        long long I = std::stoll(Tok, &Used);
        if (Used == Tok.size())
          return Value(static_cast<int64_t>(I));
        return fail("malformed integer");
      }
      size_t Used = 0;
      double D = std::stod(Tok, &Used);
      if (Used != Tok.size())
        return fail("malformed number");
      return Value(D);
    } catch (const std::out_of_range &) {
      // Integer overflow falls back to double (JSON numbers are not
      // bounded); double overflow is a parse error.
      if (!IsDouble) {
        try {
          return Value(std::stod(Tok));
        } catch (...) {
        }
      }
      return fail("number out of range");
    } catch (const std::invalid_argument &) {
      return fail("malformed number");
    }
  }
};

} // namespace

Expected<Value, JsonError> Value::parse(std::string_view Text) {
  return Parser(Text).parseDocument();
}

bool json::writeFile(const std::string &Path, const Value &V) {
  std::ofstream Out(Path);
  if (!Out)
    return false;
  Out << V.dump() << "\n";
  return Out.good();
}

Expected<Value, JsonError> json::parseFile(const std::string &Path) {
  std::ifstream In(Path);
  if (!In)
    return JsonError{"cannot open '" + Path + "'", 0};
  std::stringstream Buf;
  Buf << In.rdbuf();
  return Value::parse(Buf.str());
}
