#include "json.h"

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "common/string_util.h"

namespace x100ir::harness {
namespace {

// Nesting limit: the files read here are two or three levels deep; the
// limit keeps a malformed file from recursing without bound.
constexpr int kMaxDepth = 64;

class Parser {
 public:
  explicit Parser(const std::string& text) : s_(text) {}

  Status Parse(JsonValue* out) {
    X100IR_RETURN_IF_ERROR(Value(out, 0));
    SkipSpace();
    if (pos_ != s_.size()) return Error("trailing characters");
    return OkStatus();
  }

 private:
  Status Error(const char* what) const {
    return InvalidArgument(
        StrFormat("json: %s at offset %zu", what, pos_));
  }

  void SkipSpace() {
    while (pos_ < s_.size() && (s_[pos_] == ' ' || s_[pos_] == '\n' ||
                                s_[pos_] == '\r' || s_[pos_] == '\t')) {
      ++pos_;
    }
  }

  bool Consume(const char* word) {
    const std::string w(word);
    if (s_.compare(pos_, w.size(), w) != 0) return false;
    pos_ += w.size();
    return true;
  }

  Status Value(JsonValue* out, int depth) {
    if (depth > kMaxDepth) return Error("nesting too deep");
    SkipSpace();
    if (pos_ >= s_.size()) return Error("unexpected end");
    const char c = s_[pos_];
    if (c == '{') return Object(out, depth);
    if (c == '[') return Array(out, depth);
    if (c == '"') {
      out->type = JsonValue::Type::kString;
      return String(&out->str);
    }
    if (Consume("true")) {
      out->type = JsonValue::Type::kBool;
      out->boolean = true;
      return OkStatus();
    }
    if (Consume("false")) {
      out->type = JsonValue::Type::kBool;
      out->boolean = false;
      return OkStatus();
    }
    if (Consume("null")) {
      out->type = JsonValue::Type::kNull;
      return OkStatus();
    }
    return Number(out);
  }

  Status Object(JsonValue* out, int depth) {
    out->type = JsonValue::Type::kObject;
    ++pos_;  // '{'
    SkipSpace();
    if (pos_ < s_.size() && s_[pos_] == '}') {
      ++pos_;
      return OkStatus();
    }
    for (;;) {
      SkipSpace();
      if (pos_ >= s_.size() || s_[pos_] != '"') return Error("expected key");
      std::string key;
      X100IR_RETURN_IF_ERROR(String(&key));
      SkipSpace();
      if (pos_ >= s_.size() || s_[pos_] != ':') return Error("expected ':'");
      ++pos_;
      JsonValue v;
      X100IR_RETURN_IF_ERROR(Value(&v, depth + 1));
      out->members.emplace_back(std::move(key), std::move(v));
      SkipSpace();
      if (pos_ < s_.size() && s_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (pos_ < s_.size() && s_[pos_] == '}') {
        ++pos_;
        return OkStatus();
      }
      return Error("expected ',' or '}'");
    }
  }

  Status Array(JsonValue* out, int depth) {
    out->type = JsonValue::Type::kArray;
    ++pos_;  // '['
    SkipSpace();
    if (pos_ < s_.size() && s_[pos_] == ']') {
      ++pos_;
      return OkStatus();
    }
    for (;;) {
      JsonValue v;
      X100IR_RETURN_IF_ERROR(Value(&v, depth + 1));
      out->items.push_back(std::move(v));
      SkipSpace();
      if (pos_ < s_.size() && s_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (pos_ < s_.size() && s_[pos_] == ']') {
        ++pos_;
        return OkStatus();
      }
      return Error("expected ',' or ']'");
    }
  }

  Status String(std::string* out) {
    ++pos_;  // opening quote
    while (pos_ < s_.size()) {
      const char c = s_[pos_++];
      if (c == '"') return OkStatus();
      if (c != '\\') {
        out->push_back(c);
        continue;
      }
      if (pos_ >= s_.size()) break;
      const char e = s_[pos_++];
      switch (e) {
        case '"':
        case '\\':
        case '/':
          out->push_back(e);
          break;
        case 'b':
          out->push_back('\b');
          break;
        case 'f':
          out->push_back('\f');
          break;
        case 'n':
          out->push_back('\n');
          break;
        case 'r':
          out->push_back('\r');
          break;
        case 't':
          out->push_back('\t');
          break;
        case 'u': {
          if (pos_ + 4 > s_.size()) return Error("short \\u escape");
          const long code =
              std::strtol(s_.substr(pos_, 4).c_str(), nullptr, 16);
          if (code >= 0x80) return Error("non-ASCII \\u escape");
          out->push_back(static_cast<char>(code));
          pos_ += 4;
          break;
        }
        default:
          return Error("bad escape");
      }
    }
    return Error("unterminated string");
  }

  Status Number(JsonValue* out) {
    const char* begin = s_.c_str() + pos_;
    char* end = nullptr;
    const double v = std::strtod(begin, &end);
    if (end == begin) return Error("unexpected character");
    pos_ += static_cast<size_t>(end - begin);
    out->type = JsonValue::Type::kNumber;
    out->number = v;
    return OkStatus();
  }

  const std::string& s_;
  size_t pos_ = 0;
};

}  // namespace

const JsonValue* JsonValue::Get(const std::string& key) const {
  if (type != Type::kObject) return nullptr;
  for (const auto& m : members) {
    if (m.first == key) return &m.second;
  }
  return nullptr;
}

Status ParseJson(const std::string& text, JsonValue* out) {
  *out = JsonValue();
  return Parser(text).Parse(out);
}

Status ReadJsonFile(const std::string& path, JsonValue* out) {
  std::ifstream in(path);
  if (!in) return NotFound(StrFormat("cannot read %s", path.c_str()));
  std::stringstream buf;
  buf << in.rdbuf();
  Status s = ParseJson(buf.str(), out);
  if (!s.ok()) {
    return InvalidArgument(
        StrFormat("%s: %s", path.c_str(), s.message().c_str()));
  }
  return OkStatus();
}

std::string JsonQuote(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char esc[8];
          std::snprintf(esc, sizeof(esc), "\\u%04x", c);
          out += esc;
        } else {
          out.push_back(c);
        }
    }
  }
  out += "\"";
  return out;
}

}  // namespace x100ir::harness
