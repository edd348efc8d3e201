#include "util/json.hpp"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "util/error.hpp"

namespace streamcalc::util {

bool Json::as_bool() const {
  require(kind_ == Kind::kBool, "Json: not a bool");
  return bool_;
}

double Json::as_number() const {
  require(kind_ == Kind::kNumber, "Json: not a number");
  return num_;
}

const std::string& Json::as_string() const {
  require(kind_ == Kind::kString, "Json: not a string");
  return str_;
}

const Json::Array& Json::as_array() const {
  require(kind_ == Kind::kArray, "Json: not an array");
  return arr_;
}

const Json* Json::find(const std::string& key) const {
  if (kind_ != Kind::kObject) return nullptr;
  const auto it = obj_.find(key);
  return it == obj_.end() ? nullptr : &it->second;
}

std::string Json::string_or(const std::string& key,
                            const std::string& fallback) const {
  const Json* v = find(key);
  return (v != nullptr && v->is_string()) ? v->str_ : fallback;
}

double Json::number_or(const std::string& key, double fallback) const {
  const Json* v = find(key);
  return (v != nullptr && v->is_number()) ? v->num_ : fallback;
}

bool Json::bool_or(const std::string& key, bool fallback) const {
  const Json* v = find(key);
  return (v != nullptr && v->is_bool()) ? v->bool_ : fallback;
}

void append_json_quote(std::string& out, std::string_view s) {
  out += '"';
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

void append_json_number(std::string& out, double v) {
  if (!std::isfinite(v)) {
    out += "null";
    return;
  }
  char buf[32];
  const int n = std::snprintf(buf, sizeof buf, "%.17g", v);
  out.append(buf, static_cast<std::size_t>(n));
}

std::string json_quote(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 2);
  append_json_quote(out, s);
  return out;
}

std::string json_number(double v) {
  std::string out;
  append_json_number(out, v);
  return out;
}

void Json::dump_to(std::string& out) const {
  switch (kind_) {
    case Kind::kNull:
      out += "null";
      break;
    case Kind::kBool:
      out += bool_ ? "true" : "false";
      break;
    case Kind::kNumber:
      append_json_number(out, num_);
      break;
    case Kind::kString:
      append_json_quote(out, str_);
      break;
    case Kind::kArray: {
      out += '[';
      bool first = true;
      for (const Json& v : arr_) {
        if (!first) out += ',';
        first = false;
        v.dump_to(out);
      }
      out += ']';
      break;
    }
    case Kind::kObject: {
      out += '{';
      bool first = true;
      for (const auto& [k, v] : obj_) {
        if (!first) out += ',';
        first = false;
        append_json_quote(out, k);
        out += ':';
        v.dump_to(out);
      }
      out += '}';
      break;
    }
  }
}

std::string Json::dump() const {
  std::string out;
  dump_to(out);
  return out;
}

bool Json::operator==(const Json& other) const {
  if (kind_ != other.kind_) return false;
  switch (kind_) {
    case Kind::kNull: return true;
    case Kind::kBool: return bool_ == other.bool_;
    case Kind::kNumber:
      // Plain double comparison; NaN never appears in a parsed value
      // (dump() renders non-finite as null and the parser rejects
      // literals outside the double range).
      return num_ == other.num_;
    case Kind::kString: return str_ == other.str_;
    case Kind::kArray: return arr_ == other.arr_;
    case Kind::kObject: return obj_ == other.obj_;
  }
  return false;
}

namespace {

/// Recursive-descent parser state over the input text.
class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  JsonParseResult run() {
    JsonParseResult result;
    skip_ws();
    if (!parse_value(result.value, result)) return result;
    skip_ws();
    if (pos_ != text_.size()) {
      fail(result, "trailing characters after JSON document");
    }
    return result;
  }

 private:
  static constexpr int kMaxDepth = 64;

  void fail(JsonParseResult& r, const std::string& why) const {
    if (r.error.empty()) {
      r.error = why;
      r.offset = pos_;
    }
  }

  void skip_ws() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  bool literal(const char* word) {
    const std::size_t len = std::char_traits<char>::length(word);
    if (text_.compare(pos_, len, word) != 0) return false;
    pos_ += len;
    return true;
  }

  bool parse_value(Json& out, JsonParseResult& r) {
    if (depth_ > kMaxDepth) {
      fail(r, "nesting depth exceeds limit");
      return false;
    }
    if (pos_ >= text_.size()) {
      fail(r, "unexpected end of input");
      return false;
    }
    const char c = text_[pos_];
    switch (c) {
      case 'n':
        if (!literal("null")) { fail(r, "invalid literal"); return false; }
        out = Json();
        return true;
      case 't':
        if (!literal("true")) { fail(r, "invalid literal"); return false; }
        out = Json(true);
        return true;
      case 'f':
        if (!literal("false")) { fail(r, "invalid literal"); return false; }
        out = Json(false);
        return true;
      case '"': {
        std::string s;
        if (!parse_string(s, r)) return false;
        out = Json(std::move(s));
        return true;
      }
      case '[': return parse_array(out, r);
      case '{': return parse_object(out, r);
      default: return parse_number(out, r);
    }
  }

  bool parse_string(std::string& out, JsonParseResult& r) {
    ++pos_;  // opening quote
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c == '"') {
        ++pos_;
        return true;
      }
      if (static_cast<unsigned char>(c) < 0x20) {
        fail(r, "unescaped control character in string");
        return false;
      }
      if (c != '\\') {
        out += c;
        ++pos_;
        continue;
      }
      ++pos_;
      if (pos_ >= text_.size()) {
        fail(r, "unterminated escape");
        return false;
      }
      const char e = text_[pos_++];
      switch (e) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          if (pos_ + 4 > text_.size()) {
            fail(r, "truncated \\u escape");
            return false;
          }
          unsigned cp = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_ + static_cast<std::size_t>(i)];
            cp <<= 4;
            if (h >= '0' && h <= '9') cp |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') cp |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') cp |= static_cast<unsigned>(h - 'A' + 10);
            else {
              fail(r, "invalid \\u escape digit");
              return false;
            }
          }
          pos_ += 4;
          if (cp >= 0xD800 && cp <= 0xDFFF) {
            fail(r, "surrogate \\u escapes are not supported");
            return false;
          }
          // UTF-8 encode the BMP code point.
          if (cp < 0x80) {
            out += static_cast<char>(cp);
          } else if (cp < 0x800) {
            out += static_cast<char>(0xC0 | (cp >> 6));
            out += static_cast<char>(0x80 | (cp & 0x3F));
          } else {
            out += static_cast<char>(0xE0 | (cp >> 12));
            out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (cp & 0x3F));
          }
          break;
        }
        default:
          fail(r, "unknown escape character");
          return false;
      }
    }
    fail(r, "unterminated string");
    return false;
  }

  bool parse_number(Json& out, JsonParseResult& r) {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    const auto digits = [&]() {
      std::size_t n = 0;
      while (pos_ < text_.size() &&
             std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0) {
        ++pos_;
        ++n;
      }
      return n;
    };
    const std::size_t int_start = pos_;
    const std::size_t int_digits = digits();
    if (int_digits == 0) {
      pos_ = start;
      fail(r, "invalid value");
      return false;
    }
    if (int_digits > 1 && text_[int_start] == '0') {
      pos_ = start;
      fail(r, "leading zeros are not permitted");
      return false;
    }
    if (pos_ < text_.size() && text_[pos_] == '.') {
      ++pos_;
      if (digits() == 0) {
        fail(r, "digits required after decimal point");
        return false;
      }
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) {
        ++pos_;
      }
      if (digits() == 0) {
        fail(r, "digits required in exponent");
        return false;
      }
    }
    const std::string token = text_.substr(start, pos_ - start);
    const double value = std::strtod(token.c_str(), nullptr);
    if (!std::isfinite(value)) {
      pos_ = start;
      fail(r, "number out of range");
      return false;
    }
    out = Json(value);
    return true;
  }

  bool parse_array(Json& out, JsonParseResult& r) {
    ++pos_;  // '['
    ++depth_;
    Json::Array items;
    skip_ws();
    if (pos_ < text_.size() && text_[pos_] == ']') {
      ++pos_;
      --depth_;
      out = Json(std::move(items));
      return true;
    }
    while (true) {
      Json item;
      skip_ws();
      if (!parse_value(item, r)) return false;
      items.push_back(std::move(item));
      skip_ws();
      if (pos_ >= text_.size()) {
        fail(r, "unterminated array");
        return false;
      }
      if (text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (text_[pos_] == ']') {
        ++pos_;
        --depth_;
        out = Json(std::move(items));
        return true;
      }
      fail(r, "expected ',' or ']' in array");
      return false;
    }
  }

  bool parse_object(Json& out, JsonParseResult& r) {
    ++pos_;  // '{'
    ++depth_;
    Json::Object fields;
    skip_ws();
    if (pos_ < text_.size() && text_[pos_] == '}') {
      ++pos_;
      --depth_;
      out = Json(std::move(fields));
      return true;
    }
    while (true) {
      skip_ws();
      if (pos_ >= text_.size() || text_[pos_] != '"') {
        fail(r, "expected string key in object");
        return false;
      }
      std::string key;
      if (!parse_string(key, r)) return false;
      skip_ws();
      if (pos_ >= text_.size() || text_[pos_] != ':') {
        fail(r, "expected ':' after object key");
        return false;
      }
      ++pos_;
      skip_ws();
      Json value;
      if (!parse_value(value, r)) return false;
      fields[std::move(key)] = std::move(value);  // last duplicate key wins
      skip_ws();
      if (pos_ >= text_.size()) {
        fail(r, "unterminated object");
        return false;
      }
      if (text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (text_[pos_] == '}') {
        ++pos_;
        --depth_;
        out = Json(std::move(fields));
        return true;
      }
      fail(r, "expected ',' or '}' in object");
      return false;
    }
  }

  const std::string& text_;
  std::size_t pos_ = 0;
  int depth_ = 0;
};

}  // namespace

JsonParseResult json_parse(const std::string& text) {
  return Parser(text).run();
}

}  // namespace streamcalc::util
