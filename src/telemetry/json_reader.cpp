#include "telemetry/json_reader.hpp"

#include <cstdlib>

#include "telemetry/run_report.hpp"

namespace pmsb::telemetry::json {

namespace {

/// Recursive-descent parser over a complete text. Keeps a depth counter so
/// hostile or corrupted inputs cannot overflow the native stack.
class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  Value parse_document() {
    Value v = parse_value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing characters after document");
    return v;
  }

 private:
  static constexpr int kMaxDepth = 256;

  [[noreturn]] void fail(const std::string& what) const {
    throw ParseError("json: " + what + " at offset " + std::to_string(pos_));
  }

  void skip_ws() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') return;
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  bool consume_literal(const char* lit) {
    std::size_t n = 0;
    while (lit[n] != '\0') ++n;
    if (text_.compare(pos_, n, lit) != 0) return false;
    pos_ += n;
    return true;
  }

  void append_utf8(std::string& out, unsigned code) {
    if (code < 0x80) {
      out += static_cast<char>(code);
    } else if (code < 0x800) {
      out += static_cast<char>(0xc0 | (code >> 6));
      out += static_cast<char>(0x80 | (code & 0x3f));
    } else if (code < 0x10000) {
      out += static_cast<char>(0xe0 | (code >> 12));
      out += static_cast<char>(0x80 | ((code >> 6) & 0x3f));
      out += static_cast<char>(0x80 | (code & 0x3f));
    } else {
      out += static_cast<char>(0xf0 | (code >> 18));
      out += static_cast<char>(0x80 | ((code >> 12) & 0x3f));
      out += static_cast<char>(0x80 | ((code >> 6) & 0x3f));
      out += static_cast<char>(0x80 | (code & 0x3f));
    }
  }

  /// The 4 hex digits of a \uXXXX escape (the "\u" already consumed).
  unsigned parse_hex4() {
    if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
    unsigned code = 0;
    for (int i = 0; i < 4; ++i) {
      const char h = text_[pos_++];
      code <<= 4;
      if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
      else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
      else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
      else fail("invalid \\u escape digit");
    }
    return code;
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) fail("unterminated escape");
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          unsigned code = parse_hex4();
          if (code >= 0xdc00 && code <= 0xdfff) {
            fail("lone low surrogate in \\u escape");
          }
          if (code >= 0xd800 && code <= 0xdbff) {
            // High surrogate: must pair with \uDC00..\uDFFF to form one
            // supplementary-plane code point (RFC 8259 section 7).
            if (pos_ + 2 > text_.size() || text_[pos_] != '\\' ||
                text_[pos_ + 1] != 'u') {
              fail("high surrogate not followed by \\u escape");
            }
            pos_ += 2;
            const unsigned low = parse_hex4();
            if (low < 0xdc00 || low > 0xdfff) {
              fail("high surrogate not followed by low surrogate");
            }
            code = 0x10000 + ((code - 0xd800) << 10) + (low - 0xdc00);
          }
          append_utf8(out, code);
          break;
        }
        default: fail("unknown escape character");
      }
    }
  }

  Value parse_number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if ((c >= '0' && c <= '9') || c == '.' || c == 'e' || c == 'E' ||
          c == '+' || c == '-') {
        ++pos_;
      } else {
        break;
      }
    }
    Value v;
    v.kind = Value::Kind::kNumber;
    v.raw_number = text_.substr(start, pos_ - start);
    char* end = nullptr;
    v.number = std::strtod(v.raw_number.c_str(), &end);
    if (end == v.raw_number.c_str() || *end != '\0') fail("malformed number");
    return v;
  }

  Value parse_value() {
    if (++depth_ > kMaxDepth) fail("nesting too deep");
    skip_ws();
    Value v;
    switch (peek()) {
      case '{': {
        v.kind = Value::Kind::kObject;
        ++pos_;
        skip_ws();
        if (peek() == '}') {
          ++pos_;
          break;
        }
        while (true) {
          skip_ws();
          std::string key = parse_string();
          skip_ws();
          expect(':');
          v.object[std::move(key)] = parse_value();
          skip_ws();
          if (peek() == ',') {
            ++pos_;
            continue;
          }
          expect('}');
          break;
        }
        break;
      }
      case '[': {
        v.kind = Value::Kind::kArray;
        ++pos_;
        skip_ws();
        if (peek() == ']') {
          ++pos_;
          break;
        }
        while (true) {
          v.array.push_back(parse_value());
          skip_ws();
          if (peek() == ',') {
            ++pos_;
            continue;
          }
          expect(']');
          break;
        }
        break;
      }
      case '"':
        v.kind = Value::Kind::kString;
        v.string = parse_string();
        break;
      case 't':
        if (!consume_literal("true")) fail("invalid literal");
        v.kind = Value::Kind::kBool;
        v.boolean = true;
        break;
      case 'f':
        if (!consume_literal("false")) fail("invalid literal");
        v.kind = Value::Kind::kBool;
        v.boolean = false;
        break;
      case 'n':
        if (!consume_literal("null")) fail("invalid literal");
        v.kind = Value::Kind::kNull;
        break;
      default:
        v = parse_number();
        break;
    }
    --depth_;
    return v;
  }

  const std::string& text_;
  std::size_t pos_ = 0;
  int depth_ = 0;
};

}  // namespace

const Value* Value::find(const std::string& key) const {
  if (kind != Kind::kObject) return nullptr;
  const auto it = object.find(key);
  return it == object.end() ? nullptr : &it->second;
}

const Value& Value::at(const std::string& key) const {
  const Value* v = find(key);
  if (v == nullptr) throw ParseError("json: missing key '" + key + "'");
  return *v;
}

Value parse(const std::string& text) { return Parser(text).parse_document(); }

namespace {

void write_value(JsonWriter& w, const Value& v) {
  switch (v.kind) {
    case Value::Kind::kNull:
      w.raw_value("null");
      break;
    case Value::Kind::kBool:
      w.value(v.boolean);
      break;
    case Value::Kind::kNumber:
      if (v.raw_number.empty()) {
        w.value(v.number);
      } else {
        w.raw_value(v.raw_number);
      }
      break;
    case Value::Kind::kString:
      w.value(v.string);
      break;
    case Value::Kind::kArray:
      w.begin_array();
      for (const Value& e : v.array) write_value(w, e);
      w.end_array();
      break;
    case Value::Kind::kObject:
      w.begin_object();
      for (const auto& [k, e] : v.object) {
        w.key(k);
        write_value(w, e);
      }
      w.end_object();
      break;
  }
}

}  // namespace

std::string to_json(const Value& value) {
  JsonWriter w;
  write_value(w, value);
  return w.str();
}

}  // namespace pmsb::telemetry::json
