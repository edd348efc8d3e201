#include "srclint/scan.hpp"

#include <algorithm>
#include <cctype>
#include <cstddef>

namespace streamcalc::srclint {

namespace {

bool is_ident_start(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) || c == '_';
}

bool is_digit(char c) { return std::isdigit(static_cast<unsigned char>(c)); }

/// The multi-character punctuators we must not split: rules match `::`
/// exactly, and `!=` must not decay into `!` `=`. Longest match first.
constexpr std::string_view kPuncts3[] = {"<<=", ">>=", "...", "->*"};
constexpr std::string_view kPuncts2[] = {"::", "==", "!=", "<=", ">=", "->",
                                         "&&", "||", "<<", ">>", "+=", "-=",
                                         "*=", "/=", "%=", "&=", "|=", "^=",
                                         "++", "--", ".*"};

class Lexer {
 public:
  explicit Lexer(std::string_view src) : src_(src) {}

  std::vector<Token> run() {
    while (pos_ < src_.size()) {
      const char c = src_[pos_];
      if (c == '\n') {
        ++line_;
        ++pos_;
        at_line_start_ = true;
        continue;
      }
      if (c == ' ' || c == '\t' || c == '\r' || c == '\v' || c == '\f') {
        ++pos_;
        continue;
      }
      if (c == '#' && at_line_start_) {
        lex_directive();
        continue;
      }
      at_line_start_ = false;
      if (c == '/' && peek(1) == '/') {
        lex_line_comment();
      } else if (c == '/' && peek(1) == '*') {
        lex_block_comment();
      } else if (is_ident_start(c)) {
        lex_identifier_or_prefixed_literal();
      } else if (is_digit(c) || (c == '.' && is_digit(peek(1)))) {
        lex_number();
      } else if (c == '"') {
        lex_string(pos_);
      } else if (c == '\'') {
        lex_char(pos_);
      } else {
        lex_punct();
      }
    }
    return std::move(tokens_);
  }

 private:
  char peek(std::size_t ahead) const {
    return pos_ + ahead < src_.size() ? src_[pos_ + ahead] : '\0';
  }

  void add(TokenKind kind, std::string text, int line) {
    tokens_.push_back(Token{kind, std::move(text), line});
  }

  /// Counts newlines in the consumed range [from, pos_).
  void bump_lines(std::size_t from) {
    for (std::size_t i = from; i < pos_; ++i) {
      if (src_[i] == '\n') ++line_;
    }
  }

  void lex_directive() {
    const int start_line = line_;
    const std::size_t start = pos_;
    while (pos_ < src_.size()) {
      if (src_[pos_] == '\\' && peek(1) == '\n') {
        pos_ += 2;  // logical-line continuation
        continue;
      }
      if (src_[pos_] == '\n') break;  // newline stays for the main loop
      ++pos_;
    }
    std::size_t end = pos_;
    bump_lines(start);
    add(TokenKind::kDirective, std::string(src_.substr(start, end - start)),
        start_line);
  }

  void lex_line_comment() {
    const std::size_t start = pos_ + 2;
    pos_ = start;
    while (pos_ < src_.size() && src_[pos_] != '\n') ++pos_;
    add(TokenKind::kComment, std::string(src_.substr(start, pos_ - start)),
        line_);
  }

  void lex_block_comment() {
    const int start_line = line_;
    const std::size_t start = pos_ + 2;
    pos_ = start;
    while (pos_ < src_.size() &&
           !(src_[pos_] == '*' && peek(1) == '/')) {
      ++pos_;
    }
    const std::size_t end = pos_;
    if (pos_ < src_.size()) pos_ += 2;
    bump_lines(start);
    add(TokenKind::kComment, std::string(src_.substr(start, end - start)),
        start_line);
  }

  /// Identifiers, with the literal-prefix special cases: `R"(..)"`,
  /// `u8"x"`, `L'c'` must become string/char tokens, not an identifier
  /// glued to a literal.
  void lex_identifier_or_prefixed_literal() {
    const std::size_t start = pos_;
    while (pos_ < src_.size() && is_ident_char(src_[pos_])) ++pos_;
    const std::string_view word = src_.substr(start, pos_ - start);
    if (pos_ < src_.size()) {
      const bool string_prefix = word == "R" || word == "u8" || word == "u" ||
                                 word == "U" || word == "L" || word == "u8R" ||
                                 word == "uR" || word == "UR" || word == "LR";
      if (string_prefix && src_[pos_] == '"') {
        if (word.back() == 'R') {
          lex_raw_string(start);
        } else {
          lex_string(start);
        }
        return;
      }
      if (string_prefix && word.back() != 'R' && src_[pos_] == '\'') {
        lex_char(start);
        return;
      }
    }
    add(TokenKind::kIdentifier, std::string(word), line_);
  }

  void lex_number() {
    const std::size_t start = pos_;
    if (src_[pos_] == '0' && (peek(1) == 'x' || peek(1) == 'X')) {
      pos_ += 2;
      while (pos_ < src_.size() &&
             (std::isxdigit(static_cast<unsigned char>(src_[pos_])) ||
              src_[pos_] == '\'' || src_[pos_] == '.' || src_[pos_] == 'p' ||
              src_[pos_] == 'P')) {
        // Hex-float exponents are signed: 0x1p-3.
        if ((src_[pos_] == 'p' || src_[pos_] == 'P') &&
            (peek(1) == '+' || peek(1) == '-')) {
          ++pos_;
        }
        ++pos_;
      }
    } else {
      while (pos_ < src_.size() &&
             (is_digit(src_[pos_]) || src_[pos_] == '\'' ||
              src_[pos_] == '.' || src_[pos_] == 'e' || src_[pos_] == 'E')) {
        if ((src_[pos_] == 'e' || src_[pos_] == 'E') &&
            (peek(1) == '+' || peek(1) == '-')) {
          ++pos_;
        }
        ++pos_;
      }
    }
    // Literal suffixes (f, F, l, L, u, U, z, ll, ull, ...).
    while (pos_ < src_.size() &&
           std::isalpha(static_cast<unsigned char>(src_[pos_]))) {
      ++pos_;
    }
    add(TokenKind::kNumber, std::string(src_.substr(start, pos_ - start)),
        line_);
  }

  /// Ordinary (escaped) string literal; `prefix_start` points at the start
  /// of any encoding prefix so it is consumed with the literal.
  void lex_string(std::size_t prefix_start) {
    const int start_line = line_;
    while (pos_ < src_.size() && src_[pos_] != '"') ++pos_;  // skip prefix
    ++pos_;  // opening quote
    const std::size_t body = pos_;
    while (pos_ < src_.size() && src_[pos_] != '"') {
      if (src_[pos_] == '\\' && pos_ + 1 < src_.size()) ++pos_;
      if (src_[pos_] == '\n') ++line_;
      ++pos_;
    }
    const std::size_t end = pos_;
    if (pos_ < src_.size()) ++pos_;  // closing quote
    add(TokenKind::kString, std::string(src_.substr(body, end - body)),
        start_line);
    static_cast<void>(prefix_start);
  }

  void lex_raw_string(std::size_t prefix_start) {
    const int start_line = line_;
    while (pos_ < src_.size() && src_[pos_] != '"') ++pos_;  // skip prefix
    ++pos_;  // opening quote
    std::string delim;
    while (pos_ < src_.size() && src_[pos_] != '(') delim += src_[pos_++];
    ++pos_;  // '('
    const std::string closer = ")" + delim + "\"";
    const std::size_t body = pos_;
    const std::size_t found = src_.find(closer, pos_);
    const std::size_t end = found == std::string_view::npos ? src_.size()
                                                            : found;
    pos_ = found == std::string_view::npos ? src_.size()
                                           : found + closer.size();
    bump_lines(body);
    add(TokenKind::kString, std::string(src_.substr(body, end - body)),
        start_line);
    static_cast<void>(prefix_start);
  }

  void lex_char(std::size_t prefix_start) {
    while (pos_ < src_.size() && src_[pos_] != '\'') ++pos_;  // skip prefix
    ++pos_;  // opening quote
    const std::size_t body = pos_;
    while (pos_ < src_.size() && src_[pos_] != '\'') {
      if (src_[pos_] == '\\' && pos_ + 1 < src_.size()) ++pos_;
      ++pos_;
    }
    const std::size_t end = pos_;
    if (pos_ < src_.size()) ++pos_;  // closing quote
    add(TokenKind::kChar, std::string(src_.substr(body, end - body)), line_);
    static_cast<void>(prefix_start);
  }

  void lex_punct() {
    const std::string_view rest = src_.substr(pos_);
    for (const std::string_view p : kPuncts3) {
      if (rest.substr(0, 3) == p) {
        add(TokenKind::kPunct, std::string(p), line_);
        pos_ += 3;
        return;
      }
    }
    for (const std::string_view p : kPuncts2) {
      if (rest.substr(0, 2) == p) {
        add(TokenKind::kPunct, std::string(p), line_);
        pos_ += 2;
        return;
      }
    }
    add(TokenKind::kPunct, std::string(1, src_[pos_]), line_);
    ++pos_;
  }

  std::string_view src_;
  std::size_t pos_ = 0;
  int line_ = 1;
  bool at_line_start_ = true;
  std::vector<Token> tokens_;
};

}  // namespace

std::vector<Token> lex(std::string_view source) {
  return Lexer(source).run();
}

std::vector<std::string_view> path_segments(std::string_view path) {
  std::vector<std::string_view> out;
  std::size_t start = 0;
  for (std::size_t i = 0; i <= path.size(); ++i) {
    if (i == path.size() || path[i] == '/' || path[i] == '\\') {
      if (i > start) out.push_back(path.substr(start, i - start));
      start = i + 1;
    }
  }
  return out;
}

bool has_segment(const std::vector<std::string_view>& segs,
                 std::string_view name) {
  return std::find(segs.begin(), segs.end(), name) != segs.end();
}

}  // namespace streamcalc::srclint
