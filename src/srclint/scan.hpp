// Lexical scanner for srclint (the project-invariant analyzer, DESIGN.md
// §13). Produces a flat token stream from C++ source text with exactly the
// classification the rules need:
//
//   * comments and string/character literals are their own token kinds, so
//     a rule matching `std::mutex` never fires on a mention inside a doc
//     comment or a diagnostic message string;
//   * preprocessor directives are swallowed whole (one kDirective token per
//     logical line, backslash continuations included) — `#include <mutex>`
//     must not look like an identifier `mutex`;
//   * everything else becomes identifiers, numbers, and punctuators with
//     1-based line provenance.
//
// This is deliberately not a C++ parser. The rules it feeds are lexical
// invariants ("this token sequence may only appear in that file"), which is
// what keeps srclint dependency-free, fast over the whole tree, and immune
// to the header/flag configuration problems of AST-level tools.
#pragma once

#include <string>
#include <string_view>
#include <vector>

namespace streamcalc::srclint {

enum class TokenKind {
  kIdentifier,   // identifiers and keywords, including `mutable`, `std`
  kNumber,       // integer and floating literals (suffixes attached)
  kString,       // "..." / R"tag(...)tag" — text excludes the quotes
  kChar,         // '...'
  kPunct,        // operators and punctuation, longest-match (`==`, `::`)
  kComment,      // // and /* */ bodies — text excludes the delimiters
  kDirective,    // one whole preprocessor logical line, `#` included
};

struct Token {
  TokenKind kind = TokenKind::kPunct;
  /// The token's text. For kString/kChar/kComment this is the *content*
  /// (delimiters stripped) so rules can inspect comment bodies directly.
  std::string text;
  /// 1-based line of the token's first character.
  int line = 1;
};

/// Tokenizes `source`. Never throws on malformed input: an unterminated
/// comment or literal simply extends to end of input (srclint findings must
/// degrade gracefully on code that the real compiler would reject anyway).
std::vector<Token> lex(std::string_view source);

/// Token predicates shared by the per-file rules and the structural pass.
inline bool is_ident(const Token& t, std::string_view text) {
  return t.kind == TokenKind::kIdentifier && t.text == text;
}

inline bool is_punct(const Token& t, std::string_view text) {
  return t.kind == TokenKind::kPunct && t.text == text;
}

/// The non-empty segments of `path` split at `/` and `\`, as views into
/// `path`: rule scopes and layer directories match on whole segments.
std::vector<std::string_view> path_segments(std::string_view path);

bool has_segment(const std::vector<std::string_view>& segs,
                 std::string_view name);

}  // namespace streamcalc::srclint
