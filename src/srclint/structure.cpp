#include "srclint/structure.hpp"

#include <algorithm>

#include "srclint/scan.hpp"

namespace streamcalc::srclint {

namespace {

bool is_keyword(std::string_view s) {
  static constexpr std::string_view kKeywords[] = {
      "if",        "while",      "for",          "switch",
      "return",    "sizeof",     "catch",        "throw",
      "new",       "delete",     "alignof",      "alignas",
      "decltype",  "noexcept",   "typeid",       "static_assert",
      "static_cast",             "dynamic_cast", "const_cast",
      "reinterpret_cast",        "requires",     "co_await",
      "co_yield",  "co_return",  "operator",     "defined",
  };
  return std::find(std::begin(kKeywords), std::end(kKeywords), s) !=
         std::end(kKeywords);
}

/// All-caps-with-underscores: an annotation/assertion macro such as
/// SC_REQUIRES or EXPECT_EQ. Used to keep trailing attribute macros from
/// stealing an armed function-definition candidate.
bool macro_like(std::string_view s) {
  bool has_alpha = false;
  for (const char c : s) {
    if (c >= 'a' && c <= 'z') return false;
    if (c >= 'A' && c <= 'Z') has_alpha = true;
  }
  return has_alpha;
}

/// Parses `#include "target"` out of a directive token's text.
bool parse_quoted_include(std::string_view directive, std::string* target) {
  std::size_t i = 0;
  auto skip_ws = [&] {
    while (i < directive.size() &&
           (directive[i] == ' ' || directive[i] == '\t')) {
      ++i;
    }
  };
  if (i < directive.size() && directive[i] == '#') ++i;
  skip_ws();
  if (directive.substr(i, 7) != "include") return false;
  i += 7;
  skip_ws();
  if (i >= directive.size() || directive[i] != '"') return false;
  const std::size_t close = directive.find('"', i + 1);
  if (close == std::string_view::npos) return false;
  *target = std::string(directive.substr(i + 1, close - i - 1));
  return true;
}

struct Walker {
  explicit Walker(const std::string& path) { model.path = path; }

  FileModel model;
  std::vector<Token> code;  // comments and directives stripped

  struct Scope {
    enum class Kind { kBlock, kClass, kFunction, kLambda };
    Kind kind = Kind::kBlock;
    std::string class_name;      // kClass only
    std::size_t lock_floor = 0;  // kLambda: locks below are suspended
    int fn_index = -1;           // kFunction only
  };
  std::vector<Scope> scopes;

  struct LiveLock {
    std::string expr;
    std::size_t depth = 0;  // scopes.size() at acquisition
  };
  std::vector<LiveLock> locks;

  std::size_t paren_depth = 0;

  // A `class`/`struct` head seen; the next top-level `{` opens its body.
  bool pending_class = false;
  bool pending_class_base = false;  // past the `:` base clause
  std::string pending_class_name;

  // A `name(...)` signature seen at declaration scope; `{` opens the
  // body, `;` makes it a plain declaration.
  bool pending_fn = false;
  std::string pending_fn_name;
  std::string pending_fn_qual;
  int pending_fn_line = 0;

  // A lambda introducer seen; the `{` at this paren depth opens its body.
  bool pending_lambda = false;
  std::size_t pending_lambda_depth = 0;

  int current_fn() const {
    for (std::size_t i = scopes.size(); i > 0; --i) {
      const Scope& s = scopes[i - 1];
      if (s.kind == Scope::Kind::kFunction) return s.fn_index;
      if (s.kind == Scope::Kind::kLambda) {
        // Lambdas belong to their enclosing function; keep looking.
        continue;
      }
    }
    return -1;
  }

  bool in_function() const {
    for (const Scope& s : scopes) {
      if (s.kind == Scope::Kind::kFunction) return true;
    }
    return false;
  }

  std::string innermost_class() const {
    for (std::size_t i = scopes.size(); i > 0; --i) {
      if (scopes[i - 1].kind == Scope::Kind::kClass) {
        return scopes[i - 1].class_name;
      }
    }
    return {};
  }

  /// Locks visible at the current point: everything acquired since the
  /// innermost lambda barrier (a lambda body does not hold its creator's
  /// scoped locks).
  std::vector<std::string> held_locks() const {
    std::size_t floor = 0;
    for (std::size_t i = scopes.size(); i > 0; --i) {
      if (scopes[i - 1].kind == Scope::Kind::kLambda) {
        floor = scopes[i - 1].lock_floor;
        break;
      }
    }
    std::vector<std::string> held;
    for (std::size_t i = floor; i < locks.size(); ++i) {
      held.push_back(locks[i].expr);
    }
    return held;
  }

  FunctionModel* fn() {
    const int idx = current_fn();
    return idx < 0 ? nullptr
                   : &model.functions[static_cast<std::size_t>(idx)];
  }
};

/// Joins the tokens of a parenthesized expression into a compact string
/// ("tenant -> mutex" becomes "tenant->mutex").
std::string join_expr(const std::vector<Token>& code, std::size_t begin,
                      std::size_t end) {
  std::string out;
  for (std::size_t i = begin; i < end; ++i) out += code[i].text;
  return out;
}

/// Index of the matching `)` for the `(` at `open` (or `}` for `{`),
/// tolerating nesting of both bracket kinds. Returns code.size() when
/// unbalanced.
std::size_t matching_close(const std::vector<Token>& code, std::size_t open) {
  const bool brace = is_punct(code[open], "{");
  int depth = 0;
  for (std::size_t i = open; i < code.size(); ++i) {
    if (is_punct(code[i], brace ? "{" : "(")) ++depth;
    if (is_punct(code[i], brace ? "}" : ")")) {
      if (--depth == 0) return i;
    }
  }
  return code.size();
}

}  // namespace

FileModel build_file_model(const std::string& path,
                           std::string_view content) {
  Walker w(path);
  for (Token& t : lex(content)) {
    if (t.kind == TokenKind::kComment) continue;
    if (t.kind == TokenKind::kDirective) {
      std::string target;
      if (parse_quoted_include(t.text, &target)) {
        w.model.includes.push_back(IncludeRef{std::move(target), t.line});
      }
      continue;
    }
    w.code.push_back(std::move(t));
  }
  const std::vector<Token>& code = w.code;

  for (std::size_t i = 0; i < code.size(); ++i) {
    const Token& t = code[i];

    // --- brace scopes ------------------------------------------------------
    if (is_punct(t, "{")) {
      Walker::Scope scope;
      if (w.pending_lambda && w.paren_depth == w.pending_lambda_depth) {
        scope.kind = Walker::Scope::Kind::kLambda;
        scope.lock_floor = w.locks.size();
        w.pending_lambda = false;
      } else if (w.pending_class && w.paren_depth == 0) {
        scope.kind = Walker::Scope::Kind::kClass;
        scope.class_name = w.pending_class_name;
        w.pending_class = false;
      } else if (w.pending_fn && w.paren_depth == 0) {
        scope.kind = Walker::Scope::Kind::kFunction;
        FunctionModel fm;
        fm.owner = !w.pending_fn_qual.empty() ? w.pending_fn_qual
                                              : w.innermost_class();
        fm.name = w.pending_fn_name;
        fm.line = w.pending_fn_line;
        scope.fn_index = static_cast<int>(w.model.functions.size());
        w.model.functions.push_back(std::move(fm));
      }
      // Whatever this brace opened, stale candidates must not leak into
      // the next one (a member brace-init would otherwise become a
      // phantom function body).
      w.pending_fn = false;
      w.pending_class = false;
      w.scopes.push_back(std::move(scope));
      continue;
    }
    if (is_punct(t, "}")) {
      if (!w.scopes.empty()) w.scopes.pop_back();
      while (!w.locks.empty() && w.locks.back().depth > w.scopes.size()) {
        w.locks.pop_back();
      }
      continue;
    }
    if (is_punct(t, "(")) {
      ++w.paren_depth;
      continue;
    }
    if (is_punct(t, ")")) {
      if (w.paren_depth > 0) --w.paren_depth;
      continue;
    }
    if (is_punct(t, ";") && w.paren_depth == 0) {
      w.pending_fn = false;
      w.pending_class = false;
      w.pending_lambda = false;
      continue;
    }

    // --- class heads -------------------------------------------------------
    if ((is_ident(t, "class") || is_ident(t, "struct")) && w.paren_depth == 0 &&
        !(i > 0 && is_ident(code[i - 1], "enum"))) {
      w.pending_class = true;
      w.pending_class_base = false;
      w.pending_class_name.clear();
      continue;
    }
    if (w.pending_class) {
      if (is_punct(t, ":") && w.paren_depth == 0) {
        w.pending_class_base = true;
      } else if (t.kind == TokenKind::kIdentifier && !w.pending_class_base &&
                 w.paren_depth == 0 && t.text != "final" &&
                 t.text != "alignas") {
        w.pending_class_name = t.text;
      }
      // Falls through: the head tokens get no other interpretation.
    }

    // --- lambda introducers ------------------------------------------------
    if (is_punct(t, "[") && w.in_function()) {
      const bool subscript =
          i > 0 && ((code[i - 1].kind == TokenKind::kIdentifier &&
                     !is_keyword(code[i - 1].text)) ||
                    is_punct(code[i - 1], "]") || is_punct(code[i - 1], ")"));
      if (!subscript) {
        // Find the matching `]` and require a lambda-ish continuation.
        int depth = 0;
        std::size_t j = i;
        for (; j < code.size(); ++j) {
          if (is_punct(code[j], "[")) ++depth;
          if (is_punct(code[j], "]") && --depth == 0) break;
        }
        if (j + 1 < code.size() &&
            (is_punct(code[j + 1], "(") || is_punct(code[j + 1], "{") ||
             is_ident(code[j + 1], "mutable") ||
             is_ident(code[j + 1], "noexcept") ||
             is_punct(code[j + 1], "->"))) {
          w.pending_lambda = true;
          w.pending_lambda_depth = w.paren_depth;
        }
      }
      continue;
    }

    if (t.kind != TokenKind::kIdentifier) continue;

    // --- util::Mutex declarations -----------------------------------------
    if (t.text == "Mutex" && i + 2 < code.size() &&
        code[i + 1].kind == TokenKind::kIdentifier &&
        is_punct(code[i + 2], ";")) {
      MutexDecl decl;
      decl.owner = w.innermost_class();
      if (decl.owner.empty()) {
        const FunctionModel* f = w.fn();
        if (f != nullptr) decl.owner = f->name;
      }
      decl.name = code[i + 1].text;
      decl.line = code[i + 1].line;
      w.model.mutexes.push_back(std::move(decl));
      continue;
    }

    // --- SC_GUARDED_BY slots: skip the argument so its tokens are not
    // taken for a call or a function-definition candidate.
    if ((t.text == "SC_GUARDED_BY" || t.text == "SC_PT_GUARDED_BY") &&
        i + 1 < code.size() && is_punct(code[i + 1], "(") && i > 0 &&
        code[i - 1].kind == TokenKind::kIdentifier) {
      i = matching_close(code, i + 1);
      continue;
    }

    // --- MutexLock acquisitions -------------------------------------------
    if (t.text == "MutexLock" && i + 2 < code.size() &&
        code[i + 1].kind == TokenKind::kIdentifier &&
        (is_punct(code[i + 2], "(") || is_punct(code[i + 2], "{"))) {
      const std::size_t close = matching_close(code, i + 2);
      const std::string expr = join_expr(code, i + 3, close);
      FunctionModel* f = w.fn();
      if (f != nullptr && !expr.empty()) {
        const int line = code[i + 1].line;
        for (const std::string& outer : w.held_locks()) {
          f->nested.push_back(NestedAcquire{outer, expr, line});
        }
        f->acquires.push_back(LockAcquire{expr, line});
        w.locks.push_back(Walker::LiveLock{expr, w.scopes.size()});
      }
      i = close;
      continue;
    }

    // --- calls and function-definition candidates --------------------------
    if (i + 1 < code.size() && is_punct(code[i + 1], "(") &&
        !is_keyword(t.text)) {
      const bool member =
          i > 0 && (is_punct(code[i - 1], ".") || is_punct(code[i - 1], "->"));
      std::string qual;
      bool global_colon = false;
      if (i > 0 && is_punct(code[i - 1], "::")) {
        if (i > 1 && code[i - 2].kind == TokenKind::kIdentifier) {
          qual = code[i - 2].text;
        } else {
          global_colon = true;
        }
      } else if (member && i > 1 &&
                 code[i - 2].kind == TokenKind::kIdentifier) {
        qual = code[i - 2].text;
      }
      if (w.in_function()) {
        CallSite call;
        call.name = t.text;
        call.qual = qual;
        call.member = member;
        call.global_colon = global_colon;
        call.line = t.line;
        call.held = w.held_locks();
        FunctionModel* f = w.fn();
        if (f != nullptr) f->calls.push_back(std::move(call));
      } else if (!member && w.paren_depth == 0) {
        // Possible function definition: arm (or keep) the candidate — but
        // only at zero paren depth, or `std::function<void()>` inside a
        // parameter list would overwrite the real name with `void`. A
        // trailing annotation macro (SC_REQUIRES, ...) must not steal an
        // armed candidate's name either.
        if (!w.pending_fn || !macro_like(t.text)) {
          w.pending_fn = true;
          std::string name = t.text;
          std::string fq = qual;
          if (i > 0 && is_punct(code[i - 1], "~")) {
            name = "~" + name;
            if (i > 2 && is_punct(code[i - 2], "::") &&
                code[i - 3].kind == TokenKind::kIdentifier) {
              fq = code[i - 3].text;
            }
          }
          w.pending_fn_name = name;
          w.pending_fn_qual = fq;
          w.pending_fn_line = t.line;
        }
      }
      continue;
    }
  }
  return w.model;
}

}  // namespace streamcalc::srclint
