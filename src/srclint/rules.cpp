#include "srclint/rules.hpp"

#include <algorithm>
#include <cctype>
#include <cstdint>
#include <sstream>

#include "srclint/scan.hpp"

namespace streamcalc::srclint {

namespace {

// --- path predicates -------------------------------------------------------

std::string normalize(std::string path) {
  std::replace(path.begin(), path.end(), '\\', '/');
  return path;
}

/// `path` names exactly `suffix` relative to some root: equal, or ends
/// with "/" + suffix.
bool path_is(std::string_view path, std::string_view suffix) {
  if (path == suffix) return true;
  if (path.size() <= suffix.size()) return false;
  return path[path.size() - suffix.size() - 1] == '/' &&
         path.substr(path.size() - suffix.size()) == suffix;
}

/// Every per-rule allowlist entry; the rationale for each sits with its
/// rule below.
constexpr AllowlistEntry kAllowlist[] = {
    {"SC901", "src/util/sync.hpp"},
    {"SC902", "src/util/env.hpp"},
    {"SC903", "src/util/context.cpp"},
    {"SC903", "src/obs/runtime.cpp"},
    {"SC907", "src/util/parallel_for.cpp"},
    {"SC907", "src/serve/server.hpp"},
    {"SC907", "src/serve/server.cpp"},
    {"SC908", "src/apps/bitw.hpp"},
    {"SC908", "src/apps/blast.hpp"},
};

/// The names that SC901 bans when reached through `std::`.
constexpr std::string_view kRawSyncNames[] = {
    "mutex",          "timed_mutex",      "recursive_mutex",
    "recursive_timed_mutex", "shared_mutex", "shared_timed_mutex",
    "condition_variable", "condition_variable_any",
    "lock_guard",     "unique_lock",      "scoped_lock",
    "shared_lock",
};

/// The functions SC903 treats as environment reads.
constexpr std::string_view kEnvReaders[] = {
    "getenv", "env_raw", "env_uint", "env_uint_in", "env_bool",
};

struct FileContext {
  std::string path;                       // normalized, as given
  std::vector<std::string_view> segs;
  std::vector<Token> code;                // comments/directives stripped
  std::vector<Token> comments;
  bool mentions_project_mutex = false;    // any `Mutex` identifier in code
  std::vector<Finding>* findings = nullptr;

  bool allowlisted(std::string_view code_id) const {
    for (const AllowlistEntry& e : kAllowlist) {
      if (e.code == code_id && path_is(path, e.path)) return true;
    }
    return false;
  }

  const Token* at(std::size_t i) const {
    return i < code.size() ? &code[i] : nullptr;
  }

  void add(const std::string& code_id, int line, std::string message,
           std::string hint = "") const {
    findings->push_back(
        Finding{code_id, path, line, std::move(message), std::move(hint)});
  }
};

// --- SC901: raw standard synchronization primitives ------------------------
//
// std::mutex and friends are invisible to Clang's thread-safety analysis
// (they carry no capability attributes), so locking through them silently
// opts the surrounding code out of the -Werror=thread-safety gate. Only
// util/sync.hpp — which defines the annotated wrappers — may spell them.
void rule_sc901(const FileContext& f) {
  if (f.allowlisted("SC901")) return;
  for (std::size_t i = 0; i + 2 < f.code.size(); ++i) {
    if (!is_ident(f.code[i], "std") || !is_punct(f.code[i + 1], "::")) {
      continue;
    }
    const Token& name = f.code[i + 2];
    if (name.kind != TokenKind::kIdentifier) continue;
    for (const std::string_view banned : kRawSyncNames) {
      if (name.text == banned) {
        f.add("SC901", name.line,
              "raw std::" + name.text +
                  " is invisible to the thread-safety analysis",
              "use the annotated util::Mutex / util::MutexLock from "
              "util/sync.hpp");
      }
    }
  }
}

// --- SC902: direct std::getenv ---------------------------------------------
//
// Every environment read funnels through util::env so malformed values
// fail loudly with the variable named (PR 3's env hardening). A direct
// getenv reintroduces the silent-fallback behavior that hardening removed.
void rule_sc902(const FileContext& f) {
  if (f.allowlisted("SC902")) return;
  for (std::size_t i = 0; i + 1 < f.code.size(); ++i) {
    if (!is_ident(f.code[i], "getenv") || !is_punct(f.code[i + 1], "(")) {
      continue;
    }
    f.add("SC902", f.code[i].line,
          "direct getenv bypasses the strict util::env parsers",
          "use util::env_raw / env_uint / env_bool (util/env.hpp)");
  }
}

// --- SC903: STREAMCALC_* reads outside the facade --------------------------
//
// The Context facade (util/context) is the single authority on what each
// STREAMCALC_* variable means. A scattered read — even through the strict
// util::env helpers — can drift from the facade's grammar, which is
// exactly how obs/runtime.cpp's lenient STREAMCALC_OBS parse diverged
// from Context::from_env(). obs/runtime.cpp itself stays allowlisted: it
// sits *below* util in the link graph (Context::install calls into it),
// so it cannot consume Context and instead shares util/env.hpp's
// header-only strict parser; Context::install() overrides it as the
// authoritative source once a context exists.
//
// Scope: src/, tools/, bench/ — tests manipulate the raw environment to
// exercise the facade itself.
void rule_sc903(const FileContext& f) {
  if (!has_segment(f.segs, "src") && !has_segment(f.segs, "tools") &&
      !has_segment(f.segs, "bench")) {
    return;
  }
  if (f.allowlisted("SC903")) return;
  for (std::size_t i = 0; i + 2 < f.code.size(); ++i) {
    bool reader = false;
    for (const std::string_view r : kEnvReaders) {
      if (is_ident(f.code[i], r)) reader = true;
    }
    if (!reader || !is_punct(f.code[i + 1], "(")) continue;
    const Token& arg = f.code[i + 2];
    if (arg.kind != TokenKind::kString ||
        arg.text.rfind("STREAMCALC_", 0) != 0) {
      continue;
    }
    f.add("SC903", arg.line,
          "reads " + arg.text + " outside the Context facade",
          "resolve the knob through streamcalc::util::Context (or add the "
          "parse to Context::from_env)");
  }
}

// --- SC904: equality with an inexact floating literal -----------------------
//
// The exact min-plus kernels compare doubles with == by design — against
// values that are exactly representable (0.0, 0.5, kInf), where the
// comparison is well-defined. Equality against a literal like 0.1 that has
// no exact binary representation can never hold the way it reads, so it is
// flagged unconditionally in the numeric kernels and the certification
// layer.
void rule_sc904(const FileContext& f) {
  if (!has_segment(f.segs, "src")) return;
  if (!has_segment(f.segs, "minplus") && !has_segment(f.segs, "certify")) {
    return;
  }
  for (std::size_t i = 0; i < f.code.size(); ++i) {
    if (!is_punct(f.code[i], "==") && !is_punct(f.code[i], "!=")) continue;
    for (const std::size_t j : {i - 1, i + 1}) {
      const Token* t = f.at(j);
      if (t != nullptr && t->kind == TokenKind::kNumber &&
          inexact_float_literal(t->text)) {
        f.add("SC904", f.code[i].line,
              "equality comparison with " + t->text +
                  ", which has no exact binary representation",
              "compare against a dyadic constant or use an explicit "
              "tolerance");
      }
    }
  }
}

// --- SC905: suppression hygiene --------------------------------------------
//
// A clang-tidy suppression marker must name the check it silences and say
// why — `(<check>): <reason>` — or the suppression outlives its cause and
// nobody can tell. (The marker spelling is built from pieces below so
// srclint's own sources pass their own gate.)
const std::string kMarker = std::string("NO") + "LINT";

bool valid_suppression_at(std::string_view text, std::size_t after_marker,
                          std::size_t* resume) {
  std::size_t i = after_marker;
  if (i >= text.size() || text[i] != '(') return false;
  const std::size_t close = text.find(')', i);
  if (close == std::string_view::npos) return false;
  const std::string_view checks = text.substr(i + 1, close - i - 1);
  if (checks.empty() || checks == "*") return false;
  i = close + 1;
  while (i < text.size() && (text[i] == ' ' || text[i] == '\t')) ++i;
  if (i >= text.size() || text[i] != ':') return false;
  ++i;
  // A non-empty reason on the same line.
  const std::size_t eol = text.find('\n', i);
  const std::string_view reason =
      text.substr(i, (eol == std::string_view::npos ? text.size() : eol) - i);
  if (reason.find_first_not_of(" \t") == std::string_view::npos) return false;
  *resume = close + 1;
  return true;
}

void rule_sc905(const FileContext& f) {
  for (const Token& comment : f.comments) {
    const std::string_view text = comment.text;
    std::size_t search = 0;
    while (true) {
      const std::size_t o = text.find(kMarker, search);
      if (o == std::string_view::npos) break;
      search = o + kMarker.size();
      // Part of a longer identifier-ish word (a prose mention such as
      // "NOLINTed", which this rule deliberately skips)? Real markers are
      // followed by '(', an all-caps variant keyword, or nothing.
      if (o > 0 && (std::isalnum(static_cast<unsigned char>(text[o - 1])) ||
                    text[o - 1] == '_')) {
        continue;
      }
      if (search < text.size() &&
          (std::islower(static_cast<unsigned char>(text[search])) ||
           std::isdigit(static_cast<unsigned char>(text[search])) ||
           text[search] == '_')) {
        continue;
      }
      std::size_t after = o + kMarker.size();
      const std::string_view rest = text.substr(after);
      if (rest.rfind("END", 0) == 0) continue;  // closes an annotated BEGIN
      if (rest.rfind("NEXTLINE", 0) == 0) after += 8;
      if (rest.rfind("BEGIN", 0) == 0) after += 5;
      std::size_t resume = after;
      if (valid_suppression_at(text, after, &resume)) {
        search = resume;
        continue;
      }
      const int line =
          comment.line +
          static_cast<int>(std::count(text.begin(),
                                      text.begin() + static_cast<long>(o),
                                      '\n'));
      f.add("SC905", line,
            "suppression does not name a check and a reason",
            "write " + kMarker + "(<check>): <why it is safe here>");
    }
  }
}

// --- SC906: unguarded mutable members near a mutex -------------------------
//
// Heuristic: in a file that declares a util::Mutex member, a `mutable`
// data member is almost always cross-thread shared state — that is why it
// is mutable — and must carry SC_GUARDED_BY so the thread-safety analysis
// covers it. Atomics and the lock objects themselves are exempt.
void rule_sc906(const FileContext& f) {
  if (!has_segment(f.segs, "src")) return;
  if (!f.mentions_project_mutex) return;
  for (std::size_t i = 0; i < f.code.size(); ++i) {
    if (!is_ident(f.code[i], "mutable")) continue;
    const Token* next = f.at(i + 1);
    if (next == nullptr || next->kind != TokenKind::kIdentifier) {
      continue;  // lambda `mutable` and other non-declaration uses
    }
    bool guarded = false;
    bool exempt = false;
    std::size_t j = i + 1;
    for (; j < f.code.size() && !is_punct(f.code[j], ";") &&
           !is_punct(f.code[j], "{");
         ++j) {
      const Token& t = f.code[j];
      if (t.kind != TokenKind::kIdentifier) continue;
      if (t.text == "SC_GUARDED_BY" || t.text == "SC_PT_GUARDED_BY") {
        guarded = true;
      }
      if (t.text == "Mutex" || t.text == "atomic" ||
          t.text == "atomic_flag" || t.text == "thread_local") {
        exempt = true;
      }
    }
    if (guarded || exempt) continue;
    f.add("SC906", f.code[i].line,
          "mutable member in a mutex-guarded class has no SC_GUARDED_BY",
          "annotate with SC_GUARDED_BY(<mutex>) (or make it std::atomic "
          "if it is deliberately lock-free)");
  }
}

// --- SC907: raw threads outside the registries -----------------------------
//
// Every thread in the system is either a util::parallel_for worker
// (joined before the call returns) or a registered serve connection
// reader — that is what makes clean shutdown and the concurrency test
// suites exhaustive. A free-floating or detached
// std::thread escapes both.
void rule_sc907(const FileContext& f) {
  if (!has_segment(f.segs, "src") && !has_segment(f.segs, "tools")) return;
  if (f.allowlisted("SC907")) return;
  for (std::size_t i = 0; i + 2 < f.code.size(); ++i) {
    if (is_ident(f.code[i], "std") && is_punct(f.code[i + 1], "::") &&
        (is_ident(f.code[i + 2], "thread") ||
         is_ident(f.code[i + 2], "jthread"))) {
      // `std::thread::hardware_concurrency()` is a capacity query, not a
      // thread: skip when the name is immediately qualified further.
      const Token* qual = f.at(i + 3);
      if (qual != nullptr && is_punct(*qual, "::")) continue;
      f.add("SC907", f.code[i + 2].line,
            "raw std::" + f.code[i + 2].text +
                " outside util::parallel_for and the serve reader registry",
            "run the work through util::parallel_for, or register the "
            "thread like serve::Server's connection readers");
    }
    if ((is_punct(f.code[i], ".") || is_punct(f.code[i], "->")) &&
        is_ident(f.code[i + 1], "detach") && is_punct(f.code[i + 2], "(")) {
      f.add("SC907", f.code[i + 1].line,
            "detached thread can outlive every shutdown path",
            "keep the handle and join it, or run the work through "
            "util::parallel_for");
    }
  }
}

// --- SC908: bare doubles for unit-bearing quantities -----------------------
//
// The public netcalc/serve/apps surfaces pass delays, backlogs, and rates
// through util/units.hpp types (Duration, DataSize, DataRate) so the unit
// travels with the value — the seconds-vs-microseconds and bits-vs-bytes
// slips the paper's tables invite are then type errors. A bare `double
// arrival_rate` in a public header reopens that hole. The dimensionless
// min-plus kernels are out of scope: curves deliberately carry no unit,
// and the netcalc layer is where units attach.
constexpr std::string_view kUnitSegments[] = {
    "backlog", "bandwidth", "burst", "delay", "latency", "rate", "throughput",
};

bool unit_bearing_name(std::string_view name) {
  std::size_t start = 0;
  while (start <= name.size()) {
    std::size_t end = name.find('_', start);
    if (end == std::string_view::npos) end = name.size();
    std::string_view seg = name.substr(start, end - start);
    if (seg.size() > 1 && seg.back() == 's') seg.remove_suffix(1);  // plural
    for (const std::string_view unit : kUnitSegments) {
      if (seg == unit) return true;
    }
    if (end == name.size()) break;
    start = end + 1;
  }
  return false;
}

void rule_sc908(const FileContext& f) {
  if (!has_segment(f.segs, "src")) return;
  if (!has_segment(f.segs, "netcalc") && !has_segment(f.segs, "serve") &&
      !has_segment(f.segs, "apps")) {
    return;
  }
  if (f.path.size() < 4 || f.path.substr(f.path.size() - 4) != ".hpp") {
    return;  // public surface only; .cpp internals may unpack to double
  }
  // bitw/blast mirror the paper's printed tables, whose columns are in
  // reporting units (us, ms, KiB, Mbit/s) by construction; their row
  // structs keep the table's own field spellings.
  if (f.allowlisted("SC908")) return;
  for (std::size_t i = 0; i + 1 < f.code.size(); ++i) {
    if (!is_ident(f.code[i], "double") && !is_ident(f.code[i], "float")) {
      continue;
    }
    const Token& name = f.code[i + 1];
    if (name.kind != TokenKind::kIdentifier || !unit_bearing_name(name.text)) {
      continue;
    }
    f.add("SC908", name.line,
          "'" + name.text + "' is a bare " + f.code[i].text +
              " for a unit-bearing quantity in a public header",
          "carry the unit in the type: util::Duration / util::DataSize / "
          "util::DataRate (util/units.hpp)");
  }
}

}  // namespace

bool inexact_float_literal(std::string_view literal) {
  if (literal.size() > 1 && literal[0] == '0' &&
      (literal[1] == 'x' || literal[1] == 'X')) {
    return false;  // hex literals (including hex floats) are exact
  }
  std::string mantissa;
  long frac_digits = 0;
  long exponent = 0;
  bool seen_dot = false;
  bool seen_exp = false;
  bool single_precision = false;
  std::size_t i = 0;
  for (; i < literal.size(); ++i) {
    const char c = literal[i];
    if (c == '\'') continue;
    if (c >= '0' && c <= '9') {
      if (mantissa.size() < 32) mantissa += c;
      if (seen_dot) ++frac_digits;
      continue;
    }
    if (c == '.' && !seen_dot && !seen_exp) {
      seen_dot = true;
      continue;
    }
    if ((c == 'e' || c == 'E') && !seen_exp) {
      seen_exp = true;
      long sign = 1;
      std::size_t j = i + 1;
      if (j < literal.size() && (literal[j] == '+' || literal[j] == '-')) {
        if (literal[j] == '-') sign = -1;
        ++j;
      }
      long e = 0;
      for (; j < literal.size() && literal[j] >= '0' && literal[j] <= '9';
           ++j) {
        if (e < 1000) e = e * 10 + (literal[j] - '0');
      }
      exponent = sign * e;
      i = j - 1;
      continue;
    }
    if (c == 'f' || c == 'F') {
      single_precision = true;
      continue;
    }
    if (c == 'l' || c == 'L') continue;  // long double suffix
    return false;  // not a plain decimal literal — stay silent
  }
  if (!seen_dot && !seen_exp) return false;  // integer literal
  while (mantissa.size() > 1 && mantissa.front() == '0') {
    mantissa.erase(mantissa.begin());
  }
  if (mantissa.size() > 19) return true;  // beyond uint64: never exact
  std::uint64_t m = 0;
  for (const char c : mantissa) {
    m = m * 10 + static_cast<std::uint64_t>(c - '0');
  }
  if (m == 0) return false;  // zero is exact however it is spelled
  const std::uint64_t mantissa_limit =
      single_precision ? (1ull << 24) : (1ull << 53);
  long e = exponent - frac_digits;  // value = m * 10^e
  if (e >= 0) {
    // value = odd(m) * 5^e * 2^k: exact iff the odd part stays below the
    // mantissa limit. It only grows, so bail as soon as it crosses.
    std::uint64_t odd = m;
    while (odd % 2 == 0) odd /= 2;
    for (long k = 0; k < e; ++k) {
      if (odd >= mantissa_limit || odd > UINT64_MAX / 5) return true;
      odd *= 5;
    }
    return odd >= mantissa_limit;
  }
  long frac = -e;  // value = m / (2^frac * 5^frac)
  while (frac > 0 && m % 5 == 0) {
    m /= 5;
    --frac;
  }
  if (frac > 0) return true;  // residual factor of 5 in the denominator
  while (m % 2 == 0) m /= 2;
  return m >= mantissa_limit;
}

std::vector<Finding> check_source(const std::string& path,
                                  std::string_view content) {
  FileContext f;
  f.path = normalize(path);
  f.segs = path_segments(f.path);
  std::vector<Finding> findings;
  f.findings = &findings;
  for (Token& t : lex(content)) {
    if (t.kind == TokenKind::kComment) {
      f.comments.push_back(std::move(t));
    } else if (t.kind != TokenKind::kDirective) {
      if (t.kind == TokenKind::kIdentifier && t.text == "Mutex") {
        f.mentions_project_mutex = true;
      }
      f.code.push_back(std::move(t));
    }
  }
  rule_sc901(f);
  rule_sc902(f);
  rule_sc903(f);
  rule_sc904(f);
  rule_sc905(f);
  rule_sc906(f);
  rule_sc907(f);
  rule_sc908(f);
  std::stable_sort(findings.begin(), findings.end(),
                   [](const Finding& a, const Finding& b) {
                     return a.line < b.line;
                   });
  return findings;
}

std::vector<AllowlistEntry> allowlist() {
  return {std::begin(kAllowlist), std::end(kAllowlist)};
}

std::string list_codes_text() {
  std::ostringstream os;
  for (const std::string& code : registered_codes()) {
    os << code << "  " << code_title(code) << "\n";
  }
  return os.str();
}

}  // namespace streamcalc::srclint
