#include "srclint/finding.hpp"

#include <sstream>

namespace streamcalc::srclint {

namespace {

struct CodeEntry {
  const char* code;
  const char* title;
};

// The srclint code registry. Two blocks:
//   SC901-SC908  per-file lexical invariants (concurrency hygiene,
//                configuration, numerics, suppression hygiene, units)
//   SC910-SC913  whole-project graph analyses over the structural IR
//                (lock order, blocking-under-lock, layer DAG) — see
//                DESIGN.md §14
// SC909 is unallocated (kept free between the blocks). SC912 (thread-pool
// re-entrancy) is retired: it guarded a shared pool that no longer
// exists, and its number is never reused. Titles are short
// noun phrases; the long-form rationale for each rule lives in DESIGN.md
// §13-§14.
constexpr CodeEntry kRegistry[] = {
    {"SC901", "raw standard synchronization primitive"},
    {"SC902", "direct std::getenv call"},
    {"SC903", "STREAMCALC_* environment read outside the facade"},
    {"SC904", "equality comparison with an inexact floating-point literal"},
    {"SC905", "lint suppression without a named check and reason"},
    {"SC906", "mutable member near a mutex lacking SC_GUARDED_BY"},
    {"SC907", "raw thread construction outside the thread registries"},
    {"SC908", "bare double for a unit-bearing quantity in a public header"},
    {"SC910", "lock-acquisition-order cycle (potential deadlock)"},
    {"SC911", "blocking call while a MutexLock is held"},
    {"SC913", "include edge that violates the declared layer DAG"},
};

}  // namespace

const char* code_title(const std::string& code) {
  for (const CodeEntry& e : kRegistry) {
    if (code == e.code) return e.title;
  }
  return nullptr;
}

std::vector<std::string> registered_codes() {
  std::vector<std::string> codes;
  for (const CodeEntry& e : kRegistry) codes.emplace_back(e.code);
  return codes;
}

std::string render(const Finding& f) {
  std::ostringstream os;
  os << f.path << ":" << f.line << ": warning [" << f.code << "] "
     << f.message << "\n";
  if (!f.hint.empty()) {
    os << f.path << ":" << f.line << ":   hint: " << f.hint << "\n";
  }
  return os.str();
}

std::string baseline_key(const Finding& f) {
  return f.code + " " + f.path + ":" + std::to_string(f.line);
}

}  // namespace streamcalc::srclint
