// Structural pass for srclint's cross-file analyses (DESIGN.md §14).
//
// Consumes the lexical token stream (scan.hpp) and tracks braces, class
// scopes, function bodies, and parenthesis nesting to extract the per-TU
// facts the project-level rules need:
//
//   * `#include "..."` references (the project include graph, SC913);
//   * `util::Mutex` declarations with their owning class (the lock-class
//     table SC910 canonicalizes against);
//   * every `util::MutexLock` acquisition, the set of locks lexically
//     live around it (nested-acquisition edges), and every call site with
//     the lock set held at the call (SC910 interprocedural edges, SC911).
//
// Like the scanner, this is deliberately NOT a C++ parser: it is a
// single forward pass over tokens with a scope stack. The recognizers are
// heuristic (constructor initializer lists, for example, are treated as
// part of the body — harmless, since brace tracking stays balanced), and
// the analyses built on top are designed to tolerate over-approximate
// *edges* but never to invent lock merges that could fabricate a cycle.
//
// Lambda bodies suspend the enclosing lock set: a lambda generally runs
// later, on another thread, where the creator's scoped locks are not
// held. Locks acquired *inside* the lambda body are tracked normally.
#pragma once

#include <string>
#include <string_view>
#include <vector>

namespace streamcalc::srclint {

/// One file handed to the project-level analyses: path as given on the
/// command line plus its full contents.
struct SourceFile {
  std::string path;
  std::string content;
};

/// A quoted `#include "target"` (angle includes are system headers and
/// carry no layering information).
struct IncludeRef {
  std::string target;
  int line = 0;
};

/// A `util::Mutex` (or bare `Mutex`) variable declaration. `owner` is the
/// innermost class for members, the enclosing function for locals, and
/// empty for globals.
struct MutexDecl {
  std::string owner;
  std::string name;
  int line = 0;
};

/// One `util::MutexLock guard(expr)` acquisition inside a function body.
struct LockAcquire {
  std::string expr;  // argument text, e.g. "mutex_" or "tenant->mutex"
  int line = 0;
};

/// `inner` acquired while `outer` was (lexically) still live.
struct NestedAcquire {
  std::string outer;
  std::string inner;
  int line = 0;  // line of the inner acquisition
};

/// A call site inside a function body.
struct CallSite {
  std::string name;  // unqualified callee (last identifier before `(`)
  std::string qual;  // `Foo::bar(` -> "Foo"; `obj.bar(` -> "obj"; else ""
  bool member = false;        // reached via `.` or `->`
  bool global_colon = false;  // spelled `::name(` (global qualification)
  int line = 0;
  std::vector<std::string> held;  // lock exprs live at the call
};

/// One function (or method, or TEST-macro body) definition.
struct FunctionModel {
  std::string owner;  // class: explicit `Foo::` qualifier or enclosing class
  std::string name;
  int line = 0;
  std::vector<LockAcquire> acquires;
  std::vector<NestedAcquire> nested;
  std::vector<CallSite> calls;
};

/// Everything the project-level analyses use from one translation unit.
struct FileModel {
  std::string path;
  std::vector<IncludeRef> includes;
  std::vector<MutexDecl> mutexes;
  std::vector<FunctionModel> functions;
};

/// Runs the structural pass over one file. Never throws on malformed
/// input — unbalanced braces simply truncate the affected scopes.
FileModel build_file_model(const std::string& path, std::string_view content);

}  // namespace streamcalc::srclint
