// srclint: static analysis of the streamcalc sources themselves.
//
//   srclint src tools bench tests          # the CI invocation
//   srclint --json src > srclint.json      # machine-readable report
//   srclint --baseline srclint.baseline src
//   srclint --layers srclint.layers src    # explicit layer DAG (defaults
//                                          # to ./srclint.layers)
//   srclint --graph lock-order src tools   # locks, order edges, cycles
//   srclint --graph layers src             # strata + observed includes
//   srclint --list-codes                   # the SC9xx registry
//
// Enforces the project-invariant rules documented in DESIGN.md §13-§14.
// Per-file (SC901-SC908): raw synchronization primitives outside
// util/sync.hpp, environment reads outside the util::env/Context facade,
// inexact floating-point equality in the numeric kernels, unexplained
// lint suppressions, unguarded mutable members next to a mutex, raw
// threads outside the thread registries, and bare double/float for
// unit-bearing quantities in public headers. Cross-file (SC910-SC913),
// over a structural IR of every input at once: lock-acquisition-order
// cycles (with interprocedural edges), blocking calls under a held
// MutexLock, and includes that climb the layer DAG declared in
// srclint.layers. Exit codes are uniform with the other
// drivers: 0 clean, 1 unreadable input, 2 findings, 3 usage error.
#include <iostream>
#include <string>
#include <vector>

#include "srclint/runner.hpp"

int main(int argc, char** argv) {
  const std::vector<std::string> args(argv + 1, argv + argc);
  return streamcalc::srclint::run_srclint_cli(args, std::cout, std::cerr);
}
