// Cross-file analyses over the structural IR (DESIGN.md §14): the global
// lock-acquisition-order graph (SC910), blocking-while-locked (SC911),
// and the declared layer DAG (SC913), plus the text reports behind
// `srclint --graph`.
//
// Scope. SC910/SC911 analyze files under src/ and tools/ — tests
// deliberately hold locks and park threads to exercise contention, and
// flagging the test harness would teach people to ignore the gate. SC913
// analyzes src/ only: the layer DAG is a property of the library, and
// tools/tests/bench sit above every layer by construction.
//
// Lock identity. Locks are named by their *declaration site* (class +
// member, lockdep-style), resolved from each `MutexLock(expr)` by the
// trailing identifier of the expression: prefer a declaration in the
// using function's own class, then one in the same file, then a
// project-wide unique name. An ambiguous name deliberately resolves to a
// file-local node instead of guessing — a false merge could fabricate a
// cycle, and SC910's contract is the opposite (over-approximate edges,
// never invented cycles).
#pragma once

#include <string>
#include <vector>

#include "srclint/finding.hpp"
#include "srclint/layers.hpp"
#include "srclint/structure.hpp"

namespace streamcalc::srclint {

/// The cross-file IR: one FileModel per input, in input order.
struct ProjectModel {
  std::vector<FileModel> files;
};

ProjectModel build_project_model(const std::vector<SourceFile>& files);

/// `src/<dir>/...` (anywhere in the path) -> `<dir>`; "" for files not
/// under a src/ subdirectory — the umbrella header and out-of-scope paths.
std::string layer_dir_of(const std::string& path);

/// One lock-order edge: `to` is acquired while `from` is held, at
/// `path:line` (`via` names the call chain for interprocedural edges).
struct LockEdge {
  std::string from;
  std::string to;
  std::string from_label;
  std::string to_label;
  std::string path;
  int line = 0;
  std::string via;
};

struct LockCycle {
  std::vector<LockEdge> chain;  // closed: chain.back().to == chain.front().from
};

/// A lock class: canonical declaration-site id plus a short display label
/// (`Owner::member` for members, `file::name` otherwise).
struct LockNode {
  std::string id;
  std::string label;
};

struct LockGraph {
  std::vector<LockNode> nodes;    // sorted by id
  std::vector<LockEdge> edges;    // deduped by (from, to), sorted
  std::vector<LockCycle> cycles;  // one representative cycle per SCC
};

/// Builds the global lock-order graph: direct nested acquisitions plus
/// interprocedural edges through name-resolved function summaries
/// (fixpoint over the call graph).
LockGraph build_lock_graph(const ProjectModel& project);

/// Runs SC910, SC911 and SC913. `layers` may be null (SC913 is skipped:
/// the layer rule only exists relative to a declaration).
std::vector<Finding> check_project(const ProjectModel& project,
                                   const Layers* layers);

/// The `--graph lock-order` report.
std::string lock_order_report(const ProjectModel& project);

/// The `--graph layers` report (declared strata + observed include edges).
std::string layers_report(const ProjectModel& project, const Layers& layers);

}  // namespace streamcalc::srclint
