#include "srclint/project.hpp"

#include <algorithm>
#include <functional>
#include <map>
#include <set>
#include <sstream>
#include <utility>

#include "srclint/scan.hpp"

namespace streamcalc::srclint {

namespace {

bool ident_char(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
         (c >= '0' && c <= '9') || c == '_';
}

/// `"tenant->mutex"` -> `"mutex"`; `"state.m"` -> `"m"`; `"mu()"` -> `""`.
std::string trailing_ident(std::string_view expr) {
  std::size_t i = expr.size();
  while (i > 0 && ident_char(expr[i - 1])) --i;
  return std::string(expr.substr(i));
}

std::string basename_of(std::string_view path) {
  const std::size_t slash = path.find_last_of("/\\");
  return std::string(slash == std::string_view::npos ? path
                                                     : path.substr(slash + 1));
}

bool concurrency_scope(const std::string& path) {
  const std::vector<std::string_view> segs = path_segments(path);
  return has_segment(segs, "src") || has_segment(segs, "tools");
}

/// First segment of a quoted include target with at least one directory
/// component (`"util/sync.hpp"` -> `"util"`; `"streamcalc.hpp"` -> "").
std::string include_dir_of(const std::string& target) {
  const std::vector<std::string_view> segs = path_segments(target);
  return segs.size() >= 2 ? std::string(segs.front()) : std::string();
}

bool blocking_call(const CallSite& c) {
  // POSIX socket/file primitives count only in their `::name(` spelling —
  // a member `.read()` is usually an in-memory accessor, and flagging it
  // would drown the signal.
  static const std::set<std::string> kGlobalPosix = {
      "accept", "connect", "poll", "read", "recv", "select", "send", "write"};
  static const std::set<std::string> kSleeps = {"nanosleep", "sleep_for",
                                                "sleep_until", "usleep"};
  static const std::set<std::string> kClientRpc = {"recv_frame", "request",
                                                   "request_raw", "send_bytes"};
  if (c.global_colon && kGlobalPosix.count(c.name) != 0) return true;
  if (kSleeps.count(c.name) != 0) return true;
  // util::parallel_for joins its workers before it returns.
  if (c.name == "parallel_for") return true;
  if (c.member && (c.name == "join" || kClientRpc.count(c.name) != 0)) {
    return true;
  }
  return false;
}

std::string display_call(const CallSite& c) {
  std::string s;
  if (c.global_colon) {
    s += "::";
  } else if (!c.qual.empty()) {
    s += c.qual + (c.member ? "." : "::");
  }
  s += c.name + "()";
  return s;
}

struct DeclSite {
  const FileModel* file = nullptr;
  const MutexDecl* decl = nullptr;
};

std::string decl_id(const DeclSite& d) {
  if (d.decl->owner.empty()) return d.file->path + "::" + d.decl->name;
  return d.file->path + "::" + d.decl->owner + "::" + d.decl->name;
}

std::string decl_label(const DeclSite& d) {
  if (d.decl->owner.empty()) {
    return basename_of(d.file->path) + "::" + d.decl->name;
  }
  return d.decl->owner + "::" + d.decl->name;
}

/// Canonical-id resolution plus the interprocedural lock-summary fixpoint
/// over one set of files (see the header comment for the policy).
class LockAnalysis {
 public:
  struct Resolved {
    std::string id;
    std::string label;
  };

  explicit LockAnalysis(std::vector<const FileModel*> files);

  Resolved resolve(const std::string& expr, const FunctionModel& fn,
                   const FileModel& file) const;
  LockGraph graph() const;

 private:
  struct FnRef {
    const FileModel* file = nullptr;
    const FunctionModel* fn = nullptr;
  };
  struct SummaryEntry {
    std::string label;
  };

  std::vector<std::size_t> resolve_callees(const CallSite& call) const;

  std::vector<const FileModel*> files_;
  std::map<std::string, std::vector<DeclSite>> decls_by_name_;
  std::vector<FnRef> fns_;
  std::map<std::string, std::vector<std::size_t>> fns_by_name_;
  // Per function: every lock (canonical id) it may acquire, directly or
  // through calls, to fixpoint.
  std::vector<std::map<std::string, SummaryEntry>> summaries_;
};

LockAnalysis::LockAnalysis(std::vector<const FileModel*> files)
    : files_(std::move(files)) {
  for (const FileModel* file : files_) {
    for (const MutexDecl& decl : file->mutexes) {
      decls_by_name_[decl.name].push_back(DeclSite{file, &decl});
    }
    for (const FunctionModel& fn : file->functions) {
      fns_by_name_[fn.name].push_back(fns_.size());
      fns_.push_back(FnRef{file, &fn});
    }
  }

  summaries_.resize(fns_.size());
  for (std::size_t i = 0; i < fns_.size(); ++i) {
    for (const LockAcquire& a : fns_[i].fn->acquires) {
      const Resolved r = resolve(a.expr, *fns_[i].fn, *fns_[i].file);
      summaries_[i].emplace(r.id, SummaryEntry{r.label});
    }
  }
  // Propagate callee acquisitions up the (name-resolved) call graph until
  // nothing changes. Monotone and bounded by the lock-id universe.
  bool changed = true;
  while (changed) {
    changed = false;
    for (std::size_t i = 0; i < fns_.size(); ++i) {
      for (const CallSite& call : fns_[i].fn->calls) {
        for (const std::size_t j : resolve_callees(call)) {
          if (j == i) continue;
          for (const auto& [id, entry] : summaries_[j]) {
            if (summaries_[i].emplace(id, entry).second) changed = true;
          }
        }
      }
    }
  }
}

LockAnalysis::Resolved LockAnalysis::resolve(const std::string& expr,
                                             const FunctionModel& fn,
                                             const FileModel& file) const {
  const std::string name = trailing_ident(expr);
  const auto synthetic = [&]() {
    return Resolved{file.path + "::" + expr,
                    basename_of(file.path) + "::" + expr};
  };
  const auto it = decls_by_name_.find(name);
  if (name.empty() || it == decls_by_name_.end()) return synthetic();
  const std::vector<DeclSite>& cands = it->second;

  // 1. A declaration owned by the using function's class, or local to the
  //    function itself.
  std::vector<const DeclSite*> owned;
  for (const DeclSite& d : cands) {
    if (d.decl->owner.empty()) continue;
    if ((!fn.owner.empty() && d.decl->owner == fn.owner) ||
        d.decl->owner == fn.name) {
      owned.push_back(&d);
    }
  }
  if (owned.size() == 1) return {decl_id(*owned[0]), decl_label(*owned[0])};
  if (owned.size() > 1) return synthetic();

  // 2. A declaration in the same file.
  std::vector<const DeclSite*> local;
  for (const DeclSite& d : cands) {
    if (d.file == &file) local.push_back(&d);
  }
  if (local.size() == 1) return {decl_id(*local[0]), decl_label(*local[0])};
  if (local.size() > 1) return synthetic();

  // 3. A project-wide unique name.
  if (cands.size() == 1) return {decl_id(cands[0]), decl_label(cands[0])};
  return synthetic();
}

std::vector<std::size_t> LockAnalysis::resolve_callees(
    const CallSite& call) const {
  const auto it = fns_by_name_.find(call.name);
  if (it == fns_by_name_.end()) return {};
  if (!call.qual.empty() && !call.member) {
    // `Foo::bar(...)` — prefer definitions owned by Foo; a namespace
    // qualifier matches nothing and falls through to the name set.
    std::vector<std::size_t> owned;
    for (const std::size_t j : it->second) {
      if (fns_[j].fn->owner == call.qual) owned.push_back(j);
    }
    if (!owned.empty()) return owned;
  }
  if (call.member) {
    // `obj->name(...)` with definitions of `name` in more than one class:
    // the receiver's type is unknowable lexically, and guessing the wrong
    // class can close a cycle that does not exist (Catalog::publish calls
    // CatalogSnapshot::epoch(), not the self-locking Catalog::epoch()).
    // Propagating nothing only costs an edge; the contract tolerates
    // missed edges but never invented cycles.
    std::set<std::string> owners;
    for (const std::size_t j : it->second) owners.insert(fns_[j].fn->owner);
    if (owners.size() > 1) return {};
  }
  return it->second;
}

LockGraph LockAnalysis::graph() const {
  std::map<std::string, std::string> labels;
  std::map<std::pair<std::string, std::string>, LockEdge> edge_map;
  const auto note = [&](const Resolved& r) { labels.emplace(r.id, r.label); };
  const auto add_edge = [&](const Resolved& from, const Resolved& to,
                            const std::string& path, int line,
                            std::string via) {
    note(from);
    note(to);
    edge_map.emplace(
        std::make_pair(from.id, to.id),
        LockEdge{from.id, to.id, from.label, to.label, path, line,
                 std::move(via)});
  };

  for (std::size_t i = 0; i < fns_.size(); ++i) {
    const FileModel& file = *fns_[i].file;
    const FunctionModel& fn = *fns_[i].fn;
    for (const LockAcquire& a : fn.acquires) note(resolve(a.expr, fn, file));
    for (const NestedAcquire& na : fn.nested) {
      add_edge(resolve(na.outer, fn, file), resolve(na.inner, fn, file),
               file.path, na.line, "");
    }
    for (const CallSite& call : fn.calls) {
      if (call.held.empty()) continue;
      for (const std::size_t j : resolve_callees(call)) {
        if (j == i) continue;
        for (const auto& [id, entry] : summaries_[j]) {
          for (const std::string& held : call.held) {
            // A self-edge (holding a lock while calling something that
            // re-acquires it) is a genuine one-lock deadlock; keep it.
            add_edge(resolve(held, fn, file), Resolved{id, entry.label},
                     file.path, call.line, "via " + display_call(call));
          }
        }
      }
    }
  }

  LockGraph g;
  std::map<std::string, std::size_t> index_of;
  for (const auto& [id, label] : labels) {
    index_of.emplace(id, g.nodes.size());
    g.nodes.push_back(LockNode{id, label});
  }
  for (const auto& [key, edge] : edge_map) g.edges.push_back(edge);

  // Adjacency over node indices; edge_map iteration is (from, to) sorted,
  // so every adjacency list comes out sorted too.
  std::vector<std::vector<std::size_t>> adj(g.nodes.size());
  for (const LockEdge& e : g.edges) {
    adj[index_of.at(e.from)].push_back(index_of.at(e.to));
  }

  // Tarjan SCCs; any SCC with more than one node (or a self-edge) holds at
  // least one cycle.
  const std::size_t n = g.nodes.size();
  std::vector<std::size_t> order(n, 0);
  std::vector<std::size_t> low(n, 0);
  std::vector<bool> on_stack(n, false);
  std::vector<bool> seen(n, false);
  std::vector<std::size_t> stack;
  std::vector<std::vector<std::size_t>> sccs;
  std::size_t counter = 0;
  std::function<void(std::size_t)> strongconnect = [&](std::size_t u) {
    seen[u] = true;
    order[u] = low[u] = counter++;
    stack.push_back(u);
    on_stack[u] = true;
    for (const std::size_t v : adj[u]) {
      if (!seen[v]) {
        strongconnect(v);
        low[u] = std::min(low[u], low[v]);
      } else if (on_stack[v]) {
        low[u] = std::min(low[u], order[v]);
      }
    }
    if (low[u] == order[u]) {
      std::vector<std::size_t> scc;
      while (true) {
        const std::size_t v = stack.back();
        stack.pop_back();
        on_stack[v] = false;
        scc.push_back(v);
        if (v == u) break;
      }
      std::sort(scc.begin(), scc.end());
      sccs.push_back(std::move(scc));
    }
  };
  for (std::size_t u = 0; u < n; ++u) {
    if (!seen[u]) strongconnect(u);
  }
  // Process SCCs by smallest node index = lexicographically smallest id.
  std::sort(sccs.begin(), sccs.end());

  const auto edge_between = [&](std::size_t a, std::size_t b) {
    return edge_map.at(std::make_pair(g.nodes[a].id, g.nodes[b].id));
  };
  for (const std::vector<std::size_t>& scc : sccs) {
    const std::set<std::size_t> members(scc.begin(), scc.end());
    const std::size_t s = scc.front();
    const bool self_loop =
        std::find(adj[s].begin(), adj[s].end(), s) != adj[s].end();
    if (scc.size() < 2 && !self_loop) continue;

    // One representative cycle through the smallest node: DFS inside the
    // SCC until an edge closes back to `s`. Strong connectivity guarantees
    // one exists.
    std::vector<std::size_t> path{s};
    std::set<std::size_t> visited{s};
    bool found = false;
    LockCycle cycle;
    std::function<void(std::size_t)> dfs = [&](std::size_t u) {
      for (const std::size_t v : adj[u]) {
        if (found) return;
        if (members.count(v) == 0) continue;
        if (v == s) {
          for (std::size_t k = 0; k + 1 < path.size(); ++k) {
            cycle.chain.push_back(edge_between(path[k], path[k + 1]));
          }
          cycle.chain.push_back(edge_between(u, s));
          found = true;
          return;
        }
        if (visited.count(v) != 0) continue;
        visited.insert(v);
        path.push_back(v);
        dfs(v);
        if (found) return;
        path.pop_back();
      }
    };
    dfs(s);
    if (found) g.cycles.push_back(std::move(cycle));
  }
  return g;
}

std::string cycle_label(const LockCycle& c) {
  std::string s = c.chain.front().from_label;
  for (const LockEdge& e : c.chain) s += " -> " + e.to_label;
  return s;
}

std::string cycle_sites(const LockCycle& c) {
  std::string s;
  for (const LockEdge& e : c.chain) {
    if (!s.empty()) s += "; ";
    s += e.path + ":" + std::to_string(e.line) + ": " + e.from_label +
         " -> " + e.to_label;
    if (!e.via.empty()) s += " (" + e.via + ")";
  }
  return s;
}

}  // namespace

std::string layer_dir_of(const std::string& path) {
  const std::vector<std::string_view> segs = path_segments(path);
  for (std::size_t i = segs.size(); i-- > 0;) {
    if (segs[i] == "src" && i + 2 < segs.size()) {
      return std::string(segs[i + 1]);
    }
  }
  return {};
}

ProjectModel build_project_model(const std::vector<SourceFile>& files) {
  ProjectModel project;
  project.files.reserve(files.size());
  for (const SourceFile& f : files) {
    project.files.push_back(build_file_model(f.path, f.content));
  }
  return project;
}

LockGraph build_lock_graph(const ProjectModel& project) {
  std::vector<const FileModel*> all;
  all.reserve(project.files.size());
  for (const FileModel& f : project.files) all.push_back(&f);
  return LockAnalysis(std::move(all)).graph();
}

std::vector<Finding> check_project(const ProjectModel& project,
                                   const Layers* layers) {
  std::vector<Finding> out;

  std::vector<const FileModel*> scoped;
  for (const FileModel& f : project.files) {
    if (concurrency_scope(f.path)) scoped.push_back(&f);
  }
  LockAnalysis analysis(scoped);

  // SC910: one finding per lock-order cycle, anchored at the edge leaving
  // the lexicographically-smallest lock in the cycle.
  const LockGraph g = analysis.graph();
  for (const LockCycle& c : g.cycles) {
    Finding f;
    f.code = "SC910";
    f.path = c.chain.front().path;
    f.line = c.chain.front().line;
    f.message = "lock-acquisition-order cycle: " + cycle_label(c) +
                " (potential deadlock)";
    f.hint = "acquisition sites: " + cycle_sites(c) +
             " — pick one global order and take the locks in it everywhere";
    out.push_back(std::move(f));
  }

  // SC911: a blocking call while a MutexLock is held.
  for (const FileModel* file : scoped) {
    for (const FunctionModel& fn : file->functions) {
      for (const CallSite& call : fn.calls) {
        if (call.held.empty() || !blocking_call(call)) continue;
        std::string held_labels;
        for (const std::string& h : call.held) {
          if (!held_labels.empty()) held_labels += ", ";
          held_labels += analysis.resolve(h, fn, *file).label;
        }
        Finding f;
        f.code = "SC911";
        f.path = file->path;
        f.line = call.line;
        f.message = "blocking call " + display_call(call) + " while '" +
                    held_labels + "' is held";
        f.hint = "release the MutexLock before blocking";
        out.push_back(std::move(f));
      }
    }
  }

  // SC913: the include graph must respect the declared layer DAG.
  if (layers != nullptr) {
    for (const FileModel& file : project.files) {
      const std::string dir = layer_dir_of(file.path);
      if (dir.empty()) continue;  // umbrella header or out of src/ scope
      if (!layers->declared(dir)) {
        Finding f;
        f.code = "SC913";
        f.path = file.path;
        f.line = 1;
        f.message =
            "directory 'src/" + dir + "' is not declared in srclint.layers";
        f.hint = "add '" + dir +
                 "' to a stratum in srclint.layers so its dependencies are "
                 "checked";
        out.push_back(std::move(f));
        continue;
      }
      for (const IncludeRef& inc : file.includes) {
        const std::string tdir = include_dir_of(inc.target);
        if (tdir.empty() || tdir == dir || !layers->declared(tdir)) continue;
        if (layers->allows_include(dir, tdir)) continue;
        Finding f;
        f.code = "SC913";
        f.path = file.path;
        f.line = inc.line;
        f.message = "include \"" + inc.target +
                    "\" reaches up the layer DAG: '" + tdir +
                    "' is not below '" + dir + "'";
        f.hint =
            "depend downward only, or move the shared piece into a lower "
            "layer (srclint.layers declares the order)";
        out.push_back(std::move(f));
      }
    }
  }

  std::stable_sort(out.begin(), out.end(),
                   [](const Finding& a, const Finding& b) {
                     if (a.path != b.path) return a.path < b.path;
                     if (a.line != b.line) return a.line < b.line;
                     return a.code < b.code;
                   });
  return out;
}

std::string lock_order_report(const ProjectModel& project) {
  const LockGraph g = build_lock_graph(project);
  std::ostringstream os;
  os << "lock-order graph: " << g.nodes.size() << " lock(s), "
     << g.edges.size() << " edge(s), " << g.cycles.size() << " cycle(s)\n";
  for (const LockEdge& e : g.edges) {
    os << "  " << e.from_label << " -> " << e.to_label << "  (" << e.path
       << ":" << e.line;
    if (!e.via.empty()) os << ", " << e.via;
    os << ")\n";
  }
  for (const LockCycle& c : g.cycles) {
    os << "  cycle: " << cycle_label(c) << "\n";
  }
  return os.str();
}

std::string layers_report(const ProjectModel& project, const Layers& layers) {
  // Observed directory-level include edges among declared layers, with the
  // first witnessing include of each.
  struct Observed {
    std::string path;
    int line = 0;
    bool ok = true;
  };
  std::map<std::pair<std::string, std::string>, Observed> observed;
  for (const FileModel& file : project.files) {
    const std::string dir = layer_dir_of(file.path);
    if (dir.empty() || !layers.declared(dir)) continue;
    for (const IncludeRef& inc : file.includes) {
      const std::string tdir = include_dir_of(inc.target);
      if (tdir.empty() || tdir == dir || !layers.declared(tdir)) continue;
      observed.emplace(
          std::make_pair(dir, tdir),
          Observed{file.path, inc.line, layers.allows_include(dir, tdir)});
    }
  }

  // Display height of each stratum: the number of strata strictly below it
  // (a valid topological rank, since `below` is transitively closed).
  const std::size_t n = layers.below.size();
  std::vector<std::size_t> height(n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      if (layers.below[j][i]) ++height[i];
    }
  }
  std::vector<std::vector<std::string>> members(n);
  for (const std::string& name : layers.names) {
    members[layers.stratum_of.at(name)].push_back(name);
  }
  for (std::vector<std::string>& m : members) std::sort(m.begin(), m.end());
  std::vector<std::size_t> strata;
  for (std::size_t i = 0; i < n; ++i) {
    if (!members[i].empty()) strata.push_back(i);
  }
  std::sort(strata.begin(), strata.end(),
            [&](std::size_t a, std::size_t b) {
              if (height[a] != height[b]) return height[a] < height[b];
              return members[a].front() < members[b].front();
            });

  std::ostringstream os;
  os << "layer DAG: " << layers.names.size() << " layer(s) in "
     << strata.size() << " stratum(s), low to high:\n";
  for (const std::size_t i : strata) {
    os << "  ";
    for (std::size_t k = 0; k < members[i].size(); ++k) {
      if (k > 0) os << " / ";
      os << members[i][k];
    }
    os << "\n";
  }
  os << "observed include edges:\n";
  for (const auto& [key, obs] : observed) {
    os << "  " << key.first << " -> " << key.second << "  "
       << (obs.ok ? "ok" : "VIOLATION") << " (" << obs.path << ":"
       << obs.line << ")\n";
  }
  return os.str();
}

}  // namespace streamcalc::srclint
