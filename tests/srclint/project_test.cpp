// Unit tests for the cross-file IR and the lock-order graph: extraction
// (structure.cpp), declaration-site lock identity, interprocedural edge
// propagation, cycle detection, and determinism.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "srclint/project.hpp"
#include "srclint/structure.hpp"

namespace streamcalc::srclint {
namespace {

ProjectModel project_of(std::vector<SourceFile> files) {
  return build_project_model(files);
}

TEST(SrclintStructure, ExtractsDeclsLocksAndCalls) {
  const std::string text =
      "class Engine {\n"
      "  util::Mutex mutex_;\n"
      "  int hits_ SC_GUARDED_BY(mutex_) = 0;\n"
      "};\n"
      "void Engine::bump() {\n"
      "  util::MutexLock lock(mutex_);\n"
      "  notify();\n"
      "}\n";
  const FileModel model = build_file_model("src/x/engine.cpp", text);
  ASSERT_EQ(model.mutexes.size(), 1u);
  EXPECT_EQ(model.mutexes[0].owner, "Engine");
  EXPECT_EQ(model.mutexes[0].name, "mutex_");
  ASSERT_EQ(model.functions.size(), 1u);
  EXPECT_EQ(model.functions[0].owner, "Engine");
  EXPECT_EQ(model.functions[0].name, "bump");
  ASSERT_EQ(model.functions[0].acquires.size(), 1u);
  EXPECT_EQ(model.functions[0].acquires[0].expr, "mutex_");
  bool saw_call = false;
  for (const CallSite& c : model.functions[0].calls) {
    if (c.name == "notify") {
      saw_call = true;
      EXPECT_FALSE(c.held.empty()) << "call under the lock";
    }
  }
  EXPECT_TRUE(saw_call);
}

TEST(SrclintStructure, LambdaBodySuspendsTheEnclosingLockSet) {
  // A lambda built under a lock runs later, possibly without it: calls in
  // its body must not inherit the enclosing lock set (that would turn
  // every deferred callback into a false SC911).
  const std::string text =
      "void f() {\n"
      "  util::MutexLock lock(m_);\n"
      "  queue.push([&] {\n"
      "    ::send(fd, buf, n, 0);\n"
      "  });\n"
      "}\n";
  const FileModel model = build_file_model("src/x/defer.cpp", text);
  ASSERT_EQ(model.functions.size(), 1u);
  for (const CallSite& c : model.functions[0].calls) {
    if (c.name == "send") {
      EXPECT_TRUE(c.held.empty()) << "deferred body inherited the lock set";
    }
  }
}

TEST(SrclintLockGraph, NestedAcquisitionMakesAnEdge) {
  const ProjectModel p = project_of(
      {{"src/x/a.cpp",
        "void f() {\n"
        "  util::MutexLock l1(g_a);\n"
        "  util::MutexLock l2(g_b);\n"
        "}\n"}});
  const LockGraph g = build_lock_graph(p);
  ASSERT_EQ(g.edges.size(), 1u);
  EXPECT_EQ(g.edges[0].line, 3);
  EXPECT_EQ(g.edges[0].path, "src/x/a.cpp");
  EXPECT_TRUE(g.cycles.empty());
}

TEST(SrclintLockGraph, AbBaIsOneCycle) {
  const ProjectModel p = project_of(
      {{"src/x/a.cpp",
        "void f() {\n"
        "  util::MutexLock l1(g_a);\n"
        "  util::MutexLock l2(g_b);\n"
        "}\n"
        "void g() {\n"
        "  util::MutexLock l1(g_b);\n"
        "  util::MutexLock l2(g_a);\n"
        "}\n"}});
  const LockGraph g = build_lock_graph(p);
  EXPECT_EQ(g.edges.size(), 2u);
  ASSERT_EQ(g.cycles.size(), 1u);
  ASSERT_EQ(g.cycles[0].chain.size(), 2u);
  // The chain is closed.
  EXPECT_EQ(g.cycles[0].chain.back().to, g.cycles[0].chain.front().from);
}

TEST(SrclintLockGraph, InterproceduralEdgeThroughACallee) {
  const ProjectModel p = project_of(
      {{"src/x/locks.hpp", "util::Mutex g_a;\nutil::Mutex g_b;\n"},
       {"src/x/a.cpp",
        "void outer() {\n"
        "  util::MutexLock l(g_a);\n"
        "  helper();\n"
        "}\n"},
       {"src/x/b.cpp",
        "void helper() {\n"
        "  util::MutexLock l(g_b);\n"
        "}\n"}});
  const LockGraph g = build_lock_graph(p);
  ASSERT_EQ(g.edges.size(), 1u);
  EXPECT_EQ(g.edges[0].path, "src/x/a.cpp");
  EXPECT_EQ(g.edges[0].line, 3);
  EXPECT_NE(g.edges[0].via.find("helper"), std::string::npos)
      << g.edges[0].via;
  // Declaration-site identity: both files resolved to the shared decls.
  EXPECT_EQ(g.edges[0].from_label, "locks.hpp::g_a");
  EXPECT_EQ(g.edges[0].to_label, "locks.hpp::g_b");
}

TEST(SrclintLockGraph, AmbiguousMemberCallPropagatesNothing) {
  // Two classes both define refresh(); a member call `obj.refresh()` from
  // a third class cannot tell which. Propagating either would risk an
  // invented cycle, so the summary contributes no edge.
  const ProjectModel p = project_of(
      {{"src/x/a.cpp",
        "class A {\n"
        "  util::Mutex m_;\n"
        "};\n"
        "void A::refresh() {\n"
        "  util::MutexLock l(m_);\n"
        "}\n"},
       {"src/x/b.cpp",
        "class B {\n"
        "  util::Mutex m_;\n"
        "};\n"
        "void B::refresh() {\n"
        "  util::MutexLock l(m_);\n"
        "}\n"},
       {"src/x/c.cpp",
        "class C {\n"
        "  util::Mutex m_;\n"
        "};\n"
        "void C::tick() {\n"
        "  util::MutexLock l(m_);\n"
        "  obj.refresh();\n"
        "}\n"}});
  const LockGraph g = build_lock_graph(p);
  EXPECT_TRUE(g.edges.empty()) << g.edges.size() << " edge(s), first: "
                               << g.edges.front().from << " -> "
                               << g.edges.front().to;
  EXPECT_TRUE(g.cycles.empty());
}

TEST(SrclintLockGraph, DeterministicAcrossInputOrder) {
  std::vector<SourceFile> files = {
      {"src/x/a.cpp",
       "void f() {\n"
       "  util::MutexLock l1(g_a);\n"
       "  util::MutexLock l2(g_b);\n"
       "}\n"},
      {"src/x/b.cpp",
       "void g() {\n"
       "  util::MutexLock l1(g_b2);\n"
       "  util::MutexLock l2(g_c);\n"
       "}\n"}};
  const std::string report1 = lock_order_report(project_of(files));
  std::swap(files[0], files[1]);
  const std::string report2 = lock_order_report(project_of(files));
  EXPECT_EQ(report1, report2);
}

TEST(SrclintProject, LayerDirOf) {
  EXPECT_EQ(layer_dir_of("src/netcalc/dag.cpp"), "netcalc");
  EXPECT_EQ(layer_dir_of("/abs/repo/src/util/sync.hpp"), "util");
  EXPECT_EQ(layer_dir_of("src/streamcalc.hpp"), "");  // umbrella header
  EXPECT_EQ(layer_dir_of("tools/srclint.cpp"), "");
}

TEST(SrclintProject, Sc913FlagsUpwardIncludeAtItsLine) {
  std::vector<std::string> errors;
  const Layers layers = parse_layers("util < obs < serve\n", &errors);
  ASSERT_TRUE(errors.empty());
  const ProjectModel p = project_of(
      {{"src/obs/hook.cpp",
        "#include \"util/env.hpp\"\n#include \"serve/server.hpp\"\n"}});
  const std::vector<Finding> findings = check_project(p, &layers);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].code, "SC913");
  EXPECT_EQ(findings[0].line, 2);
}

TEST(SrclintProject, NoLayersMeansNoSc913) {
  const ProjectModel p = project_of(
      {{"src/obs/hook.cpp", "#include \"serve/server.hpp\"\n"}});
  EXPECT_TRUE(check_project(p, nullptr).empty());
}

}  // namespace
}  // namespace streamcalc::srclint
