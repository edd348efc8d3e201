// srclint selftest: an analyzer that cannot detect a planted violation is
// worse than none (the same discipline as the property-harness selftest
// and nclint's golden bad-model suite). Every code in the registry must
// have at least one planted fixture here, every fixture must be detected
// at exactly its planted line, and every fixture's repaired twin must scan
// clean — 100% detection, 0% false alarm, enforced against the registry so
// a newly added SC code without a fixture fails this suite by itself.
//
// Since the cross-file pass (SC910-SC913) a fixture is a small *project*:
// the main file plus optional extra files (declarations, callees across
// translation units) and an optional layers declaration. The scan helper
// mirrors the runner: per-file rules on every file, then the project pass
// over all of them together.
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>
#include <vector>

#include "srclint/finding.hpp"
#include "srclint/layers.hpp"
#include "srclint/project.hpp"
#include "srclint/rules.hpp"
#include "srclint/structure.hpp"

namespace streamcalc::srclint {
namespace {

struct Fixture {
  std::string name;      // for failure messages
  std::string path;      // where the planted file pretends to live
  std::string planted;   // source with exactly one violation of `code`
  int line;              // 1-based line the finding must anchor to
  std::string repaired;  // the compliant rewrite: must scan clean
  // Supporting cast for cross-file fixtures: these files are scanned
  // alongside both the planted file and its repaired twin, so they must
  // themselves be clean — the violation lives in the main file.
  std::vector<std::pair<std::string, std::string>> extra = {};
  std::string layers = "";  // SC913 only: the declared DAG ("" = no layers)
};

// Runs exactly what the runner runs: per-file rules on every file, then
// the cross-file pass over the whole fixture project.
std::vector<Finding> scan_fixture(const Fixture& fx,
                                  const std::string& main_text) {
  std::vector<SourceFile> sources;
  sources.push_back({fx.path, main_text});
  for (const auto& [path, text] : fx.extra) sources.push_back({path, text});

  std::vector<Finding> findings;
  for (const SourceFile& src : sources) {
    for (Finding& f : check_source(src.path, src.content)) {
      findings.push_back(std::move(f));
    }
  }
  const ProjectModel project = build_project_model(sources);
  Layers layers;
  if (!fx.layers.empty()) {
    std::vector<std::string> errors;
    layers = parse_layers(fx.layers, &errors);
    EXPECT_TRUE(errors.empty())
        << fx.name << ": fixture layers failed to parse: " << errors.front();
  }
  for (Finding& f :
       check_project(project, fx.layers.empty() ? nullptr : &layers)) {
    findings.push_back(std::move(f));
  }
  return findings;
}

// The fixtures are deliberately *minimal* violations — the smallest token
// stream that must trip the rule — so a regression that narrows a pattern
// shows up as a missed fixture, not as noise.
const std::map<std::string, std::vector<Fixture>>& fixtures() {
  static const std::map<std::string, std::vector<Fixture>> kFixtures = {
      {"SC901",
       {{"raw mutex member", "src/serve/session.hpp",
         "class S {\n  std::mutex m_;\n};\n", 2,
         "class S {\n  util::Mutex m_;\n};\n"},
        {"raw lock in function", "src/netcalc/dag.cpp",
         "void f() {\n  std::lock_guard<util::Mutex> l(m);\n}\n", 2,
         "void f() {\n  const util::MutexLock l(m);\n}\n"}}},
      {"SC902",
       {{"qualified getenv", "src/apps/blast.cpp",
         "const char* v =\n    std::getenv(\"HOME\");\n", 2,
         "const auto v =\n    util::env_raw(\"HOME\");\n"},
        {"global-scope getenv", "tests/apps/blast_test.cpp",
         "const char* v = ::getenv(\"HOME\");\n", 1,
         "const auto v = util::env_raw(\"HOME\");\n"}}},
      {"SC903",
       {{"scattered knob read", "src/streamsim/engine.cpp",
         "const auto v =\n    util::env_uint(\"STREAMCALC_FUZZ_CASES\");\n", 2,
         "const int v =\n    ctx.fuzz_cases;\n"},
        {"bench knob read", "bench/bench_kernels.cpp",
         "const auto v = util::env_bool(\"STREAMCALC_OBS\");\n", 1,
         "const bool v = ctx.obs;\n"}}},
      {"SC904",
       {{"inexact equality", "src/minplus/operations.cpp",
         "bool near(double x) {\n  return x == 0.1;\n}\n", 2,
         "bool near(double x) {\n  return std::abs(x - 0.1) < kTol;\n}\n"},
        {"inexact inequality, literal first", "src/certify/witness.cpp",
         "bool far(double x) {\n  return 1e-3 != x;\n}\n", 2,
         "bool far(double x) {\n  return std::abs(x - 1e-3) >= kTol;\n}\n"}}},
      {"SC905",
       {{"bare marker", "src/util/json.hpp",
         std::string("int x;  // ") + "NO" + "LINT" + "\n", 1,
         std::string("int x;  // ") + "NO" + "LINT" +
             "(some-check): json literal builder idiom\n"},
        {"check without reason", "src/util/rational.hpp",
         std::string("int y;  // ") + "NO" + "LINT" + "(some-check)\n", 1,
         std::string("int y;  // ") + "NO" + "LINT" +
             "(some-check): numeric promotion by design\n"}}},
      {"SC906",
       {{"unguarded mutable near mutex", "src/minplus/cache.hpp",
         "class C {\n  util::Mutex mutex_;\n  mutable int hits_ = 0;\n};\n",
         3,
         "class C {\n  util::Mutex mutex_;\n  mutable int hits_"
         " SC_GUARDED_BY(mutex_) = 0;\n};\n"}}},
      {"SC907",
       {{"raw thread", "src/serve/notify.cpp",
         "void f() {\n  std::thread t(run);\n  t.join();\n}\n", 2,
         "void f() {\n  util::parallel_for(n, 0, run);\n}\n"},
        {"detached thread", "tools/export_traces.cpp",
         "void f(std::vector<int>& v) {\n  worker.detach();\n}\n", 2,
         "void f(std::vector<int>& v) {\n  worker.join();\n}\n"}}},
      {"SC908",
       {{"bare double for a delay in a public header",
         "src/netcalc/model.hpp",
         "struct Hop {\n  double delay_s = 0.0;\n};\n", 2,
         "struct Hop {\n  util::Duration delay;\n};\n"},
        {"bare float rate parameter", "src/serve/limits.hpp",
         "void set_rate(float rate_bps);\n", 1,
         "void set_rate(util::DataRate rate);\n"}}},
      {"SC910",
       {{"AB-BA ordering in one file", "src/serve/order.cpp",
         "void lo() {\n"
         "  util::MutexLock l1(g_a);\n"
         "  util::MutexLock l2(g_b);\n"
         "}\n"
         "void hi() {\n"
         "  util::MutexLock l3(g_b);\n"
         "  util::MutexLock l4(g_a);\n"
         "}\n",
         3,
         "void lo() {\n"
         "  util::MutexLock l1(g_a);\n"
         "  util::MutexLock l2(g_b);\n"
         "}\n"
         "void hi() {\n"
         "  util::MutexLock l3(g_a);\n"
         "  util::MutexLock l4(g_b);\n"
         "}\n"},
        {"interprocedural cycle across files", "src/serve/order2.cpp",
         "void outer() {\n"
         "  util::MutexLock l(g_m1);\n"
         "  grab_m2();\n"
         "}\n"
         "void other() {\n"
         "  util::MutexLock l1(g_m2);\n"
         "  util::MutexLock l2(g_m1);\n"
         "}\n",
         3,
         "void outer() {\n"
         "  util::MutexLock l(g_m1);\n"
         "  grab_m2();\n"
         "}\n"
         "void other() {\n"
         "  util::MutexLock l1(g_m1);\n"
         "  util::MutexLock l2(g_m2);\n"
         "}\n",
         {{"src/serve/locks2.hpp",
           "util::Mutex g_m1;\nutil::Mutex g_m2;\n"},
          {"src/serve/grab.cpp",
           "void grab_m2() {\n  util::MutexLock l(g_m2);\n}\n"}}}}},
      {"SC911",
       {{"parallel_for under a live lock", "src/serve/push.cpp",
         "void f() {\n"
         "  util::MutexLock l(m_);\n"
         "  util::parallel_for(n, 0, task);\n"
         "}\n",
         3,
         "void f() {\n"
         "  {\n"
         "    util::MutexLock l(m_);\n"
         "  }\n"
         "  util::parallel_for(n, 0, task);\n"
         "}\n"},
        {"socket write under a live lock", "src/serve/reply.cpp",
         "void f() {\n"
         "  util::MutexLock l(m_);\n"
         "  ::send(fd, buf, n, 0);\n"
         "}\n",
         3,
         "void f() {\n"
         "  {\n"
         "    util::MutexLock l(m_);\n"
         "  }\n"
         "  ::send(fd, buf, n, 0);\n"
         "}\n"}}},
      {"SC913",
       {{"include reaching up the layer DAG", "src/obs/hook.cpp",
         "#include \"serve/server.hpp\"\n", 1,
         "#include \"util/env.hpp\"\n", {},
         "util < obs < serve\n"}}},
  };
  return kFixtures;
}

TEST(SrclintSelfTest, EveryRegisteredCodeHasAFixture) {
  for (const std::string& code : registered_codes()) {
    EXPECT_TRUE(fixtures().count(code) != 0 && !fixtures().at(code).empty())
        << code << " has no planted fixture: add one to this selftest "
        << "before (or with) the rule";
  }
  // And no fixture for a code that does not exist.
  for (const auto& [code, list] : fixtures()) {
    EXPECT_NE(code_title(code), nullptr) << code << " is not registered";
  }
}

TEST(SrclintSelfTest, EveryPlantedViolationIsDetectedAtItsLine) {
  for (const auto& [code, list] : fixtures()) {
    for (const Fixture& fx : list) {
      const std::vector<Finding> found = scan_fixture(fx, fx.planted);
      bool hit = false;
      for (const Finding& f : found) {
        if (f.code == code && f.line == fx.line && f.path == fx.path) {
          hit = true;
        }
        EXPECT_EQ(f.code, code)
            << fx.name << ": stray " << f.code << " in a fixture planted "
            << "for " << code << " (fixtures must be minimal)";
      }
      EXPECT_TRUE(hit) << code << " missed fixture '" << fx.name
                       << "' (expected a finding at " << fx.path << ":"
                       << fx.line << ")";
    }
  }
}

TEST(SrclintSelfTest, EveryRepairedTwinScansClean) {
  for (const auto& [code, list] : fixtures()) {
    for (const Fixture& fx : list) {
      const std::vector<Finding> found = scan_fixture(fx, fx.repaired);
      EXPECT_TRUE(found.empty())
          << code << " fixture '" << fx.name << "': the repaired twin "
          << "still scans dirty ("
          << (found.empty() ? "" : found.front().code) << " at line "
          << (found.empty() ? 0 : found.front().line) << ")";
    }
  }
}

TEST(SrclintSelfTest, FindingsCarryRegistryMetadata) {
  // Whatever a rule emits must round-trip through the reporting layer:
  // a registered code, a title, a positive 1-based line, and a path that
  // belongs to the fixture project (cross-file rules may legitimately
  // anchor on a supporting file).
  for (const auto& [code, list] : fixtures()) {
    for (const Fixture& fx : list) {
      std::set<std::string> paths = {fx.path};
      for (const auto& [path, text] : fx.extra) paths.insert(path);
      for (const Finding& f : scan_fixture(fx, fx.planted)) {
        EXPECT_NE(code_title(f.code), nullptr);
        EXPECT_GT(f.line, 0);
        EXPECT_FALSE(f.message.empty());
        EXPECT_TRUE(paths.count(f.path) != 0) << f.path;
      }
    }
  }
}

}  // namespace
}  // namespace streamcalc::srclint
