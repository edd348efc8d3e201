// Module census: every module under src/ must be reached by a real
// program. A module that only tests and micro benches include is code
// without a user, so this walks the quoted-include graph that srclint
// builds (build_project_model) from the program roots and requires every
// src/<dir> to be in the closure. There is no exemption list: code that
// no program runs lives outside src/ (tools/srclint/, tests/support/).
//
// Program roots are tools/*.cpp, examples/*.cpp and the paper programs in
// bench/: every bench/*.cpp except the micro benches (micro_*.cpp) and
// stoch_bounds.cpp, which time the library instead of running it. The
// closure is taken at module level: once a file includes a module's
// header, every file of that module is followed, as linking the module's
// library would. A dir-less include resolves next to the including file,
// so bench/report.hpp is followed but the umbrella header streamcalc.hpp
// is not: it includes every module and would make the census vacuous.
//
// Boundary checks run on the same include graph, since the layer rule
// (SC913) sees only src/:
//   * srclint (tools/srclint/ and tools/srclint.cpp) includes only its
//     own headers, util/json.hpp and util/error.hpp, so it keeps building
//     from sc_json alone;
//   * nothing under src/, tools/ or examples/, and no bench paper
//     program, reaches the test library in tests/support/;
//   * no file under src/ or bench/ includes the coroutine DES
//     (tests/support/des/), the oracle of the simulation tests; the micro
//     benches may link the test library, but not that.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "srclint/project.hpp"
#include "srclint/structure.hpp"

namespace streamcalc::srclint {
namespace {

namespace fs = std::filesystem;

bool is_program_root(const std::string& path) {
  const fs::path p(path);
  const std::string dir = p.parent_path().string();
  const std::string name = p.filename().string();
  if (p.extension() != ".cpp") return false;
  if (dir == "tools" || dir == "examples") return true;
  return dir == "bench" && name.rfind("micro_", 0) != 0 &&
         name != "stoch_bounds.cpp";
}

/// The sources of src/, of the program directories and of the test
/// library, with paths relative to the repository root.
std::vector<SourceFile> repository_files() {
  const fs::path root(SC_SRCLINT_SOURCE_DIR);
  std::vector<SourceFile> files;
  for (const char* dir :
       {"src", "tools", "examples", "bench", "tests/support"}) {
    for (const auto& entry : fs::recursive_directory_iterator(root / dir)) {
      const fs::path& p = entry.path();
      if (p.extension() != ".cpp" && p.extension() != ".hpp") continue;
      std::ifstream in(p);
      std::ostringstream text;
      text << in.rdbuf();
      files.push_back({fs::relative(p, root).generic_string(), text.str()});
    }
  }
  return files;
}

/// The modules of `files` that no program root reaches.
std::vector<std::string> unreached_modules(
    const std::vector<SourceFile>& files) {
  const ProjectModel project = build_project_model(files);
  std::map<std::string, const FileModel*> by_path;
  std::map<std::string, std::vector<const FileModel*>> by_module;
  std::vector<const FileModel*> work;
  for (const FileModel& f : project.files) {
    by_path[f.path] = &f;
    const std::string module = layer_dir_of(f.path);
    if (!module.empty()) by_module[module].push_back(&f);
    if (is_program_root(f.path)) work.push_back(&f);
  }
  EXPECT_GE(work.size(), 30u) << "program roots went missing";

  std::set<std::string> seen_files;
  std::set<std::string> reached;
  while (!work.empty()) {
    const FileModel* f = work.back();
    work.pop_back();
    for (const IncludeRef& inc : f->includes) {
      if (inc.target.find('/') == std::string::npos) {
        const std::string local =
            (fs::path(f->path).parent_path() / inc.target).generic_string();
        const auto it = by_path.find(local);
        if (it != by_path.end() && seen_files.insert(local).second) {
          work.push_back(it->second);
        }
        continue;
      }
      const std::string path = "src/" + inc.target;
      if (by_path.count(path) == 0) continue;
      const std::string module = layer_dir_of(path);
      if (!reached.insert(module).second) continue;
      for (const FileModel* m : by_module[module]) work.push_back(m);
    }
  }

  std::vector<std::string> out;
  for (const auto& [module, members] : by_module) {
    if (reached.count(module) == 0) {
      out.push_back(module);
    }
  }
  return out;
}

bool starts_with(const std::string& s, const std::string& prefix) {
  return s.rfind(prefix, 0) == 0;
}

bool is_srclint_file(const std::string& path) {
  return starts_with(path, "tools/srclint/") || path == "tools/srclint.cpp";
}

/// Every quoted include of srclint's sources that is not one of its own
/// headers, util/json.hpp or util/error.hpp, as "path:line: target".
std::vector<std::string> srclint_foreign_includes(
    const std::vector<SourceFile>& files) {
  std::vector<std::string> out;
  for (const FileModel& f : build_project_model(files).files) {
    if (!is_srclint_file(f.path)) continue;
    for (const IncludeRef& inc : f.includes) {
      if (starts_with(inc.target, "srclint/") ||
          inc.target == "util/json.hpp" || inc.target == "util/error.hpp") {
        continue;
      }
      out.push_back(f.path + ":" + std::to_string(inc.line) + ": " +
                    inc.target);
    }
  }
  return out;
}

/// Every include by which src/, tools/, examples/ or a bench paper
/// program reaches tests/support/, as "path:line: target". Every file of
/// the first three is a root; a dir-less include is followed to the file
/// next to the includer (a bench paper program's local headers), and a
/// `dir/file` include reaches the test library when tests/support/ holds
/// that file.
std::vector<std::string> test_library_reaches(
    const std::vector<SourceFile>& files) {
  const ProjectModel project = build_project_model(files);
  std::map<std::string, const FileModel*> by_path;
  std::vector<const FileModel*> work;
  std::set<std::string> seen;
  for (const FileModel& f : project.files) {
    by_path[f.path] = &f;
    if (starts_with(f.path, "src/") || starts_with(f.path, "tools/") ||
        starts_with(f.path, "examples/") || is_program_root(f.path)) {
      work.push_back(&f);
      seen.insert(f.path);
    }
  }
  std::vector<std::string> out;
  while (!work.empty()) {
    const FileModel* f = work.back();
    work.pop_back();
    for (const IncludeRef& inc : f->includes) {
      if (inc.target.find('/') != std::string::npos) {
        if (by_path.count("tests/support/" + inc.target) != 0) {
          out.push_back(f->path + ":" + std::to_string(inc.line) + ": " +
                        inc.target);
        }
        continue;
      }
      const std::string local =
          (fs::path(f->path).parent_path() / inc.target).generic_string();
      const auto it = by_path.find(local);
      if (it != by_path.end() && seen.insert(local).second) {
        work.push_back(it->second);
      }
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

/// Every include of the test-side DES (a des/ header) under src/ or
/// bench/, as "path:line: target".
std::vector<std::string> des_includers(const std::vector<SourceFile>& files) {
  std::vector<std::string> out;
  for (const FileModel& f : build_project_model(files).files) {
    if (!starts_with(f.path, "src/") && !starts_with(f.path, "bench/")) {
      continue;
    }
    for (const IncludeRef& inc : f.includes) {
      if (starts_with(inc.target, "des/")) {
        out.push_back(f.path + ":" + std::to_string(inc.line) + ": " +
                      inc.target);
      }
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

TEST(ModuleCensus, EveryModuleIsIncludedByAProgram) {
  const std::vector<SourceFile> files = repository_files();
  ASSERT_GE(files.size(), 100u);
  for (const std::string& module : unreached_modules(files)) {
    ADD_FAILURE() << "src/" << module
                  << " is included by no program (tools/, examples/ or a "
                     "bench/ paper program): delete it, or give it a user";
  }
}

TEST(ModuleCensus, PlantedModuleIsReportedUntilAProgramIncludesIt) {
  std::vector<SourceFile> files = repository_files();
  files.push_back({"src/orphan/orphan.hpp", "#pragma once\nint orphan();\n"});
  files.push_back({"src/orphan/orphan.cpp",
                   "#include \"orphan/orphan.hpp\"\n"
                   "#include \"util/error.hpp\"\n"
                   "int orphan() { return 1; }\n"});
  EXPECT_EQ(unreached_modules(files), std::vector<std::string>{"orphan"});

  files.push_back({"examples/uses_orphan.cpp",
                   "#include \"orphan/orphan.hpp\"\n"
                   "int main() { return orphan(); }\n"});
  EXPECT_TRUE(unreached_modules(files).empty());
}

TEST(ModuleCensus, SrclintIncludesOnlyItselfAndTheJsonModule) {
  const std::vector<SourceFile> files = repository_files();
  std::size_t srclint_files = 0;
  for (const SourceFile& f : files) srclint_files += is_srclint_file(f.path);
  ASSERT_GE(srclint_files, 17u) << "tools/srclint/ went missing";
  for (const std::string& inc : srclint_foreign_includes(files)) {
    ADD_FAILURE() << inc
                  << ": srclint includes only srclint/, util/json.hpp and "
                     "util/error.hpp (it links sc_json alone)";
  }
}

TEST(ModuleCensus, PlantedSrclintIncludeIsReported) {
  std::vector<SourceFile> files = repository_files();
  files.push_back({"tools/srclint/planted.cpp",
                   "#include \"srclint/scan.hpp\"\n"
                   "#include \"util/error.hpp\"\n"
                   "#include \"obs/runtime.hpp\"\n"});
  EXPECT_EQ(srclint_foreign_includes(files),
            std::vector<std::string>{
                "tools/srclint/planted.cpp:3: obs/runtime.hpp"});
}

TEST(ModuleCensus, NoProgramReachesTheTestLibrary) {
  const std::vector<SourceFile> files = repository_files();
  std::size_t support_files = 0;
  for (const SourceFile& f : files) {
    support_files += starts_with(f.path, "tests/support/");
  }
  ASSERT_GE(support_files, 10u) << "tests/support/ went missing";
  for (const std::string& inc : test_library_reaches(files)) {
    ADD_FAILURE() << inc
                  << ": src/, tools/, examples/ and the bench paper "
                     "programs must not reach tests/support/";
  }
}

TEST(ModuleCensus, PlantedTestLibraryIncludeIsReported) {
  std::vector<SourceFile> files = repository_files();
  files.push_back({"src/netcalc/planted.hpp",
                   "#pragma once\n#include \"testing/generator.hpp\"\n"});
  EXPECT_EQ(test_library_reaches(files),
            std::vector<std::string>{
                "src/netcalc/planted.hpp:2: testing/generator.hpp"});
}

TEST(ModuleCensus, NothingInSrcOrBenchIncludesTheDes) {
  const std::vector<SourceFile> files = repository_files();
  std::size_t des_files = 0;
  for (const SourceFile& f : files) {
    des_files += starts_with(f.path, "tests/support/des/");
  }
  ASSERT_GE(des_files, 4u) << "tests/support/des/ went missing";
  for (const std::string& inc : des_includers(files)) {
    ADD_FAILURE() << inc
                  << ": the DES is the tests' oracle; nothing under src/ or "
                     "bench/ may include it";
  }
}

TEST(ModuleCensus, PlantedDesIncludeIsReported) {
  std::vector<SourceFile> files = repository_files();
  files.push_back({"src/streamsim/planted.cpp",
                   "#include \"streamsim/detail/core.hpp\"\n"
                   "#include \"des/store.hpp\"\n"});
  files.push_back({"bench/micro_planted.cpp",
                   "#include \"des/pipeline.hpp\"\n"});
  EXPECT_EQ(des_includers(files),
            (std::vector<std::string>{
                "bench/micro_planted.cpp:1: des/pipeline.hpp",
                "src/streamsim/planted.cpp:2: des/store.hpp"}));
}

}  // namespace
}  // namespace streamcalc::srclint
