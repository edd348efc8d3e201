// Module census: every module under src/ must be reached by a real
// program. A module that only tests and micro benches include is code
// without a user, so this walks the quoted-include graph that srclint
// builds (build_project_model) from the program roots and requires every
// src/<dir> to be in the closure.
//
// Program roots are tools/*.cpp, examples/*.cpp and the paper programs in
// bench/: every bench/*.cpp except the micro benches (micro_*.cpp) and
// stoch_bounds.cpp, which time the library instead of running it. The
// closure is taken at module level: once a file includes a module's
// header, every file of that module is followed, as linking the module's
// library would. A dir-less include resolves next to the including file,
// so bench/report.hpp is followed but the umbrella header streamcalc.hpp
// is not: it includes every module and would make the census vacuous.
#include <gtest/gtest.h>

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

/// Modules no program needs, each with the reason it stays.
const std::map<std::string, std::string> kExempt = {
    {"testing", "the test-oracle library that the property suites link"},
};

bool is_program_root(const std::string& path) {
  const fs::path p(path);
  const std::string dir = p.parent_path().string();
  const std::string name = p.filename().string();
  if (p.extension() != ".cpp") return false;
  if (dir == "tools" || dir == "examples") return true;
  return dir == "bench" && name.rfind("micro_", 0) != 0 &&
         name != "stoch_bounds.cpp";
}

/// The sources of src/ and of the program directories, with paths
/// relative to the repository root.
std::vector<SourceFile> repository_files() {
  const fs::path root(SC_SRCLINT_SOURCE_DIR);
  std::vector<SourceFile> files;
  for (const char* dir : {"src", "tools", "examples", "bench"}) {
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

/// The non-exempt modules of `files` that no program root reaches.
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
    if (reached.count(module) == 0 && kExempt.count(module) == 0) {
      out.push_back(module);
    }
  }
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

}  // namespace
}  // namespace streamcalc::srclint
