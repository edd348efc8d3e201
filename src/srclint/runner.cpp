#include "srclint/runner.hpp"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <ostream>
#include <set>
#include <sstream>

#include "srclint/baseline.hpp"
#include "srclint/layers.hpp"
#include "srclint/project.hpp"
#include "srclint/rules.hpp"
#include "util/json.hpp"

namespace streamcalc::srclint {

namespace fs = std::filesystem;
using util::json_quote;

namespace {

bool is_source_file(const fs::path& p) {
  const std::string ext = p.extension().string();
  return ext == ".cpp" || ext == ".hpp" || ext == ".cc" || ext == ".h";
}

bool hidden(const fs::path& p) {
  const std::string name = p.filename().string();
  return name.size() > 1 && name[0] == '.';
}

/// Expands `paths` (files or directories) to a sorted list of source
/// files. Returns false — after reporting to `err` — when a path does not
/// exist.
bool collect_files(const std::vector<std::string>& paths,
                   std::vector<std::string>* files, std::ostream& err) {
  bool ok = true;
  for (const std::string& path : paths) {
    std::error_code ec;
    const fs::file_status status = fs::status(path, ec);
    if (ec || status.type() == fs::file_type::not_found) {
      err << "error: cannot open '" << path << "'\n";
      ok = false;
      continue;
    }
    if (fs::is_directory(status)) {
      for (fs::recursive_directory_iterator it(path, ec), end;
           !ec && it != end; it.increment(ec)) {
        if (it->is_directory() && hidden(it->path())) {
          it.disable_recursion_pending();
          continue;
        }
        if (it->is_regular_file() && is_source_file(it->path()) &&
            !hidden(it->path())) {
          files->push_back(it->path().generic_string());
        }
      }
    } else {
      files->push_back(fs::path(path).generic_string());
    }
  }
  std::sort(files->begin(), files->end());
  files->erase(std::unique(files->begin(), files->end()), files->end());
  return ok;
}

std::string finding_json(const Finding& f) {
  std::ostringstream os;
  const char* title = code_title(f.code);
  os << "{\"code\": " << json_quote(f.code)
     << ", \"title\": " << json_quote(title != nullptr ? title : "")
     << ", \"path\": " << json_quote(f.path) << ", \"line\": " << f.line
     << ", \"message\": " << json_quote(f.message)
     << ", \"hint\": " << json_quote(f.hint) << "}";
  return os.str();
}

}  // namespace

ParseResult parse_srclint_args(const std::vector<std::string>& args) {
  ParseResult result;
  RunOptions& opts = result.options;
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& arg = args[i];
    if (arg == "--json") {
      opts.json = true;
    } else if (arg == "--list-codes") {
      opts.list_codes = true;
    } else if (arg == "--help" || arg == "-h") {
      opts.help = true;
    } else if (arg == "--baseline") {
      if (i + 1 >= args.size()) {
        result.error = "--baseline requires a file argument";
        return result;
      }
      opts.baseline_path = args[++i];
    } else if (arg == "--layers") {
      if (i + 1 >= args.size()) {
        result.error = "--layers requires a file argument";
        return result;
      }
      opts.layers_path = args[++i];
    } else if (arg == "--graph") {
      if (i + 1 >= args.size()) {
        result.error = "--graph requires 'lock-order' or 'layers'";
        return result;
      }
      opts.graph = args[++i];
      if (opts.graph != "lock-order" && opts.graph != "layers") {
        result.error = "unknown graph '" + opts.graph +
                       "' (expected 'lock-order' or 'layers')";
        return result;
      }
    } else if (!arg.empty() && arg[0] == '-' && arg != "-") {
      result.error = "unknown option '" + arg + "'";
      return result;
    } else {
      opts.paths.push_back(arg);
    }
  }
  if (!opts.help && !opts.list_codes && opts.paths.empty()) {
    result.error = "no input paths (expected files or directories to scan)";
  }
  return result;
}

std::string help_text(const std::string& argv0) {
  std::ostringstream os;
  os << "usage: " << argv0 << " [options] <path>...\n"
     << "\n"
     << "Static analysis of the streamcalc sources themselves: the per-file\n"
     << "rules SC901-SC908 (DESIGN.md section 13) plus the whole-project\n"
     << "concurrency and layering analyses SC910, SC911 and SC913\n"
     << "(section 14) over the given files or directories (recursively,\n"
     << ".cpp/.hpp).\n"
     << "\n"
     << "options:\n"
     << "  --json             machine-readable report on stdout\n"
     << "  --baseline <file>  suppression file (default: ./srclint.baseline\n"
     << "                     when present; entries carry '# reason' text)\n"
     << "  --layers <file>    layer DAG declaration for SC913 (default:\n"
     << "                     ./srclint.layers when present; without one\n"
     << "                     SC913 is skipped)\n"
     << "  --graph <which>    print a graph instead of findings and exit\n"
     << "                     0/1: 'lock-order' (the global mutex\n"
     << "                     acquisition-order graph, cycles marked) or\n"
     << "                     'layers' (declared strata plus observed\n"
     << "                     include edges); the baseline does not apply\n"
     << "  --list-codes       print the rule registry and exit\n"
     << "  --help             this table\n"
     << "\n"
     << "exit codes: 0 clean, 1 unreadable input, baseline, or layers file,\n"
     << "2 findings, 3 usage error\n";
  return os.str();
}

int run_srclint(const RunOptions& options, std::ostream& out,
                std::ostream& err) {
  bool read_failure = false;
  const bool graph_mode = !options.graph.empty();

  Baseline baseline;
  if (!graph_mode) {
    std::string baseline_path = options.baseline_path;
    if (baseline_path.empty() && fs::exists("srclint.baseline")) {
      baseline_path = "srclint.baseline";
    }
    if (!baseline_path.empty()) {
      std::ifstream in(baseline_path);
      if (!in) {
        err << "error: cannot open baseline '" << baseline_path << "'\n";
        read_failure = true;
      } else {
        std::ostringstream text;
        text << in.rdbuf();
        std::vector<std::string> errors;
        baseline = parse_baseline(text.str(), &errors);
        for (const std::string& e : errors) {
          err << "error: " << baseline_path << ": " << e << "\n";
          read_failure = true;
        }
      }
    }
  }

  // The layer declaration: explicit flag, else the checked-in default.
  // SC913 (and --graph layers) only exist relative to a declaration.
  Layers layers;
  bool have_layers = false;
  std::string layers_path = options.layers_path;
  if (layers_path.empty() && fs::exists("srclint.layers")) {
    layers_path = "srclint.layers";
  }
  if (layers_path.empty() && options.graph == "layers") {
    err << "error: --graph layers needs a layers file (--layers <file> or "
           "./srclint.layers)\n";
    read_failure = true;
  }
  if (!layers_path.empty()) {
    std::ifstream in(layers_path);
    if (!in) {
      err << "error: cannot open layers '" << layers_path << "'\n";
      read_failure = true;
    } else {
      std::ostringstream text;
      text << in.rdbuf();
      std::vector<std::string> errors;
      layers = parse_layers(text.str(), &errors);
      for (const std::string& e : errors) {
        err << "error: " << layers_path << ": " << e << "\n";
        read_failure = true;
      }
      have_layers = errors.empty();
    }
  }

  std::vector<std::string> files;
  if (!collect_files(options.paths, &files, err)) read_failure = true;

  std::vector<SourceFile> sources;
  sources.reserve(files.size());
  for (const std::string& file : files) {
    std::ifstream in(file);
    if (!in) {
      err << "error: cannot open '" << file << "'\n";
      read_failure = true;
      continue;
    }
    std::ostringstream text;
    text << in.rdbuf();
    sources.push_back(SourceFile{file, text.str()});
  }

  if (graph_mode) {
    if (read_failure) return 1;
    const ProjectModel project = build_project_model(sources);
    if (options.graph == "lock-order") {
      out << lock_order_report(project);
    } else {
      out << layers_report(project, layers);
    }
    return 0;
  }

  std::vector<Finding> findings;
  for (const SourceFile& source : sources) {
    std::vector<Finding> file_findings =
        check_source(source.path, source.content);
    findings.insert(findings.end(),
                    std::make_move_iterator(file_findings.begin()),
                    std::make_move_iterator(file_findings.end()));
  }

  const ProjectModel project = build_project_model(sources);
  if (have_layers) {
    // A typoed layer name would silently constrain nothing; warn (the scan
    // may deliberately cover a subset of src/, so this cannot be fatal).
    std::set<std::string> known_dirs;
    for (const FileModel& f : project.files) {
      const std::string dir = layer_dir_of(f.path);
      if (!dir.empty()) known_dirs.insert(dir);
    }
    if (!known_dirs.empty()) {
      for (const std::string& problem :
           validate_layer_names(layers, known_dirs)) {
        err << "warning: " << layers_path << ": " << problem << "\n";
      }
    }
  }
  std::vector<Finding> project_findings =
      check_project(project, have_layers ? &layers : nullptr);
  findings.insert(findings.end(),
                  std::make_move_iterator(project_findings.begin()),
                  std::make_move_iterator(project_findings.end()));
  std::stable_sort(findings.begin(), findings.end(),
                   [](const Finding& a, const Finding& b) {
                     if (a.path != b.path) return a.path < b.path;
                     return a.line < b.line;
                   });

  std::vector<Finding> suppressed;
  std::vector<std::string> stale;
  findings = apply_baseline(std::move(findings), baseline, &suppressed,
                            &stale);
  for (const std::string& key : stale) {
    err << "warning: stale baseline entry '" << key
        << "' matches no finding — remove it\n";
  }

  const int code = read_failure ? 1 : (findings.empty() ? 0 : 2);
  if (options.json) {
    out << "{\"command\": \"srclint\",\n \"files_scanned\": " << files.size()
        << ",\n \"findings\": [";
    for (std::size_t i = 0; i < findings.size(); ++i) {
      out << (i == 0 ? "" : ",") << "\n   " << finding_json(findings[i]);
    }
    out << "],\n \"suppressed\": [";
    for (std::size_t i = 0; i < suppressed.size(); ++i) {
      out << (i == 0 ? "" : ",") << "\n   " << finding_json(suppressed[i]);
    }
    out << "],\n \"stale_baseline\": [";
    for (std::size_t i = 0; i < stale.size(); ++i) {
      out << (i == 0 ? "" : ",") << "\n   " << json_quote(stale[i]);
    }
    out << "],\n \"exit_code\": " << code << "}\n";
  } else {
    for (const Finding& f : findings) out << render(f);
    out << "srclint: " << files.size() << " file(s) scanned, "
        << findings.size() << " finding(s)";
    if (!suppressed.empty()) {
      out << " (" << suppressed.size() << " suppressed by baseline)";
    }
    out << "\n";
  }
  return code;
}

int run_srclint_cli(const std::vector<std::string>& args, std::ostream& out,
                    std::ostream& err) {
  const ParseResult parsed = parse_srclint_args(args);
  if (!parsed.ok()) {
    err << "error: " << parsed.error << "\n" << help_text("srclint");
    return 3;
  }
  if (parsed.options.help) {
    out << help_text("srclint");
    return 0;
  }
  if (parsed.options.list_codes) {
    out << list_codes_text();
    return 0;
  }
  return run_srclint(parsed.options, out, err);
}

}  // namespace streamcalc::srclint
