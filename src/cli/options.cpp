#include "cli/options.hpp"

#include <cctype>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>

namespace streamcalc::cli {

namespace {

/// Parses a --port value: a decimal port number 0..65535 (0 asks the
/// kernel to assign one — handy for tests).
bool parse_port_flag(const std::string& value, int& out) {
  if (value.empty()) return false;
  long parsed = 0;
  for (const char c : value) {
    if (std::isdigit(static_cast<unsigned char>(c)) == 0) return false;
    parsed = parsed * 10 + (c - '0');
    if (parsed > 65535) return false;
  }
  out = static_cast<int>(parsed);
  return true;
}

/// Parses an --epsilon value as a double. Deliberately no range check
/// here: stochcalc validates epsilon in (0, 1) and throws
/// PreconditionError, which maps to exit 1 — the same class as every
/// other semantically-bad input.
bool parse_epsilon_flag(const std::string& value, double& out) {
  if (value.empty()) return false;
  try {
    std::size_t pos = 0;
    out = std::stod(value, &pos);
    return pos == value.size();
  } catch (const std::exception&) {
    return false;
  }
}

}  // namespace

ParseResult parse_args(int argc, const char* const* argv) {
  ParseResult result;
  Options& opts = result.options;
  // Environment first; flags below override. May throw PreconditionError
  // for malformed STREAMCALC_* values — the caller maps that to exit 1.
  opts.ctx = util::Context::from_env();

  int i = 1;
  if (i < argc) {
    const std::string first = argv[i];
    if (first == "analyze" || first == "lint" || first == "certify" ||
        first == "serve" || first == "stoch") {
      opts.command = first;
      ++i;
    }
    // Anything else keeps the historical `streamcalc <spec|->` meaning:
    // command stays "analyze" and the argument is parsed below.
  }

  for (; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      opts.help = true;
    } else if (arg == "--json") {
      opts.json = true;
    } else if (arg == "--stats") {
      opts.ctx.stats = true;
    } else if (arg == "--trace") {
      if (i + 1 >= argc) {
        result.error = "--trace requires a file argument";
        return result;
      }
      opts.ctx.trace_path = argv[++i];
    } else if (arg == "--socket") {
      if (i + 1 >= argc) {
        result.error = "--socket requires a path argument";
        return result;
      }
      opts.socket_path = argv[++i];
    } else if (arg == "--port") {
      if (i + 1 >= argc) {
        result.error = "--port requires a port argument";
        return result;
      }
      int port = 0;
      if (!parse_port_flag(argv[++i], port)) {
        result.error = std::string("invalid --port value '") + argv[i] +
                       "': expected 0..65535";
        return result;
      }
      opts.port = port;
    } else if (arg == "--epsilon") {
      if (i + 1 >= argc) {
        result.error = "--epsilon requires a probability argument";
        return result;
      }
      double epsilon = 0.0;
      if (!parse_epsilon_flag(argv[++i], epsilon)) {
        result.error = std::string("invalid --epsilon value '") + argv[i] +
                       "': expected a number";
        return result;
      }
      opts.epsilon = epsilon;
    } else if (arg.size() >= 2 && arg[0] == '-' && arg != "-") {
      result.error = "unknown flag '" + arg + "'";
      return result;
    } else {
      opts.paths.push_back(arg);
    }
  }

  if (opts.help) return result;
  if (opts.command != "serve" &&
      (!opts.socket_path.empty() || opts.port >= 0)) {
    result.error = "--socket/--port apply to the serve subcommand only";
    return result;
  }
  if (opts.epsilon >= 0.0 && opts.command != "analyze" &&
      opts.command != "stoch") {
    result.error = "--epsilon applies to the analyze and stoch subcommands";
    return result;
  }
  if (opts.paths.empty()) {
    result.error = opts.command == "serve"
                       ? "serve requires at least one catalog spec path"
                       : "missing spec path (use '-' for stdin)";
    return result;
  }
  if ((opts.command == "analyze" || opts.command == "stoch") &&
      opts.paths.size() != 1) {
    result.error = opts.command + " takes exactly one spec path";
    return result;
  }
  if (opts.command == "serve") {
    const bool has_socket = !opts.socket_path.empty();
    const bool has_port = opts.port >= 0;
    if (has_socket == has_port) {
      result.error = "serve requires exactly one of --socket or --port";
      return result;
    }
  }
  return result;
}

std::string help_text(const std::string& argv0) {
  std::string out;
  out += "usage: " + argv0 + " [analyze] <spec|-> [flags]\n";
  out += "       " + argv0 + " lint <spec|->... [flags]\n";
  out += "       " + argv0 + " certify <spec|->... [flags]\n";
  out += "       " + argv0 + " stoch <spec|-> [flags]\n";
  out += "       " + argv0 +
         " serve (--socket <path> | --port <n>) <spec>... [flags]\n";
  out +=
      "\n"
      "subcommands:\n"
      "  analyze   network-calculus bounds report (default)\n"
      "  lint      nclint static model analysis\n"
      "  certify   proof-carrying bound certification\n"
      "  stoch     stochastic (Chernoff/MGF) bounds and scaling report\n"
      "  serve     admission-control daemon over the spec catalog\n"
      "\n"
      "serve flags:\n"
      "  --socket <path>       bind a unix domain socket at <path>\n"
      "  --port <n>            bind TCP 127.0.0.1:<n> (0 = auto-assign)\n"
      "\n"
      "analyze/stoch flags:\n"
      "  --epsilon <p>         also report P(delay > d) <= p Chernoff\n"
      "                        bounds (stoch default: 1e-6)\n"
      "\n"
      "flags (all subcommands):\n"
      "  --stats               append the metrics JSON block to stdout\n"
      "  --trace <file>        write a chrome://tracing JSON trace\n"
      "  --json                machine-readable output\n"
      "  --help, -h            this table\n"
      "\n"
      "exit codes: 0 clean, 1 unreadable/unparseable input or bad\n"
      "environment, 2 defects found, 3 usage error.\n"
      "Spec format: see src/cli/spec.hpp and examples/specs/.\n";
  return out;
}

bool read_spec_text(const std::string& path, std::string& text) {
  std::ostringstream ss;
  if (path == "-") {
    ss << std::cin.rdbuf();
  } else {
    std::ifstream in(path);
    if (!in) {
      std::fprintf(stderr, "error: cannot open '%s'\n", path.c_str());
      return false;
    }
    ss << in.rdbuf();
  }
  text = ss.str();
  return true;
}

}  // namespace streamcalc::cli
