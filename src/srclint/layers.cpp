#include "srclint/layers.hpp"

#include <algorithm>

namespace streamcalc::srclint {

namespace {

std::string_view trim(std::string_view s) {
  const std::size_t first = s.find_first_not_of(" \t\r");
  if (first == std::string_view::npos) return {};
  const std::size_t last = s.find_last_not_of(" \t\r");
  return s.substr(first, last - first + 1);
}

bool valid_name(std::string_view s) {
  if (s.empty()) return false;
  for (const char c : s) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == '-';
    if (!ok) return false;
  }
  return true;
}

/// Splits `text` on `sep`, trimming each piece.
std::vector<std::string_view> split(std::string_view text, char sep) {
  std::vector<std::string_view> out;
  std::size_t start = 0;
  while (start <= text.size()) {
    const std::size_t pos = text.find(sep, start);
    const std::size_t end = pos == std::string_view::npos ? text.size() : pos;
    out.push_back(trim(text.substr(start, end - start)));
    if (pos == std::string_view::npos) break;
    start = pos + 1;
  }
  return out;
}

struct UnionFind {
  std::map<std::string, std::string> parent;

  void add(const std::string& x) {
    if (parent.count(x) == 0) parent[x] = x;
  }
  std::string find(const std::string& x) {
    std::string root = x;
    while (parent[root] != root) root = parent[root];
    return root;
  }
  void unite(const std::string& a, const std::string& b) {
    parent[find(a)] = find(b);
  }
};

}  // namespace

bool Layers::allows_include(std::string_view upper,
                            std::string_view lower) const {
  const auto u = stratum_of.find(std::string(upper));
  const auto l = stratum_of.find(std::string(lower));
  if (u == stratum_of.end() || l == stratum_of.end()) return false;
  if (u->second == l->second) return true;
  return below[l->second][u->second];
}

Layers parse_layers(std::string_view text,
                    std::vector<std::string>* errors) {
  Layers layers;
  auto fail = [&](int line_no, const std::string& what) {
    if (errors != nullptr) {
      errors->push_back("layers line " + std::to_string(line_no) + ": " +
                        what);
    }
  };

  // Pass 1: collect names, same-stratum unions, and raw chain constraints.
  UnionFind uf;
  std::vector<std::pair<std::string, std::string>> raw_edges;
  std::size_t start = 0;
  int line_no = 0;
  while (start <= text.size()) {
    const std::size_t nl = text.find('\n', start);
    const std::size_t end = nl == std::string_view::npos ? text.size() : nl;
    ++line_no;
    std::string_view line = trim(text.substr(start, end - start));
    const std::size_t hash = line.find('#');
    if (hash != std::string_view::npos) line = trim(line.substr(0, hash));
    if (nl == std::string_view::npos) {
      start = text.size() + 1;
    } else {
      start = nl + 1;
    }
    if (line.empty()) continue;

    std::vector<std::vector<std::string>> chain;
    bool line_ok = true;
    for (const std::string_view group_text : split(line, '<')) {
      std::vector<std::string> group;
      for (const std::string_view name : split(group_text, '/')) {
        if (!valid_name(name)) {
          fail(line_no, "expected a layer name, got '" + std::string(name) +
                            "' (names are letters, digits, '_', '-')");
          line_ok = false;
          continue;
        }
        group.emplace_back(name);
      }
      if (!group.empty()) chain.push_back(std::move(group));
    }
    if (!line_ok) continue;
    for (const auto& group : chain) {
      for (const std::string& name : group) {
        uf.add(name);
        if (std::find(layers.names.begin(), layers.names.end(), name) ==
            layers.names.end()) {
          layers.names.push_back(name);
        }
        uf.unite(name, group.front());
      }
    }
    for (std::size_t g = 0; g + 1 < chain.size(); ++g) {
      raw_edges.emplace_back(chain[g].front(), chain[g + 1].front());
    }
  }

  // Pass 2: number the strata from the final union-find roots.
  std::map<std::string, std::size_t> root_index;
  for (const std::string& name : layers.names) {
    const std::string root = uf.find(name);
    const auto it = root_index.find(root);
    std::size_t idx;
    if (it == root_index.end()) {
      idx = root_index.size();
      root_index.emplace(root, idx);
    } else {
      idx = it->second;
    }
    layers.stratum_of[name] = idx;
  }
  const std::size_t n = root_index.size();
  layers.below.assign(n, std::vector<bool>(n, false));
  for (const auto& [lower, upper] : raw_edges) {
    const std::size_t l = layers.stratum_of[lower];
    const std::size_t u = layers.stratum_of[upper];
    if (l == u) {
      fail(0, "cycle in layer declaration: '" + lower +
                  "' is both below and level with '" + upper + "'");
      continue;
    }
    layers.below[l][u] = true;
  }

  // Transitive closure, then a cycle check: below must be a strict order.
  for (std::size_t k = 0; k < n; ++k) {
    for (std::size_t i = 0; i < n; ++i) {
      if (!layers.below[i][k]) continue;
      for (std::size_t j = 0; j < n; ++j) {
        if (layers.below[k][j]) layers.below[i][j] = true;
      }
    }
  }
  for (std::size_t i = 0; i < n; ++i) {
    if (!layers.below[i][i]) continue;
    for (const auto& [name, idx] : layers.stratum_of) {
      if (idx == i) {
        fail(0, "cycle in layer declaration involving '" + name + "'");
        break;
      }
    }
    break;  // one report is enough; the file needs fixing either way
  }
  return layers;
}

std::vector<std::string> validate_layer_names(
    const Layers& layers, const std::set<std::string>& known_dirs) {
  std::vector<std::string> problems;
  for (const std::string& name : layers.names) {
    if (known_dirs.count(name) == 0) {
      problems.push_back("layer '" + name +
                         "' does not name a directory under src/");
    }
  }
  return problems;
}

}  // namespace streamcalc::srclint
