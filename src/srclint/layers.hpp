// The declared layer DAG for SC913 (DESIGN.md §14).
//
// `srclint.layers` declares the architecture's strata as `<` chains over
// the directories of src/:
//
//     # lower layers first; `/` groups directories of the same stratum
//     util / srclint < obs < minplus / des
//     minplus < netcalc
//
// Semantics: `a < b` means a is strictly below b, so files under src/b/
// may include from src/a/ but never the reverse. Names joined by `/` are
// the same stratum (they may include each other freely). `<` constraints
// are transitive, and a name may appear on several lines — the relation
// is the union of every chain. A cycle in the declared constraints (or a
// name placed both in a group and above/below itself) is a parse error:
// a cyclic "DAG" would make every include legal.
#pragma once

#include <map>
#include <set>
#include <string>
#include <string_view>
#include <vector>

namespace streamcalc::srclint {

struct Layers {
  /// Every declared layer name, in first-appearance order.
  std::vector<std::string> names;
  /// name -> representative stratum index (names in one `/` group share
  /// a stratum).
  std::map<std::string, std::size_t> stratum_of;
  /// below[a][b] (stratum indices): a is strictly below b (transitive).
  std::vector<std::vector<bool>> below;

  bool declared(std::string_view name) const {
    return stratum_of.count(std::string(name)) != 0;
  }

  /// True when `lower` may be included from `upper`: same stratum, or
  /// strictly below it.
  bool allows_include(std::string_view upper, std::string_view lower) const;
};

/// Parses layers text. Structural problems (bad tokens, a cycle in the
/// declaration itself) are appended to `errors`; the returned relation
/// reflects only the parseable part.
Layers parse_layers(std::string_view text, std::vector<std::string>* errors);

/// Cross-checks the declared names against the directories that actually
/// exist under src/ — a typoed layer name would otherwise silently
/// constrain nothing. Returns one message per unknown name.
std::vector<std::string> validate_layer_names(
    const Layers& layers, const std::set<std::string>& known_dirs);

}  // namespace streamcalc::srclint
