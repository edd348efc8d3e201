#include "serve/catalog.hpp"

#include <fstream>
#include <sstream>
#include <utility>

#include "util/error.hpp"

namespace streamcalc::serve {

CatalogSnapshot::CatalogSnapshot(std::uint64_t epoch,
                                 std::vector<ScenarioModel> scenarios)
    : epoch_(epoch) {
  for (ScenarioModel& s : scenarios) {
    util::require(!s.name.empty(), "catalog scenario requires a name");
    const auto [it, inserted] = scenarios_.emplace(s.name, std::move(s));
    (void)it;
    util::require(inserted, "duplicate catalog scenario name");
  }
}

const ScenarioModel* CatalogSnapshot::find(const std::string& name) const {
  const auto it = scenarios_.find(name);
  return it == scenarios_.end() ? nullptr : &it->second;
}

std::shared_ptr<const CatalogSnapshot> make_snapshot(
    std::uint64_t epoch,
    const std::vector<std::pair<std::string, cli::Spec>>& specs) {
  std::vector<ScenarioModel> scenarios;
  scenarios.reserve(specs.size());
  for (const auto& [name, spec] : specs) {
    ScenarioModel m;
    m.name = name;
    m.spec = spec;
    m.is_dag = spec.is_dag();
    try {
      if (m.is_dag) {
        // Validate shape now so a broken spec fails the (re)load, not a
        // later admit; each DAG decision builds its own DagModel.
        m.dag = m.spec.dag();
      } else {
        m.chain_model = std::make_shared<const netcalc::PipelineModel>(
            m.spec.nodes, m.spec.source, m.spec.policy);
      }
    } catch (const util::PreconditionError& e) {
      throw util::PreconditionError("catalog scenario '" + name +
                                    "': " + e.what());
    }
    scenarios.push_back(std::move(m));
  }
  return std::make_shared<const CatalogSnapshot>(epoch,
                                                 std::move(scenarios));
}

namespace {

std::string stem_of(const std::string& path) {
  const std::size_t slash = path.find_last_of('/');
  std::string name =
      slash == std::string::npos ? path : path.substr(slash + 1);
  const std::size_t dot = name.find_last_of('.');
  if (dot != std::string::npos && dot > 0) name = name.substr(0, dot);
  return name;
}

}  // namespace

std::shared_ptr<const CatalogSnapshot> load_snapshot(
    std::uint64_t epoch, const std::vector<std::string>& spec_paths) {
  util::require(!spec_paths.empty(),
                "catalog requires at least one spec path");
  std::vector<std::pair<std::string, cli::Spec>> specs;
  specs.reserve(spec_paths.size());
  for (const std::string& path : spec_paths) {
    std::ifstream in(path);
    util::require(static_cast<bool>(in),
                  "cannot read catalog spec '" + path + "'");
    std::ostringstream text;
    text << in.rdbuf();
    try {
      specs.emplace_back(stem_of(path), cli::parse_spec(text.str()));
    } catch (const util::PreconditionError& e) {
      throw util::PreconditionError("catalog spec '" + path +
                                    "': " + e.what());
    }
  }
  return make_snapshot(epoch, specs);
}

Catalog::Catalog(std::shared_ptr<const CatalogSnapshot> initial) {
  util::require(initial != nullptr, "Catalog requires an initial snapshot");
  util::MutexLock lock(mutex_);
  current_ = std::move(initial);
}

std::shared_ptr<const CatalogSnapshot> Catalog::snapshot() const {
  util::MutexLock lock(mutex_);
  return current_;
}

std::uint64_t Catalog::epoch() const {
  util::MutexLock lock(mutex_);
  return current_->epoch();
}

void Catalog::publish(std::shared_ptr<const CatalogSnapshot> next) {
  util::require(next != nullptr, "Catalog::publish requires a snapshot");
  util::MutexLock lock(mutex_);
  util::require(next->epoch() > current_->epoch(),
                "Catalog::publish requires a strictly newer epoch");
  current_ = std::move(next);
}

}  // namespace streamcalc::serve
