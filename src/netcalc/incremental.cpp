#include "netcalc/incremental.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace streamcalc::netcalc {

IncrementalDag::IncrementalDag(DagSpec dag, SourceSpec source,
                               ModelPolicy policy)
    : model_(std::move(dag), source, policy),
      dirty_(model_.dag().nodes.size(), false),
      recompute_count_(model_.dag().nodes.size()) {}

std::size_t IncrementalDag::entry_node(std::size_t k) const {
  util::require(k < model_.dag().entries.size(), "entry index out of range");
  return model_.dag().entries[k].to;
}

const minplus::Curve& IncrementalDag::entry_envelope(std::size_t k) const {
  util::require(k < model_.entry_curve_.size(), "entry index out of range");
  return model_.entry_curve_[k];
}

void IncrementalDag::set_entry_envelope(std::size_t k,
                                        minplus::Curve envelope) {
  util::require(k < model_.entry_curve_.size(), "entry index out of range");
  if (model_.entry_curve_[k] == envelope) return;
  model_.entry_curve_[k] = std::move(envelope);
  dirty_[model_.dag().entries[k].to] = true;
}

std::size_t IncrementalDag::refresh() {
  std::size_t recomputed = 0;
  for (std::size_t i : model_.order_) {
    if (!dirty_[i]) continue;
    model_.build_node(i, dirty_);
    dirty_[i] = false;
    ++recomputed;
  }
  recompute_count_ += recomputed;
  return recomputed;
}

const DagModel& IncrementalDag::model() {
  refresh();
  return model_;
}

util::Duration IncrementalDag::node_delay(std::size_t i) {
  util::require(i < model_.arrival_.size(), "node index out of range");
  refresh();
  return model_.delay_bound_for(i);
}

util::DataSize IncrementalDag::node_backlog(std::size_t i) {
  util::require(i < model_.arrival_.size(), "node index out of range");
  refresh();
  return model_.backlog_bound_for(i);
}

std::vector<DagPathAnalysis> IncrementalDag::per_path_analysis() {
  refresh();
  return model_.per_path_analysis();
}

util::Duration IncrementalDag::delay_bound() {
  refresh();
  return model_.delay_bound().value;
}

std::vector<util::Duration> IncrementalDag::delay_bounds_by_head() {
  std::vector<util::Duration> worst(model_.dag().nodes.size(),
                                    util::Duration::seconds(0));
  for (const DagPathAnalysis& p : per_path_analysis()) {
    worst[p.nodes.front()] = std::max(worst[p.nodes.front()], p.delay);
  }
  return worst;
}

util::Duration IncrementalDag::delay_bound_from(std::size_t head) {
  util::require(head < model_.dag().nodes.size(), "node index out of range");
  return delay_bounds_by_head()[head];
}

util::DataSize IncrementalDag::backlog_bound() {
  refresh();
  return model_.backlog_bound().value;
}

}  // namespace streamcalc::netcalc
