// Statistics collector for simulations: a tally for per-sample quantities
// (latencies). It produces the observations the paper compares against the
// network-calculus bounds (longest and shortest delay).
#pragma once

#include <algorithm>
#include <cstddef>
#include <limits>

#include "util/error.hpp"

namespace streamcalc::des {

/// Accumulates independent observations (e.g. per-job end-to-end delays).
class Tally {
 public:
  void add(double v) {
    ++count_;
    sum_ += v;
    min_ = std::min(min_, v);
    max_ = std::max(max_, v);
  }

  std::size_t count() const { return count_; }
  double mean() const {
    util::require(count_ > 0, "Tally::mean on empty tally");
    return sum_ / static_cast<double>(count_);
  }
  double minimum() const {
    util::require(count_ > 0, "Tally::minimum on empty tally");
    return min_;
  }
  double maximum() const {
    util::require(count_ > 0, "Tally::maximum on empty tally");
    return max_;
  }

 private:
  std::size_t count_ = 0;
  double sum_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

}  // namespace streamcalc::des
