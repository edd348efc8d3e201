#include "minplus/inverse.hpp"

#include "minplus/detail/builder.hpp"

namespace streamcalc::minplus {

Curve lower_inverse_curve(const Curve& f) {
  // Breakpoints of the inverse sit at f's value levels (value_at and
  // value_after of every segment); between adjacent levels the inverse is
  // linear (slope 1/m) or constant (across f's jumps).
  std::vector<double> levels;
  levels.reserve(2 * f.segments().size() + 1);
  for (const Segment& s : f.segments()) {
    if (s.value_at != detail::kInf) levels.push_back(s.value_at);
    if (s.value_after != detail::kInf) levels.push_back(s.value_after);
  }
  const std::vector<double> grid =
      detail::canonical_candidates(std::move(levels));
  return detail::build_from_evaluators(
      grid, [&](double y) { return f.lower_inverse(y); },
      [&](double y) { return f.upper_inverse(y); });
}

}  // namespace streamcalc::minplus
