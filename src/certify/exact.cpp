#include "certify/exact.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "obs/obs.hpp"
#include "util/error.hpp"

namespace streamcalc::certify {

using util::Rational;

// --- ExtRat ----------------------------------------------------------------

ExtRat ExtRat::from_double(double v) {
  util::require(v == v, "ExtRat::from_double requires a non-NaN value");
  util::require(v != -std::numeric_limits<double>::infinity(),
                "ExtRat::from_double requires a value > -inf");
  if (std::isinf(v)) return infinity();
  return ExtRat(Rational::from_double(v));
}

const Rational& ExtRat::finite() const {
  util::require(!inf_, "ExtRat::finite called on +inf");
  return value_;
}

int ExtRat::compare(const ExtRat& o) const {
  if (inf_ || o.inf_) {
    if (inf_ && o.inf_) return 0;
    return inf_ ? 1 : -1;
  }
  return value_.compare(o.value_);
}

ExtRat ExtRat::operator+(const Rational& o) const {
  if (inf_) return *this;
  return ExtRat(value_ + o);
}

double ExtRat::approx() const {
  return inf_ ? std::numeric_limits<double>::infinity() : value_.approx();
}

std::string ExtRat::to_string() const {
  return inf_ ? "+inf" : value_.to_string();
}

// --- ExactCurve ------------------------------------------------------------

ExactCurve ExactCurve::from(const minplus::Curve& c) {
  ExactCurve out;
  out.segs_.reserve(c.segments().size());
  for (const minplus::Segment& s : c.segments()) {
    out.segs_.push_back(ExactSegment{
        Rational::from_double(s.x), ExtRat::from_double(s.value_at),
        ExtRat::from_double(s.value_after), Rational::from_double(s.slope)});
  }
  return out;
}

std::size_t ExactCurve::segment_index(const Rational& t) const {
  // Last segment with x <= t. Curves are tiny; linear scan is exact and
  // obviously correct, which is what this layer optimizes for.
  std::size_t i = 0;
  while (i + 1 < segs_.size() && segs_[i + 1].x <= t) ++i;
  return i;
}

ExtRat ExactCurve::value(const Rational& t) const {
  const ExactSegment& s = segs_[segment_index(t)];
  if (t == s.x) return s.value_at;
  return s.value_after + s.slope * (t - s.x);
}

ExtRat ExactCurve::value_right(const Rational& t) const {
  const ExactSegment& s = segs_[segment_index(t)];
  if (t == s.x) return s.value_after;
  return s.value_after + s.slope * (t - s.x);
}

ExtRat ExactCurve::value_left(const Rational& t) const {
  if (t.is_zero()) return value(t);
  // Last segment starting strictly before t.
  std::size_t i = 0;
  while (i + 1 < segs_.size() && segs_[i + 1].x < t) ++i;
  const ExactSegment& s = segs_[i];
  return s.value_after + s.slope * (t - s.x);
}

ExactCurve::Limits ExactCurve::limits(const Rational& t) const {
  // value_left() uses the last segment starting strictly before t, value()
  // and value_right() the last one starting at or before t; the second
  // scan resumes where the first stopped.
  std::size_t before = 0;
  while (before + 1 < segs_.size() && segs_[before + 1].x < t) ++before;
  std::size_t at = before;
  while (at + 1 < segs_.size() && segs_[at + 1].x <= t) ++at;
  const ExactSegment& s = segs_[at];
  const bool interior = t != s.x;
  Limits out;
  out.segment = at;
  if (interior) {
    out.value = s.value_after + s.slope * (t - s.x);
    out.right = out.value;
  } else {
    out.value = s.value_at;
    out.right = s.value_after;
  }
  if (t.is_zero() || (interior && before == at)) {
    out.left = out.value;
  } else {
    const ExactSegment& p = segs_[before];
    out.left = p.value_after + p.slope * (t - p.x);
  }
  return out;
}

ExtRat ExactCurve::lower_inverse(const ExtRat& y) const {
  if (y.is_inf()) return inf_start();
  const Rational& level = y.finite();
  for (std::size_t i = 0; i < segs_.size(); ++i) {
    const ExactSegment& s = segs_[i];
    if (s.value_at >= ExtRat(level)) return ExtRat(s.x);
    if (s.value_after >= ExtRat(level)) return ExtRat(s.x);
    if (!s.slope.is_zero()) {
      // value_after is finite here (an inf value_after was caught above).
      const Rational cand = s.x + (level - s.value_after.finite()) / s.slope;
      if (i + 1 == segs_.size() || cand <= segs_[i + 1].x) return ExtRat(cand);
    }
  }
  return ExtRat::infinity();
}

ExtRat ExactCurve::upper_inverse(const ExtRat& y) const {
  if (y.is_inf()) return inf_start();
  const Rational& level = y.finite();
  for (std::size_t i = 0; i < segs_.size(); ++i) {
    const ExactSegment& s = segs_[i];
    if (s.value_at > ExtRat(level)) return ExtRat(s.x);
    if (s.value_after > ExtRat(level)) return ExtRat(s.x);
    if (!s.slope.is_zero()) {
      const Rational cand = s.x + (level - s.value_after.finite()) / s.slope;
      if (i + 1 == segs_.size() || cand < segs_[i + 1].x) return ExtRat(cand);
    }
  }
  return ExtRat::infinity();
}

ExtRat ExactCurve::tail_slope() const {
  const ExactSegment& last = segs_.back();
  if (last.value_after.is_inf()) return ExtRat::infinity();
  return ExtRat(last.slope);
}

ExtRat ExactCurve::inf_start() const {
  for (const ExactSegment& s : segs_) {
    if (s.value_at.is_inf() || s.value_after.is_inf()) return ExtRat(s.x);
  }
  return ExtRat::infinity();
}

// --- ExactCurveTable -------------------------------------------------------

const ExactCurve& ExactCurveTable::get(const minplus::Curve& c) {
  for (const Entry& e : entries_) {
    if (e.segments == c.segments()) return e.exact;
  }
  entries_.push_back(Entry{c.segments(), ExactCurve::from(c)});
  return entries_.back().exact;
}

const ExactBound& ExactCurveTable::deviation(BoundKind kind,
                                             const ExactCurve& f,
                                             const ExactCurve& g) {
  const auto key = std::make_tuple(kind, &f, &g);
  auto it = deviations_.find(key);
  if (it == deviations_.end()) {
    SC_OBS_COUNT("certify.exact_deviations", 1);
    it = deviations_
             .emplace(key, kind == BoundKind::kDelay
                               ? exact_horizontal_deviation(f, g)
                               : exact_vertical_deviation(f, g))
             .first;
  }
  return it->second;
}

// --- Deviations ------------------------------------------------------------

namespace {

/// Folds one difference f_part - g_part into the running maximum.
/// inf - inf and finite - inf contribute -inf and are skipped.
void fold_diff(const ExtRat& fv, const ExtRat& gv, PointDev& best) {
  if (gv.is_inf()) return;
  if (fv.is_inf()) {
    best.defined = true;
    best.infinite = true;
    return;
  }
  const Rational d = fv.finite() - gv.finite();
  if (!best.defined || (!best.infinite && best.value < d)) {
    best.defined = true;
    best.value = d;
  }
}

/// Folds one delay candidate: the time g reaches the demanded level,
/// measured from t and clamped below at 0 (the deviation quantifies over
/// d >= 0).
void fold_delay(const ExtRat& reach, const Rational& t, PointDev& best) {
  if (reach.is_inf()) {
    best.defined = true;
    best.infinite = true;
    return;
  }
  Rational d = reach.finite() - t;
  if (d.is_negative()) d = Rational(0);
  if (!best.defined || (!best.infinite && best.value < d)) {
    best.defined = true;
    best.value = d;
  }
}

std::vector<Rational> sorted_unique(std::vector<Rational> ts) {
  std::sort(ts.begin(), ts.end(),
            [](const Rational& a, const Rational& b) { return a < b; });
  ts.erase(std::unique(ts.begin(), ts.end(),
                       [](const Rational& a, const Rational& b) {
                         return a == b;
                       }),
           ts.end());
  return ts;
}

ExactBound sup_over(const ExactCurve& f, const ExactCurve& g,
                    const std::vector<Rational>& ts,
                    PointDev (*dev_at)(const ExactCurve&, const ExactCurve&,
                                       const Rational&)) {
  ExactBound out;
  bool have = false;
  for (const Rational& t : ts) {
    const PointDev pd = dev_at(f, g, t);
    if (!pd.defined) continue;
    if (pd.infinite) {
      out.infinite = true;
      out.witness = t;
      return out;
    }
    if (!have || out.value < pd.value) {
      have = true;
      out.value = pd.value;
      out.witness = t;
    }
  }
  if (!have || out.value.is_negative()) out.value = Rational(0);
  return out;
}

}  // namespace

PointDev exact_vertical_dev_at(const ExactCurve& f, const ExactCurve& g,
                               const Rational& t) {
  const ExactCurve::Limits a = f.limits(t);
  const ExactCurve::Limits b = g.limits(t);
  PointDev best;
  fold_diff(a.value, b.value, best);
  if (best.infinite) return best;
  fold_diff(a.right, b.right, best);
  if (best.infinite) return best;
  if (!t.is_zero()) fold_diff(a.left, b.left, best);
  return best;
}

PointDev exact_horizontal_dev_at(const ExactCurve& f, const ExactCurve& g,
                                 const Rational& t) {
  const ExactCurve::Limits a = f.limits(t);
  PointDev best;
  fold_delay(g.lower_inverse(a.value), t, best);
  if (best.infinite) return best;
  // Without a jump at t the right limit is the same level, and folding
  // the same delay twice changes nothing.
  if (a.right != a.value) {
    fold_delay(g.lower_inverse(a.right), t, best);
    if (best.infinite) return best;
  }
  // Just after t the demand rises strictly; meeting it requires g to
  // strictly exceed the level, hence the upper pseudo-inverse.
  if (!f.segments()[a.segment].slope.is_zero()) {
    fold_delay(g.upper_inverse(a.right), t, best);
  }
  return best;
}

ExactBound exact_vertical_deviation(const ExactCurve& f, const ExactCurve& g) {
  ExactBound out;
  if (!f.finite_everywhere() && g.finite_everywhere()) {
    out.infinite = true;
    return out;
  }
  const ExtRat tf = f.tail_slope();
  const ExtRat tg = g.tail_slope();
  if (!tf.is_inf() && !tg.is_inf() && tf > tg) {
    out.infinite = true;
    return out;
  }
  std::vector<Rational> ts;
  ts.push_back(Rational(0));
  for (const ExactSegment& s : f.segments()) ts.push_back(s.x);
  for (const ExactSegment& s : g.segments()) ts.push_back(s.x);
  ts.push_back(Rational::max(f.last_breakpoint(), g.last_breakpoint()) +
               Rational(1));
  return sup_over(f, g, sorted_unique(std::move(ts)),
                  &exact_vertical_dev_at);
}

ExactBound exact_horizontal_deviation(const ExactCurve& f,
                                      const ExactCurve& g) {
  ExactBound out;
  if (!f.finite_everywhere() && g.finite_everywhere()) {
    out.infinite = true;
    return out;
  }
  const ExtRat tf = f.tail_slope();
  const ExtRat tg = g.tail_slope();
  if (!tf.is_inf() && !tg.is_inf() && tf > tg) {
    out.infinite = true;
    return out;
  }
  std::vector<Rational> ts;
  ts.push_back(Rational(0));
  for (const ExactSegment& s : f.segments()) ts.push_back(s.x);
  for (const ExactSegment& s : g.segments()) ts.push_back(s.x);
  // The horizontal sup can also be attained where f crosses one of g's
  // breakpoint *levels*; pull those crossing times in via f's lower
  // pseudo-inverse.
  for (const ExactSegment& s : g.segments()) {
    for (const ExtRat* level : {&s.value_at, &s.value_after}) {
      if (level->is_inf()) continue;
      const ExtRat t = f.lower_inverse(*level);
      if (!t.is_inf()) ts.push_back(t.finite());
    }
  }
  Rational probe = Rational::max(f.last_breakpoint(), g.last_breakpoint());
  for (const Rational& t : ts) probe = Rational::max(probe, t);
  ts.push_back(probe + Rational(1));
  return sup_over(f, g, sorted_unique(std::move(ts)),
                  &exact_horizontal_dev_at);
}

}  // namespace streamcalc::certify
