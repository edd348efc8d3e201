#include "util/format.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace streamcalc::util {

void append_significant(std::string& out, double value, int digits) {
  if (std::isinf(value)) {
    out += value > 0 ? "inf" : "-inf";
  } else if (std::isnan(value)) {
    out += "nan";
  } else if (value == 0.0) {
    out += '0';
  } else {
    char buf[64];
    const int n = std::snprintf(buf, sizeof buf, "%.*g", digits, value);
    out.append(buf, std::min(static_cast<std::size_t>(n), sizeof buf - 1));
  }
}

namespace {

struct Scaled {
  double value;
  const char* unit;
};

Scaled scale_binary(double bytes) {
  constexpr double kKi = 1024.0;
  const double mag = std::fabs(bytes);
  if (mag >= kKi * kKi * kKi) return {bytes / (kKi * kKi * kKi), "GiB"};
  if (mag >= kKi * kKi) return {bytes / (kKi * kKi), "MiB"};
  if (mag >= kKi) return {bytes / kKi, "KiB"};
  return {bytes, "B"};
}

Scaled scale_seconds(double s) {
  const double mag = std::fabs(s);
  if (mag >= 1.0 || mag == 0.0) return {s, "s"};
  if (mag >= 1e-3) return {s * 1e3, "ms"};
  if (mag >= 1e-6) return {s * 1e6, "us"};
  return {s * 1e9, "ns"};
}

/// "<value> <unit><suffix>", or "inf" for a quantity that is not finite.
void append_scaled(std::string& out, bool finite, Scaled s, int digits,
                   const char* suffix = "") {
  if (!finite) {
    out += "inf";
    return;
  }
  append_significant(out, s.value, digits);
  out += ' ';
  out += s.unit;
  out += suffix;
}

}  // namespace

void append_rate(std::string& out, DataRate rate, int digits) {
  append_scaled(out, rate.is_finite(), scale_binary(rate.in_bytes_per_sec()),
                digits, "/s");
}

void append_size(std::string& out, DataSize size, int digits) {
  append_scaled(out, size.is_finite(), scale_binary(size.in_bytes()),
                digits);
}

void append_duration(std::string& out, Duration d, int digits) {
  append_scaled(out, d.is_finite(), scale_seconds(d.in_seconds()), digits);
}

std::string format_significant(double value, int digits) {
  std::string out;
  append_significant(out, value, digits);
  return out;
}

std::string format_rate(DataRate rate, int digits) {
  std::string out;
  append_rate(out, rate, digits);
  return out;
}

std::string format_size(DataSize size, int digits) {
  std::string out;
  append_size(out, size, digits);
  return out;
}

std::string format_duration(Duration d, int digits) {
  std::string out;
  append_duration(out, d, digits);
  return out;
}

}  // namespace streamcalc::util
