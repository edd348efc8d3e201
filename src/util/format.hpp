// Human-readable formatting of quantities (auto-scaled units), matching the
// presentation style of the paper's tables ("350 MiB/s", "46.9 ms", "3 KiB").
#pragma once

#include <string>

#include "util/units.hpp"

namespace streamcalc::util {

/// Formats a double with `digits` significant digits, trimming trailing
/// zeros ("46.9", "350", "0.00123").
std::string format_significant(double value, int digits = 3);

/// "350 MiB/s", "10 GiB/s", "512 B/s" — picks the largest binary unit that
/// keeps the mantissa >= 1.
std::string format_rate(DataRate rate, int digits = 3);

/// "20.6 MiB", "3 KiB", "128 B".
std::string format_size(DataSize size, int digits = 3);

/// "46.9 ms", "38 us", "1.2 s".
std::string format_duration(Duration d, int digits = 3);

/// The format_* texts appended to `out`: writers that build one document
/// string skip the temporary. Digits come from snprintf("%.*g") into a
/// stack buffer.
void append_significant(std::string& out, double value, int digits = 3);
void append_rate(std::string& out, DataRate rate, int digits = 3);
void append_size(std::string& out, DataSize size, int digits = 3);
void append_duration(std::string& out, Duration d, int digits = 3);

}  // namespace streamcalc::util
