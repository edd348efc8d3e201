// Forwarding header that exists only for perfbench/driver, which still
// spells serve::Json; the JSON module is util/json.hpp. Delete it in the
// next benchmark change. Nothing else may include it.
#pragma once

#include "util/json.hpp"

namespace streamcalc::serve {
using util::Json;
using util::json_parse;
}  // namespace streamcalc::serve
