// The traced run: replays each workload's generated inputs through the
// public functions of every layer, with spans around the calls.
#pragma once

#include <string>
#include <vector>

#include "common.hpp"

namespace perfbench {

[[nodiscard]] Result run_traced(const Options& opt);

/// Metric names of BENCHMARK.json, in its order.
[[nodiscard]] std::vector<std::string> end_to_end_metric_names();
[[nodiscard]] std::vector<std::string> per_layer_metric_names();

}  // namespace perfbench
