// The swarm workload: serial swarm::run_swarm batches of a pinned batch
// (seed and run count fixed), so runs/s compares like with like.
#pragma once

#include <cstdint>

#include "common.hpp"

namespace perfbench {

inline constexpr std::uint64_t kSwarmSeed = 1;
/// Runs per batch (smoke: kSwarmSmokeRuns, the first runs of the batch).
inline constexpr std::size_t kSwarmRuns = 100;
inline constexpr std::size_t kSwarmSmokeRuns = 12;

/// Order-sensitive fold of per-run RunCheck digests.
[[nodiscard]] std::uint64_t fold_digest(std::uint64_t acc, std::uint64_t d);
/// The pinned combined digest of the first `runs` runs, or 0 if none.
[[nodiscard]] std::uint64_t pinned_swarm_digest(std::size_t runs);

[[nodiscard]] Result run_swarm_workload(const Options& opt);

}  // namespace perfbench
