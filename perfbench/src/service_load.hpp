// Service workloads (ingest, fanout, sharded): the generated inputs,
// the open-loop generator, the subscriber reader and the rate sweep
// against a real AlertService / ShardedCluster.
#pragma once

#include <cstdint>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "common.hpp"
#include "core/condition.hpp"
#include "core/filters.hpp"
#include "core/types.hpp"
#include "service/session.hpp"

namespace perfbench {

/// A service workload: topology, condition, generated update stream.
/// Everything is a pure function of (name, seed).
struct ServiceWorkload {
  std::string name;
  rcm::ConditionPtr condition;
  rcm::FilterKind filter = rcm::FilterKind::kAd1;
  std::size_t replicas = 2;        ///< per instance (per shard if sharded)
  std::size_t shards = 0;          ///< 0 = one unsharded AlertService
  std::size_t legacy_subs = 1;     ///< live cursorless subscribers
  std::size_t durable_subs = 0;    ///< live durable sessions that ack
  std::size_t parked_sessions = 0; ///< durable sessions left disconnected
  double nominal_rate = 0.0;       ///< updates/s for the latency metrics

  /// The stream: updates [0, prefill) are written to every replica's WAL
  /// before set-up (ingest only); live traffic starts at `prefill`.
  std::vector<rcm::Update> updates;
  std::size_t prefill = 0;
  /// (var, seqno) -> index into `updates`; UINT32_MAX where unused.
  std::vector<std::vector<std::uint32_t>> index_of;

  [[nodiscard]] std::size_t live_count() const {
    return updates.size() - prefill;
  }
};

/// Builds the workload with `live` updates of live traffic.
[[nodiscard]] ServiceWorkload make_service_workload(const std::string& name,
                                                    std::uint64_t seed,
                                                    std::size_t live);

/// Live updates needed for a run of `opt` (nominal phase plus the
/// largest sweep rung), so the stream is generated once per run.
[[nodiscard]] std::size_t live_updates_needed(const std::string& name,
                                              const Options& opt);

/// Runs the end-to-end (untraced) measurement of a service workload.
[[nodiscard]] Result run_service_workload(const Options& opt);

/// One phase: `n` live updates offered at `rate` to one instance.
struct Phase {
  double rate = 0.0;
  std::size_t n = 0;
  bool valid = true;      ///< generator kept to its schedule
  bool idle = true;       ///< drained within the limit after the last send
  bool correct = true;
  std::string error;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t lost_merge = 0;       ///< of failed: on the shard-merge hop
  std::uint64_t missed_delivery = 0;  ///< of failed: alerts not received
  std::vector<double> latency_us;
  double lateness_p99_us = 0.0;
  double cpu_us_per_update = 0.0;
  double harness_cpu_share = 0.0;  ///< generator + reader CPU / wall time
  std::uint64_t accepted_updates = 0;
  // Counts from status() at the end of the phase.
  double datagrams_per_update = 0.0;
  double session_max_lag = 0.0;
  double session_backlog = 0.0;
  double shard_skew = 0.0;
  double merge_accepted = 0.0;

  [[nodiscard]] double p99_ms() const {
    return quantile(latency_us, 0.99) / 1e3;
  }
};

/// One untraced nominal-rate phase on a fresh instance: the cost the
/// traced run's layers should explain.
[[nodiscard]] Phase measure_nominal_cost(const Options& opt,
                                         const ServiceWorkload& w);

/// A SessionManager with the workload's subscriber set (parked durable
/// sessions, live legacy and durable subscribers), its live subscribers
/// drained and acked by a reader thread. The traced run publishes into
/// it to price service.session_publish.
class SessionRig {
 public:
  SessionRig(const ServiceWorkload& w, const std::filesystem::path& dir);
  ~SessionRig();
  SessionRig(const SessionRig&) = delete;
  SessionRig& operator=(const SessionRig&) = delete;
  [[nodiscard]] rcm::service::SessionManager& manager() { return *manager_; }

 private:
  struct Impl;
  std::unique_ptr<rcm::service::SessionManager> manager_;
  std::unique_ptr<Impl> impl_;
};

}  // namespace perfbench
