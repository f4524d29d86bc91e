#include "replay.hpp"

#include <cstdio>
#include <map>
#include <optional>

#include "core/displayer.hpp"
#include "core/evaluator.hpp"
#include "net/socket.hpp"
#include "service/alert_service.hpp"
#include "service/durable_replica.hpp"
#include "service/shard_ring.hpp"
#include "service_load.hpp"
#include "store/file_log.hpp"
#include "swarm/swarm.hpp"
#include "swarm_load.hpp"
#include "wire/codec.hpp"
#include "wire/frame.hpp"
#include "wire/shard.hpp"

namespace perfbench {
namespace {

using namespace rcm;

struct LayerMetric {
  const char* name;
  const char* unit;
};

// Every per-layer metric of BENCHMARK.json. A layer a workload does not
// touch reads 0 there.
constexpr LayerMetric kPerLayer[] = {
    {"net.udp_send", "ns"},
    {"net.udp_receive", "ns"},
    {"wire.encode_update", "ns"},
    {"wire.decode_update", "ns"},
    {"store.wal_append", "ns"},
    {"store.wal_bytes_per_update", "bytes"},
    {"service.replica_update", "ns"},
    {"service.checkpoint", "us"},
    {"service.recover_per_record", "ns"},
    {"core.evaluate", "ns"},
    {"core.alerts_per_update", "count"},
    {"core.filter", "ns"},
    {"core.filter.pass_ratio", "ratio"},
    {"wire.encode_alert", "ns"},
    {"wire.decode_alert", "ns"},
    {"service.session_publish", "ns"},
    {"service.shard_owner", "ns"},
    {"service.shard_forward", "ns"},
    {"service.shard_skew", "ratio"},
    {"service.merge_accepted", "count"},
    {"service.datagrams_per_update", "count"},
    {"service.session.max_lag", "count"},
    {"service.session.backlog", "count"},
    {"sim.execute_ms_per_run", "ms"},
    {"check.ms_per_run", "ms"},
    {"check.undecided_runs", "count"},
    {"cpu_us_per_update", "us"},
    {"unexplained_us_per_update", "us"},
    {"trace_overhead_pct", "%"},
};

// Spans whose self time is service work (not the generator's, not the
// subscriber's): their sum per update is what cpu_us_per_update should
// explain.
constexpr const char* kServiceSide[] = {
    "net.udp_receive", "wire.decode_update", "service.replica_update", "service.checkpoint",
    "service.shard_forward", "core.filter", "wire.encode_alert",
    "service.session_publish"};

// Spans written to the trace file; the rest are summarized only, which
// keeps the file near 15 MB.
constexpr std::size_t kWrittenSpans = 100000;

std::size_t replay_count(const Options& opt, const ServiceWorkload& w) {
  if (opt.smoke) return std::min<std::size_t>(w.live_count(), 2000);
  return std::min<std::size_t>(w.live_count(), w.name == "fanout" ? 20000 : 40000);
}

std::vector<std::uint8_t> receive(net::UdpSocket& sink) {
  auto got = sink.receive(std::chrono::seconds{1});
  if (!got) throw std::runtime_error("replay: datagram lost on loopback");
  return std::move(*got);
}

/// Counts the replay itself keeps, outside the spans.
struct ReplayCounts {
  std::uint64_t raised_one = 0;  ///< alerts of one evaluator (decomposed)
  std::uint64_t arrivals = 0;    ///< alerts offered to the AD filter
  std::uint64_t displayed = 0;
  std::uint64_t wal_bytes = 0;
  std::uint64_t wal_appends = 0;
};

/// One replica of the replay: a DurableReplica checkpointing every
/// `checkpoint_every` accepted updates, as the service worker's does,
/// but with the checkpoint called from here so it gets its own span.
struct ReplayReplica {
  service::DurableReplica replica;
  std::size_t checkpoint_every;
  std::size_t since = 0;

  ReplayReplica(ConditionPtr c, std::size_t index, const std::filesystem::path& dir)
      : replica(std::move(c), index, options(dir)),
        checkpoint_every(service::ServiceConfig{}.checkpoint_every) {}

  static service::DurabilityOptions options(const std::filesystem::path& dir) {
    service::DurabilityOptions o;
    o.dir = dir;
    o.checkpoint_every = 0;
    return o;
  }

  /// decode → on_update → checkpoint; returns (accepted, alert).
  std::pair<bool, std::optional<Alert>> ingest(SpanLog* log, std::int64_t parent,
                                               std::span<const std::uint8_t> datagram,
                                               const Update& u) {
    wire::FrameCursor cursor;
    cursor.feed(datagram);
    const auto payload = cursor.next();
    wire::UpdateMessage msg;
    {
      ScopedSpan s(log, "wire.decode_update", u.var, u.seqno, parent);
      msg = wire::decode_update_message(*payload);
    }
    const std::size_t before = replica.accepted_live();
    std::optional<Alert> alert;
    {
      ScopedSpan s(log, "service.replica_update", u.var, u.seqno, parent);
      alert = replica.on_update(msg.update);
    }
    const bool accepted = replica.accepted_live() > before;
    if (accepted && ++since >= checkpoint_every) {
      ScopedSpan s(log, "service.checkpoint", u.var, u.seqno, parent);
      replica.checkpoint();
      since = 0;
    }
    return {accepted, std::move(alert)};
  }
};

/// Replays `n` live updates of `w` through the layers; returns seconds.
double replay_service(const ServiceWorkload& w, std::size_t n, SpanLog* log,
                      const std::filesystem::path& dir, ReplayCounts& counts) {
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir / "replicas");
  std::filesystem::create_directories(dir / "merge");
  SessionRig rig{w, dir / "sessions"};

  // The service-side replicas: R of one instance, or one per shard plus
  // the merge tier's.
  service::ShardRing ring;
  std::vector<std::unique_ptr<ReplayReplica>> replicas;
  std::unique_ptr<ReplayReplica> merge;
  std::map<std::uint32_t, std::size_t> shard_slot;
  if (w.shards == 0) {
    for (std::size_t r = 0; r < w.replicas; ++r)
      replicas.push_back(std::make_unique<ReplayReplica>(w.condition, r, dir / "replicas"));
  } else {
    for (std::uint32_t id = 0; id < w.shards; ++id) ring.add_shard(id);
    for (std::uint32_t id = 0; id < w.shards; ++id) {
      std::filesystem::create_directories(dir / "replicas" / std::to_string(id));
      shard_slot[id] = replicas.size();
      replicas.push_back(std::make_unique<ReplayReplica>(
          std::make_shared<service::PartialCondition>(
              w.condition, service::owned_variables(ring, *w.condition, id)),
          0, dir / "replicas" / std::to_string(id)));
    }
    merge = std::make_unique<ReplayReplica>(w.condition, 0, dir / "merge");
  }
  AlertDisplayer ad{make_filter(w.filter, w.condition->variables())};

  // The decomposition of service.replica_update: the same WAL append and
  // evaluator transition, called directly.
  store::FileUpdateLog wal{dir / "decomposed.wal"};
  ConditionEvaluator ce{w.condition, "decomposed"};
  std::size_t since_truncate = 0;

  net::UdpSocket udp;
  net::UdpSocket sink;

  const auto t0 = Clock::now();
  for (std::size_t i = 0; i < n; ++i) {
    const Update& u = w.updates[w.prefill + i];
    std::vector<Alert> arrivals;
    {
      ScopedSpan root(log, "update", u.var, u.seqno, -1);
      const std::int64_t p = root.index();
      std::vector<std::uint8_t> framed;
      {
        ScopedSpan s(log, "wire.encode_update", u.var, u.seqno, p);
        framed = wire::frame(wire::encode_update(u));
      }
      std::vector<ReplayReplica*> targets;
      if (w.shards == 0) {
        for (auto& r : replicas) targets.push_back(r.get());
      } else {
        std::uint32_t owner;
        {
          ScopedSpan s(log, "service.shard_owner", u.var, u.seqno, p);
          owner = ring.owner(u.var);
        }
        targets.push_back(replicas[shard_slot.at(owner)].get());
      }
      for (ReplayReplica* r : targets) {
        std::vector<std::uint8_t> datagram;
        {
          ScopedSpan s(log, "net.udp_send", u.var, u.seqno, p);
          udp.send_to(sink.port(), framed);
        }
        {
          ScopedSpan s(log, "net.udp_receive", u.var, u.seqno, p);
          datagram = receive(sink);
        }
        auto [accepted, alert] = r->ingest(log, p, datagram, u);
        if (alert) arrivals.push_back(std::move(*alert));
        if (merge && accepted) {
          std::vector<std::uint8_t> fwd;
          {
            ScopedSpan s(log, "service.shard_forward", u.var, u.seqno, p);
            fwd = wire::frame(wire::encode_update_from_shard(u, 0, 1));
            udp.send_to(sink.port(), fwd);
          }
          {
            ScopedSpan s(log, "net.udp_receive", u.var, u.seqno, p);
            fwd = receive(sink);
          }
          auto [merged, merge_alert] = merge->ingest(log, p, fwd, u);
          (void)merged;
          if (merge_alert) arrivals.push_back(std::move(*merge_alert));
        }
      }
      for (const Alert& a : arrivals) {
        ++counts.arrivals;
        bool shown;
        {
          ScopedSpan s(log, "core.filter", u.var, u.seqno, p);
          shown = ad.on_alert(a);
        }
        if (!shown) continue;
        ++counts.displayed;
        std::vector<std::uint8_t> bytes;
        {
          ScopedSpan s(log, "wire.encode_alert", u.var, u.seqno, p);
          bytes = wire::encode_alert(a, wire::AlertEncoding::kFullHistories);
        }
        {
          ScopedSpan s(log, "service.session_publish", u.var, u.seqno, p);
          rig.manager().publish(a);
        }
        {
          ScopedSpan s(log, "wire.decode_alert", u.var, u.seqno, p);
          (void)wire::decode_alert(bytes);
        }
      }
    }
    {
      ScopedSpan root(log, "update.decomposed", u.var, u.seqno, -1);
      {
        ScopedSpan s(log, "store.wal_append", u.var, u.seqno, root.index());
        wal.append(u);
      }
      std::optional<Alert> a;
      {
        ScopedSpan s(log, "core.evaluate", u.var, u.seqno, root.index());
        a = ce.on_update(u);
      }
      if (a) ++counts.raised_one;
      ++counts.wal_appends;
      if (++since_truncate >= 256) {
        counts.wal_bytes += std::filesystem::file_size(wal.path());
        wal.truncate();
        counts.wal_bytes -= std::filesystem::file_size(wal.path());  // header
        since_truncate = 0;
      }
    }
  }
  const double seconds = seconds_since(t0);
  counts.wal_bytes += std::filesystem::file_size(wal.path());
  return seconds;
}

/// Cold WAL recovery of `records` prefilled records: ns per record.
double recover_per_record(const ServiceWorkload& w, const std::filesystem::path& dir,
                          SpanLog* log) {
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  {
    service::DurabilityOptions o;
    o.dir = dir;
    o.checkpoint_every = 0;
    service::DurableReplica writer{w.condition, 0, o};
    for (std::size_t i = 0; i < w.prefill; ++i) (void)writer.on_update(w.updates[i]);
  }
  service::DurabilityOptions o;
  o.dir = dir;
  const auto t0 = Clock::now();
  std::optional<service::DurableReplica> r;
  {
    ScopedSpan s(log, "service.recover", 0, 0, -1);
    r.emplace(w.condition, 0, o);
  }
  const double ns = 1e9 * seconds_since(t0);
  const std::size_t replayed = std::max<std::size_t>(r->recovery().wal_replayed, 1);
  return ns / static_cast<double>(replayed);
}

Result traced_service(const Options& opt) {
  Result res;
  const ServiceWorkload w = make_service_workload(
      opt.workload, opt.seed, live_updates_needed(opt.workload, opt));
  const std::size_t n = replay_count(opt, w);
  std::map<std::string, double> m;

  // The untraced real service at the nominal rate: the cost to explain.
  const Phase cost = measure_nominal_cost(opt, w);
  res.attempted = cost.attempted;
  res.failed = cost.failed;
  if (!cost.correct) fail_gate(res, "nominal phase: " + cost.error);

  // The same replay untraced, then traced: the difference is the tracing
  // overhead.
  ReplayCounts plain_counts, counts;
  const double plain_s =
      replay_service(w, n, nullptr, opt.work_dir / "replay-plain", plain_counts);
  SpanLog log{n * 16};
  const double traced_s = replay_service(w, n, &log, opt.work_dir / "replay", counts);
  if (counts.displayed != plain_counts.displayed || counts.displayed == 0)
    fail_gate(res, "replay displayed " + std::to_string(counts.displayed) +
                       " alerts traced, " + std::to_string(plain_counts.displayed) +
                       " untraced");
  std::printf("replay: %zu updates, %.3f s untraced, %.3f s traced, %zu spans\n", n,
              plain_s, traced_s, log.spans().size());

  double service_ns = 0.0;
  for (const auto& [name, t] : log.self_times()) {
    const double per_call = t.count ? t.self_ns / static_cast<double>(t.count) : 0.0;
    std::printf("  layer %-28s %9llu calls  self %10.1f ns/call  %8.3f us/update\n",
                name.c_str(), static_cast<unsigned long long>(t.count), per_call,
                t.self_ns / static_cast<double>(n) / 1e3);
    m[name] = per_call;
    for (const char* s : kServiceSide)
      if (name == s) service_ns += t.self_ns;
  }
  m["service.checkpoint"] /= 1e3;  // us per checkpoint
  m["store.wal_bytes_per_update"] =
      static_cast<double>(counts.wal_bytes) / static_cast<double>(counts.wal_appends);
  m["core.alerts_per_update"] =
      static_cast<double>(counts.raised_one) / static_cast<double>(n);
  m["core.filter.pass_ratio"] =
      counts.arrivals ? static_cast<double>(counts.displayed) / counts.arrivals : 0.0;
  if (w.prefill > 0)
    m["service.recover_per_record"] =
        recover_per_record(w, opt.work_dir / "recover", &log);
  m["service.shard_skew"] = cost.shard_skew;
  m["service.merge_accepted"] = cost.merge_accepted;
  m["service.datagrams_per_update"] = cost.datagrams_per_update;
  m["service.session.max_lag"] = cost.session_max_lag;
  m["service.session.backlog"] = cost.session_backlog;
  m["cpu_us_per_update"] = cost.cpu_us_per_update;
  const double explained_us = service_ns / static_cast<double>(n) / 1e3;
  m["unexplained_us_per_update"] = cost.cpu_us_per_update - explained_us;
  m["trace_overhead_pct"] = 100.0 * (traced_s - plain_s) / plain_s;
  std::printf("  service-side layers explain %.2f of %.2f us/update\n", explained_us,
              cost.cpu_us_per_update);

  log.write_chrome_json(opt.work_dir.parent_path() / ("trace-" + w.name + ".json"),
                        kWrittenSpans);
  for (const LayerMetric& lm : kPerLayer) add_metric(res, lm.name, m[lm.name], lm.unit);
  return res;
}

double replay_swarm(const std::vector<swarm::ComposedSpec>& specs, SpanLog* log,
                    std::uint64_t& digest, std::size_t& undecided, std::size_t& failed) {
  digest = 0xcbf29ce484222325ULL;
  undecided = failed = 0;
  const auto t0 = Clock::now();
  for (std::size_t i = 0; i < specs.size(); ++i) {
    ScopedSpan root(log, "run", 0, i, -1);
    {
      ScopedSpan s(log, "sim.execute", 0, i, root.index());
      (void)swarm::execute(specs[i]);
    }
    swarm::RunCheck chk;
    {
      ScopedSpan s(log, "check.execute_and_check", 0, i, root.index());
      chk = swarm::execute_and_check(specs[i]);
    }
    digest = fold_digest(digest, chk.digest);
    const auto& r = chk.report;
    if (r.ordered == check::Verdict::kUnknown || r.complete == check::Verdict::kUnknown ||
        r.consistent == check::Verdict::kUnknown)
      ++undecided;
    if (chk.failed()) ++failed;
  }
  return seconds_since(t0);
}

Result traced_swarm(const Options& opt) {
  Result res;
  const std::size_t runs = opt.smoke ? kSwarmSmokeRuns : kSwarmRuns;
  std::vector<swarm::ComposedSpec> specs;
  for (std::size_t i = 0; i < runs; ++i)
    specs.push_back(swarm::sample_composed(kSwarmSeed, i, {}));
  std::uint64_t digest = 0, plain_digest = 0;
  std::size_t undecided = 0, failed = 0;
  const double plain_s = replay_swarm(specs, nullptr, plain_digest, undecided, failed);
  SpanLog log{runs * 4};
  const double traced_s = replay_swarm(specs, &log, digest, undecided, failed);
  res.attempted = runs;
  res.failed = failed;
  if (failed > 0) fail_gate(res, std::to_string(failed) + " run(s) with a violation");
  const std::uint64_t pinned = pinned_swarm_digest(runs);
  std::printf("replay: %zu runs, %.3f s untraced, %.3f s traced, digest %016llx\n",
              runs, plain_s, traced_s, static_cast<unsigned long long>(digest));
  if (digest != plain_digest || (pinned != 0 && digest != pinned))
    fail_gate(res, "combined RunCheck digest differs from the pinned value");

  std::map<std::string, double> m;
  double sim_ns = 0.0, check_ns = 0.0;
  for (const auto& [name, t] : log.self_times()) {
    if (name == "sim.execute") sim_ns = t.self_ns;
    if (name == "check.execute_and_check") check_ns = t.self_ns;
  }
  m["sim.execute_ms_per_run"] = sim_ns / 1e6 / static_cast<double>(runs);
  m["check.ms_per_run"] = (check_ns - sim_ns) / 1e6 / static_cast<double>(runs);
  m["check.undecided_runs"] = static_cast<double>(undecided);
  m["trace_overhead_pct"] = 100.0 * (traced_s - plain_s) / plain_s;
  log.write_chrome_json(opt.work_dir.parent_path() / "trace-swarm.json",
                        kWrittenSpans);
  for (const LayerMetric& lm : kPerLayer) add_metric(res, lm.name, m[lm.name], lm.unit);
  return res;
}

}  // namespace

Result run_traced(const Options& opt) {
  return opt.workload == "swarm" ? traced_swarm(opt) : traced_service(opt);
}

std::vector<std::string> end_to_end_metric_names() {
  return {"cpu_us_per_item", "peak_rss_mb", "setup_s"};
}

std::vector<std::string> per_layer_metric_names() {
  std::vector<std::string> out;
  for (const LayerMetric& lm : kPerLayer) out.emplace_back(lm.name);
  return out;
}

}  // namespace perfbench
