#include "service_load.hpp"

#include <poll.h>
#include <sys/prctl.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <memory>
#include <optional>
#include <stdexcept>
#include <system_error>
#include <thread>

#include "check/properties.hpp"
#include "core/builtin_conditions.hpp"
#include "core/displayer.hpp"
#include "core/evaluator.hpp"
#include "core/expr/expression_condition.hpp"
#include "core/history.hpp"
#include "net/socket.hpp"
#include "service/alert_service.hpp"
#include "service/durable_replica.hpp"
#include "service/shard_cluster.hpp"
#include "service/shard_ring.hpp"
#include "util/rng.hpp"
#include "wire/codec.hpp"
#include "wire/frame.hpp"
#include "wire/session.hpp"
#include "wire/shard.hpp"

namespace perfbench {
namespace {

using namespace rcm;
constexpr std::uint32_t kNoIndex = UINT32_MAX;

// Ingest set-up replays this many WAL records per replica.
constexpr std::size_t kIngestPrefill = 100000;
// p99 limit of a passing sweep rung, on every service workload. It sits
// above the ~40 ms delayed-ACK stalls that subscriber connections see,
// so a rung fails on a growing backlog rather than on one stall.
constexpr double kLatencyLimitMs = 100;
// Rate ladder of the sweep: nominal * kStep^k for k in [kMinRung, kMaxRung].
constexpr double kStep = 1.05;
constexpr int kMinRung = -14;
constexpr int kMaxRung = 40;

// ---- phase lengths ---------------------------------------------------------

// The nominal-rate measurement is split over this many instances.
constexpr int kNominalPhases = 6;

double nominal_seconds(const Options& opt) {
  return opt.smoke ? 0.5 : 0.4 * opt.seconds / kNominalPhases;
}
double rung_seconds(const Options& opt) {
  return opt.smoke ? 0.3 : std::clamp(0.05 * opt.seconds, 0.3, 1.5);
}
int max_rung(const Options& opt) { return opt.smoke ? 2 : kMaxRung; }
std::size_t nominal_updates(const Options& opt, const ServiceWorkload& w) {
  return static_cast<std::size_t>(w.nominal_rate * nominal_seconds(opt));
}
double ladder_rate(const ServiceWorkload& w, int k) {
  return w.nominal_rate * std::pow(kStep, k);
}

}  // namespace

// ---- workloads -------------------------------------------------------------

ServiceWorkload make_service_workload(const std::string& name,
                                      std::uint64_t seed, std::size_t live) {
  ServiceWorkload w;
  w.name = name;
  util::Rng rng{util::Rng::derive(seed, std::hash<std::string>{}(name))};
  std::vector<VarId> vars;
  if (name == "ingest") {
    // Paper c2: rise since the last reading received. Random-walk values
    // with unit normal steps rise by more than 1.405 about 8% of the time.
    w.condition = std::make_shared<RiseCondition>("c2", 0, 1.405,
                                                  Triggering::kAggressive);
    w.filter = FilterKind::kAd4;
    w.nominal_rate = 20000;
    w.prefill = kIngestPrefill;
  } else if (name == "fanout") {
    // Paper c1 with a threshold below every value: fires on every update.
    w.condition = std::make_shared<ThresholdCondition>("c1", 0, 0.0, true);
    w.filter = FilterKind::kAd1;
    w.durable_subs = 2;
    w.parked_sessions = 256;
    w.nominal_rate = 25000;
  } else if (name == "sharded") {
    VariableRegistry registry;
    std::string src;
    for (int p = 0; p < 8; ++p) {
      if (p > 0) src += " || ";
      src += "abs(a" + std::to_string(p) + "[0] - b" + std::to_string(p) +
             "[0]) > 90";
    }
    w.condition = expr::compile_condition("pairs", src, registry);
    w.filter = FilterKind::kAd6;
    w.replicas = 1;
    w.shards = 4;
    w.nominal_rate = 20000;
  } else {
    throw std::invalid_argument("unknown service workload " + name);
  }
  vars = w.condition->variables();

  std::vector<SeqNo> next_seq(vars.back() + 1, 0);
  double walk = 100.0;
  w.updates.reserve(w.prefill + live);
  for (std::size_t i = 0; i < w.prefill + live; ++i) {
    Update u;
    if (name == "ingest") {
      walk += rng.normal();
      u = Update{0, 0, walk};
    } else if (name == "fanout") {
      u = Update{0, 0, rng.uniform(1.0, 100.0)};
    } else {
      const auto pick = rng.uniform_int(0, static_cast<std::int64_t>(vars.size()) - 1);
      u = Update{vars[static_cast<std::size_t>(pick)], 0, rng.uniform(0.0, 100.0)};
    }
    u.seqno = ++next_seq[u.var];
    w.updates.push_back(u);
  }
  w.index_of.assign(next_seq.size(), {});
  for (std::size_t v = 0; v < next_seq.size(); ++v)
    w.index_of[v].assign(next_seq[v] + 1, kNoIndex);
  for (std::size_t i = 0; i < w.updates.size(); ++i)
    w.index_of[w.updates[i].var][w.updates[i].seqno] =
        static_cast<std::uint32_t>(i);
  return w;
}

std::size_t live_updates_needed(const std::string& name, const Options& opt) {
  const ServiceWorkload probe = make_service_workload(name, 0, 0);
  const double nominal = probe.nominal_rate * nominal_seconds(opt);
  const double top =
      ladder_rate(probe, max_rung(opt)) * rung_seconds(opt);
  return static_cast<std::size_t>(std::max(nominal, top)) + 1;
}

namespace {

// ---- pre-encoded datagrams -------------------------------------------------

/// Every live update framed and encoded once, in one contiguous buffer.
struct Datagrams {
  std::vector<std::uint8_t> bytes;
  std::vector<std::size_t> offset;  ///< n + 1 entries

  [[nodiscard]] std::span<const std::uint8_t> at(std::size_t i) const {
    return {bytes.data() + offset[i], offset[i + 1] - offset[i]};
  }
};

Datagrams encode_all(const ServiceWorkload& w) {
  Datagrams d;
  d.offset.reserve(w.live_count() + 1);
  d.offset.push_back(0);
  for (std::size_t i = w.prefill; i < w.updates.size(); ++i) {
    const auto framed = wire::frame(wire::encode_update(w.updates[i]));
    d.bytes.insert(d.bytes.end(), framed.begin(), framed.end());
    d.offset.push_back(d.bytes.size());
  }
  return d;
}

// ---- the reference ---------------------------------------------------------

/// Identity of an alert for sequence comparison: FNV-1a over the
/// (var, seqno) pairs of its histories. Cheaper than Alert::checksum(),
/// which the reader would pay for every received alert.
std::uint64_t signature(const Alert& a) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const auto& [var, history] : a.histories)
    for (const Update& u : history)
      h = (h ^ ((static_cast<std::uint64_t>(var) << 40) ^
                static_cast<std::uint64_t>(u.seqno))) * 0x100000001b3ULL;
  return h;
}

/// Displayed alerts of an in-process ConditionEvaluator + AlertDisplayer
/// over the same stream, as (signature, newest live index) pairs.
struct Reference {
  std::vector<std::uint64_t> sig;
  std::vector<std::uint32_t> newest;  ///< live index of the raising update
};

Reference make_reference(const ServiceWorkload& w) {
  Reference ref;
  ConditionEvaluator ce{w.condition, "ref"};
  AlertDisplayer ad{make_filter(w.filter, w.condition->variables())};
  for (std::size_t i = 0; i < w.updates.size(); ++i) {
    auto alert = ce.on_update(w.updates[i]);
    if (!alert || i < w.prefill) continue;
    if (!ad.on_alert(*alert)) continue;
    ref.sig.push_back(signature(*alert));
    ref.newest.push_back(static_cast<std::uint32_t>(i - w.prefill));
  }
  return ref;
}

// ---- the system under test -------------------------------------------------

struct Received {
  std::uint64_t ns = 0;
  std::uint64_t sig = 0;
  std::uint32_t newest = 0;  ///< live index of the newest update in it
};

struct Subscriber {
  net::TcpStream stream;
  bool durable = false;
  wire::FrameCursor cursor;
  std::uint64_t acked = 0;
  std::vector<Received> got;
  /// got.size(), published by the reader for the drain wait.
  std::atomic<std::size_t> count{0};
  std::vector<Alert> alerts;  ///< kept for check_ordered (sharded)
  std::size_t bad_values = 0;     ///< history value differs from sent
  std::size_t false_alerts = 0;   ///< condition false on its histories

  explicit Subscriber(net::TcpStream s) : stream(std::move(s)) {}
};

/// One service (or sharded cluster) with its live subscribers, built by
/// set_up() and torn down by its destructor.
struct Instance {
  std::filesystem::path dir;
  std::unique_ptr<service::AlertService> svc;
  std::unique_ptr<service::ShardedCluster> cluster;
  /// Routing: group g's replica ports; the group of each live update.
  std::vector<std::vector<std::uint16_t>> group_ports;
  std::vector<std::uint32_t> group_of;  ///< per live update
  std::vector<std::unique_ptr<Subscriber>> subs;
  double setup_s = 0.0;

  service::AlertService& front() {
    return svc ? *svc : *cluster->merge();
  }
  /// Status of every instance that ingests from the generator (shards,
  /// or the one service).
  std::vector<service::ServiceStatus> ingest_statuses() {
    std::vector<service::ServiceStatus> out;
    if (svc) {
      out.push_back(svc->status());
    } else {
      for (const std::uint32_t id : cluster->shard_ids())
        out.push_back(cluster->shard(id).status());
    }
    return out;
  }
  /// Datagrams ingested by every instance (merge tier included) plus
  /// alerts displayed: it stops moving once the service is idle.
  std::uint64_t activity() {
    std::uint64_t sum = front().status().displayed;
    for (const auto& st : ingest_statuses()) sum += st.ingested_datagrams;
    if (cluster) sum += cluster->merge()->status().ingested_datagrams;
    return sum;
  }
  /// True once activity() stood still for `idle`, within `timeout`.
  bool await_idle(std::chrono::milliseconds idle,
                  std::chrono::milliseconds timeout) {
    const auto deadline = Clock::now() + timeout;
    auto last_change = Clock::now();
    std::uint64_t last = activity();
    while (Clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds{2});
      const std::uint64_t cur = activity();
      if (cur != last) {
        last = cur;
        last_change = Clock::now();
      } else if (Clock::now() - last_change >= idle) {
        return true;
      }
    }
    return false;
  }

  Instance() = default;
  Instance(const Instance&) = delete;
  Instance& operator=(const Instance&) = delete;
  ~Instance() {
    subs.clear();
    try {
      if (svc) svc->drain();
      if (cluster) cluster->drain();
    } catch (...) {
    }
    svc.reset();
    cluster.reset();
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
  }
};

std::optional<std::vector<std::uint8_t>> next_frame(Subscriber& s,
                                                    std::chrono::milliseconds timeout) {
  const auto deadline = Clock::now() + timeout;
  while (true) {
    if (auto payload = s.cursor.next()) return payload;
    if (Clock::now() >= deadline) return std::nullopt;
    auto bytes = s.stream.read_some(std::chrono::milliseconds{50});
    if (bytes && bytes->empty()) return std::nullopt;
    if (bytes) s.cursor.feed(*bytes);
  }
}

/// Opens durable session `id` and reads its welcome.
std::unique_ptr<Subscriber> open_session(std::uint16_t port,
                                         const std::string& id) {
  auto sub = std::make_unique<Subscriber>(net::TcpStream::connect(port));
  sub->durable = true;
  wire::SessionHello hello;
  hello.session_id = id;
  sub->stream.write_all(wire::frame(wire::encode_session_hello(hello)));
  auto payload = next_frame(*sub, std::chrono::seconds{5});
  if (!payload) throw std::runtime_error("no welcome for session " + id);
  const auto welcome = wire::decode_session_welcome(*payload);
  sub->acked = welcome.start_index;
  return sub;
}

void prefill_wal(const ServiceWorkload& w, const std::filesystem::path& dir) {
  std::filesystem::create_directories(dir);
  for (std::size_t r = 0; r < w.replicas; ++r) {
    service::DurabilityOptions opts;
    opts.dir = dir;
    opts.checkpoint_every = 0;  // the WAL holds everything: no checkpoint
    service::DurableReplica replica{w.condition, r, opts};
    for (std::size_t i = 0; i < w.prefill; ++i)
      (void)replica.on_update(w.updates[i]);
  }
}

/// Builds an instance and its subscribers; the timed part is set-up.
std::unique_ptr<Instance> set_up(const ServiceWorkload& w,
                                 const std::filesystem::path& dir,
                                 const std::filesystem::path& wal_template) {
  auto inst = std::make_unique<Instance>();
  inst->dir = dir;
  std::filesystem::remove_all(dir);
  if (!wal_template.empty())
    std::filesystem::copy(wal_template, dir,
                          std::filesystem::copy_options::recursive);

  const auto t0 = Clock::now();
  std::uint16_t sub_port = 0;
  if (w.shards == 0) {
    service::ServiceConfig cfg;
    cfg.condition = w.condition;
    cfg.num_replicas = w.replicas;
    cfg.filter = w.filter;
    cfg.data_dir = dir;
    inst->svc = std::make_unique<service::AlertService>(std::move(cfg));
    inst->group_ports.push_back(inst->svc->replica_ports());
    inst->group_of.assign(w.live_count(), 0);
    // Recovery is done once every replica reports its replayed WAL.
    while (true) {
      const auto st = inst->svc->status();
      bool ready = true;
      for (const auto& r : st.replicas)
        ready = ready && r.incarnation >= 1 && r.recovered_wal >= w.prefill;
      if (ready) break;
      if (seconds_since(t0) > 60) throw std::runtime_error("recovery stuck");
      std::this_thread::sleep_for(std::chrono::microseconds{200});
    }
    sub_port = inst->svc->subscriber_port();
  } else {
    service::ShardClusterConfig cfg;
    cfg.condition = w.condition;
    cfg.filter = w.filter;
    cfg.num_shards = w.shards;
    cfg.replicas_per_shard = w.replicas;
    cfg.merge_replicas = 1;
    cfg.data_dir = dir;
    inst->cluster = std::make_unique<service::ShardedCluster>(std::move(cfg));
    // Route like an external feeder: from the decoded wire map.
    const wire::ShardMap map = wire::decode_shard_map(
        wire::encode_shard_map(inst->cluster->shard_map()));
    service::ShardRing ring{map.shards.empty() ? service::kDefaultVnodes
                                               : map.shards.front().vnodes};
    std::vector<std::uint32_t> ids;
    for (const wire::ShardMapEntry& e : map.shards) {
      ring.add_shard(e.shard_id);
      ids.push_back(e.shard_id);
      inst->group_ports.push_back(e.replica_ports);
    }
    inst->group_of.reserve(w.live_count());
    for (std::size_t i = w.prefill; i < w.updates.size(); ++i) {
      const std::uint32_t owner = ring.owner(w.updates[i].var);
      inst->group_of.push_back(static_cast<std::uint32_t>(
          std::find(ids.begin(), ids.end(), owner) - ids.begin()));
    }
    sub_port = inst->cluster->merge()->subscriber_port();
  }

  // Parked sessions: PDAs out of range, registered one at a time.
  for (std::size_t p = 0; p < w.parked_sessions; ++p)
    (void)open_session(sub_port, "parked-" + std::to_string(p));
  for (std::size_t l = 0; l < w.legacy_subs; ++l)
    inst->subs.push_back(
        std::make_unique<Subscriber>(net::TcpStream::connect(sub_port)));
  while (inst->front().status().subscribers < w.legacy_subs)
    std::this_thread::sleep_for(std::chrono::microseconds{200});
  for (std::size_t d = 0; d < w.durable_subs; ++d)
    inst->subs.push_back(open_session(sub_port, "live-" + std::to_string(d)));
  inst->setup_s = seconds_since(t0);
  if (w.durable_subs == 0) {
    // A legacy connection is live once the session loop has picked it
    // up, at most one loop tick (50 ms) after adoption; no accessor
    // shows that, so wait it out. A durable handshake proves it sooner.
    // The wait is the harness's, so it is not part of set-up time.
    std::this_thread::sleep_for(std::chrono::milliseconds{60});
  }
  return inst;
}

// ---- generator and reader ----------------------------------------------------

struct GenStats {
  double cpu_s = 0.0;
  double lateness_p99_us = 0.0;
  std::vector<std::uint64_t> sent_per_group;
};

/// Open loop: update i is due at t0 + i / rate, whatever happened before.
/// The sender wakes at most once per kSendQuantum and sends every update
/// due by then, so its own wake-ups do not cost more than the sends; the
/// wait this adds is lateness, charged to the updates' latency.
constexpr auto kSendQuantum = std::chrono::microseconds{50};

void generate(const Datagrams& d, const Instance& inst, std::size_t n,
              double rate, Clock::time_point t0, GenStats& out) {
  pin_harness_cpu();
  ::prctl(PR_SET_TIMERSLACK, 1000UL);  // sleep to within ~1 us
  const double cpu0 = thread_cpu_s();
  net::UdpSocket udp;
  std::vector<double> late_us;
  late_us.reserve(n);
  out.sent_per_group.assign(inst.group_ports.size(), 0);
  auto due = [&](std::size_t i) {
    return t0 + std::chrono::nanoseconds(static_cast<std::int64_t>(1e9 * i / rate));
  };
  std::size_t i = 0;
  while (i < n) {
    const auto now = Clock::now();
    if (due(i) > now) {
      std::this_thread::sleep_until(std::max(due(i), now + kSendQuantum));
      continue;
    }
    for (; i < n && due(i) <= now; ++i) {
      late_us.push_back(
          std::chrono::duration<double, std::micro>(Clock::now() - due(i)).count());
      const std::uint32_t g = inst.group_of[i];
      for (const std::uint16_t port : inst.group_ports[g]) {
        try {
          udp.send_to(port, d.at(i));
        } catch (const std::system_error&) {
          // Counted as lost: the replica's accepted count falls short.
        }
      }
      ++out.sent_per_group[g];
    }
  }
  out.lateness_p99_us = quantile(std::move(late_us), 0.99);
  out.cpu_s = thread_cpu_s() - cpu0;
}

/// Decodes one subscriber payload; records it and, on the sharded
/// workload, checks it against what was sent.
void on_payload(const ServiceWorkload& w, const Condition* checker,
                Subscriber& s, std::span<const std::uint8_t> payload,
                std::uint64_t ns) {
  Alert alert;
  if (s.durable) {
    wire::SessionRecord rec = wire::decode_session_record(payload);
    if (rec.kind != wire::SessionRecord::Kind::kAlert) return;
    s.acked = rec.index + 1;
    alert = std::move(rec.alert.alert);
  } else {
    alert = wire::decode_alert(payload).alert;
  }
  Received r;
  r.ns = ns;
  r.sig = signature(alert);
  std::uint32_t newest = 0;
  for (const auto& [var, history] : alert.histories) {
    for (const Update& u : history) {
      const std::uint32_t idx =
          var < w.index_of.size() && u.seqno >= 0 &&
                  static_cast<std::size_t>(u.seqno) < w.index_of[var].size()
              ? w.index_of[var][u.seqno]
              : kNoIndex;
      if (idx == kNoIndex || w.updates[idx].value != u.value) {
        ++s.bad_values;
        continue;
      }
      if (idx >= w.prefill)
        newest = std::max(newest, static_cast<std::uint32_t>(idx - w.prefill));
    }
  }
  r.newest = newest;
  s.got.push_back(r);
  s.count.store(s.got.size(), std::memory_order_release);
  if (checker != nullptr) {
    HistorySet h;
    for (const VarId v : checker->variables())
      h.add_variable(v, checker->degree(v));
    for (const auto& [var, history] : alert.histories)
      for (const Update& u : history) h.push(u);
    if (!h.all_defined() || !checker->evaluate(h)) ++s.false_alerts;
    s.alerts.push_back(std::move(alert));
  }
}

void read_subscribers(const ServiceWorkload& w, const Condition* checker,
                      std::vector<std::unique_ptr<Subscriber>>& subs,
                      std::atomic<bool>& stop, double& cpu_s) {
  pin_harness_cpu();
  const double cpu0 = thread_cpu_s();
  std::vector<pollfd> fds;
  for (const auto& s : subs)
    fds.push_back(pollfd{s->stream.native_handle(), POLLIN, 0});
  while (!stop.load(std::memory_order_acquire)) {
    if (::poll(fds.data(), fds.size(), 2) <= 0) continue;
    const std::uint64_t ns = now_ns();
    for (std::size_t k = 0; k < fds.size(); ++k) {
      if ((fds[k].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      Subscriber& s = *subs[k];
      auto bytes = s.stream.read_some(std::chrono::milliseconds{0});
      if (!bytes) continue;
      if (bytes->empty()) {
        fds[k].fd = -1;  // closed by the service
        continue;
      }
      s.cursor.feed(*bytes);
      const std::uint64_t acked_before = s.acked;
      while (auto payload = s.cursor.next())
        on_payload(w, checker, s, *payload, ns);
      if (s.durable && s.acked > acked_before)
        s.stream.write_all(wire::frame(wire::encode_session_ack(s.acked)));
    }
  }
  cpu_s = thread_cpu_s() - cpu0;
}

// ---- one phase at one offered rate -------------------------------------------

bool is_subsequence(const std::vector<Received>& got, const Reference& ref,
                    std::size_t ref_end) {
  std::size_t j = 0;
  for (const Received& r : got) {
    while (j < ref_end && ref.sig[j] != r.sig) ++j;
    if (j == ref_end) return false;
    ++j;
  }
  return true;
}

Phase run_phase(const ServiceWorkload& w, const Datagrams& d,
                const Reference* ref, const Condition* checker, Instance& inst,
                double rate, std::size_t n, bool exact) {
  Phase ph;
  ph.rate = rate;
  ph.n = n;
  std::atomic<bool> stop{false};
  GenStats gen;
  double reader_cpu = 0.0;
  const double cpu0 = process_cpu_s();
  const auto t0 = Clock::now() + std::chrono::milliseconds{5};
  const std::uint64_t t0_ns = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(t0.time_since_epoch())
          .count());
  // Reserve up front: a reallocation on the reader thread would stall it
  // and show up as service latency.
  for (auto& s : inst.subs) {
    s->got.reserve(n + 1);
    if (checker != nullptr) s->alerts.reserve(n + 1);
  }
  std::thread reader{[&] { read_subscribers(w, checker, inst.subs, stop, reader_cpu); }};
  std::atomic<bool> sending{true};
  std::thread sender{[&] {
    generate(d, inst, n, rate, t0, gen);
    sending.store(false, std::memory_order_release);
  }};
  // Session lag and backlog, sampled from status() while the load runs:
  // after the drain they are 0 whenever delivery kept up.
  while (sending.load(std::memory_order_acquire)) {
    std::this_thread::sleep_for(std::chrono::milliseconds{50});
    for (const auto& s : inst.front().status().sessions) {
      if (!s.connected) continue;
      ph.session_max_lag = std::max(ph.session_max_lag, static_cast<double>(s.lag));
      ph.session_backlog = std::max(ph.session_backlog, static_cast<double>(s.backlog));
    }
  }
  sender.join();

  // The backlog did not grow if the service goes idle (no datagram
  // ingested, no alert displayed for 20 ms) within the latency limit.
  ph.idle = inst.await_idle(
      std::chrono::milliseconds{20},
      std::chrono::milliseconds{static_cast<std::int64_t>(kLatencyLimitMs) + 20});
  // Every displayed alert should reach every live subscriber.
  const std::uint64_t displayed = inst.front().status().displayed;
  const auto deadline = Clock::now() + std::chrono::seconds{1};
  while (Clock::now() < deadline) {
    bool done = true;
    for (const auto& s : inst.subs)
      done = done && s->count.load(std::memory_order_acquire) >= displayed;
    if (done) break;
    std::this_thread::sleep_for(std::chrono::milliseconds{2});
  }
  stop.store(true, std::memory_order_release);
  reader.join();
  const double cpu = process_cpu_s() - cpu0 - gen.cpu_s - reader_cpu;
  ph.harness_cpu_share = (gen.cpu_s + reader_cpu) / seconds_since(t0);

  // Accepted vs offered, per replica (and on the merge hop).
  const auto statuses = inst.ingest_statuses();
  std::uint64_t accepted_pairs = 0, offered_pairs = 0, datagrams = 0;
  std::vector<double> per_shard;
  for (std::size_t g = 0; g < statuses.size(); ++g) {
    std::uint64_t shard_accepted = 0;
    datagrams += statuses[g].ingested_datagrams;
    for (const auto& r : statuses[g].replicas) {
      offered_pairs += gen.sent_per_group[g];
      accepted_pairs += std::min<std::uint64_t>(r.accepted, gen.sent_per_group[g]);
      shard_accepted += r.accepted;
    }
    per_shard.push_back(static_cast<double>(shard_accepted));
  }
  ph.accepted_updates = accepted_pairs / w.replicas;
  ph.failed = offered_pairs - accepted_pairs;
  ph.attempted = offered_pairs;
  if (inst.cluster) {
    const auto merge = inst.cluster->merge()->status();
    std::uint64_t merged = 0;
    for (const auto& r : merge.replicas) merged = std::max(merged, r.accepted);
    ph.attempted += ph.accepted_updates;
    ph.lost_merge = ph.accepted_updates - std::min(merged, ph.accepted_updates);
    ph.failed += ph.lost_merge;
    ph.merge_accepted = static_cast<double>(merged);
    datagrams += merge.ingested_datagrams;
    double mean = 0.0, mx = 0.0;
    for (const double a : per_shard) {
      mean += a / static_cast<double>(per_shard.size());
      mx = std::max(mx, a);
    }
    ph.shard_skew = mean > 0 ? mx / mean : 0.0;
  }
  ph.datagrams_per_update =
      n > 0 ? static_cast<double>(datagrams) / static_cast<double>(n) : 0.0;
  const auto front = inst.front().status();
  // Deliveries to live subscribers.
  for (const auto& s : inst.subs) {
    ph.attempted += front.displayed;
    const std::uint64_t missed =
        front.displayed - std::min<std::uint64_t>(s->got.size(), front.displayed);
    ph.missed_delivery += missed;
    ph.failed += missed;
  }
  ph.accepted_updates = std::max<std::uint64_t>(ph.accepted_updates, 1);
  ph.cpu_us_per_update = 1e6 * cpu / static_cast<double>(ph.accepted_updates);
  ph.lateness_p99_us = gen.lateness_p99_us;
  ph.valid = gen.lateness_p99_us <= 1e3 * kLatencyLimitMs;

  for (const auto& s : inst.subs)
    for (const Received& r : s->got)
      ph.latency_us.push_back(
          (static_cast<double>(r.ns) -
           (static_cast<double>(t0_ns) + 1e9 * r.newest / rate)) /
          1e3);

  // Correctness gates.
  const bool lossless = offered_pairs == accepted_pairs;
  for (std::size_t k = 0; k < inst.subs.size(); ++k) {
    const Subscriber& s = *inst.subs[k];
    const std::string who = "subscriber " + std::to_string(k);
    if (s.bad_values > 0) {
      ph.correct = false;
      ph.error = who + ": " + std::to_string(s.bad_values) +
                 " history entries differ from what was sent";
    }
    if (ref != nullptr) {
      std::size_t ref_end = 0;
      while (ref_end < ref->newest.size() && ref->newest[ref_end] < n) ++ref_end;
      if (lossless && exact) {
        bool equal = s.got.size() == ref_end;
        for (std::size_t i = 0; equal && i < ref_end; ++i)
          equal = s.got[i].sig == ref->sig[i];
        if (!equal) {
          ph.correct = false;
          ph.error = who + ": received " + std::to_string(s.got.size()) +
                     " alerts, not the reference sequence of " +
                     std::to_string(ref_end);
        }
      } else if (lossless && !is_subsequence(s.got, *ref, ref_end)) {
        ph.correct = false;
        ph.error = who + ": not an ordered subsequence of the reference";
      } else if (!lossless && w.filter == FilterKind::kAd1) {
        // AD-1 only drops duplicates; with updates lost it promises no order.
        std::vector<std::uint64_t> sigs;
        for (const Received& r : s.got) sigs.push_back(r.sig);
        std::sort(sigs.begin(), sigs.end());
        if (std::adjacent_find(sigs.begin(), sigs.end()) != sigs.end()) {
          ph.correct = false;
          ph.error = who + ": an alert was displayed twice";
        }
      } else if (!lossless) {
        // AD-2 / AD-4 keep a single variable's alerts in seqno order.
        for (std::size_t i = 1; i < s.got.size(); ++i)
          if (s.got[i].newest <= s.got[i - 1].newest) {
            ph.correct = false;
            ph.error = who + ": alerts out of order after update loss";
            break;
          }
      }
    }
    if (checker != nullptr) {
      if (s.false_alerts > 0) {
        ph.correct = false;
        ph.error = who + ": " + std::to_string(s.false_alerts) +
                   " alerts whose condition is false on their histories";
      }
      if (!check::check_ordered(s.alerts, checker->variables())) {
        ph.correct = false;
        ph.error = who + ": check_ordered failed";
      }
    }
  }
  return ph;
}

bool passes(const Phase& p) {
  return p.valid && p.idle && p.correct && p.failed == 0 &&
         p.p99_ms() <= kLatencyLimitMs;
}

void print_phase(const char* label, const Phase& p, bool pass) {
  std::printf(
      "  %-8s rate %9.0f/s  n %8zu  p50 %9.1f us  p99 %9.1f us  "
      "lateness-p99 %8.1f us  cpu %6.2f us/upd  harness-cpu %.2f  failed %llu/%llu "
      "(merge hop %llu, delivery %llu)  idle %s  %s\n",
      label, p.rate, p.n, quantile(p.latency_us, 0.5), quantile(p.latency_us, 0.99),
      p.lateness_p99_us, p.cpu_us_per_update, p.harness_cpu_share,
      static_cast<unsigned long long>(p.failed),
      static_cast<unsigned long long>(p.attempted),
      static_cast<unsigned long long>(p.lost_merge),
      static_cast<unsigned long long>(p.missed_delivery), p.idle ? "yes" : "NO",
      !p.valid ? "INVALID (generator late)" : (pass ? "pass" : "fail"));
  std::fflush(stdout);
}

/// Everything a run of one service workload shares.
struct Bench {
  const Options& opt;
  ServiceWorkload w;
  Datagrams d;
  Reference ref;
  rcm::ConditionPtr checker;  ///< sharded: a separate copy for the reader
  std::filesystem::path wal_template;
  int instances = 0;

  Bench(const Options& o, ServiceWorkload wl) : opt(o), w(std::move(wl)) {
    d = encode_all(w);
    if (w.shards == 0) {
      ref = make_reference(w);
    } else {
      checker = make_service_workload(w.name, 0, 0).condition;
    }
    if (w.prefill > 0) {
      wal_template = opt.work_dir / "wal-template";
      std::filesystem::remove_all(wal_template);
      prefill_wal(w, wal_template);
    }
  }

  std::unique_ptr<Instance> instance() {
    return set_up(w, opt.work_dir / ("instance-" + std::to_string(instances++)),
                  wal_template);
  }

  Phase phase(Instance& inst, double rate, std::size_t n, bool exact) {
    return run_phase(w, d, w.shards == 0 ? &ref : nullptr, checker.get(), inst,
                     rate, n, exact);
  }
};

}  // namespace

struct SessionRig::Impl {
  net::TcpListener listener;
  std::vector<std::unique_ptr<Subscriber>> subs;
  std::atomic<bool> stop{false};
  std::thread reader;
};

SessionRig::SessionRig(const ServiceWorkload& w, const std::filesystem::path& dir)
    : impl_(std::make_unique<Impl>()) {
  std::filesystem::create_directories(dir);
  manager_ = std::make_unique<service::SessionManager>(
      dir, wire::AlertEncoding::kFullHistories, service::SessionLimits{});
  const std::uint16_t port = impl_->listener.port();
  auto adopt_next = [&] {
    auto stream = impl_->listener.accept(std::chrono::seconds{5});
    if (!stream) throw std::runtime_error("session rig: accept timed out");
    manager_->adopt(std::move(*stream));
  };
  auto session = [&](const std::string& id) {
    std::unique_ptr<Subscriber> sub;
    std::thread t{[&] { sub = open_session(port, id); }};
    adopt_next();
    t.join();
    return sub;
  };
  for (std::size_t p = 0; p < w.parked_sessions; ++p)
    (void)session("parked-" + std::to_string(p));
  for (std::size_t l = 0; l < w.legacy_subs; ++l) {
    impl_->subs.push_back(std::make_unique<Subscriber>(net::TcpStream::connect(port)));
    adopt_next();
  }
  for (std::size_t d = 0; d < w.durable_subs; ++d)
    impl_->subs.push_back(session("live-" + std::to_string(d)));
  if (w.durable_subs == 0) std::this_thread::sleep_for(std::chrono::milliseconds{60});
  impl_->reader = std::thread{[this, &w] {
    double cpu = 0.0;
    read_subscribers(w, nullptr, impl_->subs, impl_->stop, cpu);
  }};
}

SessionRig::~SessionRig() {
  manager_->stop(std::chrono::milliseconds{200});
  impl_->stop.store(true, std::memory_order_release);
  impl_->reader.join();
}

Phase measure_nominal_cost(const Options& opt, const ServiceWorkload& w) {
  Bench b{opt, w};
  auto inst = b.instance();
  Phase p = b.phase(*inst, w.nominal_rate, nominal_updates(opt, w), true);
  print_phase("nominal", p, passes(p));
  return p;
}

Result run_service_workload(const Options& opt) {
  Result res;
  const auto prep0 = Clock::now();
  Bench b{opt, make_service_workload(opt.workload, opt.seed,
                                     live_updates_needed(opt.workload, opt))};
  const ServiceWorkload& w = b.w;
  std::printf("%s: nominal %.0f updates/s, latency limit %.0f ms, %zu live "
              "updates generated and encoded in %.2f s\n",
              w.name.c_str(), w.nominal_rate, kLatencyLimitMs,
              w.live_count(), seconds_since(prep0));
  std::vector<double> setups;

  // Nominal phases, each on its own instance: the latency and cost
  // metrics are medians over them, so one noisy stretch moves them less.
  std::vector<double> p50s, p90s, p99s, cpus, lateness;
  std::size_t samples = 0;
  double rss = 0.0;
  bool nominal_pass = false;
  for (int i = 0; i < kNominalPhases; ++i) {
    auto inst = b.instance();
    setups.push_back(inst->setup_s);
    const Phase p = b.phase(*inst, w.nominal_rate, nominal_updates(opt, w), true);
    inst.reset();
    print_phase("nominal", p, passes(p));
    if (!p.correct) fail_gate(res, "nominal: " + p.error);
    nominal_pass = nominal_pass || passes(p);
    p50s.push_back(quantile(p.latency_us, 0.5));
    p90s.push_back(quantile(p.latency_us, 0.9));
    p99s.push_back(quantile(p.latency_us, 0.99));
    cpus.push_back(p.cpu_us_per_update);
    lateness.push_back(p.lateness_p99_us);
    samples = samples == 0 ? p.latency_us.size() : std::min(samples, p.latency_us.size());
    res.attempted += p.attempted;
    res.failed += p.failed;
    // Peak memory of set-up plus one nominal phase: later instances
    // reuse freed memory in ways that vary from run to run, and the
    // sweep's overload rungs depend on where the sweep lands.
    if (i == 0) rss = peak_rss_mb();
  }

  // Sweep: bisect the ladder for the highest passing rung.
  int lo = kMinRung - 1, hi = 0;
  if (nominal_pass) {
    lo = 0;
    hi = max_rung(opt) + 1;
  }
  int invalid = 0;
  while (hi - lo > 1) {
    const int k = (lo + hi) / 2;
    const double rate = ladder_rate(w, k);
    // A rung that fails gets a second attempt and passes if either does:
    // a transient stall (a descheduled vCPU, the disk under writeback)
    // rarely hits both, while a growing backlog fails both.
    bool pass = false;
    for (int attempt = 0; attempt < 2 && !pass; ++attempt) {
      auto rinst = b.instance();
      setups.push_back(rinst->setup_s);
      const Phase p = b.phase(*rinst, rate,
                              static_cast<std::size_t>(rate * rung_seconds(opt)), false);
      rinst.reset();
      pass = passes(p);
      char label[32];
      std::snprintf(label, sizeof label, "rung %+d", k);
      print_phase(label, p, pass);
      if (!p.correct) fail_gate(res, std::string(label) + ": " + p.error);
      if (!p.valid) ++invalid;
    }
    (pass ? lo : hi) = k;
  }
  const double sustainable = lo >= kMinRung ? ladder_rate(w, lo) : 0.0;
  std::printf("  sweep: highest passing rung %d, %d invalid rung(s)\n", lo, invalid);
  std::printf("  latency samples per nominal phase >= %zu (p99 has >= %zu "
              "beyond it)\n", samples, samples / 100);
  if (samples < 1000) std::printf("  note: fewer than 1000 latency samples\n");
  const double failed_frac =
      res.attempted ? static_cast<double>(res.failed) / static_cast<double>(res.attempted) : 0.0;

  // Workload-specific names, then the generic names BENCHMARK.json gates.
  add_metric(res, "sustainable_ups", sustainable, "updates/s");
  add_metric(res, "cpu_us_per_update", median(cpus), "us");
  add_metric(res, "failed_frac", failed_frac, "ratio");
  add_metric(res, "latency_samples", static_cast<double>(samples), "count");
  add_metric(res, "generator_lateness_p99_us", median(lateness), "us");
  add_metric(res, "latency_p90_us", median(p90s), "us");
  add_metric(res, "latency_p99_us", median(p99s), "us");
  add_metric(res, "throughput_per_s", sustainable, "1/s");
  add_metric(res, "latency_p50_us", median(p50s), "us");
  add_metric(res, "cpu_us_per_item", median(cpus), "us");
  add_metric(res, "setup_s", median(setups), "s");
  add_metric(res, "peak_rss_mb", rss, "MiB");
  if (sustainable <= 0.0) std::printf("  note: no rung of the ladder passed\n");
  return res;
}

}  // namespace perfbench
