// ShardedCluster end-to-end: cross-shard conditions through the merge
// tier, single-variable ownership moves, durable handoff exactness, and
// the admin shard-map distribution path — each checked across a mid-run
// reshard with the same oracle the fuzzer uses (swarm::check_service_run),
// so the paper's AD table rows are asserted, not just "no crash".
#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "net/deployment.hpp"
#include "net/socket.hpp"
#include "service/admin.hpp"
#include "service/shard_cluster.hpp"
#include "swarm/fuzz_plan.hpp"
#include "swarm/spec.hpp"
#include "wire/codec.hpp"
#include "wire/frame.hpp"
#include "wire/shard.hpp"

namespace rcm::service {
namespace {

using namespace std::chrono_literals;

std::filesystem::path fresh_dir(const std::string& name) {
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / ("rcm_shard_" + name);
  std::filesystem::remove_all(dir);
  return dir;  // the cluster creates it
}

/// Routes one update to every replica port of its owner shard, via the
/// wire map exactly as an external feeder would.
void send_routed(net::UdpSocket& udp, ShardedCluster& cluster,
                 const Update& u) {
  const wire::ShardMap map = cluster.shard_map();
  const std::uint32_t owner = cluster.owner(u.var);
  const auto framed = wire::frame(wire::encode_update(u));
  for (const wire::ShardMapEntry& e : map.shards) {
    if (e.shard_id != owner) continue;
    for (const std::uint16_t port : e.replica_ports) {
      try {
        udp.send_to(port, framed);
      } catch (const std::system_error&) {
      }
    }
  }
}

/// Sends END markers for vars [0, arity) to every shard and merge port
/// until the evaluating instance has acknowledged them all.
void deliver_ends(net::UdpSocket& udp, ShardedCluster& cluster,
                  std::size_t arity) {
  for (int attempt = 0; attempt < 50; ++attempt) {
    const wire::ShardMap map = cluster.shard_map();
    for (std::size_t var = 0; var < arity; ++var) {
      const auto end =
          wire::frame(net::encode_end_marker(static_cast<VarId>(var)));
      for (const wire::ShardMapEntry& e : map.shards)
        for (const std::uint16_t port : e.replica_ports) {
          try {
            udp.send_to(port, end);
          } catch (const std::system_error&) {
          }
        }
      if (AlertService* merge = cluster.merge())
        for (const std::uint16_t port : merge->replica_ports()) {
          try {
            udp.send_to(port, end);
          } catch (const std::system_error&) {
          }
        }
    }
    if (cluster.evaluating_service().await_dm_ends(arity, 100ms)) return;
  }
  FAIL() << "END markers never acknowledged";
}

void expect_clean_oracle(const swarm::RunPlan& plan,
                         const std::vector<Update>& sent,
                         ShardedCluster& cluster, std::size_t kills = 0) {
  const swarm::ServiceRunCheck oracle = swarm::check_service_run(
      plan, sent, cluster.journals(), cluster.displayed(),
      cluster.provenance(), kills, cluster.displayer_epochs());
  for (const std::string& v : oracle.violations) ADD_FAILURE() << v;
}

// The acceptance-criterion scenario: a degree-2 condition spanning
// shards, AD-5 on the merge tier, and a reshard in the middle of the
// stream. The oracle checks the AD-5 table row (orderedness +
// consistency per displayer epoch) over journals that span the move.
TEST(ShardedCluster, CrossShardAd5SurvivesAMidRunReshard) {
  swarm::RunPlan plan;
  plan.choice = {swarm::ConditionKind::kAbsDiff, 30.0,
                 exp::Scenario::kLossyNonHistorical};
  plan.filter = FilterKind::kAd5;
  for (SeqNo s = 1; s <= 30; ++s) {
    // |x - y| = 60 > 30 on every pair: alerts keep flowing on both
    // sides of the reshard.
    plan.feed.push_back(Update{0, s, 80.0});
    plan.feed.push_back(Update{1, s, 20.0});
  }

  ShardClusterConfig cfg;
  cfg.condition =
      swarm::build_condition(plan.choice.kind, plan.choice.param);
  cfg.filter = plan.filter;
  cfg.num_shards = 3;
  cfg.replicas_per_shard = 2;
  cfg.data_dir = fresh_dir("cross_ad5");
  cfg.checkpoint_every = 4;
  cfg.record_journal = true;
  cfg.poll_interval = 5ms;
  ShardedCluster cluster{std::move(cfg)};
  ASSERT_TRUE(cluster.cross_shard());
  ASSERT_NE(cluster.merge(), nullptr);

  net::UdpSocket udp;
  const std::size_t half = plan.feed.size() / 2;
  for (std::size_t i = 0; i < half; ++i)
    send_routed(udp, cluster, plan.feed[i]);
  ASSERT_TRUE(cluster.await_idle(60ms, 5s));
  const std::size_t displayed_before = cluster.displayed().size();
  EXPECT_GT(displayed_before, 0u);

  const std::uint64_t epoch_before = cluster.epoch();
  cluster.add_shard(3);  // mid-run reshard with updates in flight
  EXPECT_GT(cluster.epoch(), epoch_before);

  for (std::size_t i = half; i < plan.feed.size(); ++i)
    send_routed(udp, cluster, plan.feed[i]);
  deliver_ends(udp, cluster, 2);
  ASSERT_TRUE(cluster.await_idle(60ms, 5s));
  cluster.drain();

  // Alerts on both sides of the move, one merge-tier displayer epoch.
  EXPECT_GT(cluster.displayed().size(), displayed_before);
  expect_clean_oracle(plan, plan.feed, cluster);
}

// AD-6's cross-alert guarantee (orderedness AND consistency) through the
// merge tier, with a shard REMOVAL instead of an addition.
TEST(ShardedCluster, CrossShardAd6SurvivesShardRemoval) {
  swarm::RunPlan plan;
  plan.choice = {swarm::ConditionKind::kAbsDiff, 30.0,
                 exp::Scenario::kLossyNonHistorical};
  plan.filter = FilterKind::kAd6;
  for (SeqNo s = 1; s <= 24; ++s) {
    plan.feed.push_back(Update{0, s, 90.0});
    plan.feed.push_back(Update{1, s, 10.0});
  }

  ShardClusterConfig cfg;
  cfg.condition =
      swarm::build_condition(plan.choice.kind, plan.choice.param);
  cfg.filter = plan.filter;
  cfg.num_shards = 3;
  cfg.replicas_per_shard = 1;
  cfg.data_dir = fresh_dir("cross_ad6");
  cfg.record_journal = true;
  cfg.poll_interval = 5ms;
  ShardedCluster cluster{std::move(cfg)};
  ASSERT_TRUE(cluster.cross_shard());

  net::UdpSocket udp;
  const std::size_t half = plan.feed.size() / 2;
  for (std::size_t i = 0; i < half; ++i)
    send_routed(udp, cluster, plan.feed[i]);
  ASSERT_TRUE(cluster.await_idle(60ms, 5s));

  // Remove whichever shard owns variable 0: its durable state hands off.
  cluster.remove_shard(cluster.owner(0));

  for (std::size_t i = half; i < plan.feed.size(); ++i)
    send_routed(udp, cluster, plan.feed[i]);
  deliver_ends(udp, cluster, 2);
  ASSERT_TRUE(cluster.await_idle(60ms, 5s));
  cluster.drain();

  EXPECT_GT(cluster.displayed().size(), 0u);
  expect_clean_oracle(plan, plan.feed, cluster);
}

// A single-variable condition has no merge tier: the owning shard IS the
// displayer. Moving ownership retires one displayer incarnation and
// starts another — displayer_epochs() must partition the displayed
// stream accordingly, and the oracle checks each epoch separately.
TEST(ShardedCluster, SingleVariableOwnershipMoveSplitsDisplayerEpochs) {
  swarm::RunPlan plan;
  plan.choice = {swarm::ConditionKind::kThreshold, 60.0,
                 exp::Scenario::kLossyNonHistorical};
  plan.filter = FilterKind::kAd1;
  for (SeqNo s = 1; s <= 40; ++s)
    plan.feed.push_back(Update{0, s, s % 2 == 1 ? 80.0 : 20.0});

  ShardClusterConfig cfg;
  cfg.condition =
      swarm::build_condition(plan.choice.kind, plan.choice.param);
  cfg.filter = plan.filter;
  cfg.num_shards = 2;
  cfg.replicas_per_shard = 2;
  cfg.data_dir = fresh_dir("single_move");
  cfg.record_journal = true;
  cfg.poll_interval = 5ms;
  ShardedCluster cluster{std::move(cfg)};
  ASSERT_FALSE(cluster.cross_shard());
  ASSERT_EQ(cluster.merge(), nullptr);

  net::UdpSocket udp;
  for (std::size_t i = 0; i < 20; ++i)
    send_routed(udp, cluster, plan.feed[i]);
  ASSERT_TRUE(cluster.await_idle(60ms, 5s));
  const std::size_t displayed_before = cluster.displayed().size();
  EXPECT_GT(displayed_before, 0u);

  const std::uint32_t old_owner = cluster.owner(0);
  cluster.remove_shard(old_owner);  // forces the ownership move
  EXPECT_NE(cluster.owner(0), old_owner);

  for (std::size_t i = 20; i < plan.feed.size(); ++i)
    send_routed(udp, cluster, plan.feed[i]);
  deliver_ends(udp, cluster, 1);
  ASSERT_TRUE(cluster.await_idle(60ms, 5s));
  cluster.drain();

  const std::vector<std::size_t> epochs = cluster.displayer_epochs();
  ASSERT_EQ(epochs.size(), 2u);
  EXPECT_EQ(epochs[0], displayed_before);
  EXPECT_GT(epochs[1], 0u) << "no alerts after the ownership move";
  EXPECT_EQ(epochs[0] + epochs[1], cluster.displayed().size());
  expect_clean_oracle(plan, plan.feed, cluster);
}

// Handoff exactness for a historical (degree-2, conservative) condition:
// the alert that needs the pre-move history fires at the NEW owner, and
// a stale replay of an already-accepted seqno is discarded by the
// restored watermark.
TEST(ShardedCluster, HandoffRestoresHistoricalStateExactly) {
  swarm::RunPlan plan;
  plan.choice = {swarm::ConditionKind::kRiseConservative, 20.0,
                 exp::Scenario::kLossyConservative};
  plan.filter = FilterKind::kAd1;
  // A slow climb: no rise exceeds 20 until seqno 5 arrives post-move.
  plan.feed = {Update{0, 1, 10.0}, Update{0, 2, 12.0}, Update{0, 3, 14.0},
               Update{0, 4, 16.0}, Update{0, 5, 50.0}};

  ShardClusterConfig cfg;
  cfg.condition =
      swarm::build_condition(plan.choice.kind, plan.choice.param);
  cfg.filter = plan.filter;
  cfg.num_shards = 2;
  cfg.replicas_per_shard = 1;
  cfg.data_dir = fresh_dir("handoff_exact");
  cfg.checkpoint_every = 2;  // handoff spans checkpoint AND WAL state
  cfg.record_journal = true;
  cfg.poll_interval = 5ms;
  ShardedCluster cluster{std::move(cfg)};

  net::UdpSocket udp;
  for (std::size_t i = 0; i + 1 < plan.feed.size(); ++i)
    send_routed(udp, cluster, plan.feed[i]);
  ASSERT_TRUE(cluster.await_idle(60ms, 5s));
  EXPECT_TRUE(cluster.displayed().empty());

  cluster.remove_shard(cluster.owner(0));

  // The stale replay must be discarded by the handed-off watermark…
  send_routed(udp, cluster, Update{0, 3, 99.0});
  // …and the rise (4: 16.0) → (5: 50.0) must alert, which requires the
  // new owner to hold the seqno-4 history entry it never ingested live.
  send_routed(udp, cluster, plan.feed.back());
  deliver_ends(udp, cluster, 1);
  ASSERT_TRUE(cluster.await_idle(60ms, 5s));
  cluster.drain();

  ASSERT_EQ(cluster.displayed().size(), 1u);
  expect_clean_oracle(plan, plan.feed, cluster);
}

// The admin `shardmap` command serves the same versioned bytes the
// cluster derives its own routing from, and re-serves the new layout
// (bumped epoch) after a reshard.
TEST(ShardedCluster, AdminShardMapMatchesTheClusterLayout) {
  ShardClusterConfig cfg;
  cfg.condition =
      swarm::build_condition(swarm::ConditionKind::kAbsDiff, 30.0);
  cfg.num_shards = 2;
  cfg.data_dir = fresh_dir("admin_map");
  cfg.poll_interval = 5ms;
  ShardedCluster cluster{std::move(cfg)};

  const auto fetch_map = [&](std::uint16_t admin_port) {
    net::TcpStream conn = net::TcpStream::connect(admin_port);
    conn.write_all(wire::frame(service::encode_admin_request(
        AdminRequest{AdminCommand::kShardMap, 0})));
    wire::FrameCursor cursor;
    const auto deadline = std::chrono::steady_clock::now() + 5s;
    for (;;) {
      if (auto payload = cursor.next()) {
        const AdminResponse resp = decode_admin_response(*payload);
        EXPECT_TRUE(resp.ok);
        EXPECT_TRUE(resp.body.has_value());
        return wire::decode_shard_map(std::span{
            reinterpret_cast<const std::uint8_t*>(resp.body->data()),
            resp.body->size()});
      }
      if (std::chrono::steady_clock::now() > deadline)
        throw std::runtime_error("admin response timed out");
      const auto chunk = conn.read_some(1s);
      if (chunk) cursor.feed(*chunk);
    }
  };

  const std::uint16_t admin0 = cluster.shard(0).admin_port();
  EXPECT_EQ(fetch_map(admin0), cluster.shard_map());

  cluster.add_shard(2);
  const wire::ShardMap after = fetch_map(cluster.shard(2).admin_port());
  EXPECT_EQ(after, cluster.shard_map());
  EXPECT_EQ(after.shards.size(), 3u);
  EXPECT_GT(after.epoch, 1u);

  // The status extension names each instance's shard identity.
  const ServiceStatus s0 = cluster.shard(0).status();
  ASSERT_TRUE(s0.shard.has_value());
  EXPECT_EQ(s0.shard->shard_id, 0u);
  ASSERT_NE(cluster.merge(), nullptr);
  const ServiceStatus sm = cluster.merge()->status();
  ASSERT_TRUE(sm.shard.has_value());
  EXPECT_EQ(sm.shard->shard_id, kMergeShardId);
  cluster.drain();
}

// A drain request landing on ANY instance's admin port drains the whole
// cluster — this is what `rcm_service --shards N` polls for.
TEST(ShardedCluster, DrainRequestOnOneShardDrainsTheCluster) {
  ShardClusterConfig cfg;
  cfg.condition =
      swarm::build_condition(swarm::ConditionKind::kThreshold, 60.0);
  cfg.num_shards = 2;
  cfg.data_dir = fresh_dir("drain_req");
  cfg.poll_interval = 5ms;
  ShardedCluster cluster{std::move(cfg)};
  EXPECT_FALSE(cluster.drain_requested());

  net::TcpStream conn =
      net::TcpStream::connect(cluster.shard(1).admin_port());
  conn.write_all(wire::frame(service::encode_admin_request(
      AdminRequest{AdminCommand::kDrain, 0})));
  const auto deadline = std::chrono::steady_clock::now() + 5s;
  while (!cluster.drain_requested() &&
         std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(10ms);
  EXPECT_TRUE(cluster.drain_requested());
  cluster.drain();
}

}  // namespace
}  // namespace rcm::service
