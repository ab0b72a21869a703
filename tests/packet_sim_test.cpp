// Tests for the discrete-event packet simulator.

#include "des/packet_sim.hpp"

#include <gtest/gtest.h>

#include <cstddef>
#include <stdexcept>

#include "sim/faults.hpp"
#include "sim/trace.hpp"

namespace pacds::des {
namespace {

PacketSimConfig small_config() {
  PacketSimConfig config;
  config.world.n_hosts = 25;
  config.sim_time = 120.0;
  return config;
}

TEST(PacketSimTest, Deterministic) {
  const PacketSimResult a = run_packet_sim(small_config(), 11);
  const PacketSimResult b = run_packet_sim(small_config(), 11);
  EXPECT_EQ(a.injected, b.injected);
  EXPECT_EQ(a.delivered, b.delivered);
  EXPECT_DOUBLE_EQ(a.latency.mean, b.latency.mean);
  EXPECT_DOUBLE_EQ(a.max_queue, b.max_queue);
}

TEST(PacketSimTest, AccountingBalances) {
  const PacketSimResult r = run_packet_sim(small_config(), 12);
  EXPECT_EQ(r.injected, r.delivered + r.drops.total());
  EXPECT_GT(r.injected, 0u);
  EXPECT_GT(r.delivered, 0u);
}

TEST(PacketSimTest, DeliversMostTrafficAtLowLoad) {
  PacketSimConfig config = small_config();
  config.injection_gap = 4.0;  // very light load
  const PacketSimResult r = run_packet_sim(config, 13);
  EXPECT_GT(r.delivery_ratio(), 0.7);
  EXPECT_GE(r.latency.mean, config.tx_time);  // at least one hop of service
  EXPECT_GE(r.hops.mean, 1.0);
}

TEST(PacketSimTest, LatencyGrowsWithLoad) {
  PacketSimConfig light = small_config();
  light.injection_gap = 4.0;
  PacketSimConfig heavy = small_config();
  heavy.injection_gap = 0.2;
  const PacketSimResult a = run_packet_sim(light, 14);
  const PacketSimResult b = run_packet_sim(heavy, 14);
  EXPECT_GT(b.latency.mean, a.latency.mean);
  EXPECT_GE(b.max_queue, a.max_queue);
}

TEST(PacketSimTest, TinyQueuesDropMore) {
  PacketSimConfig roomy = small_config();
  roomy.injection_gap = 0.2;
  roomy.queue_capacity = 64;
  PacketSimConfig cramped = roomy;
  cramped.queue_capacity = 1;
  const PacketSimResult a = run_packet_sim(roomy, 15);
  const PacketSimResult b = run_packet_sim(cramped, 15);
  EXPECT_GT(b.drops.queue_full, a.drops.queue_full);
}

TEST(PacketSimTest, FrozenNetworkNeverBreaksRoutes) {
  PacketSimConfig config = small_config();
  config.world.stay_probability = 1.0;  // nobody moves
  const PacketSimResult r = run_packet_sim(config, 16);
  EXPECT_EQ(r.drops.route_break, 0u);
  EXPECT_EQ(r.drops.no_route, 0u);  // started connected, stays connected
}

TEST(PacketSimTest, MobilityCausesBreakage) {
  PacketSimConfig config = small_config();
  config.sim_time = 300.0;
  config.update_interval = 10.0;
  const PacketSimResult r = run_packet_sim(config, 17);
  // Some breakage or routing failure is expected over 30 refreshes.
  EXPECT_GT(r.drops.route_break + r.drops.no_route, 0u);
}

TEST(PacketSimTest, AllSchemesRun) {
  for (const RuleSet rs : kAllRuleSets) {
    PacketSimConfig config = small_config();
    config.sim_time = 60.0;
    config.world.rule_set = rs;
    const PacketSimResult r = run_packet_sim(config, 18);
    EXPECT_GT(r.delivered, 0u) << to_string(rs);
    EXPECT_GT(r.avg_gateways, 0.0) << to_string(rs);
  }
}

TEST(PacketSimTest, BadConfigThrows) {
  PacketSimConfig config = small_config();
  config.world.n_hosts = 1;
  EXPECT_THROW((void)run_packet_sim(config, 1), std::invalid_argument);
  config = small_config();
  config.injection_gap = 0.0;
  EXPECT_THROW((void)run_packet_sim(config, 1), std::invalid_argument);
  config = small_config();
  config.sim_time = -1.0;
  EXPECT_THROW((void)run_packet_sim(config, 1), std::invalid_argument);
}

TEST(PacketSimTest, LossyRadioDropsAndRetransmits) {
  PacketSimConfig reliable = small_config();
  PacketSimConfig lossy = small_config();
  lossy.loss_probability = 0.3;
  lossy.max_retries = 1;
  const PacketSimResult a = run_packet_sim(reliable, 21);
  const PacketSimResult b = run_packet_sim(lossy, 21);
  EXPECT_EQ(a.drops.loss, 0u);
  EXPECT_GT(b.drops.loss, 0u);
  EXPECT_LT(b.delivery_ratio(), a.delivery_ratio());
  EXPECT_EQ(b.injected, b.delivered + b.drops.total());
}

TEST(PacketSimTest, RetriesRecoverFromModerateLoss) {
  PacketSimConfig fragile = small_config();
  fragile.loss_probability = 0.2;
  fragile.max_retries = 0;
  PacketSimConfig persistent = fragile;
  persistent.max_retries = 6;
  const PacketSimResult a = run_packet_sim(fragile, 22);
  const PacketSimResult b = run_packet_sim(persistent, 22);
  EXPECT_GT(b.delivery_ratio(), a.delivery_ratio());
  EXPECT_LT(b.drops.loss, a.drops.loss);
}

TEST(PacketSimTest, TtlCapsPathLength) {
  PacketSimConfig config = small_config();
  config.max_hops = 1;  // nothing beyond one hop survives
  const PacketSimResult r = run_packet_sim(config, 19);
  EXPECT_GT(r.drops.ttl, 0u);
  // Delivered packets are exactly the single-hop ones.
  if (r.delivered > 0) {
    EXPECT_DOUBLE_EQ(r.hops.max, 1.0);
  }
}

// ---- faults through the world's LifetimeRun --------------------------------

TEST(PacketSimFaultTest, CrashPlanDropsAsCrashedAndBalances) {
  FaultPlan plan;
  for (int node = 0; node < 5; ++node) {
    plan.crashes.push_back({node, /*at=*/2, /*recover_at=*/4});
  }
  PacketSimConfig config = small_config();
  config.faults = &plan;
  const PacketSimResult r = run_packet_sim(config, 31);
  EXPECT_GT(r.drops.crashed, 0u);
  EXPECT_EQ(r.injected, r.delivered + r.drops.total());
  EXPECT_EQ(r.fault_events, 10u);  // five crashes, five recoveries

  // The plan consumes no randomness: the fault-free twin injects the same
  // packets and loses none to crashes.
  PacketSimConfig bare = small_config();
  const PacketSimResult twin = run_packet_sim(bare, 31);
  EXPECT_EQ(twin.injected, r.injected);
  EXPECT_EQ(twin.drops.crashed, 0u);
  EXPECT_EQ(twin.fault_events, 0u);
}

TEST(PacketSimFaultTest, DownHostsQueuesArePurged) {
  // Heavy load builds queues, then a blackout over the whole field takes
  // every host down at the second world step (t = update_interval). With
  // nobody left to serve or receive, nothing may still sit in a queue at
  // the end: every packet held at the crash was purged as `crashed`.
  FaultPlan plan;
  plan.blackouts.push_back({0.0, 0.0, 100.0, 100.0, /*at=*/2, /*until=*/0});
  PacketSimConfig config = small_config();
  config.injection_gap = 0.1;
  config.faults = &plan;
  const PacketSimResult r = run_packet_sim(config, 32);
  EXPECT_EQ(r.drops.in_flight, 0u);
  EXPECT_EQ(r.injected, r.delivered + r.drops.total());

  // Injections at or after the blackout count as crashed on their own; the
  // purge adds the packets that were queued or in service at t = 20.
  std::size_t before_blackout = 0;
  for (double t = 0.0; t <= config.update_interval; t += config.injection_gap) {
    ++before_blackout;
  }
  EXPECT_GT(r.drops.crashed, r.injected - before_blackout);
}

TEST(PacketSimFaultTest, TheftOfTheWholeBatteryKillsItsHost) {
  // The world's batteries never drain, so a theft kills exactly when it
  // takes all of initial_energy (100): the host then goes down for good.
  const auto run_with_theft = [](double amount, SimTrace& trace) {
    FaultPlan plan;
    plan.thefts.push_back({/*node=*/0, /*at=*/2, amount});
    PacketSimConfig config = small_config();
    config.faults = &plan;
    return run_packet_sim(config, 33, &trace);
  };
  const auto deaths = [](const SimTrace& trace) {
    std::size_t count = 0;
    for (const FaultRecord& record : trace.fault_records) {
      if (record.kind == FaultKind::kDeath && record.node == 0) ++count;
    }
    return count;
  };

  SimTrace killed;
  const PacketSimResult a = run_with_theft(100.0, killed);
  EXPECT_EQ(deaths(killed), 1u);
  EXPECT_GT(a.drops.crashed, 0u);  // host 0 neither sources nor sinks
  EXPECT_EQ(a.injected, a.delivered + a.drops.total());

  SimTrace survived;
  const PacketSimResult b = run_with_theft(99.0, survived);
  EXPECT_EQ(deaths(survived), 0u);
  EXPECT_EQ(b.drops.crashed, 0u);
  EXPECT_EQ(b.fault_events, 1u);
}

}  // namespace
}  // namespace pacds::des
