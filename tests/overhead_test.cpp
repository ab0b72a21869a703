// Tests for the maintenance-overhead model.

#include "sim/overhead.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

namespace pacds {
namespace {

OverheadConfig base_config() {
  OverheadConfig config;
  config.world.n_hosts = 30;
  config.intervals = 20;
  return config;
}

TEST(OverheadTest, Deterministic) {
  const MaintenanceOverhead a = measure_maintenance_overhead(base_config(), 4);
  const MaintenanceOverhead b = measure_maintenance_overhead(base_config(), 4);
  EXPECT_EQ(a.neighbor_msgs, b.neighbor_msgs);
  EXPECT_EQ(a.status_msgs, b.status_msgs);
}

TEST(OverheadTest, GlobalBaselineIsTwoNPerInterval) {
  const MaintenanceOverhead r = measure_maintenance_overhead(base_config(), 5);
  EXPECT_EQ(r.global_msgs, 2u * 30u * 20u);
  EXPECT_EQ(r.setup_msgs, 60u);
  EXPECT_EQ(r.intervals, 20u);
}

TEST(OverheadTest, StaticHostsSendNothingAfterSetup) {
  OverheadConfig config = base_config();
  config.world.mobility_kind = MobilityKind::kStatic;
  const MaintenanceOverhead r = measure_maintenance_overhead(config, 6);
  EXPECT_EQ(r.neighbor_msgs, 0u);
  EXPECT_EQ(r.status_msgs, 0u);
  EXPECT_DOUBLE_EQ(r.ratio(), 0.0);
}

TEST(OverheadTest, LocalizedBeatsGlobalUnderPaperMobility) {
  const MaintenanceOverhead r = measure_maintenance_overhead(base_config(), 7);
  EXPECT_GT(r.localized_total(), 0u);  // hosts do move
  EXPECT_LT(r.ratio(), 1.0);           // but far fewer messages than flooding
}

TEST(OverheadTest, SlowerMobilityFewerMessages) {
  OverheadConfig config = base_config();
  config.world.stay_probability = 0.95;  // rarely move
  const MaintenanceOverhead slow = measure_maintenance_overhead(config, 8);
  config.world.stay_probability = 0.0;  // always move
  const MaintenanceOverhead fast = measure_maintenance_overhead(config, 8);
  EXPECT_LT(slow.localized_total(), fast.localized_total());
}

TEST(OverheadTest, ZeroIntervals) {
  OverheadConfig config = base_config();
  config.intervals = 0;
  const MaintenanceOverhead r = measure_maintenance_overhead(config, 9);
  EXPECT_EQ(r.intervals, 0u);
  EXPECT_EQ(r.localized_total(), 0u);
  EXPECT_EQ(r.global_msgs, 0u);
}

TEST(OverheadTest, BadConfigThrows) {
  OverheadConfig config = base_config();
  config.world.n_hosts = 0;
  EXPECT_THROW((void)measure_maintenance_overhead(config, 1),
               std::invalid_argument);
  config = base_config();
  config.intervals = -1;
  EXPECT_THROW((void)measure_maintenance_overhead(config, 1),
               std::invalid_argument);
}

TEST(OverheadTest, AllRuleSetsWork) {
  for (const RuleSet rs : kAllRuleSets) {
    OverheadConfig config = base_config();
    config.world.rule_set = rs;
    config.intervals = 5;
    const MaintenanceOverhead r = measure_maintenance_overhead(config, 10);
    EXPECT_EQ(r.intervals, 5u) << to_string(rs);
  }
}

}  // namespace
}  // namespace pacds
