// Tests for the traffic-driven lifetime simulation.

#include "sim/traffic_sim.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>
#include <string>

#include "io/json.hpp"
#include "io/json_parse.hpp"
#include "obs/jsonl.hpp"
#include "sim/metrics_io.hpp"

namespace pacds {
namespace {

TrafficSimConfig small_config() {
  TrafficSimConfig config;
  config.world.n_hosts = 20;
  config.flows_per_interval = 10;
  config.world.initial_energy = 100.0;
  return config;
}

FaultPlan churn_plan(double off, double on) {
  FaultPlan plan;
  plan.churn = {off, on};
  return plan;
}

TEST(TrafficSimTest, Deterministic) {
  const TrafficSimConfig config = small_config();
  const TrafficSimResult a = run_traffic_trial(config, 42);
  const TrafficSimResult b = run_traffic_trial(config, 42);
  EXPECT_EQ(a.trial.intervals, b.trial.intervals);
  EXPECT_EQ(a.flows_delivered, b.flows_delivered);
  EXPECT_DOUBLE_EQ(a.energy_stddev_at_death, b.energy_stddev_at_death);
}

TEST(TrafficSimTest, TerminatesWithReasonableMetrics) {
  const TrafficSimResult r = run_traffic_trial(small_config(), 7);
  EXPECT_GT(r.trial.intervals, 0);
  EXPECT_FALSE(r.trial.hit_cap);
  EXPECT_TRUE(r.trial.initial_connected);
  EXPECT_GT(r.flows_attempted, 0u);
  EXPECT_GE(r.flows_attempted, r.flows_delivered);
  // The placement starts connected but roaming fragments it over the run
  // (~100 intervals, no connectivity maintenance), so only a loose floor
  // holds.
  EXPECT_GT(r.delivery_ratio, 0.2);
  EXPECT_LE(r.delivery_ratio, 1.0);
  EXPECT_GT(r.trial.avg_gateways, 0.0);
}

TEST(TrafficSimTest, TooFewHostsThrows) {
  TrafficSimConfig config = small_config();
  config.world.n_hosts = 1;
  EXPECT_THROW((void)run_traffic_trial(config, 1), std::invalid_argument);
  config.world.n_hosts = 20;
  config.flows_per_interval = -1;
  EXPECT_THROW((void)run_traffic_trial(config, 1), std::invalid_argument);
}

TEST(TrafficSimTest, MoreTrafficDiesFaster) {
  TrafficSimConfig config = small_config();
  config.flows_per_interval = 2;
  const TrafficSimResult light = run_traffic_trial(config, 11);
  config.flows_per_interval = 40;
  const TrafficSimResult heavy = run_traffic_trial(config, 11);
  EXPECT_LT(heavy.trial.intervals, light.trial.intervals);
}

TEST(TrafficSimTest, ZeroFlowsOnlyUpkeep) {
  TrafficSimConfig config = small_config();
  config.flows_per_interval = 0;
  config.costs.idle = 1.0;
  config.costs.beacon = 0.0;
  config.world.initial_energy = 30.0;
  const TrafficSimResult r = run_traffic_trial(config, 13);
  EXPECT_EQ(r.trial.intervals, 30);  // pure idle drain: everyone dies together
  EXPECT_EQ(r.flows_attempted, 0u);
  EXPECT_DOUBLE_EQ(r.delivery_ratio, 1.0);  // vacuous
}

TEST(TrafficSimTest, AllSchemesRun) {
  for (const RuleSet rs : kAllRuleSets) {
    TrafficSimConfig config = small_config();
    config.world.rule_set = rs;
    const TrafficSimResult r = run_traffic_trial(config, 17);
    EXPECT_GT(r.trial.intervals, 0) << to_string(rs);
  }
}

TEST(TrafficSimTest, ChurnReducesDelivery) {
  TrafficSimConfig config = small_config();
  config.world.initial_energy = 500.0;
  const TrafficSimResult stable = run_traffic_trial(config, 19);
  const FaultPlan churn = churn_plan(0.3, 0.3);
  const TrafficSimResult churny =
      run_traffic_trial(config, 19, nullptr, &churn);
  // Heavy churn fragments the topology: delivery suffers.
  EXPECT_LT(churny.delivery_ratio, stable.delivery_ratio);
}

TEST(TrafficSimTest, ChurnedRunStillEndsAtFirstDeath) {
  // A churn plan puts the world in degraded mode, which would run on past
  // deaths; the traffic workload's lifetime still ends at the first one.
  const FaultPlan churn = churn_plan(0.1, 0.25);
  const TrafficSimResult r =
      run_traffic_trial(small_config(), 29, nullptr, &churn);
  EXPECT_FALSE(r.trial.hit_cap);
  EXPECT_EQ(r.trial.faults.deaths, 1u);
  EXPECT_EQ(r.trial.faults.first_death_interval, r.trial.intervals);
  EXPECT_GT(r.trial.faults.crashes, 0u);
}

TEST(TrafficSimTest, CapStopsEternalRuns) {
  TrafficSimConfig config = small_config();
  config.costs = EnergyCosts{0.0, 0.0, 0.0, 0.0};
  config.world.max_intervals = 25;
  const TrafficSimResult r = run_traffic_trial(config, 23);
  EXPECT_TRUE(r.trial.hit_cap);
  EXPECT_EQ(r.trial.intervals, 25);
}

TEST(TrafficSimTest, EnergyAwareBalancesBetter) {
  // The energy-keyed scheme should leave a tighter battery spread at death
  // than the static ID keys (averaged over a few seeds to damp noise).
  double id_spread = 0.0;
  double el_spread = 0.0;
  for (std::uint64_t seed = 30; seed < 40; ++seed) {
    TrafficSimConfig config = small_config();
    config.world.rule_set = RuleSet::kID;
    id_spread += run_traffic_trial(config, seed).energy_stddev_at_death;
    config.world.rule_set = RuleSet::kEL1;
    el_spread += run_traffic_trial(config, seed).energy_stddev_at_death;
  }
  EXPECT_LT(el_spread, id_spread * 1.15);  // never dramatically worse
}

// ---- the drain hook and the world stream ----------------------------------

/// A run's JSONL interval/fault stream with the wall-clock `*_ns` fields
/// zeroed, so two runs compare byte for byte.
std::string strip_ns(const std::string& stream) {
  std::ostringstream out;
  std::istringstream in(stream);
  std::string line;
  while (std::getline(in, line)) {
    const JsonValue record = parse_json(line);
    JsonWriter json(out);
    json.begin_object();
    for (const auto& [key, value] : record.as_object()) {
      json.key(key);
      if (key.size() > 3 && key.compare(key.size() - 3, 3, "_ns") == 0) {
        json.value(0);
      } else {
        write_json(json, value);
      }
    }
    json.end_object();
    out << "\n";
  }
  return out.str();
}

/// Charges exactly what the built-in d-model drain would.
class DModelHook final : public DrainHook {
 public:
  explicit DModelHook(const SimConfig& config) : config_(config) {}

  void charge(const Graph& graph, const DynBitset& gateways,
              const DynBitset& /*down*/,
              std::vector<double>& amounts) override {
    const auto n = static_cast<std::size_t>(graph.num_nodes());
    const double d = gateway_drain(config_.drain_model, n, gateways.count(),
                                   config_.drain_params);
    for (std::size_t host = 0; host < n; ++host) {
      amounts[host] = gateways.test(host)
                          ? d
                          : config_.drain_params.nongateway_drain;
    }
  }

 private:
  SimConfig config_;
};

std::string lifetime_stream(const SimConfig& config, std::uint64_t seed,
                            const FaultPlan* plan, DrainHook* hook) {
  std::ostringstream out;
  {
    obs::JsonlSink sink(out);
    JsonlIntervalObserver observer(sink, config, 0);
    LifetimeRun run(config, seed, &observer, plan, hook);
    while (run.step()) {
    }
  }
  return strip_ns(out.str());
}

TEST(DrainHookTest, DModelHookMatchesBuiltInDrainByteForByte) {
  SimConfig config;
  config.n_hosts = 30;
  config.initial_energy = 40.0;
  FaultPlan faulted = churn_plan(0.05, 0.3);
  faulted.crashes = {{3, 2, 6}};
  faulted.thefts = {{7, 4, 15.0}};
  for (const FaultPlan* plan : {static_cast<const FaultPlan*>(nullptr),
                                static_cast<const FaultPlan*>(&faulted)}) {
    DModelHook hook(config);
    const std::string built_in = lifetime_stream(config, 5, plan, nullptr);
    const std::string hooked = lifetime_stream(config, 5, plan, &hook);
    EXPECT_GT(built_in.size(), 0u);
    EXPECT_EQ(hooked, built_in) << (plan != nullptr ? "faulted" : "fault-free");
    if (plan != nullptr) {
      EXPECT_NE(built_in.find("\"cause\":\"churn\""), std::string::npos);
    }
  }
}

TEST(DrainHookTest, ZeroCostTrafficWorldEqualsZeroDrainLifetime) {
  // With every cost zero the flows drain nothing, so the traffic run's world
  // stream must be the zero-drain lifetime trial's, churn included: flows
  // and churn each draw from their own stream, never from the world's.
  TrafficSimConfig config = small_config();
  config.costs = EnergyCosts{0.0, 0.0, 0.0, 0.0};
  config.world.max_intervals = 40;
  SimConfig zero = config.world;
  zero.drain_model = DrainModel::kConstantTotal;
  zero.drain_params.constant_base = 0.0;
  zero.drain_params.nongateway_drain = 0.0;
  const FaultPlan churn = churn_plan(0.1, 0.25);
  for (const FaultPlan* plan : {static_cast<const FaultPlan*>(nullptr),
                                static_cast<const FaultPlan*>(&churn)}) {
    std::ostringstream traffic;
    {
      obs::JsonlSink sink(traffic);
      JsonlIntervalObserver observer(sink, zero, 0);
      const TrafficSimResult r =
          run_traffic_trial(config, 31, &observer, plan);
      EXPECT_GT(r.flows_attempted, 0u);
      EXPECT_TRUE(r.trial.hit_cap);
    }
    std::ostringstream lifetime;
    {
      obs::JsonlSink sink(lifetime);
      JsonlIntervalObserver observer(sink, zero, 0);
      (void)run_lifetime_trial(zero, 31, &observer, plan);
    }
    EXPECT_EQ(strip_ns(traffic.str()), strip_ns(lifetime.str()))
        << (plan != nullptr ? "churn" : "no churn");
  }
}

}  // namespace
}  // namespace pacds
