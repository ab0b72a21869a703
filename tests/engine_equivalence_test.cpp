// The two lifetime engines must be interchangeable wherever the incremental
// one is eligible: bit-identical TrialResults, bit-identical traces, and
// identical per-interval gateway bitsets — across every rule set, multiple
// mobility models and seeds, including quantized-level boundary crossings.

#include "sim/engine.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <tuple>

#include "energy/battery.hpp"
#include "net/topology.hpp"
#include "net/udg.hpp"
#include "sim/lifetime.hpp"

namespace pacds {
namespace {

SimConfig base_config() {
  SimConfig config;
  config.n_hosts = 40;
  config.cds_options.strategy = Strategy::kSimultaneous;
  config.initial_energy = 60.0;  // keeps trials short
  return config;
}

void expect_identical(const TrialResult& full, const TrialResult& inc) {
  EXPECT_EQ(full.intervals, inc.intervals);
  EXPECT_EQ(full.avg_gateways, inc.avg_gateways);  // exact, not approximate
  EXPECT_EQ(full.avg_marked, inc.avg_marked);
  EXPECT_EQ(full.hit_cap, inc.hit_cap);
  EXPECT_EQ(full.initial_connected, inc.initial_connected);
  EXPECT_EQ(full.placement_attempts, inc.placement_attempts);
}

void expect_identical(const SimTrace& full, const SimTrace& inc) {
  ASSERT_EQ(full.records.size(), inc.records.size());
  for (std::size_t i = 0; i < full.records.size(); ++i) {
    const IntervalRecord& a = full.records[i];
    const IntervalRecord& b = inc.records[i];
    EXPECT_EQ(a.interval, b.interval) << "record " << i;
    EXPECT_EQ(a.marked, b.marked) << "record " << i;
    EXPECT_EQ(a.gateways, b.gateways) << "record " << i;
    EXPECT_EQ(a.alive, b.alive) << "record " << i;
    EXPECT_EQ(a.min_energy, b.min_energy) << "record " << i;
    EXPECT_EQ(a.mean_energy, b.mean_energy) << "record " << i;
    EXPECT_EQ(a.max_energy, b.max_energy) << "record " << i;
  }
}

void expect_engines_agree(SimConfig config, std::uint64_t seed) {
  SimTrace full_trace;
  SimTrace inc_trace;
  config.engine = SimEngine::kFullRebuild;
  const TrialResult full = run_lifetime_trial(config, seed, &full_trace);
  config.engine = SimEngine::kIncremental;
  const TrialResult inc = run_lifetime_trial(config, seed, &inc_trace);
  expect_identical(full, inc);
  expect_identical(full_trace, inc_trace);
}

// ---- Whole-trial equivalence ----------------------------------------------

class EngineEquivalenceTest
    : public ::testing::TestWithParam<
          std::tuple<RuleSet, MobilityKind, std::uint64_t>> {};

TEST_P(EngineEquivalenceTest, TrialAndTraceBitIdentical) {
  const auto [rs, mobility, seed] = GetParam();
  SimConfig config = base_config();
  config.rule_set = rs;
  config.mobility_kind = mobility;
  expect_engines_agree(config, seed);
}

INSTANTIATE_TEST_SUITE_P(
    SchemesMobilitiesSeeds, EngineEquivalenceTest,
    ::testing::Combine(::testing::Values(RuleSet::kNR, RuleSet::kID,
                                         RuleSet::kND, RuleSet::kEL1,
                                         RuleSet::kEL2, RuleSet::kSEL),
                       ::testing::Values(MobilityKind::kPaperJump,
                                         MobilityKind::kRandomWaypoint),
                       ::testing::Values(7u, 4242u)),
    [](const ::testing::TestParamInfo<EngineEquivalenceTest::ParamType>&
           param_info) {
      std::string name = to_string(std::get<0>(param_info.param)) + "_" +
                         to_string(std::get<1>(param_info.param)) + "_seed" +
                         std::to_string(std::get<2>(param_info.param));
      for (char& c : name) {
        if (c == '-') c = '_';  // gtest names must be alphanumeric
      }
      return name;
    });

TEST(EngineEquivalenceTest, QuantizedBoundaryCrossings) {
  // quantum = 7 with integer drains: levels cross bucket boundaries at
  // staggered, non-trivial intervals, exercising the key-diff (X) path hard.
  SimConfig config = base_config();
  config.rule_set = RuleSet::kEL2;
  config.energy_key_quantum = 7.0;
  config.initial_energy = 100.0;
  expect_engines_agree(config, 99u);
}

TEST(EngineEquivalenceTest, UnquantizedKeys) {
  // quantum = 0: raw battery readings as keys — every alive node's key
  // changes every interval (worst case for the incremental engine, which
  // must then degrade gracefully to near-global regions, not diverge).
  SimConfig config = base_config();
  config.rule_set = RuleSet::kEL1;
  config.n_hosts = 25;
  config.energy_key_quantum = 0.0;
  expect_engines_agree(config, 5u);
}

TEST(EngineEquivalenceTest, CliquePolicyConfigs) {
  SimConfig config = base_config();
  config.rule_set = RuleSet::kND;
  config.cds_options.clique_policy = CliquePolicy::kElectMaxKey;
  expect_engines_agree(config, 11u);
}

TEST(EngineEquivalenceTest, ConstantTotalDrainModel) {
  // Model 1 (d = 2/|G'|): gateways drain slowly, non-gateways cross
  // quantization buckets in lockstep — the steady-state regime the
  // incremental engine is built for.
  SimConfig config = base_config();
  config.rule_set = RuleSet::kEL2;
  config.drain_model = DrainModel::kConstantTotal;
  config.energy_key_quantum = 10.0;
  config.initial_energy = 80.0;
  expect_engines_agree(config, 3u);
}

// ---- Scenario pack: radios, 3-D fields, stability keys ---------------------

TEST(EngineEquivalenceTest, ShadowingRadioConfigs) {
  // Per-pair fades make the link set a proper subset of the unit disk; the
  // incremental engine must apply the identical veto inside its delta
  // extraction.
  SimConfig config = base_config();
  config.rule_set = RuleSet::kEL2;
  config.radio = RadioKind::kShadowing;
  config.radio_params.sigma_db = 4.0;
  config.radio_params.fading_seed = 99;
  config.connect_retries = 5;  // faded graphs may simply stay disconnected
  expect_engines_agree(config, 17u);
}

TEST(EngineEquivalenceTest, ProbabilisticRadioConfigs) {
  SimConfig config = base_config();
  config.rule_set = RuleSet::kND;
  config.radio = RadioKind::kProbabilistic;
  config.radio_params.link_prob = 0.8;
  config.radio_params.fading_seed = 7;
  config.connect_retries = 5;
  expect_engines_agree(config, 23u);
}

TEST(EngineEquivalenceTest, ThreeDFieldConfigs) {
  SimConfig config = base_config();
  config.rule_set = RuleSet::kEL1;
  config.field_depth = 50.0;
  config.radius = 35.0;  // keep the sparser 3-D placement connectable
  config.connect_retries = 20;
  expect_engines_agree(config, 31u);
}

TEST(EngineEquivalenceTest, StabilityKeyWithThreeDShadowing) {
  // The full stack at once: SEL stability tracking (commit cadence and churn
  // counts must match between row-diff and delta-endpoint accounting), a 3-D
  // field, and a faded radio.
  SimConfig config = base_config();
  config.rule_set = RuleSet::kSEL;
  config.field_depth = 40.0;
  config.radius = 35.0;
  config.radio = RadioKind::kShadowing;
  config.radio_params.sigma_db = 3.0;
  config.radio_params.fading_seed = 5;
  config.stability_beta = 0.5;
  config.stability_quantum = 0.5;
  config.connect_retries = 5;
  expect_engines_agree(config, 41u);
}

TEST(EngineEquivalenceTest, StabilityQuantumVariants) {
  for (const double quantum : {0.0, 2.0}) {
    SimConfig config = base_config();
    config.rule_set = RuleSet::kSEL;
    config.stability_quantum = quantum;
    expect_engines_agree(config, 43u);
  }
}

// ---- Per-interval gateway sets (direct engine drive) -----------------------

TEST(EngineEquivalenceTest, PerIntervalGatewaySetsMatch) {
  SimConfig config = base_config();
  config.rule_set = RuleSet::kEL2;

  SimConfig full_cfg = config;
  full_cfg.engine = SimEngine::kFullRebuild;
  SimConfig inc_cfg = config;
  inc_cfg.engine = SimEngine::kIncremental;
  const auto full = make_lifetime_engine(full_cfg);
  const auto inc = make_lifetime_engine(inc_cfg);
  ASSERT_EQ(full->name(), "full-rebuild");
  ASSERT_EQ(inc->name(), "incremental");

  Xoshiro256 rng(2001);
  const Field field(config.field_width, config.field_height, config.boundary);
  auto positions = random_placement(config.n_hosts, field, rng);
  BatteryBank batteries(static_cast<std::size_t>(config.n_hosts),
                        config.initial_energy);
  PaperJumpMobility mobility(config.stay_probability, config.jump_min,
                             config.jump_max);
  for (int interval = 0; interval < 25; ++interval) {
    full->update(positions, batteries.levels());
    inc->update(positions, batteries.levels());
    ASSERT_EQ(full->gateways(), inc->gateways())
        << "interval " << interval << ": full "
        << full->gateways().to_string() << " vs incremental "
        << inc->gateways().to_string();
    ASSERT_EQ(full->counts().marked, inc->counts().marked);
    ASSERT_EQ(full->counts().gateways, inc->counts().gateways);
    // Drain so keys move, then roam.
    for (std::size_t host = 0; host < batteries.size(); ++host) {
      batteries.drain(host, full->gateways().test(host) ? 2.0 : 1.0);
    }
    mobility.step(positions, field, rng);
  }
}

// ---- Engine selection ------------------------------------------------------

TEST(EngineSelectionTest, AutoPicksIncrementalOnlyWhenEligible) {
  SimConfig config = base_config();
  EXPECT_TRUE(incremental_engine_eligible(config));
  EXPECT_EQ(make_lifetime_engine(config)->name(), "incremental");

  config.cds_options.strategy = Strategy::kSequential;
  EXPECT_FALSE(incremental_engine_eligible(config));
  EXPECT_EQ(make_lifetime_engine(config)->name(), "full-rebuild");
}

TEST(EngineSelectionTest, CustomKeyAndLinkModelDisqualify) {
  SimConfig config = base_config();
  config.custom_key = KeyKind::kEnergyId;
  EXPECT_FALSE(incremental_engine_eligible(config));

  config = base_config();
  config.link_model = LinkModel::kGabriel;
  EXPECT_FALSE(incremental_engine_eligible(config));
}

TEST(EngineSelectionTest, ForcedIncrementalThrowsWhenIneligible) {
  SimConfig config = base_config();
  config.engine = SimEngine::kIncremental;
  config.cds_options.strategy = Strategy::kSequential;
  EXPECT_THROW(make_lifetime_engine(config), std::invalid_argument);
  EXPECT_THROW((void)run_lifetime_trial(config, 1), std::invalid_argument);
}

TEST(EngineSelectionTest, FadingRadioWithPrunedLinksThrowsInTheEngines) {
  // A fading radio only vetoes unit-disk candidates, so it cannot compose
  // with Gabriel pruning; the rebuilding engines refuse the pair themselves.
  SimConfig config = base_config();
  config.radio = RadioKind::kShadowing;
  config.link_model = LinkModel::kGabriel;
  config.engine = SimEngine::kFullRebuild;
  EXPECT_THROW((void)make_lifetime_engine(config), std::invalid_argument);
  config.engine = SimEngine::kAuto;
  config.backbone = BackboneMode::kCds22;
  EXPECT_THROW((void)make_lifetime_engine(config), std::invalid_argument);

  config.radio = RadioKind::kUnitDisk;  // plain Gabriel links stay fine
  EXPECT_EQ(make_lifetime_engine(config)->name(), "cds22");
  config.backbone = BackboneMode::kScheme;
  config.engine = SimEngine::kFullRebuild;
  EXPECT_EQ(make_lifetime_engine(config)->name(), "full-rebuild");
}

TEST(EngineSelectionTest, ForcedFullRebuildAlwaysWorks) {
  SimConfig config = base_config();
  config.engine = SimEngine::kFullRebuild;
  const TrialResult r = run_lifetime_trial(config, 1);
  EXPECT_GT(r.intervals, 0);
}

}  // namespace
}  // namespace pacds
