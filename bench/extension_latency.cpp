// Extension experiment: the queueing cost of small backbones. The paper's
// energy models reward concentrating traffic on few gateways; the
// packet-level DES shows the other side of that coin — fewer relays mean
// deeper queues and higher end-to-end latency. Sweeps scheme x load, then
// asks whether the SEL stability key's calmer backbone breaks fewer routes.

#include <iostream>

#include "des/packet_sim.hpp"
#include "io/table.hpp"
#include "net/rng.hpp"
#include "sim/experiment.hpp"
#include "sim/lifetime.hpp"
#include "sim/stats.hpp"

int main() {
  using namespace pacds;
  const std::size_t trials = env_size_t("PACDS_TRIALS", 15);
  std::cout << "== Extension: packet-level latency/congestion (DES) ==\n"
            << "n = 40, 400 time units, refresh every 20; " << trials
            << " runs per point\n\n";

  for (const double gap : {1.0, 0.4, 0.2}) {
    TextTable table({"scheme", "avg |G'|", "delivery%", "latency", "p-max q",
                     "breaks"});
    table.set_align(0, Align::kLeft);
    for (const RuleSet rs : kAllRuleSets) {
      Welford gateways, delivery, latency, maxq, breaks;
      for (std::size_t trial = 0; trial < trials; ++trial) {
        des::PacketSimConfig config;
        config.world.rule_set = rs;
        config.injection_gap = gap;
        const des::PacketSimResult r = des::run_packet_sim(
            config, derive_seed(0xde5, trial * 97 +
                                           static_cast<std::uint64_t>(
                                               gap * 1000)));
        gateways.add(r.avg_gateways);
        delivery.add(100.0 * r.delivery_ratio());
        latency.add(r.latency.mean);
        maxq.add(r.max_queue);
        breaks.add(static_cast<double>(r.drops.route_break));
      }
      table.add_row({to_string(rs), TextTable::fmt(gateways.mean(), 1),
                     TextTable::fmt(delivery.mean(), 1),
                     TextTable::fmt(latency.mean(), 2),
                     TextTable::fmt(maxq.mean(), 1),
                     TextTable::fmt(breaks.mean(), 1)});
    }
    std::cout << "offered load: 1 packet / " << gap << " time units\n";
    table.print(std::cout);
    std::cout << "\n";
  }

  // Does a stable backbone cut route breaks? SEL keys gateway duty on
  // neighbourhood churn (DESIGN.md §14). Under Gauss-Markov mobility and a
  // shadowing radio, EL1 and SEL route the same traffic over the same
  // trajectories (paired seeds), in the default zero-drain world (EL1's
  // energy key is then uniform and falls back to its static tie-break
  // chain) and in a draining one (d = N/|G'|, Ablation F's setting, where
  // EL1 rotates by energy). Churn is the world's mean |G_t XOR G_t-1| per
  // step, read from the lifetime trial the DES's world reproduces.
  std::cout << "EL1 vs SEL: Gauss-Markov mobility, shadowing radio\n";
  TextTable sel({"load", "drain", "scheme", "avg |G'|", "churn/step",
                 "delivery%", "route_break", "no_route"});
  sel.set_align(1, Align::kLeft);
  sel.set_align(2, Align::kLeft);
  for (const double gap : {1.0, 0.4}) {
    for (const bool drain : {false, true}) {
      for (const RuleSet rs : {RuleSet::kEL1, RuleSet::kSEL}) {
        Welford gateways, churn, delivery, breaks, no_route;
        for (std::size_t trial = 0; trial < trials; ++trial) {
          des::PacketSimConfig config;
          config.world.rule_set = rs;
          config.world.mobility_kind = MobilityKind::kGaussMarkov;
          config.world.radio = RadioKind::kShadowing;
          if (drain) {
            config.world.drain_model = DrainModel::kLinearTotal;
            config.world.drain_params = DrainParams{};
          }
          config.injection_gap = gap;
          const std::uint64_t seed = derive_seed(0x5e1, trial);
          const des::PacketSimResult r = des::run_packet_sim(config, seed);
          SimConfig world = config.world;
          world.max_intervals = des::world_steps(config);
          churn.add(run_lifetime_trial(world, seed).avg_cds_churn);
          gateways.add(r.avg_gateways);
          delivery.add(100.0 * r.delivery_ratio());
          breaks.add(static_cast<double>(r.drops.route_break));
          no_route.add(static_cast<double>(r.drops.no_route));
        }
        sel.add_row({"1/" + TextTable::fmt(gap, 1),
                     drain ? "N/|G'|" : "none", to_string(rs),
                     TextTable::fmt(gateways.mean(), 1),
                     TextTable::fmt(churn.mean(), 2),
                     TextTable::fmt(delivery.mean(), 1),
                     TextTable::fmt(breaks.mean(), 1),
                     TextTable::fmt(no_route.mean(), 1)});
      }
    }
  }
  sel.print(std::cout);
  return 0;
}
