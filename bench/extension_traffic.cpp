// Extension experiment: lifetime under REAL forwarding load instead of the
// paper's abstract d-models. Random flows are routed through the backbone
// every interval; hosts pay per packet sent/forwarded/received, gateways
// additionally pay table upkeep. Reports time-to-first-death, delivery
// ratio and the battery spread at death (balance quality) per scheme, with
// and without host on/off churn.

#include <iostream>

#include "io/table.hpp"
#include "net/rng.hpp"
#include "sim/stats.hpp"
#include "sim/experiment.hpp"
#include "sim/traffic_sim.hpp"

namespace {

using namespace pacds;

void run_block(const char* label, const FaultPlan& plan,
               std::size_t trials) {
  std::cout << label << "\n";
  for (const int n : {30, 60}) {
    TextTable table(
        {"scheme", "lifetime", "delivery%", "spread@death", "avg |G'|"});
    table.set_align(0, Align::kLeft);
    for (const RuleSet rs : kAllRuleSets) {
      Welford life, delivery, spread, gateways;
      for (std::size_t trial = 0; trial < trials; ++trial) {
        TrafficSimConfig config;
        config.world.n_hosts = n;
        config.world.initial_energy = 200.0;
        config.world.rule_set = rs;
        const TrafficSimResult r = run_traffic_trial(
            config,
            derive_seed(0x7af1c, trial * 613 + static_cast<std::uint64_t>(n)),
            nullptr, &plan);
        life.add(static_cast<double>(r.trial.intervals));
        delivery.add(100.0 * r.delivery_ratio);
        spread.add(r.energy_stddev_at_death);
        gateways.add(r.trial.avg_gateways);
      }
      table.add_row({to_string(rs), TextTable::fmt(life.mean()),
                     TextTable::fmt(delivery.mean(), 1),
                     TextTable::fmt(spread.mean(), 1),
                     TextTable::fmt(gateways.mean(), 1)});
    }
    std::cout << "n = " << n << " hosts\n";
    table.print(std::cout);
    std::cout << "\n";
  }
}

}  // namespace

int main() {
  const std::size_t trials = env_size_t("PACDS_TRIALS", 25);
  std::cout << "== Extension: traffic-driven lifetime ==\n"
            << "20 flows/interval, tx=1 rx=0.5 idle=0.05 beacon=0.2, "
               "EL0=200; "
            << trials << " trials per point\n\n";
  FaultPlan churn;
  run_block("--- no churn ---", churn, trials);
  churn.churn = {0.1, 0.25};
  run_block("--- with churn (hosts switch off w.p. 0.1, back on w.p. 0.25) ---",
            churn, trials);
  return 0;
}
