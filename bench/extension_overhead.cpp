// Extension experiment: the paper's locality claim measured in protocol
// messages. Per update interval we count how many hosts must re-broadcast
// their neighbor list (adjacency changed) and how many must announce a
// gateway-status flip, and compare against a naive protocol that re-floods
// everything (2n messages/interval). Swept over mobility intensity and
// model.

#include <iostream>

#include "io/table.hpp"
#include "net/rng.hpp"
#include "sim/experiment.hpp"
#include "sim/overhead.hpp"
#include "sim/stats.hpp"

int main() {
  using namespace pacds;
  const std::size_t trials = env_size_t("PACDS_TRIALS", 20);
  std::cout << "== Extension: maintenance overhead (messages/interval) ==\n"
            << "localized protocol vs full re-flood baseline (2n msgs); "
            << trials << " runs of 50 intervals each, n = 50\n\n";

  std::cout << "(a) sweep over the paper model's stay probability c:\n";
  TextTable by_c({"c", "neighbor msgs", "status msgs", "localized/interval",
                  "vs global", "saving%"});
  for (const double c : {0.0, 0.25, 0.5, 0.75, 0.9, 1.0}) {
    Welford nbr, status, ratio;
    for (std::size_t trial = 0; trial < trials; ++trial) {
      OverheadConfig config;
      config.world.stay_probability = c;
      const MaintenanceOverhead r = measure_maintenance_overhead(
          config, derive_seed(0x0fead, trial));
      nbr.add(static_cast<double>(r.neighbor_msgs) /
              static_cast<double>(r.intervals));
      status.add(static_cast<double>(r.status_msgs) /
                 static_cast<double>(r.intervals));
      ratio.add(r.ratio());
    }
    by_c.add_row({TextTable::fmt(c, 2), TextTable::fmt(nbr.mean(), 1),
                  TextTable::fmt(status.mean(), 1),
                  TextTable::fmt(nbr.mean() + status.mean(), 1), "100.0",
                  TextTable::fmt(100.0 * (1.0 - ratio.mean()), 1)});
  }
  by_c.print(std::cout);

  std::cout << "\n(b) sweep over mobility models (default parameters):\n";
  TextTable by_model({"mobility", "localized/interval", "saving%"});
  by_model.set_align(0, Align::kLeft);
  for (const MobilityKind kind :
       {MobilityKind::kStatic, MobilityKind::kPaperJump,
        MobilityKind::kRandomWalk, MobilityKind::kRandomWaypoint,
        MobilityKind::kGaussMarkov}) {
    Welford per_interval, ratio;
    for (std::size_t trial = 0; trial < trials; ++trial) {
      OverheadConfig config;
      config.world.mobility_kind = kind;
      const MaintenanceOverhead r = measure_maintenance_overhead(
          config, derive_seed(0x0feae, trial));
      per_interval.add(static_cast<double>(r.localized_total()) /
                       static_cast<double>(r.intervals));
      ratio.add(r.ratio());
    }
    by_model.add_row({to_string(kind), TextTable::fmt(per_interval.mean(), 1),
                      TextTable::fmt(100.0 * (1.0 - ratio.mean()), 1)});
  }
  by_model.print(std::cout);
  return 0;
}
