// Ablation F: does the SEL key (stability, energy, id) buy backbone
// stability — and does it cost lifetime?
//
// The paper's EL keys rotate gatewayhood toward high-energy hosts; under
// mobility that rotation compounds with topology churn, so the backbone
// set can change wholesale between intervals even when the graph barely
// moved. SEL front-loads an EWMA of each host's neighborhood churn so
// flapping hosts yield gatewayhood to stable ones of equal energy.
//
// Two tables, all columns size-matched (same rules/strategy, only the key
// differs):
//
//   1. churn under mobility — per-interval |G'_t XOR G'_{t-1}| averaged
//      over the run, plus lifetime and |G'|, under Gauss-Markov motion
//      (correlated headings: the regime where churn memory has signal).
//   2. fault repair — a crash/recover schedule in degraded mode; repairs,
//      mean repair latency and backbone-disconnected intervals per scheme.
//
// Expectation: SEL's churn column sits clearly below EL1/EL2's at a small
// lifetime cost (it spends key entropy on stability, not energy); the
// static keys (ID, ND) churn most because selection ignores both.

#include <iostream>
#include <string>
#include <vector>

#include "io/table.hpp"
#include "sim/experiment.hpp"
#include "sim/montecarlo.hpp"
#include "sim/threadpool.hpp"

int main() {
  using namespace pacds;
  const std::size_t trials = env_size_t("PACDS_TRIALS", 40);

  constexpr RuleSet kSchemes[] = {RuleSet::kID, RuleSet::kND, RuleSet::kEL1,
                                   RuleSet::kEL2, RuleSet::kSEL};

  const auto configure = [](int n, RuleSet scheme) {
    SimConfig config;
    config.n_hosts = n;
    config.rule_set = scheme;
    config.mobility_kind = MobilityKind::kGaussMarkov;
    config.mobility_params.mean_speed = 3.0;
    config.mobility_params.alpha = 0.75;
    config.stability_beta = 0.75;     // read by SEL only
    config.stability_quantum = 0.5;
    return config;
  };

  std::cout << "== Ablation F: SEL stability key vs the paper's keys ==\n"
            << "Gauss-Markov mobility (mean speed 3, alpha 0.75), d = "
               "N/|G'|, SEL beta 0.75 / quantum 0.5; "
            << trials << " paired trials per point\n\n";

  ThreadPool pool;

  std::cout << "churn = avg per-interval gateway-set symmetric difference\n";
  TextTable churn_table({"n", "scheme", "lifetime", "avg |G'|", "churn"});
  churn_table.set_align(1, Align::kLeft);
  for (const int n : {30, 50, 80}) {
    for (const RuleSet scheme : kSchemes) {
      const SimConfig config = configure(n, scheme);
      const LifetimeSummary s = run_lifetime_trials(
          config, trials, 0x5e1u ^ static_cast<std::uint64_t>(n), &pool);
      churn_table.add_row({TextTable::fmt(n), to_string(scheme),
                           TextTable::fmt(s.intervals.mean),
                           TextTable::fmt(s.avg_gateways.mean, 1),
                           TextTable::fmt(s.avg_churn.mean, 2)});
    }
  }
  churn_table.print(std::cout);

  // Part 2: the same columns in degraded mode under a fixed crash/recover
  // schedule. Repair latency is the localized-repair cost the engine pays
  // when a gateway goes down; a stabler backbone sees fewer forced repairs.
  std::cout << "\nfault repair under a crash/recover schedule (3 crashes, "
               "each down 5 intervals)\n";
  TextTable fault_table({"n", "scheme", "run len", "repairs", "repair us",
                         "disconn", "min cov"});
  fault_table.set_align(1, Align::kLeft);
  for (const int n : {30, 50, 80}) {
    FaultPlan plan;
    for (int k = 0; k < 3; ++k) {
      CrashSpec crash;
      crash.node = (n / 4) * (k + 1);
      crash.at = 5 + 5 * k;
      crash.recover_at = crash.at + 5;
      plan.crashes.push_back(crash);
    }
    for (const RuleSet scheme : kSchemes) {
      const SimConfig config = configure(n, scheme);
      const LifetimeSummary s = run_lifetime_trials(
          config, trials, 0xfa17u ^ static_cast<std::uint64_t>(n), &pool,
          nullptr, &plan);
      const double repair_us =
          s.faults.repairs > 0
              ? static_cast<double>(s.faults.repair_ns_total) / 1000.0 /
                    static_cast<double>(s.faults.repairs)
              : 0.0;
      fault_table.add_row({TextTable::fmt(n), to_string(scheme),
                           TextTable::fmt(s.intervals.mean),
                           std::to_string(s.faults.repairs),
                           TextTable::fmt(repair_us, 1),
                           std::to_string(s.faults.disconnected_intervals),
                           TextTable::fmt(s.faults.min_coverage, 3)});
    }
  }
  fault_table.print(std::cout);
  return 0;
}
