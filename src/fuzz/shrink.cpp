#include "fuzz/shrink.hpp"

#include <algorithm>
#include <functional>
#include <stdexcept>
#include <vector>

namespace pacds::fuzz {

namespace {

/// Drops plan events that reference hosts outside [0, n) — required after a
/// host-count shrink so the candidate still passes validate_fault_plan.
void clamp_plan_to_hosts(FaultPlan& plan, int n) {
  std::erase_if(plan.crashes,
                [n](const CrashSpec& c) { return c.node >= n; });
  std::erase_if(plan.thefts, [n](const TheftSpec& t) { return t.node >= n; });
}

struct Transform {
  const char* name;
  std::function<bool(FuzzScenario&)> apply;  ///< false = not applicable
};

std::vector<Transform> transforms() {
  return {
      {"halve-hosts",
       [](FuzzScenario& s) {
         if (s.config.n_hosts <= 4) return false;
         s.config.n_hosts = std::max(4, s.config.n_hosts / 2);
         clamp_plan_to_hosts(s.faults, s.config.n_hosts);
         return true;
       }},
      {"drop-crashes",
       [](FuzzScenario& s) {
         if (s.faults.crashes.empty()) return false;
         s.faults.crashes.clear();
         return true;
       }},
      {"drop-thefts",
       [](FuzzScenario& s) {
         if (s.faults.thefts.empty()) return false;
         s.faults.thefts.clear();
         return true;
       }},
      {"drop-blackouts",
       [](FuzzScenario& s) {
         if (s.faults.blackouts.empty()) return false;
         s.faults.blackouts.clear();
         return true;
       }},
      {"drop-last-crash",
       [](FuzzScenario& s) {
         if (s.faults.crashes.empty()) return false;
         s.faults.crashes.pop_back();
         return true;
       }},
      {"drop-last-theft",
       [](FuzzScenario& s) {
         if (s.faults.thefts.empty()) return false;
         s.faults.thefts.pop_back();
         return true;
       }},
      {"drop-churn",
       [](FuzzScenario& s) {
         if (s.faults.churn == ChurnModel{}) return false;
         s.faults.churn = ChurnModel{};
         return true;
       }},
      {"drop-channel-faults",
       [](FuzzScenario& s) {
         if (!s.faults.channel.any()) return false;
         s.faults.channel = dist::ChannelFaultConfig{};
         return true;
       }},
      {"serial-threads",
       [](FuzzScenario& s) {
         if (s.config.threads == 1) return false;
         s.config.threads = 1;
         return true;
       }},
      {"cap-intervals",
       [](FuzzScenario& s) {
         if (s.config.max_intervals <= 50) return false;
         s.config.max_intervals = 50;
         return true;
       }},
      {"disable-quantum",
       [](FuzzScenario& s) {
         if (s.config.energy_key_quantum == 0.0) return false;
         s.config.energy_key_quantum = 0.0;
         return true;
       }},
  };
}

/// The failing oracle's detail on `scenario`, or empty when the scenario no
/// longer fails that oracle (the shrink step is then rejected).
std::string failure_detail(const FuzzScenario& scenario,
                           const std::string& oracle,
                           const OracleOptions& options) {
  for (const OracleFailure& failure : run_oracles(scenario, options)) {
    if (failure.oracle == oracle) return failure.detail;
  }
  return {};
}

}  // namespace

ShrinkResult shrink_scenario(const FuzzScenario& scenario,
                             const std::string& oracle,
                             const OracleOptions& options) {
  ShrinkResult result;
  result.scenario = scenario;
  result.oracle = oracle;
  result.detail = failure_detail(scenario, oracle, options);
  if (result.detail.empty()) {
    throw std::invalid_argument(
        "shrink_scenario: scenario does not fail oracle \"" + oracle + "\"");
  }
  // Greedy fixpoint: retry the whole transform list after every accepted
  // step (an accepted halving can make an event drop newly applicable).
  const std::vector<Transform> steps = transforms();
  bool progressed = true;
  while (progressed) {
    progressed = false;
    for (const Transform& step : steps) {
      FuzzScenario candidate = result.scenario;
      if (!step.apply(candidate)) continue;
      ++result.steps_tried;
      const std::string detail = failure_detail(candidate, oracle, options);
      if (detail.empty()) continue;
      result.scenario = std::move(candidate);
      result.detail = detail;
      ++result.steps_kept;
      progressed = true;
    }
  }
  return result;
}

}  // namespace pacds::fuzz
