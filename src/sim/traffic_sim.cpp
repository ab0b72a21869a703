#include "sim/traffic_sim.hpp"

#include <cmath>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "net/rng.hpp"
#include "routing/routing.hpp"

namespace pacds {

namespace {

/// The world run's drain step: per-interval upkeep for every functioning
/// host, then `flows_per_interval` random flows routed over the step's
/// backbone, each charging its hops.
class FlowCharger final : public DrainHook {
 public:
  FlowCharger(const TrafficSimConfig& config, std::uint64_t seed)
      : costs_(config.costs),
        flows_(config.flows_per_interval),
        rng_(derive_seed(seed, kTrafficStream)) {}

  void charge(const Graph& graph, const DynBitset& gateways,
              const DynBitset& down, std::vector<double>& amounts) override {
    usable_.clear();
    for (NodeId v = 0; v < graph.num_nodes(); ++v) {
      const auto vi = static_cast<std::size_t>(v);
      if (down.test(vi)) continue;
      usable_.push_back(v);
      amounts[vi] = costs_.idle + (gateways.test(vi) ? costs_.beacon : 0.0);
    }
    if (usable_.size() < 2 || flows_ == 0) return;

    const DominatingSetRouter router(graph, gateways);
    const auto last = static_cast<std::int64_t>(usable_.size()) - 1;
    for (int flow = 0; flow < flows_; ++flow) {
      const auto si = static_cast<std::size_t>(rng_.uniform_int(0, last));
      auto ti = si;
      while (ti == si) ti = static_cast<std::size_t>(rng_.uniform_int(0, last));
      const NodeId src = usable_[si];
      ++attempted;
      const RouteResult route = router.route(src, usable_[ti]);
      if (!route.delivered) {
        // The source still spends a transmission trying.
        amounts[static_cast<std::size_t>(src)] += costs_.tx;
        continue;
      }
      ++delivered;
      for (std::size_t hop = 0; hop < route.path.size(); ++hop) {
        amounts[static_cast<std::size_t>(route.path[hop])] +=
            (hop + 1 < route.path.size() ? costs_.tx : 0.0) +
            (hop > 0 ? costs_.rx : 0.0);
      }
    }
  }

  std::size_t attempted = 0;
  std::size_t delivered = 0;

 private:
  EnergyCosts costs_;
  int flows_;
  Xoshiro256 rng_;
  std::vector<NodeId> usable_;
};

}  // namespace

TrafficSimResult run_traffic_trial(const TrafficSimConfig& config,
                                   std::uint64_t seed,
                                   IntervalObserver* observer,
                                   const FaultPlan* faults) {
  if (config.world.n_hosts < 2 || config.flows_per_interval < 0) {
    throw std::invalid_argument(
        "run_traffic_trial: need two hosts and a non-negative flow count");
  }
  FlowCharger flows(config, seed);
  LifetimeRun run(config.world, seed, observer, faults, &flows);
  // A plan keeps the world going past deaths (degraded mode); the
  // workload's lifetime still ends at the first one.
  while (run.step() && run.result().faults.first_death_interval < 0) {
  }

  TrafficSimResult result;
  result.trial = run.result();
  result.trial.hit_cap =
      result.trial.hit_cap && result.trial.faults.first_death_interval < 0;
  result.flows_attempted = flows.attempted;
  result.flows_delivered = flows.delivered;
  if (flows.attempted > 0) {
    result.delivery_ratio = static_cast<double>(flows.delivered) /
                            static_cast<double>(flows.attempted);
  }
  // Energy spread at the end of the run (balance quality).
  const std::vector<double>& levels = run.levels();
  const auto n = static_cast<double>(levels.size());
  const double mean = std::accumulate(levels.begin(), levels.end(), 0.0) / n;
  const double var = std::accumulate(
      levels.begin(), levels.end(), 0.0,
      [mean](double sum, double x) { return sum + (x - mean) * (x - mean); });
  result.energy_stddev_at_death = std::sqrt(var / n);
  return result;
}

}  // namespace pacds
