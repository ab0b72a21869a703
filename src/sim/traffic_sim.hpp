#pragma once
// Traffic-driven lifetime simulation — an extension beyond the paper's
// abstract drain models. Instead of charging gateways a formula
// d = traffic/|G'|, every interval a batch of random flows is actually
// ROUTED through the dominating-set backbone, and hosts pay for the packets
// they transmit, forward and receive. This exercises the claim the
// d-models abstract: gateways burn energy handling bypass traffic, so
// rotating gateway duty by energy level should extend the time to first
// death — now with load that concentrates on the real forwarding paths.
//
// The world is a LifetimeRun over `TrafficSimConfig::world` drained by a
// flow-routing DrainHook, so every SimConfig scenario axis applies; flow
// endpoints draw from derive_seed(seed, kTrafficStream). Host on/off churn
// is the fault plan's `churn` process (off hosts are down: out of the
// topology, draining nothing). The run ends at the first battery death and
// also reports packet delivery, so the energy/service trade-off is visible.

#include <cstddef>
#include <cstdint>

#include "sim/lifetime.hpp"

namespace pacds {

/// Energy price list (arbitrary units per packet / per interval).
struct EnergyCosts {
  double tx = 1.0;      ///< transmitting one packet (source or forwarder)
  double rx = 0.5;      ///< receiving one packet (destination or forwarder)
  double idle = 0.05;   ///< per-interval baseline for every active host
  double beacon = 0.2;  ///< per-interval extra for gateways (table upkeep)
};

/// The world's scenario (its drain model is unused: the flows drain) plus
/// the workload's own knobs.
struct TrafficSimConfig {
  SimConfig world{};
  EnergyCosts costs{};
  int flows_per_interval = 20;  ///< random src->dst packets each interval
};

struct TrafficSimResult {
  TrialResult trial;  ///< the world run's outcome (intervals, |G'|, cap, ...)
  double delivery_ratio = 1.0;  ///< delivered / attempted flows
  std::size_t flows_attempted = 0;
  std::size_t flows_delivered = 0;
  double energy_stddev_at_death = 0.0;  ///< end spread (lower = balanced)
};

/// Runs one traffic-driven trial, fully determined by (config, seed, plan).
/// `observer` watches the world run; `faults` (e.g. a churn plan) goes to
/// its fault argument. Throws std::invalid_argument for fewer than two hosts
/// or a negative flow count.
[[nodiscard]] TrafficSimResult run_traffic_trial(
    const TrafficSimConfig& config, std::uint64_t seed,
    IntervalObserver* observer = nullptr, const FaultPlan* faults = nullptr);

}  // namespace pacds
