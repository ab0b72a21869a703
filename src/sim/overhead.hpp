#pragma once
// Maintenance-overhead model for the distributed protocol. The paper's
// Section 2.2 argues the marking process is cheap to maintain: when hosts
// move, only hosts near the change re-decide and re-announce their gateway
// status. This module counts protocol messages over a mobile run:
//
//   neighbor broadcasts — a host whose adjacency changed re-broadcasts its
//                         neighbor list (the marking process's input);
//   status broadcasts   — a host whose gateway/non-gateway status flipped
//                         announces the new status;
//
// and compares against a naive global baseline where every host re-floods
// both messages every update interval (2n per interval).
//
// The tally observes a LifetimeRun: it adds no world of its own, so every
// scenario axis of SimConfig (radio, 3-D field, SEL, engine, threads, ...)
// applies. Step 1 of the run is the setup computation; each later step is
// one update interval, compared against the step before it.

#include <cstdint>

#include "sim/lifetime.hpp"

namespace pacds {

struct OverheadConfig {
  /// The observed world. Defaults to zero_drain_world: no energy model, so
  /// the EL schemes see uniform levels (their keys then degenerate to the
  /// corresponding static tie-break chains). max_intervals is derived from
  /// `intervals` and ignored here.
  SimConfig world = zero_drain_world(50);
  int intervals = 50;  ///< update intervals after the setup computation
};

struct MaintenanceOverhead {
  std::size_t intervals = 0;
  std::size_t setup_msgs = 0;     ///< initial neighbor + status broadcasts
  std::size_t neighbor_msgs = 0;  ///< per-interval adjacency re-broadcasts
  std::size_t status_msgs = 0;    ///< per-interval status flips announced
  std::size_t global_msgs = 0;    ///< naive baseline: 2n per interval

  [[nodiscard]] std::size_t localized_total() const {
    return neighbor_msgs + status_msgs;
  }
  /// Localized messages as a fraction of the global baseline (lower is
  /// better; excludes the one-time setup both protocols need).
  [[nodiscard]] double ratio() const {
    return global_msgs == 0
               ? 0.0
               : static_cast<double>(localized_total()) /
                     static_cast<double>(global_msgs);
  }
};

/// Runs `config.intervals` update intervals of `config.world` after the
/// setup computation and tallies maintenance messages. `intervals` in the
/// result is fewer than requested only when the world itself ends early (a
/// draining world's first death). Deterministic in (config, seed).
[[nodiscard]] MaintenanceOverhead measure_maintenance_overhead(
    const OverheadConfig& config, std::uint64_t seed);

}  // namespace pacds
