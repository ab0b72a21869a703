#pragma once
// Discrete-event packet-level simulation of dominating-set routing with
// queueing. Each host owns a FIFO transmit queue and serves one packet per
// `tx_time`; packets follow source routes computed on the current backbone.
// The experiment this enables: smaller backbones concentrate forwarding on
// fewer hosts, so schemes trade backbone size against queueing delay — a
// dimension the paper's interval model cannot see.
//
// The world is a LifetimeRun over `PacketSimConfig::world`, stepped at t = 0
// and then every `update_interval` (ceil(sim_time / update_interval) steps);
// packets route on its link graph and gateway set, so every SimConfig
// scenario axis applies. In-flight packets whose next hop walked out of
// range after a step are dropped (route breakage). The world draws only from
// its own stream (seeded with `seed`); injections and radio loss draw from
// derive_seed(seed, kTrafficStream), so traffic never perturbs the world,
// whose interval stream equals run_lifetime_trial's for the same world,
// seed, plan and step count.
//
// A world that finishes early (a draining world's first death, or a degraded
// run down to at most one functioning host) leaves its last backbone up
// until sim_time; in the degraded case every later injection has a down
// endpoint and counts as `crashed`.

#include <cstdint>

#include "sim/lifetime.hpp"
#include "sim/stats.hpp"

namespace pacds::des {

struct PacketSimConfig {
  /// The world the packets travel through (no battery drain by default);
  /// its max_intervals is derived from the DES clock and ignored here.
  SimConfig world = zero_drain_world(40);

  double sim_time = 400.0;         ///< total simulated time
  double update_interval = 20.0;   ///< world step (mobility + backbone) period

  double injection_gap = 0.5;      ///< one new packet every gap
  double tx_time = 1.0;            ///< service time per hop
  std::size_t queue_capacity = 16; ///< per-host FIFO depth
  int max_hops = 64;               ///< TTL safety net

  /// Per-transmission loss probability (lossy radio); lost frames are
  /// retransmitted up to max_retries, then the packet is dropped.
  double loss_probability = 0.0;
  int max_retries = 3;

  /// Optional fault plan (borrowed; must outlive the run) for the world's
  /// LifetimeRun: plan interval t is the t-th world step. Down hosts leave
  /// the link graph, lose their queued and in-flight packets as `crashed`,
  /// and neither source nor sink new traffic. A theft kills when it takes
  /// the whole battery (initial_energy, 100 by default).
  const FaultPlan* faults = nullptr;
};

/// Why a packet never reached its destination.
struct DropCounts {
  std::size_t no_route = 0;     ///< router had no path at injection
  std::size_t queue_full = 0;   ///< FIFO overflow at some hop
  std::size_t route_break = 0;  ///< next hop out of range after an update
  std::size_t ttl = 0;          ///< exceeded max_hops
  std::size_t loss = 0;         ///< radio loss exhausted the retry budget
  std::size_t crashed = 0;      ///< lost with a host that went down
  std::size_t in_flight = 0;    ///< still queued when the simulation ended

  [[nodiscard]] std::size_t total() const {
    return no_route + queue_full + route_break + ttl + loss + crashed +
           in_flight;
  }
};

struct PacketSimResult {
  std::size_t injected = 0;
  std::size_t delivered = 0;
  DropCounts drops;
  Summary latency;          ///< end-to-end delay of delivered packets
  Summary hops;             ///< path length of delivered packets
  double max_queue = 0.0;   ///< deepest FIFO observed (congestion)
  double avg_gateways = 0.0;  ///< the world's mean |G'| per step
  std::size_t fault_events = 0;  ///< applied plan events (0 without a plan)

  [[nodiscard]] double delivery_ratio() const {
    return injected == 0
               ? 1.0
               : static_cast<double>(delivered) /
                     static_cast<double>(injected);
  }
};

/// The number of world steps a run takes: ceil(sim_time / update_interval).
[[nodiscard]] long world_steps(const PacketSimConfig& config);

/// Runs one packet-level simulation, fully determined by (config, seed).
/// `observer`, when non-null, is handed to the world's LifetimeRun and sees
/// its interval (and fault) records exactly as run_lifetime_trial would.
[[nodiscard]] PacketSimResult run_packet_sim(
    const PacketSimConfig& config, std::uint64_t seed,
    IntervalObserver* observer = nullptr);

}  // namespace pacds::des
