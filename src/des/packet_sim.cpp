#include "des/packet_sim.hpp"

#include <algorithm>
#include <cmath>
#include <deque>
#include <optional>
#include <stdexcept>
#include <vector>

#include "des/event_queue.hpp"
#include "net/rng.hpp"
#include "routing/routing.hpp"

namespace pacds::des {

namespace {

struct Packet {
  std::vector<NodeId> route;  ///< full host sequence src..dst
  std::size_t at = 0;         ///< index of the host currently holding it
  SimTime injected_at = 0.0;
  int hops = 0;
  int retries = 0;            ///< retransmissions of the current hop
};

/// The world's config with the step count derived from the DES clock.
SimConfig world_config(const PacketSimConfig& config) {
  if (config.world.n_hosts < 2 || config.sim_time <= 0.0 ||
      config.injection_gap <= 0.0 || config.tx_time <= 0.0 ||
      config.update_interval <= 0.0) {
    throw std::invalid_argument("run_packet_sim: bad configuration");
  }
  SimConfig world = config.world;
  world.max_intervals = world_steps(config);
  return world;
}

/// The whole simulation state; event thunks call back into this.
class Sim {
 public:
  Sim(const PacketSimConfig& config, std::uint64_t seed,
      IntervalObserver* observer)
      : config_(config),
        world_(world_config(config), seed, observer, config.faults),
        traffic_rng_(derive_seed(seed, kTrafficStream)),
        queues_(static_cast<std::size_t>(config.world.n_hosts)),
        busy_(static_cast<std::size_t>(config.world.n_hosts), 0) {
    step_world();  // the first backbone, before any packet is injected
  }

  PacketSimResult run() {
    for (SimTime t = 0.0; t < config_.sim_time; t += config_.injection_gap) {
      events_.schedule(t, [this] { inject(); });
    }
    const long steps = world_.config().max_intervals;
    for (long k = 1; k < steps; ++k) {
      events_.schedule(static_cast<double>(k) * config_.update_interval,
                       [this] { step_world(); });
    }
    events_.run_until(config_.sim_time);

    // Whatever is still queued or mid-flight never arrived.
    result_.drops.in_flight =
        result_.injected - result_.delivered - result_.drops.total();
    result_.latency = Summary::of(latency_);
    result_.hops = Summary::of(hops_);
    const TrialResult world = world_.result();
    result_.avg_gateways = world.avg_gateways;
    result_.fault_events = world.faults.events;
    return result_;
  }

 private:
  [[nodiscard]] bool is_down(NodeId host) const {
    return world_.down().test(static_cast<std::size_t>(host));
  }

  /// Advances the world one interval (a no-op once it has finished) and
  /// re-derives the routing state. A down host's queue and service slot die
  /// with it.
  void step_world() {
    if (!world_.step()) return;
    for (std::size_t h = 0; h < queues_.size(); ++h) {
      if (!is_down(static_cast<NodeId>(h))) continue;
      result_.drops.crashed += queues_[h].size();
      queues_[h].clear();
      busy_[h] = 0;
    }
    router_.emplace(*world_.graph(), world_.gateways());
  }

  void inject() {
    ++result_.injected;
    const auto n = static_cast<std::int64_t>(queues_.size());
    const auto src = static_cast<NodeId>(traffic_rng_.uniform_int(0, n - 1));
    auto dst = src;
    while (dst == src) {
      dst = static_cast<NodeId>(traffic_rng_.uniform_int(0, n - 1));
    }
    if (is_down(src) || is_down(dst)) {
      // A crashed host neither sources nor sinks traffic. The draws above
      // keep the injection stream aligned with the fault-free run.
      ++result_.drops.crashed;
      return;
    }
    const RouteResult route = router_->route(src, dst);
    if (!route.delivered) {
      ++result_.drops.no_route;
      return;
    }
    if (route.path.size() == 1) {  // src == dst cannot happen; guard anyway
      ++result_.delivered;
      return;
    }
    Packet packet;
    packet.route = route.path;
    packet.injected_at = events_.now();
    enqueue(src, std::move(packet));
  }

  void enqueue(NodeId host, Packet packet) {
    auto& queue = queues_[static_cast<std::size_t>(host)];
    if (queue.size() >= config_.queue_capacity) {
      ++result_.drops.queue_full;
      return;
    }
    queue.push_back(std::move(packet));
    result_.max_queue =
        std::max(result_.max_queue, static_cast<double>(queue.size()));
    try_transmit(host);
  }

  void try_transmit(NodeId host) {
    const auto hi = static_cast<std::size_t>(host);
    if (busy_[hi] || queues_[hi].empty()) return;
    Packet packet = std::move(queues_[hi].front());
    queues_[hi].pop_front();
    const NodeId next = packet.route[packet.at + 1];
    if (!world_.graph()->has_edge(host, next)) {
      // The next hop moved out of range since the route was computed.
      ++result_.drops.route_break;
      try_transmit(host);  // serve the next packet immediately
      return;
    }
    busy_[hi] = 1;
    events_.schedule(events_.now() + config_.tx_time,
                     [this, host, p = std::move(packet), next]() mutable {
                       busy_[static_cast<std::size_t>(host)] = 0;
                       if (is_down(host)) {
                         // The sender crashed mid-service; the frame and the
                         // rest of its queue died with it (see step_world).
                         ++result_.drops.crashed;
                         return;
                       }
                       if (config_.loss_probability > 0.0 &&
                           traffic_rng_.bernoulli(config_.loss_probability)) {
                         // Frame lost in the air: retransmit or give up.
                         if (p.retries < config_.max_retries) {
                           ++p.retries;
                           retransmit(host, std::move(p));
                         } else {
                           ++result_.drops.loss;
                           try_transmit(host);
                         }
                         return;
                       }
                       if (is_down(next)) {
                         ++result_.drops.crashed;
                         try_transmit(host);
                         return;
                       }
                       p.retries = 0;
                       arrive(next, std::move(p));
                       try_transmit(host);
                     });
  }

  /// Re-sends a lost frame at the head of the line (the host stays busy for
  /// another service time).
  void retransmit(NodeId host, Packet packet) {
    auto& queue = queues_[static_cast<std::size_t>(host)];
    queue.push_front(std::move(packet));
    try_transmit(host);
  }

  void arrive(NodeId host, Packet packet) {
    ++packet.at;
    ++packet.hops;
    if (packet.route[packet.at] != host) {
      // Defensive: routes are positional, this cannot diverge.
      ++result_.drops.route_break;
      return;
    }
    if (packet.at + 1 == packet.route.size()) {
      ++result_.delivered;
      latency_.add(events_.now() - packet.injected_at);
      hops_.add(static_cast<double>(packet.hops));
      return;
    }
    if (packet.hops >= config_.max_hops) {
      ++result_.drops.ttl;
      return;
    }
    enqueue(host, std::move(packet));
  }

  PacketSimConfig config_;
  LifetimeRun world_;
  Xoshiro256 traffic_rng_;
  std::optional<DominatingSetRouter> router_;

  EventQueue events_;
  std::vector<std::deque<Packet>> queues_;
  std::vector<char> busy_;

  PacketSimResult result_;
  Welford latency_;
  Welford hops_;
};

}  // namespace

long world_steps(const PacketSimConfig& config) {
  return static_cast<long>(std::ceil(config.sim_time / config.update_interval));
}

PacketSimResult run_packet_sim(const PacketSimConfig& config,
                               std::uint64_t seed,
                               IntervalObserver* observer) {
  Sim sim(config, seed, observer);
  return sim.run();
}

}  // namespace pacds::des
