#include "sim/overhead.hpp"

#include <algorithm>
#include <stdexcept>

namespace pacds {

MaintenanceOverhead measure_maintenance_overhead(const OverheadConfig& config,
                                                 std::uint64_t seed) {
  if (config.intervals < 0) {
    throw std::invalid_argument("measure_maintenance_overhead: bad config");
  }
  SimConfig world = config.world;
  world.max_intervals = static_cast<long>(config.intervals) + 1;
  LifetimeRun run(world, seed);
  run.step();  // setup: every host broadcasts its neighbor list, then status

  const auto n = static_cast<std::size_t>(world.n_hosts);
  MaintenanceOverhead result;
  result.setup_msgs = 2 * n;

  Graph prev_graph = *run.graph();
  DynBitset prev_gateways = run.gateways();
  DynBitset flips;
  while (run.step()) {
    // Hosts whose adjacency changed re-broadcast their neighbor list.
    const Graph& graph = *run.graph();
    for (NodeId v = 0; v < graph.num_nodes(); ++v) {
      const auto before = prev_graph.neighbors(v);
      const auto after = graph.neighbors(v);
      if (!std::equal(before.begin(), before.end(), after.begin(),
                      after.end())) {
        ++result.neighbor_msgs;
      }
    }
    // Status flips after the (localized) recomputation.
    flips = run.gateways();
    flips ^= prev_gateways;
    result.status_msgs += flips.count();

    result.global_msgs += 2 * n;  // naive baseline: full re-flood
    ++result.intervals;
    prev_graph = graph;
    prev_gateways = run.gateways();
  }
  return result;
}

}  // namespace pacds
