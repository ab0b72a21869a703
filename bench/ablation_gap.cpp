// Ablation G: optimality gap past the bitmask cap. The branch-and-bound
// solver (baselines/bb_mcds) proves exact optima at n = 20..60 on the
// paper's density, where ablation_approx's exhaustive search (n <= 14)
// cannot reach — so this sweep measures the approximation ratios of the
// distributed schemes (ID/ND/EL1/EL2), the centralized heuristics and the
// (2,2)-connected backbone at realistic sizes. `pacds gap --metrics`
// produces the same measurement as a metrics-schema JSONL stream for
// bench_report --gap-report.

#include <cstdint>
#include <iostream>

#include "baselines/bb_mcds.hpp"
#include "baselines/cds22.hpp"
#include "baselines/greedy_mcds.hpp"
#include "baselines/mis_cds.hpp"
#include "baselines/tree_cds.hpp"
#include "core/cds.hpp"
#include "io/table.hpp"
#include "net/rng.hpp"
#include "net/topology.hpp"
#include "sim/experiment.hpp"
#include "sim/stats.hpp"

int main() {
  using namespace pacds;
  const std::size_t trials = env_size_t("PACDS_TRIALS", 10);
  std::cout << "== Ablation G: optimality gap vs branch-and-bound optimum ==\n"
            << "size / proven optimum on random connected unit-disk "
            << "networks; " << trials << " networks per point\n\n";

  TextTable table({"n", "radius", "solved", "opt", "ID", "ND", "EL1", "EL2",
                   "greedy", "MIS", "tree", "cds22"});
  for (const auto& [n, radius] :
       {std::pair{20, 25.0}, {40, 25.0}, {60, 25.0}, {60, 40.0}}) {
    Welford opt, id, nd, el1, el2, greedy, mis, tree, cds22;
    std::size_t attempted = 0;
    for (std::size_t trial = 0; trial < trials; ++trial) {
      Xoshiro256 rng(derive_seed(0x6a9, trial * 733 +
                                            static_cast<std::uint64_t>(
                                                n * 100 + radius)));
      const auto placed = random_connected_placement(n, Field::paper_field(),
                                                     radius, rng, 5000);
      if (!placed) continue;
      const Graph& g = placed->graph;
      ++attempted;
      std::vector<double> energy;
      for (NodeId v = 0; v < g.num_nodes(); ++v) {
        energy.push_back(static_cast<double>(rng.uniform_int(1, 100)));
      }
      const auto exact = bb_min_cds(g);
      if (!exact || exact->count() == 0) continue;
      const auto optimum = static_cast<double>(exact->count());
      opt.add(optimum);
      id.add(static_cast<double>(
                 compute_cds(g, RuleSet::kID, energy).gateway_count) /
             optimum);
      nd.add(static_cast<double>(
                 compute_cds(g, RuleSet::kND, energy).gateway_count) /
             optimum);
      el1.add(static_cast<double>(
                  compute_cds(g, RuleSet::kEL1, energy).gateway_count) /
              optimum);
      el2.add(static_cast<double>(
                  compute_cds(g, RuleSet::kEL2, energy).gateway_count) /
              optimum);
      greedy.add(static_cast<double>(greedy_mcds(g).count()) / optimum);
      mis.add(static_cast<double>(mis_cds(g).count()) / optimum);
      tree.add(static_cast<double>(bfs_tree_cds(g).count()) / optimum);
      cds22.add(static_cast<double>(greedy_cds22(g).backbone.count()) /
                optimum);
    }
    table.add_row({TextTable::fmt(n), TextTable::fmt(radius, 0),
                   std::to_string(opt.count()) + "/" +
                       std::to_string(attempted),
                   TextTable::fmt(opt.mean()), TextTable::fmt(id.mean()),
                   TextTable::fmt(nd.mean()), TextTable::fmt(el1.mean()),
                   TextTable::fmt(el2.mean()), TextTable::fmt(greedy.mean()),
                   TextTable::fmt(mis.mean()), TextTable::fmt(tree.mean()),
                   TextTable::fmt(cds22.mean())});
  }
  table.print(std::cout);
  std::cout << "\n(values are mean size/optimum over proven instances; "
               "1.00 = optimal; 'solved' counts instances the solver proved "
               "within its node budget)\n";
  return 0;
}
