// Tests for the Gabriel and relative-neighborhood geometric link models.

#include "net/geometric.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

#include "core/cds.hpp"
#include "core/verify.hpp"
#include "net/rng.hpp"
#include "net/space.hpp"
#include "net/topology.hpp"
#include "net/udg.hpp"

namespace pacds {
namespace {

TEST(GeometricTest, EmptyAndSingle) {
  EXPECT_EQ(build_gabriel({}, 10.0).num_nodes(), 0);
  EXPECT_EQ(build_rng_graph({{1.0, 1.0}}, 10.0).num_edges(), 0u);
}

TEST(GeometricTest, NegativeRadiusThrows) {
  EXPECT_THROW((void)build_gabriel({{0.0, 0.0}}, -1.0), std::invalid_argument);
  EXPECT_THROW((void)build_rng_graph({{0.0, 0.0}}, -1.0),
               std::invalid_argument);
}

TEST(GeometricTest, TwoPointsAlwaysLinkedWithinRadius) {
  const std::vector<Vec2> pts{{0.0, 0.0}, {5.0, 0.0}};
  EXPECT_TRUE(build_gabriel(pts, 10.0).has_edge(0, 1));
  EXPECT_TRUE(build_rng_graph(pts, 10.0).has_edge(0, 1));
  EXPECT_FALSE(build_gabriel(pts, 4.0).has_edge(0, 1));  // radius cap
}

TEST(GeometricTest, MidpointBlockerCutsGabrielEdge) {
  // Point 2 sits inside the diameter circle of 0-1 -> 0-1 not Gabriel.
  const std::vector<Vec2> pts{{0.0, 0.0}, {10.0, 0.0}, {5.0, 1.0}};
  const Graph gabriel = build_gabriel(pts, 25.0);
  EXPECT_FALSE(gabriel.has_edge(0, 1));
  EXPECT_TRUE(gabriel.has_edge(0, 2));
  EXPECT_TRUE(gabriel.has_edge(1, 2));
}

TEST(GeometricTest, LuneBlockerCutsRngEdgeButNotGabriel) {
  // Point 2 is in the lune of 0-1 (closer than |01| to both) but OUTSIDE
  // the diameter circle: RNG drops 0-1, Gabriel keeps it.
  const std::vector<Vec2> pts{{0.0, 0.0}, {10.0, 0.0}, {5.0, 6.0}};
  EXPECT_TRUE(build_gabriel(pts, 25.0).has_edge(0, 1));
  EXPECT_FALSE(build_rng_graph(pts, 25.0).has_edge(0, 1));
}

/// The definition, checked against every host: u-v survives iff no third
/// host is a witness (`gabriel`: strictly inside the diametral disk;
/// otherwise strictly inside the lune).
Graph all_hosts_reference(const std::vector<Vec2>& pts, double radius,
                          bool gabriel) {
  const Graph udg = build_udg(pts, radius);
  Graph g(udg.num_nodes());
  for (const auto& [u, v] : udg.edges()) {
    const Vec2 pu = pts[static_cast<std::size_t>(u)];
    const Vec2 pv = pts[static_cast<std::size_t>(v)];
    const double d2 = distance2(pu, pv);
    bool blocked = false;
    for (std::size_t w = 0; w < pts.size() && !blocked; ++w) {
      if (w == static_cast<std::size_t>(u) ||
          w == static_cast<std::size_t>(v)) {
        continue;
      }
      const Vec2 pw = pts[w];
      blocked = gabriel ? distance2(pw, (pu + pv) * 0.5) < d2 / 4.0
                        : distance2(pw, pu) < d2 && distance2(pw, pv) < d2;
    }
    if (!blocked) g.add_edge(u, v);
  }
  return g;
}

TEST(GeometricTest, NeighbourWitnessScanMatchesAllHostsReference) {
  // build_gabriel and build_rng_graph only look for witnesses among UDG
  // neighbours; their edge sets must equal the all-hosts definition on
  // planar and 3-D fields, at two radii, with coincident points mixed in.
  for (const double depth : {0.0, 60.0}) {
    const Field field(100.0, 100.0, depth, BoundaryPolicy::kClamp);
    for (const int n : {10, 50, 200}) {
      for (const std::uint64_t seed : {1u, 2u, 3u, 4u}) {
        Xoshiro256 rng(seed);
        std::vector<Vec2> pts = random_placement(n, field, rng);
        for (std::size_t i = 0; i + 3 < pts.size(); i += 4) {
          pts[i + 1] = pts[i];  // every fourth pair coincides
        }
        for (const double radius : {25.0, 40.0}) {
          const auto label = [&] {
            return "depth " + std::to_string(depth) + " n " +
                   std::to_string(n) + " seed " + std::to_string(seed) +
                   " radius " + std::to_string(radius);
          };
          EXPECT_EQ(build_gabriel(pts, radius).edges(),
                    all_hosts_reference(pts, radius, /*gabriel=*/true).edges())
              << "gabriel, " << label();
          EXPECT_EQ(build_rng_graph(pts, radius).edges(),
                    all_hosts_reference(pts, radius, /*gabriel=*/false).edges())
              << "rng, " << label();
        }
      }
    }
  }
}

class GeometricPropertyTest
    : public ::testing::TestWithParam<std::tuple<int, std::uint64_t>> {};

TEST_P(GeometricPropertyTest, SubgraphChainHolds) {
  // RNG ⊆ Gabriel ⊆ UDG on every point set.
  const auto [n, seed] = GetParam();
  Xoshiro256 rng(seed);
  const auto pts = random_placement(n, Field::paper_field(), rng);
  const Graph udg = build_udg(pts, kPaperRadius);
  const Graph gabriel = build_gabriel(pts, kPaperRadius);
  const Graph rng_graph = build_rng_graph(pts, kPaperRadius);
  for (const auto& [u, v] : rng_graph.edges()) {
    EXPECT_TRUE(gabriel.has_edge(u, v)) << u << "-" << v;
  }
  for (const auto& [u, v] : gabriel.edges()) {
    EXPECT_TRUE(udg.has_edge(u, v)) << u << "-" << v;
  }
  EXPECT_LE(rng_graph.num_edges(), gabriel.num_edges());
  EXPECT_LE(gabriel.num_edges(), udg.num_edges());
}

TEST_P(GeometricPropertyTest, ConnectivityPreserved) {
  // Gabriel and RNG keep the UDG's connected components intact (classic
  // result: both contain the Euclidean MST restricted to the radius graph).
  const auto [n, seed] = GetParam();
  Xoshiro256 rng(seed);
  const auto pts = random_placement(n, Field::paper_field(), rng);
  const Graph udg = build_udg(pts, kPaperRadius);
  const Graph gabriel = build_gabriel(pts, kPaperRadius);
  const Graph rng_graph = build_rng_graph(pts, kPaperRadius);
  EXPECT_EQ(gabriel.num_components(), udg.num_components());
  EXPECT_EQ(rng_graph.num_components(), udg.num_components());
}

TEST_P(GeometricPropertyTest, RulesWorkOnSparseModels) {
  // The marking process + rules are graph-generic; verify on the sparser
  // link models too.
  const auto [n, seed] = GetParam();
  Xoshiro256 rng(seed);
  const auto pts = random_placement(n, Field::paper_field(), rng);
  for (const Graph& g : {build_gabriel(pts, kPaperRadius),
                         build_rng_graph(pts, kPaperRadius)}) {
    const CdsResult r = compute_cds(g, RuleSet::kND);
    const CdsCheck check = check_cds(g, r.gateways);
    EXPECT_TRUE(check.ok()) << check.message;
  }
}

INSTANTIATE_TEST_SUITE_P(
    RandomPointSets, GeometricPropertyTest,
    ::testing::Combine(::testing::Values(10, 30, 60),
                       ::testing::Values(111u, 222u, 333u)),
    [](const ::testing::TestParamInfo<GeometricPropertyTest::ParamType>&
           param_info) {
      return "n" + std::to_string(std::get<0>(param_info.param)) + "_s" +
             std::to_string(std::get<1>(param_info.param));
    });

}  // namespace
}  // namespace pacds
