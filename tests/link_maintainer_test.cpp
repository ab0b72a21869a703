// Property tests for the link maintainer (net/link_maintainer): after every
// random move, the current link graph with the maintainer's delta applied
// must equal a fresh build on the new positions — checked against both the
// library builders and an all-pairs reference — and the delta itself must be
// exact: no pair listed twice, every added edge absent before, every removed
// edge present.

#include "net/link_maintainer.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <stdexcept>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "net/geometric.hpp"
#include "net/radio.hpp"
#include "net/rng.hpp"
#include "net/udg.hpp"

namespace pacds {
namespace {

constexpr double kExtent = 100.0;
constexpr double kRadius = 25.0;

/// All-pairs reference, independent of the spatial grid.
Graph reference_links(const std::vector<Vec2>& pts, const RadioModel& radio) {
  const auto n = static_cast<NodeId>(pts.size());
  Graph g(n);
  for (NodeId u = 0; u < n; ++u) {
    for (NodeId v = u + 1; v < n; ++v) {
      if (radio.link(u, v,
                     distance2(pts[static_cast<std::size_t>(u)],
                               pts[static_cast<std::size_t>(v)]))) {
        g.add_edge(u, v);
      }
    }
  }
  return g;
}

/// The library builder the engines would use for this radio.
Graph library_links(const std::vector<Vec2>& pts, double radius,
                    const RadioModel& radio) {
  return radio.kind() == RadioKind::kUnitDisk
             ? build_links(pts, radius, LinkModel::kUnitDisk)
             : build_radio_links(pts, radius, radio);
}

/// Checks the delta's exactness against `current`, applies it, and checks
/// the result against both builders on `pts`.
void apply_and_check(Graph& current, const EdgeDelta& delta,
                     const std::vector<Vec2>& pts, double radius,
                     const RadioModel& radio, const std::string& where) {
  std::set<std::pair<NodeId, NodeId>> seen;
  const auto record = [&](NodeId u, NodeId v) {
    EXPECT_NE(u, v) << where;
    EXPECT_TRUE(seen.insert({std::min(u, v), std::max(u, v)}).second)
        << where << ": pair " << u << "-" << v << " listed twice";
  };
  for (const auto& [u, v] : delta.added) {
    record(u, v);
    EXPECT_FALSE(current.has_edge(u, v))
        << where << ": added edge " << u << "-" << v << " already present";
  }
  for (const auto& [u, v] : delta.removed) {
    record(u, v);
    EXPECT_TRUE(current.has_edge(u, v))
        << where << ": removed edge " << u << "-" << v << " was absent";
  }
  for (const auto& [u, v] : delta.removed) current.remove_edge(u, v);
  for (const auto& [u, v] : delta.added) current.add_edge(u, v);
  EXPECT_EQ(current.edges(), reference_links(pts, radio).edges())
      << where;
  EXPECT_EQ(current, library_links(pts, radius, radio)) << where;
}

/// Checks movers() against the two position vectors.
void check_movers(const LinkMaintainer& links, const std::vector<Vec2>& before,
                  const std::vector<Vec2>& after, const std::string& where) {
  std::vector<NodeId> expected;
  for (std::size_t i = 0; i < after.size(); ++i) {
    if (before[i] != after[i]) expected.push_back(static_cast<NodeId>(i));
  }
  std::vector<NodeId> got;
  for (const auto& [v, from] : links.movers()) {
    got.push_back(v);
    EXPECT_EQ(from, before[static_cast<std::size_t>(v)]) << where;
  }
  EXPECT_EQ(got, expected) << where;
}

using Param = std::tuple<std::uint64_t, bool, RadioKind, double>;

class LinkMaintainerPropertyTest : public ::testing::TestWithParam<Param> {};

TEST_P(LinkMaintainerPropertyTest, DeltaReproducesAFreshBuild) {
  const std::uint64_t seed = std::get<0>(GetParam());
  const bool deep = std::get<1>(GetParam());
  const RadioKind kind = std::get<2>(GetParam());
  const double stay = std::get<3>(GetParam());
  RadioParams params;
  params.fading_seed = seed + 40;
  const RadioModel radio(kind, params, kRadius);
  Xoshiro256 rng(seed);
  const double depth = deep ? kExtent / 2.0 : 0.0;
  const auto random_point = [&] {
    return Vec2{rng.uniform(0.0, kExtent), rng.uniform(0.0, kExtent),
                deep ? rng.uniform(0.0, depth) : 0.0};
  };
  std::vector<Vec2> pts;
  for (int i = 0; i < 80; ++i) pts.push_back(random_point());

  LinkMaintainer links(kRadius, radio);
  Graph current = links.build(pts);
  ASSERT_EQ(current, reference_links(pts, radio));
  for (int step = 0; step < 12; ++step) {
    const std::vector<Vec2> before = pts;
    for (std::size_t i = 0; i < pts.size(); ++i) {
      if (rng.bernoulli(stay)) continue;
      // Short hops keep most links alive; a few jump onto another host's
      // exact position (distance 0) or across the field.
      const double pick = rng.uniform01();
      if (pick < 0.1) {
        pts[i] = pts[static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(pts.size()) - 1))];
      } else if (pick < 0.3) {
        pts[i] = random_point();
      } else {
        pts[i] = {std::clamp(pts[i].x + rng.uniform(-20.0, 20.0), 0.0, kExtent),
                  std::clamp(pts[i].y + rng.uniform(-20.0, 20.0), 0.0, kExtent),
                  deep ? std::clamp(pts[i].z + rng.uniform(-20.0, 20.0), 0.0,
                                    depth)
                       : 0.0};
      }
    }
    const std::string where = "step " + std::to_string(step);
    const EdgeDelta& delta = links.diff(pts, current);
    check_movers(links, before, pts, where);
    apply_and_check(current, delta, pts, kRadius, radio, where);
  }
}

std::string param_name(const ::testing::TestParamInfo<Param>& info) {
  const auto [seed, deep, kind, stay] = info.param;
  std::string name = std::string(deep ? "deep" : "planar") + "_";
  for (const char c : to_string(kind)) {
    if (c != '-') name += c;
  }
  return name + "_stay" + std::to_string(static_cast<int>(stay * 100)) +
         "_seed" + std::to_string(seed);
}

INSTANTIATE_TEST_SUITE_P(
    SeedsFieldsRadios, LinkMaintainerPropertyTest,
    ::testing::Combine(::testing::Values(std::uint64_t{1}, std::uint64_t{2},
                                         std::uint64_t{3}),
                       ::testing::Bool(),
                       ::testing::Values(RadioKind::kUnitDisk,
                                         RadioKind::kShadowing,
                                         RadioKind::kProbabilistic),
                       ::testing::Values(0.5, 0.95)),
    param_name);

TEST(LinkMaintainerTest, CoincidentPointsAtRadiusZero) {
  // Radius 0 links exactly the coincident hosts (closed ball); hosts hop
  // between three lattice sites, so groups form and dissolve every step.
  const std::vector<Vec2> sites{{0.0, 0.0}, {1.0, 0.0}, {0.0, 0.0, 2.0}};
  const RadioModel radio(RadioKind::kUnitDisk, {}, 0.0);
  Xoshiro256 rng(9);
  std::vector<Vec2> pts;
  for (int i = 0; i < 12; ++i) {
    pts.push_back(sites[static_cast<std::size_t>(rng.uniform_int(0, 2))]);
  }
  LinkMaintainer links(0.0, radio);
  Graph current = links.build(pts);
  ASSERT_EQ(current, build_udg(pts, 0.0));
  for (int step = 0; step < 10; ++step) {
    const std::vector<Vec2> before = pts;
    for (auto& p : pts) {
      if (rng.bernoulli(0.5)) {
        p = sites[static_cast<std::size_t>(rng.uniform_int(0, 2))];
      }
    }
    const std::string where = "step " + std::to_string(step);
    const EdgeDelta& delta = links.diff(pts, current);
    check_movers(links, before, pts, where);
    apply_and_check(current, delta, pts, 0.0, radio, where);
  }
}

TEST(LinkMaintainerTest, BothEndpointsOfALinkedPairMove) {
  const RadioModel radio(RadioKind::kUnitDisk, {}, 5.0);
  // 0-1 move together and stay linked; 2-3 move apart and unlink; 4 stays.
  std::vector<Vec2> pts{
      {0.0, 0.0}, {3.0, 0.0}, {20.0, 0.0}, {22.0, 0.0}, {40.0, 40.0}};
  LinkMaintainer links(5.0, radio);
  Graph current = links.build(pts);
  ASSERT_EQ(current.edges(),
            (std::vector<std::pair<NodeId, NodeId>>{{0, 1}, {2, 3}}));
  pts[0] = {10.0, 10.0};
  pts[1] = {12.0, 10.0};
  pts[2] = {60.0, 0.0};
  pts[3] = {80.0, 0.0};
  const EdgeDelta& delta = links.diff(pts, current);
  EXPECT_TRUE(delta.added.empty());
  EXPECT_EQ(delta.removed,
            (std::vector<std::pair<NodeId, NodeId>>{{2, 3}}));
  apply_and_check(current, delta, pts, 5.0, radio, "pair move");
}

TEST(LinkMaintainerTest, MoverLandingExactlyAtTheRadiusLinks) {
  const RadioModel radio(RadioKind::kUnitDisk, {}, 5.0);
  std::vector<Vec2> pts{{0.0, 0.0}, {30.0, 0.0}, {0.0, 30.0}};
  LinkMaintainer links(5.0, radio);
  Graph current = links.build(pts);
  ASSERT_EQ(current.num_edges(), 0u);
  pts[1] = {3.0, 4.0};  // distance exactly 5: closed ball, linked
  pts[2] = {-5.5, 0.0};  // just out of range of host 0
  const EdgeDelta& delta = links.diff(pts, current);
  EXPECT_EQ(delta.added, (std::vector<std::pair<NodeId, NodeId>>{{1, 0}}));
  EXPECT_TRUE(delta.removed.empty());
  apply_and_check(current, delta, pts, 5.0, radio, "exact radius");
}

TEST(LinkMaintainerTest, FadingRadioAtTheExactRadius) {
  // The same boundary landing through each fading radio: whatever the veto
  // decides for the pair, the delta must agree with a fresh build.
  for (const RadioKind kind :
       {RadioKind::kShadowing, RadioKind::kProbabilistic}) {
    for (std::uint64_t fading_seed = 1; fading_seed <= 8; ++fading_seed) {
      RadioParams params;
      params.fading_seed = fading_seed;
      params.sigma_db = 0.5;
      const RadioModel radio(kind, params, 5.0);
      std::vector<Vec2> pts{{0.0, 0.0}, {30.0, 0.0}, {1.0, 1.0}};
      LinkMaintainer links(5.0, radio);
      Graph current = links.build(pts);
      pts[1] = {3.0, 4.0};
      pts[2] = {0.0, 5.0};
      const EdgeDelta& delta = links.diff(pts, current);
      apply_and_check(current, delta, pts, 5.0, radio,
                      to_string(kind) + " seed " +
                          std::to_string(fading_seed));
    }
  }
}

TEST(LinkMaintainerTest, UnchangedPositionsGiveAnEmptyDelta) {
  const RadioModel radio(RadioKind::kShadowing, {}, kRadius);
  const std::vector<Vec2> pts{{0.0, 0.0}, {10.0, 0.0}, {20.0, 0.0}};
  LinkMaintainer links(kRadius, radio);
  const Graph current = links.build(pts);
  EXPECT_TRUE(links.diff(pts, current).empty());
  EXPECT_TRUE(links.movers().empty());
}

TEST(LinkMaintainerTest, MisuseThrows) {
  EXPECT_THROW(LinkMaintainer(-1.0, std::nullopt), std::invalid_argument);
  LinkMaintainer links(kRadius, std::nullopt);
  const std::vector<Vec2> pts{{0.0, 0.0}, {10.0, 0.0}};
  const Graph empty(2);
  EXPECT_THROW((void)links.diff(pts, empty), std::invalid_argument);
  const Graph current = links.build(pts);
  const std::vector<Vec2> more{{0.0, 0.0}, {10.0, 0.0}, {20.0, 0.0}};
  EXPECT_THROW((void)links.diff(more, current), std::invalid_argument);
}

}  // namespace
}  // namespace pacds
