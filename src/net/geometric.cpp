#include "net/geometric.hpp"

#include <algorithm>
#include <stdexcept>

#include "net/udg.hpp"

namespace pacds {

namespace {

/// Shared scaffold: keep each UDG edge u-v unless some third host w is a
/// `witness(pw, pu, pv)` against it. Both models' witnesses lie strictly
/// closer than |uv| <= radius to u and to v, so they are UDG neighbours of
/// both endpoints: scanning the shorter of the two rows finds every one. The
/// blocked edges are judged on the untouched UDG, then removed in place.
template <typename Witness>
Graph filter_udg(const std::vector<Vec2>& positions, double radius,
                 Witness&& witness) {
  Graph g = build_udg(positions, radius);
  std::vector<std::pair<NodeId, NodeId>> blocked;
  for (const auto& [u, v] : g.edges()) {
    const Vec2 pu = positions[static_cast<std::size_t>(u)];
    const Vec2 pv = positions[static_cast<std::size_t>(v)];
    const auto row =
        g.degree(u) <= g.degree(v) ? g.neighbors(u) : g.neighbors(v);
    if (std::any_of(row.begin(), row.end(), [&](NodeId w) {
          return w != u && w != v &&
                 witness(positions[static_cast<std::size_t>(w)], pu, pv);
        })) {
      blocked.emplace_back(u, v);
    }
  }
  for (const auto& [u, v] : blocked) g.remove_edge(u, v);
  return g;
}

}  // namespace

Graph build_gabriel(const std::vector<Vec2>& positions, double radius) {
  if (radius < 0.0) {
    throw std::invalid_argument("build_gabriel: negative radius");
  }
  // w lies strictly inside the disk with diameter uv.
  return filter_udg(positions, radius, [](Vec2 pw, Vec2 pu, Vec2 pv) {
    return distance2(pw, (pu + pv) * 0.5) < distance2(pu, pv) / 4.0;
  });
}

Graph build_rng_graph(const std::vector<Vec2>& positions, double radius) {
  if (radius < 0.0) {
    throw std::invalid_argument("build_rng_graph: negative radius");
  }
  // w sits in the lune: closer than |uv| to both endpoints.
  return filter_udg(positions, radius, [](Vec2 pw, Vec2 pu, Vec2 pv) {
    const double d2 = distance2(pu, pv);
    return distance2(pw, pu) < d2 && distance2(pw, pv) < d2;
  });
}

Graph build_links(const std::vector<Vec2>& positions, double radius,
                  LinkModel model) {
  switch (model) {
    case LinkModel::kUnitDisk:
      return build_udg(positions, radius);
    case LinkModel::kGabriel:
      return build_gabriel(positions, radius);
    case LinkModel::kRng:
      return build_rng_graph(positions, radius);
  }
  throw std::invalid_argument("build_links: unknown model");
}

}  // namespace pacds
