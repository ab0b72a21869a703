#include "net/geometric.hpp"

#include <stdexcept>

#include "net/udg.hpp"

namespace pacds {

namespace {

/// Shared scaffold: keep each UDG edge iff `keep(u, v)` holds.
template <typename Predicate>
Graph filter_udg(const std::vector<Vec2>& positions, double radius,
                 Predicate&& keep) {
  const Graph udg = build_udg(positions, radius);
  Graph g(udg.num_nodes());
  for (const auto& [u, v] : udg.edges()) {
    if (keep(u, v)) g.add_edge(u, v);
  }
  return g;
}

}  // namespace

Graph build_gabriel(const std::vector<Vec2>& positions, double radius) {
  if (radius < 0.0) {
    throw std::invalid_argument("build_gabriel: negative radius");
  }
  return filter_udg(positions, radius, [&positions](NodeId u, NodeId v) {
    const Vec2 pu = positions[static_cast<std::size_t>(u)];
    const Vec2 pv = positions[static_cast<std::size_t>(v)];
    const Vec2 mid = (pu + pv) * 0.5;
    const double r2 = distance2(pu, pv) / 4.0;  // (|uv|/2)^2
    for (std::size_t w = 0; w < positions.size(); ++w) {
      if (w == static_cast<std::size_t>(u) ||
          w == static_cast<std::size_t>(v)) {
        continue;
      }
      if (distance2(positions[w], mid) < r2) return false;
    }
    return true;
  });
}

Graph build_rng_graph(const std::vector<Vec2>& positions, double radius) {
  if (radius < 0.0) {
    throw std::invalid_argument("build_rng_graph: negative radius");
  }
  return filter_udg(positions, radius, [&positions](NodeId u, NodeId v) {
    const Vec2 pu = positions[static_cast<std::size_t>(u)];
    const Vec2 pv = positions[static_cast<std::size_t>(v)];
    const double d2 = distance2(pu, pv);
    for (std::size_t w = 0; w < positions.size(); ++w) {
      if (w == static_cast<std::size_t>(u) ||
          w == static_cast<std::size_t>(v)) {
        continue;
      }
      if (distance2(positions[w], pu) < d2 &&
          distance2(positions[w], pv) < d2) {
        return false;  // w sits in the lune
      }
    }
    return true;
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
