#include "net/link_maintainer.hpp"

#include <algorithm>
#include <stdexcept>

namespace pacds {

LinkMaintainer::LinkMaintainer(double radius, std::optional<RadioModel> radio)
    : radius_(radius) {
  if (!(radius >= 0.0)) {
    throw std::invalid_argument("LinkMaintainer: radius must be non-negative");
  }
  if (radio && radio->kind() != RadioKind::kUnitDisk) radio_ = *radio;
}

bool LinkMaintainer::linked(NodeId u, NodeId v) const {
  return !radio_ ||
         radio_->link(u, v,
                      distance2(positions_[static_cast<std::size_t>(u)],
                                positions_[static_cast<std::size_t>(v)]));
}

Graph LinkMaintainer::build(const std::vector<Vec2>& positions) {
  positions_ = positions;
  // Cells must have positive extent even for radius 0 (coincident points
  // still link under the closed-ball convention).
  grid_.emplace(positions_, radius_ > 0.0 ? radius_ : 1.0);
  moved_.resize_clear(positions.size());
  const auto n = static_cast<NodeId>(positions.size());
  Graph links(n);
  for (NodeId u = 0; u < n; ++u) {
    grid_->query_into(positions_[static_cast<std::size_t>(u)], radius_, u,
                      nbrs_);
    for (const NodeId v : nbrs_) {
      if (v > u && linked(u, v)) links.add_edge(u, v);
    }
  }
  return links;
}

const EdgeDelta& LinkMaintainer::diff(const std::vector<Vec2>& positions,
                                      const Graph& current) {
  if (!grid_ || positions.size() != positions_.size()) {
    throw std::invalid_argument(
        "LinkMaintainer::diff: needs a prior build() over as many hosts");
  }
  delta_.clear();
  movers_.clear();
  for (std::size_t i = 0; i < positions.size(); ++i) {
    if (positions[i] != positions_[i]) {
      movers_.push_back({static_cast<NodeId>(i), positions_[i]});
      moved_.set(i);
    }
  }
  // Re-file every mover first so neighborhood queries see the full new
  // configuration (the grid reads through positions_).
  for (const Move& m : movers_) {
    const auto vi = static_cast<std::size_t>(m.node);
    positions_[vi] = positions[vi];
    grid_->move(m.node, m.from, positions_[vi]);
  }
  for (const Move& m : movers_) {
    const NodeId v = m.node;
    grid_->query_into(positions_[static_cast<std::size_t>(v)], radius_, v,
                      nbrs_);
    // The current rows are radio-filtered, so the candidates must be too,
    // or the diff would re-add edges the channel vetoes.
    if (radio_) {
      nbrs_.erase(std::remove_if(nbrs_.begin(), nbrs_.end(),
                                 [&](NodeId u) { return !linked(v, u); }),
                  nbrs_.end());
    }
    // A pair whose endpoints both moved shows up in both movers' diffs;
    // keep it only for the smaller endpoint.
    const auto keep = [&](NodeId u) {
      return !moved_.test(static_cast<std::size_t>(u)) || v < u;
    };
    diff_sorted_rows(
        current.neighbors(v), nbrs_,
        [&](NodeId u) {
          if (keep(u)) delta_.removed.emplace_back(v, u);
        },
        [&](NodeId u) {
          if (keep(u)) delta_.added.emplace_back(v, u);
        });
  }
  for (const Move& m : movers_) moved_.reset(static_cast<std::size_t>(m.node));
  return delta_;
}

}  // namespace pacds
