#pragma once
// The link maintainer: the one place that decides which links exist for a
// set of host positions (unit disk, optionally vetoed pair by pair by a
// fading radio) and which of them changed since the last interval — the
// "change" the paper's locality feature (Section 2.2) re-decides around.
//
// build() files the positions in a SpatialGrid and returns the initial link
// graph. Each later diff() detects the movers by position comparison,
// re-files them in the grid, re-queries each mover's radio-filtered
// neighbors and two-pointer diffs them against the caller's current graph,
// so the cost is O(n) for the mover scan plus O(movers · degree) — never a
// rebuild. The radio veto is safe to re-evaluate pair by pair because a
// fade is a pure hash of (seed, pair): re-deciding one mover's links cannot
// disturb anyone else's. Every delta-driven engine holds one maintainer;
// steady-state diffs allocate nothing.

#include <optional>
#include <span>
#include <vector>

#include "core/bitset.hpp"
#include "core/graph.hpp"
#include "net/radio.hpp"
#include "net/udg.hpp"
#include "net/vec2.hpp"

namespace pacds {

class LinkMaintainer {
 public:
  /// A host whose position changed in the last diff(), and where it was.
  struct Move {
    NodeId node;
    Vec2 from;
  };

  /// `radio` vetoes unit-disk candidates; nullopt or a unit-disk model keeps
  /// every candidate. Throws std::invalid_argument for a negative radius.
  LinkMaintainer(double radius, std::optional<RadioModel> radio);

  /// The grid points into this object's positions copy.
  LinkMaintainer(const LinkMaintainer&) = delete;
  LinkMaintainer& operator=(const LinkMaintainer&) = delete;

  /// Files `positions` in a fresh grid and returns their link graph.
  [[nodiscard]] Graph build(const std::vector<Vec2>& positions);

  /// The edge delta that turns `current` — the link graph of the previous
  /// positions (build()'s result with every later delta applied) — into the
  /// link graph of `positions`. Each changed pair appears once, as
  /// (mover, other) with the smaller id first when both endpoints moved.
  /// Valid until the next diff(); requires a prior build() over as many
  /// hosts.
  const EdgeDelta& diff(const std::vector<Vec2>& positions,
                        const Graph& current);

  /// The hosts the last diff() found moved, ascending, with old positions.
  [[nodiscard]] std::span<const Move> movers() const noexcept {
    return movers_;
  }

 private:
  /// Whether the filed hosts u and v (within the radius) are linked.
  [[nodiscard]] bool linked(NodeId u, NodeId v) const;

  double radius_;
  std::optional<RadioModel> radio_;  ///< engaged only for a fading radio
  /// Positions the current links were computed for; the grid reads them.
  std::vector<Vec2> positions_;
  std::optional<SpatialGrid> grid_;
  // Steady-state scratch — reused, never reallocated after warm-up.
  EdgeDelta delta_;
  std::vector<Move> movers_;
  std::vector<NodeId> nbrs_;
  DynBitset moved_;
};

}  // namespace pacds
