#pragma once
// Per-host link-stability prediction for the SEL priority key: each host's
// neighborhood churn (link endpoints gained or lost this interval) feeds a
// first-order EWMA, and the quantized EWMA is the "instability" half of the
// (stability, energy, id) key. The tracker is engine-agnostic on purpose:
// every engine feeds it the symmetric difference of two consecutive link
// sets through commit_delta — the incremental/tiled engines their link
// maintainer's delta, the full-rebuild engine one collected by diffing
// consecutive adjacency rows — so the integer counts, the EWMA arithmetic,
// and therefore the CDS, stay bit-identical across engines.

#include <cstddef>
#include <vector>

#include "core/graph.hpp"

namespace pacds {

class StabilityTracker {
 public:
  /// `beta` is the EWMA memory (0 = only the latest interval counts,
  /// 1 = frozen); `quantum` buckets the EWMA for key comparison just like
  /// energy_key_quantum buckets battery levels (<= 0 = raw EWMA values).
  StabilityTracker(std::size_t n, double beta, double quantum);

  /// Records that `node` gained or lost one link endpoint this interval.
  void count(NodeId node) {
    counts_[static_cast<std::size_t>(node)] += 1.0;
  }

  /// Folds the interval's counts into the EWMA and resets them. Call
  /// exactly once per interval, after every link change was counted.
  void commit();

  /// The one feed every engine uses: counts both endpoints of each edge of
  /// `delta` (the symmetric difference of two consecutive link sets, each
  /// changed pair listed once), then commits.
  void commit_delta(const EdgeDelta& delta);

  /// Quantized per-host churn estimates for PriorityKey / compute_cds.
  /// Valid until the next commit(); all zeros before the first one.
  [[nodiscard]] const std::vector<double>& stability() const {
    return quantized_;
  }

  [[nodiscard]] double beta() const noexcept { return beta_; }
  [[nodiscard]] double quantum() const noexcept { return quantum_; }

 private:
  double beta_;
  double quantum_;
  std::vector<double> counts_;     ///< this interval's raw endpoint counts
  std::vector<double> ewma_;       ///< committed churn estimate
  std::vector<double> quantized_;  ///< floor(ewma / quantum) buckets
};

}  // namespace pacds
