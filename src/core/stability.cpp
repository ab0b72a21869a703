#include "core/stability.hpp"

#include <cmath>
#include <stdexcept>

namespace pacds {

StabilityTracker::StabilityTracker(std::size_t n, double beta, double quantum)
    : beta_(beta),
      quantum_(quantum),
      counts_(n, 0.0),
      ewma_(n, 0.0),
      quantized_(n, 0.0) {
  if (!(beta >= 0.0) || !(beta <= 1.0)) {
    throw std::invalid_argument("StabilityTracker: beta must be in [0, 1]");
  }
  if (!std::isfinite(quantum)) {
    throw std::invalid_argument("StabilityTracker: quantum must be finite");
  }
}

void StabilityTracker::commit() {
  for (std::size_t i = 0; i < ewma_.size(); ++i) {
    // One multiply-add per term, in this exact order, on every engine —
    // the cross-engine bit-identity contract depends on it.
    ewma_[i] = beta_ * ewma_[i] + (1.0 - beta_) * counts_[i];
    counts_[i] = 0.0;
    quantized_[i] =
        quantum_ > 0.0 ? std::floor(ewma_[i] / quantum_) : ewma_[i];
  }
}

void StabilityTracker::commit_delta(const EdgeDelta& delta) {
  for (const auto& [u, v] : delta.added) {
    count(u);
    count(v);
  }
  for (const auto& [u, v] : delta.removed) {
    count(u);
    count(v);
  }
  commit();
}

}  // namespace pacds
