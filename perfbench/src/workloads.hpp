#pragma once
// The benchmark's workloads. Each one builds its inputs from the seed,
// times its steps for options.seconds, runs its output checks outside the
// timed phase, and returns the filled report (see harness.hpp). With
// options.trace the run also does a traced pass for the per-layer metrics.

#include "harness.hpp"

namespace perfbench {

/// Figures 11-13 sweep: paper host grid x five schemes x 40 trials through
/// run_sweep on a 4-worker trial pool (full-rebuild engine, sequential
/// rules). A step is one sweep point (one n, one scheme, all its trials).
[[nodiscard]] Report run_paper_sweep(const Options& options);

/// One LifetimeRun of 5000 hosts at the paper's density on the incremental
/// engine with 4 interval threads; `stay` is the paper-jump stay
/// probability c (0.95 = city_churn, 0.999 = city_calm). A step is one
/// LifetimeRun::step.
[[nodiscard]] Report run_city(const Options& options, const char* name,
                              double stay);

/// Closed loop through serve::Server::process_lines: 16 resident tenants of
/// mixed size and scheme on 4 executor threads, one tick per tenant per
/// round, plus a create (LRU eviction) and a status on a fixed schedule. A
/// step is one round.
[[nodiscard]] Report run_serve_mix(const Options& options);

}  // namespace perfbench
