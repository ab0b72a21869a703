#pragma once
// Per-layer instrumentation shared by the workloads' traced runs. Nothing
// here reaches inside src/: interval phase buckets and counters arrive
// through the public IntervalObserver API (or the serve stream's interval
// records), and the standalone layer timings call the public net/core/
// energy functions on inputs the benchmark generates itself.

#include <cstddef>
#include <cstdint>

#include "harness.hpp"
#include "io/json_parse.hpp"
#include "sim/lifetime.hpp"
#include "sim/trace.hpp"

namespace perfbench {

/// Sums interval phase buckets / counters and step spans, then publishes
/// per-interval means and the unattributed ("dark") share of the step span.
class LayerTally {
 public:
  void add_interval(const pacds::IntervalRecord& record);
  /// Adds one interval record as it appears on a metrics JSONL stream.
  void add_interval(const pacds::JsonValue& record);
  /// One step span and the phase time the engine attributed inside it.
  void add_step(double span_ns, double attributed_ns);
  /// Phase time (ns) summed over every interval added so far.
  [[nodiscard]] double attributed_ns() const { return attributed_ns_; }
  [[nodiscard]] double mean_step_ns() const;
  void publish(Report& report) const;

 private:
  std::size_t intervals_ = 0;
  std::size_t steps_ = 0;
  double step_ns_ = 0.0;
  double unattributed_ns_ = 0.0;
  double attributed_ns_ = 0.0;
  double touched_ = 0.0;
  double pool_tasks_ = 0.0;
  double marking_ns_ = 0.0;
  double rules_ns_ = 0.0;
  double delta_apply_ns_ = 0.0;
  double delta_extract_ns_ = 0.0;
  double link_build_ns_ = 0.0;
  double fault_apply_ns_ = 0.0;
  double full_refreshes_ = 0.0;
  double localized_updates_ = 0.0;
  double edges_added_ = 0.0;
  double edges_removed_ = 0.0;
};

/// Feeds every interval record of a run into a tally.
struct TallyObserver final : pacds::IntervalObserver {
  explicit TallyObserver(LayerTally& t) : tally(&t) {}
  LayerTally* tally;
  void on_interval(const pacds::IntervalRecord& record) override {
    tally->add_interval(record);
  }
};

/// Times the layer functions a lifetime interval calls, each on its own, on
/// a placement of the workload's size generated from `seed`:
/// random_connected_placement (net.placement_ns / net.placement_attempts),
/// build_udg, compute_cds (full-rebuild reference cost), one mobility step,
/// and the gateway_drain + BatteryBank::drain loop.
void probe_layers(const pacds::SimConfig& config, std::uint64_t seed,
                  Report& report, Tracer& tracer);

}  // namespace perfbench
