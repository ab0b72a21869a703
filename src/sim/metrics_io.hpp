#pragma once
// JSONL emission for lifetime runs: a run-manifest record carrying the run's
// SimConfig in its canonical wire format (sim/config_json) plus the seed
// bookkeeping, and an IntervalObserver that streams one record per update
// interval through the shared JsonlSink. Record schema is documented in
// DESIGN.md ("Observability") and pinned by obs_jsonl_test.

#include <cstddef>
#include <cstdint>
#include <string>

#include "obs/jsonl.hpp"
#include "sim/lifetime.hpp"

namespace pacds {

/// Bumped whenever a record field changes meaning; every record carries it.
/// v2: the run manifest nests the SimConfig under "config" (v1 flattened it
/// into top-level keys of its own naming).
inline constexpr int kMetricsSchemaVersion = 2;

/// Writes one `"type": "run_manifest"` line: `base_seed`, `trials`, the
/// resolved engine name, and under `"config"` the object
/// write_sim_config_json emits — so parse_sim_config_json on it reproduces
/// the run's SimConfig. A non-null, non-empty `faults` plan is embedded
/// (normalized) under the `"faults"` key; otherwise the key is null.
void write_run_manifest(obs::JsonlSink& sink, const SimConfig& config,
                        std::uint64_t base_seed, std::size_t trials,
                        const FaultPlan* faults = nullptr);

/// Streams each interval as a `"type": "interval"` line tagged with the
/// trial index, scheme, and resolved engine name (so multi-scheme /
/// multi-trial files stay self-describing). Degraded-mode runs additionally
/// stream one `"type": "fault_event"` line per FaultRecord.
class JsonlIntervalObserver final : public IntervalObserver {
 public:
  JsonlIntervalObserver(obs::JsonlSink& sink, const SimConfig& config,
                        std::size_t trial);

  void on_interval(const IntervalRecord& record) override;
  void on_fault(const FaultRecord& record) override;

 private:
  obs::JsonlSink* sink_;
  std::string scheme_;
  std::string engine_;
  std::size_t trial_;
};

}  // namespace pacds
