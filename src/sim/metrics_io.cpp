#include "sim/metrics_io.hpp"

#include "obs/metrics.hpp"
#include "sim/config_json.hpp"
#include "sim/engine.hpp"

namespace pacds {

void write_run_manifest(obs::JsonlSink& sink, const SimConfig& config,
                        std::uint64_t base_seed, std::size_t trials,
                        const FaultPlan* faults) {
  sink.record([&](JsonWriter& json) {
    json.key("type").value("run_manifest");
    json.key("schema").value(kMetricsSchemaVersion);
    json.key("base_seed").value(static_cast<std::size_t>(base_seed));
    json.key("trials").value(trials);
    json.key("engine").value(resolved_engine_name(config));
    json.key("config");
    write_sim_config_json(json, config);
    if (faults != nullptr && !faults->empty()) {
      json.key("faults");
      write_fault_plan(json, *faults);
    } else {
      json.key("faults").null();
    }
  });
}

JsonlIntervalObserver::JsonlIntervalObserver(obs::JsonlSink& sink,
                                             const SimConfig& config,
                                             std::size_t trial)
    : sink_(&sink),
      scheme_(to_string(config.rule_set)),
      engine_(resolved_engine_name(config)),
      trial_(trial) {}

void JsonlIntervalObserver::on_interval(const IntervalRecord& record) {
  sink_->record([&](JsonWriter& json) {
    json.key("type").value("interval");
    json.key("schema").value(kMetricsSchemaVersion);
    json.key("trial").value(trial_);
    json.key("scheme").value(scheme_);
    json.key("engine").value(engine_);
    json.key("interval").value(static_cast<std::int64_t>(record.interval));
    json.key("marked").value(record.marked);
    json.key("gateways").value(record.gateways);
    json.key("alive").value(record.alive);
    json.key("touched").value(record.touched);
    json.key("energy_min").value(record.min_energy);
    json.key("energy_mean").value(record.mean_energy);
    json.key("energy_max").value(record.max_energy);
    for (std::size_t i = 0; i < obs::kPhaseCount; ++i) {
      json.key(std::string(obs::phase_name(static_cast<obs::Phase>(i))) +
               "_ns")
          .value(static_cast<std::size_t>(record.phase_ns[i]));
    }
    for (std::size_t i = 0; i < obs::kCounterCount; ++i) {
      json.key(obs::counter_name(static_cast<obs::Counter>(i)))
          .value(static_cast<std::size_t>(record.counters[i]));
    }
  });
}

void JsonlIntervalObserver::on_fault(const FaultRecord& record) {
  sink_->record([&](JsonWriter& json) {
    json.key("type").value("fault_event");
    json.key("schema").value(kMetricsSchemaVersion);
    json.key("trial").value(trial_);
    json.key("scheme").value(scheme_);
    json.key("engine").value(engine_);
    json.key("interval").value(static_cast<std::int64_t>(record.interval));
    json.key("kind").value(to_string(record.kind));
    json.key("cause").value(to_string(record.cause));
    if (record.node >= 0) {
      json.key("node").value(record.node);
    } else {
      json.key("node").null();
    }
    json.key("amount").value(record.amount);
    json.key("down").value(record.down);
    if (record.kind == FaultKind::kRepair) {
      json.key("touched").value(record.touched);
      json.key("repair_ns").value(static_cast<std::size_t>(record.repair_ns));
      json.key("backbone_ok").value(record.backbone_ok);
      json.key("coverage").value(record.coverage);
      json.key("gateways").value(record.gateways);
    }
  });
}

}  // namespace pacds
