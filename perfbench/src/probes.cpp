#include "probes.hpp"

#include <algorithm>
#include <optional>
#include <string>
#include <vector>

#include "core/cds.hpp"
#include "core/workspace.hpp"
#include "energy/battery.hpp"
#include "energy/traffic.hpp"
#include "net/mobility.hpp"
#include "net/rng.hpp"
#include "net/topology.hpp"
#include "net/udg.hpp"
#include "sim/threadpool.hpp"

namespace perfbench {

namespace {

using pacds::obs::Counter;
using pacds::obs::Phase;

double phase(const pacds::IntervalRecord& r, Phase p) {
  return static_cast<double>(r.phase_ns[static_cast<std::size_t>(p)]);
}
double counter(const pacds::IntervalRecord& r, Counter c) {
  return static_cast<double>(r.counters[static_cast<std::size_t>(c)]);
}

double number_field(const pacds::JsonValue& record, const char* key) {
  const pacds::JsonValue* v = record.find(key);
  return v != nullptr && v->is_number() ? v->as_number() : 0.0;
}

}  // namespace

void LayerTally::add_interval(const pacds::IntervalRecord& r) {
  ++intervals_;
  touched_ += static_cast<double>(r.touched);
  pool_tasks_ += counter(r, Counter::kPoolTasksSubmitted);
  marking_ns_ += phase(r, Phase::kMarking);
  rules_ns_ += phase(r, Phase::kRules);
  delta_apply_ns_ += phase(r, Phase::kDeltaApply);
  delta_extract_ns_ += phase(r, Phase::kDeltaExtract);
  link_build_ns_ += phase(r, Phase::kLinkBuild);
  fault_apply_ns_ += phase(r, Phase::kFaultApply);
  full_refreshes_ += counter(r, Counter::kFullRefreshes);
  localized_updates_ += counter(r, Counter::kLocalizedUpdates);
  edges_added_ += counter(r, Counter::kEdgesAdded);
  edges_removed_ += counter(r, Counter::kEdgesRemoved);
  for (const std::uint64_t ns : r.phase_ns) {
    attributed_ns_ += static_cast<double>(ns);
  }
}

void LayerTally::add_interval(const pacds::JsonValue& json) {
  pacds::IntervalRecord r;
  r.touched = static_cast<std::size_t>(number_field(json, "touched"));
  for (std::size_t i = 0; i < pacds::obs::kPhaseCount; ++i) {
    const std::string key =
        std::string(pacds::obs::phase_name(static_cast<Phase>(i))) + "_ns";
    r.phase_ns[i] = static_cast<std::uint64_t>(number_field(json, key.c_str()));
  }
  for (std::size_t i = 0; i < pacds::obs::kCounterCount; ++i) {
    r.counters[i] = static_cast<std::uint64_t>(number_field(
        json, pacds::obs::counter_name(static_cast<Counter>(i))));
  }
  add_interval(r);
}

void LayerTally::add_step(double span_ns, double attributed_ns) {
  ++steps_;
  step_ns_ += span_ns;
  unattributed_ns_ += span_ns - attributed_ns;
}

double LayerTally::mean_step_ns() const {
  return steps_ > 0 ? step_ns_ / static_cast<double>(steps_) : 0.0;
}

void LayerTally::publish(Report& report) const {
  const double per_interval =
      intervals_ > 0 ? 1.0 / static_cast<double>(intervals_) : 0.0;
  report.layer("sim.step_ns", mean_step_ns());
  report.layer("sim.unattributed_ns",
               steps_ > 0 ? unattributed_ns_ / static_cast<double>(steps_)
                          : 0.0);
  report.layer("sim.unattributed_share",
               step_ns_ > 0.0 ? unattributed_ns_ / step_ns_ : 0.0);
  report.layer("sim.touched", touched_ * per_interval);
  report.layer("sim.pool_tasks", pool_tasks_ * per_interval);
  report.layer("core.marking_ns", marking_ns_ * per_interval);
  report.layer("core.rules_ns", rules_ns_ * per_interval);
  report.layer("core.delta_apply_ns", delta_apply_ns_ * per_interval);
  report.layer("core.full_refreshes", full_refreshes_ * per_interval);
  report.layer("core.localized_updates", localized_updates_ * per_interval);
  report.layer("net.delta_extract_ns", delta_extract_ns_ * per_interval);
  report.layer("net.link_build_ns", link_build_ns_ * per_interval);
  report.layer("net.edges_added", edges_added_ * per_interval);
  report.layer("net.edges_removed", edges_removed_ * per_interval);
  report.note("trace.intervals", static_cast<double>(intervals_));
  report.note("trace.steps", static_cast<double>(steps_));
  report.note("trace.fault_apply_ns_per_interval",
              fault_apply_ns_ * per_interval);
}

void probe_layers(const pacds::SimConfig& config, std::uint64_t seed,
                  Report& report, Tracer& tracer) {
  const std::size_t probe = tracer.begin("probe_layers");
  const pacds::Field field(config.field_width, config.field_height,
                           config.field_depth, config.boundary);
  const int n = config.n_hosts;
  // Cheap layers are repeated (more often on small graphs) and report their
  // mean; the placement (up to connect_retries graph builds) runs once.
  const int reps = std::clamp(200000 / std::max(n, 1), 3, 200);
  pacds::Xoshiro256 rng(pacds::derive_seed(seed, 0x9a7e));

  std::vector<pacds::Vec2> positions;
  {
    const auto start = Clock::now();
    auto placed = pacds::random_connected_placement(
        n, field, config.radius, rng, config.connect_retries);
    const auto stop = Clock::now();
    tracer.add("net.placement", start, stop, probe);
    report.layer("net.placement_ns", ns_between(start, stop));
    report.layer("net.placement_attempts",
                 placed ? placed->attempts : config.connect_retries);
    report.note("placement.connected", placed ? "true" : "false");
    positions = placed ? std::move(placed->positions)
                       : pacds::random_placement(n, field, rng);
  }

  pacds::Graph graph;
  {
    const auto start = Clock::now();
    for (int i = 0; i < reps; ++i) {
      graph = pacds::build_udg(positions, config.radius);
    }
    const auto stop = Clock::now();
    tracer.add("net.udg_build", start, stop, probe);
    report.layer("net.udg_build_ns", ns_between(start, stop) / reps);
  }

  std::vector<double> energy(static_cast<std::size_t>(n));
  for (double& e : energy) e = config.initial_energy * (0.5 + 0.5 * rng.uniform01());
  pacds::CdsResult cds;
  {
    // The interval engines' convention: `threads` lanes = caller + pool.
    std::optional<pacds::ThreadPool> pool;
    if (config.threads > 1) {
      pool.emplace(static_cast<std::size_t>(config.threads - 1));
    }
    pacds::ExecContext ctx;
    ctx.executor = pool ? &*pool : nullptr;
    const auto start = Clock::now();
    for (int i = 0; i < reps; ++i) {
      cds = pacds::compute_cds(graph, config.rule_set, energy,
                               config.cds_options, ctx);
    }
    const auto stop = Clock::now();
    tracer.add("core.compute_cds", start, stop, probe);
    report.layer("core.compute_cds_ns", ns_between(start, stop) / reps);
  }

  {
    pacds::MobilityParams params = config.mobility_params;
    if (config.mobility_kind == pacds::MobilityKind::kPaperJump) {
      params.stay_probability = config.stay_probability;
      params.jump_min = config.jump_min;
      params.jump_max = config.jump_max;
    }
    auto mobility = pacds::make_mobility(config.mobility_kind, params);
    const auto start = Clock::now();
    for (int i = 0; i < reps; ++i) mobility->step(positions, field, rng);
    const auto stop = Clock::now();
    tracer.add("net.mobility", start, stop, probe);
    report.layer("net.mobility_ns", ns_between(start, stop) / reps);
  }

  {
    pacds::BatteryBank batteries(static_cast<std::size_t>(n),
                                 config.initial_energy);
    const auto start = Clock::now();
    for (int i = 0; i < reps; ++i) {
      const double d = pacds::gateway_drain(
          config.drain_model, static_cast<std::size_t>(n),
          cds.gateway_count, config.drain_params);
      for (std::size_t h = 0; h < batteries.size(); ++h) {
        batteries.drain(h, cds.gateways.test(h)
                               ? d
                               : config.drain_params.nongateway_drain);
      }
    }
    const auto stop = Clock::now();
    tracer.add("energy.drain", start, stop, probe);
    report.layer("energy.drain_ns", ns_between(start, stop) / reps);
  }
  tracer.end(probe);
}

}  // namespace perfbench
