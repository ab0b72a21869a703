#include "harness.hpp"

#include <malloc.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "core/simd.hpp"
#include "io/json.hpp"

namespace perfbench {

namespace {

Metric* find_metric(std::vector<Metric>& metrics, const std::string& name) {
  for (Metric& m : metrics) {
    if (m.name == name) return &m;
  }
  return nullptr;
}

const char* unit_of(const std::vector<MetricSpec>& specs,
                    const std::string& name) {
  for (const MetricSpec& spec : specs) {
    if (name == spec.name) return spec.unit;
  }
  return nullptr;
}

std::string format_number(double value) {
  return pacds::JsonWriter::format_double(value);
}

}  // namespace

const std::vector<MetricSpec>& end_to_end_specs() {
  static const std::vector<MetricSpec> specs{
      {"setup_s", "s"},          {"intervals_per_s", "1/s"},
      {"step_ms_p50", "ms"},     {"step_ms_tail", "ms"},
      {"peak_rss_mb", "MB"},     {"error_rate", "ratio"},
  };
  return specs;
}

const std::vector<MetricSpec>& layer_specs() {
  // Named after the src/ modules. *_ns values are means per step (per
  // interval for sim/core/net/energy, per request batch for serve); counts
  // are per interval unless the name says otherwise. A layer the workload
  // does not load reads 0.
  static const std::vector<MetricSpec> specs{
      {"sim.step_ns", "ns"},
      {"sim.trial_ns", "ns"},
      {"sim.unattributed_ns", "ns"},
      {"sim.unattributed_share", "ratio"},
      {"sim.touched", "count"},
      {"sim.pool_tasks", "count"},
      {"sim.pool_busy_frac", "ratio"},
      {"trace.overhead_ms", "ms"},
      {"core.marking_ns", "ns"},
      {"core.rules_ns", "ns"},
      {"core.delta_apply_ns", "ns"},
      {"core.full_refreshes", "count"},
      {"core.localized_updates", "count"},
      {"core.compute_cds_ns", "ns"},
      {"net.delta_extract_ns", "ns"},
      {"net.link_build_ns", "ns"},
      {"net.edges_added", "count"},
      {"net.edges_removed", "count"},
      {"net.mobility_ns", "ns"},
      {"net.udg_build_ns", "ns"},
      {"net.placement_ns", "ns"},
      {"net.placement_attempts", "count"},
      {"energy.drain_ns", "ns"},
      {"serve.tick_ns", "ns"},
      {"serve.create_ns", "ns"},
      {"serve.status_ns", "ns"},
      {"serve.evictions", "count"},
      {"serve.errors", "count"},
      {"io.parse_ns", "ns"},
      {"obs.out_bytes", "bytes"},
      {"obs.records", "count"},
  };
  return specs;
}

void Report::metric(const std::string& name, double value) {
  if (Metric* m = find_metric(end_to_end, name)) {
    m->value = value;
    return;
  }
  const char* unit = unit_of(end_to_end_specs(), name);
  if (unit == nullptr) throw std::logic_error("unknown metric " + name);
  end_to_end.push_back({name, value, unit});
}

void Report::layer(const std::string& name, double value) {
  if (Metric* m = find_metric(layers, name)) {
    m->value = value;
    return;
  }
  const char* unit = unit_of(layer_specs(), name);
  if (unit == nullptr) throw std::logic_error("unknown layer metric " + name);
  layers.push_back({name, value, unit});
}

void Report::note(const std::string& key, const std::string& value) {
  notes.emplace_back(key, value);
}

void Report::note(const std::string& key, double value) {
  notes.emplace_back(key, format_number(value));
}

void Report::check(const std::string& name, bool ok,
                   const std::string& detail) {
  checks.push_back({name, ok, detail});
  ++attempted;
  if (!ok) ++failed;
}

bool Report::all_checks_ok() const {
  if (checks.empty()) return false;
  return std::all_of(checks.begin(), checks.end(),
                     [](const Check& c) { return c.ok; });
}

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(values.size()));
  const std::size_t index =
      rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return values[std::min(index, values.size() - 1)];
}

double median(std::vector<double> values) { return percentile(values, 50.0); }

Tail tail_of(const std::vector<double>& values) {
  const auto beyond_rank = [&](double p) {
    const double rank =
        std::ceil(p / 100.0 * static_cast<double>(values.size()));
    return values.size() - std::min(values.size(),
                                    static_cast<std::size_t>(rank));
  };
  Tail tail;
  tail.percentile = 50.0;
  for (const double rung : {99.9, 99.0, 95.0, 90.0}) {
    if (beyond_rank(rung) >= 10) {
      tail.percentile = rung;
      break;
    }
  }
  tail.value = percentile(values, tail.percentile);
  tail.beyond = beyond_rank(tail.percentile);
  return tail;
}

std::size_t steps_for(double seconds, double steps_per_second) {
  return std::max<std::size_t>(
      20, static_cast<std::size_t>(std::llround(seconds * steps_per_second)));
}

void report_steps(Report& report, const std::vector<double>& step_ms,
                  const std::vector<double>& step_intervals,
                  std::size_t blocks, bool block_tail) {
  const std::size_t n = step_ms.size();
  blocks = std::clamp<std::size_t>(blocks, 1, std::max<std::size_t>(n, 1));
  std::vector<double> rates;
  std::vector<double> block_tails;
  Tail tail = tail_of(step_ms);
  double total_intervals = 0.0;
  double total_s = 0.0;
  for (std::size_t b = 0; b < blocks; ++b) {
    double intervals = 0.0;
    double seconds = 0.0;
    const auto first = static_cast<std::ptrdiff_t>(b * n / blocks);
    const auto last = static_cast<std::ptrdiff_t>((b + 1) * n / blocks);
    for (auto i = first; i < last; ++i) {
      intervals += step_intervals[static_cast<std::size_t>(i)];
      seconds += step_ms[static_cast<std::size_t>(i)] / 1e3;
    }
    total_intervals += intervals;
    total_s += seconds;
    if (seconds > 0.0) rates.push_back(intervals / seconds);
    if (block_tail) {
      // Blocks differ in size by at most one step, so they share a rung.
      tail = tail_of(std::vector<double>(step_ms.begin() + first,
                                         step_ms.begin() + last));
      block_tails.push_back(tail.value);
    }
  }
  if (block_tail) tail.value = median(block_tails);
  report.metric("step_ms_p50", median(step_ms));
  report.metric("step_ms_tail", tail.value);
  report.metric("intervals_per_s", median(rates));
  report.note("step_ms_tail.percentile", tail.percentile);
  report.note("step_ms_tail.samples_beyond", static_cast<double>(tail.beyond));
  report.note("step_ms_tail.blocks",
              static_cast<double>(block_tail ? blocks : 1));
  report.note("steps.samples", static_cast<double>(n));
  report.note("steps.intervals", total_intervals);
  report.note("steps.timed_s", total_s);
  report.note("intervals_per_s.blocks", static_cast<double>(rates.size()));
}

double peak_rss_mb() {
  // VmHWM belongs to this process image. getrusage's ru_maxrss would not
  // do: Linux carries it across execve, so it starts at the RSS of
  // whichever process forked the benchmark.
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MB
    }
  }
  throw std::runtime_error("peak_rss_mb: no VmHWM in /proc/self/status");
}

void start_timed_rss(Report& report) {
  report.note("setup.peak_rss_mb", peak_rss_mb());
  malloc_trim(0);  // hand set-up's freed heap back, so RSS is live memory
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";  // 5 = reset the peak RSS (Linux >= 4.0)
  clear.flush();
  if (!clear) throw std::runtime_error("cannot reset the peak RSS");
}

Tracer::Tracer() : origin_(Clock::now()) {}

std::size_t Tracer::begin(const char* name, std::size_t parent) {
  spans_.push_back({name, ns_between(origin_, Clock::now()), -1.0, parent});
  return spans_.size() - 1;
}

double Tracer::end(std::size_t id) {
  Span& span = spans_.at(id);
  span.end_ns = ns_between(origin_, Clock::now());
  return span.end_ns - span.start_ns;
}

std::size_t Tracer::add(const char* name, Clock::time_point start,
                        Clock::time_point stop, std::size_t parent) {
  spans_.push_back(
      {name, ns_between(origin_, start), ns_between(origin_, stop), parent});
  return spans_.size() - 1;
}

void Tracer::write_jsonl(const std::string& path) const {
  std::ofstream out(path);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    pacds::JsonWriter json(out);
    json.begin_object();
    json.key("id").value(i);
    json.key("name").value(s.name);
    json.key("start_ns").value(s.start_ns);
    json.key("end_ns").value(s.end_ns);
    if (s.parent == kNoParent) {
      json.key("parent").null();
    } else {
      json.key("parent").value(s.parent);
    }
    json.end_object();
    out << '\n';
  }
}

namespace {

struct Stamp {
  unsigned cores = std::thread::hardware_concurrency();
  std::string simd = pacds::simd::to_string(pacds::simd::active_level());
  std::string build_type = PERFBENCH_BUILD_TYPE;
  [[nodiscard]] bool valid() const { return build_type == "Release"; }
};

void write_metrics(pacds::JsonWriter& json, const std::vector<Metric>& metrics,
                   const std::vector<MetricSpec>& order) {
  json.begin_object();
  for (const MetricSpec& spec : order) {
    double value = 0.0;
    for (const Metric& m : metrics) {
      if (m.name == spec.name) value = m.value;
    }
    json.key(spec.name).begin_object();
    json.key("value").value(value);
    json.key("unit").value(spec.unit);
    json.end_object();
  }
  json.end_object();
}

}  // namespace

int emit(const Report& report, const Options& options) {
  const Stamp stamp;
  const bool ok = report.all_checks_ok() && report.failed == 0;
  const double error_rate =
      report.attempted > 0 ? static_cast<double>(report.failed) /
                                 static_cast<double>(report.attempted)
                           : 1.0;
  Report full = report;
  full.metric("error_rate", error_rate);

  std::cout << "perfbench " << report.workload << " seed=" << options.seed
            << " seconds=" << options.seconds
            << " trace=" << (options.trace ? 1 : 0)
            << (options.tiny ? " size=tiny" : "") << "\n"
            << "  host_cores=" << stamp.cores << " simd=" << stamp.simd
            << " rev=" << options.rev << " build_type=" << stamp.build_type
            << (stamp.valid() ? "" : "  ** INVALID: not a Release build **")
            << "\n";
  const auto print_metrics = [](const char* title,
                                const std::vector<Metric>& metrics,
                                const std::vector<MetricSpec>& order) {
    std::cout << "  " << title << ":\n";
    for (const MetricSpec& spec : order) {
      for (const Metric& m : metrics) {
        if (m.name == spec.name) {
          std::cout << "    " << m.name << " = " << format_number(m.value)
                    << " " << spec.unit << "\n";
        }
      }
    }
  };
  print_metrics("end-to-end", full.end_to_end, end_to_end_specs());
  if (options.trace) print_metrics("per-layer", full.layers, layer_specs());
  for (const auto& [key, value] : report.notes) {
    std::cout << "  note " << key << " = " << value << "\n";
  }
  for (const Check& c : report.checks) {
    std::cout << "  check " << c.name << ": " << (c.ok ? "ok" : "FAILED")
              << " (" << c.detail << ")\n";
  }
  std::cout << "  attempted=" << report.attempted
            << " failed=" << report.failed << "\n";

  std::error_code ec;
  std::filesystem::create_directories(options.out_dir, ec);
  const std::string stem = options.out_dir + "/" + report.workload + "-seed" +
                           std::to_string(options.seed) +
                           (options.trace ? "-trace" : "");
  {
    std::ofstream out(stem + ".report.json");
    pacds::JsonWriter json(out, 2);
    json.begin_object();
    json.key("workload").value(report.workload);
    json.key("seed").value(static_cast<std::size_t>(options.seed));
    json.key("seconds").value(options.seconds);
    json.key("trace").value(options.trace);
    json.key("tiny").value(options.tiny);
    json.key("host_cores").value(static_cast<std::size_t>(stamp.cores));
    json.key("simd").value(stamp.simd);
    json.key("rev").value(options.rev);
    json.key("build_type").value(stamp.build_type);
    json.key("valid").value(stamp.valid());
    json.key("correct").value(ok);
    json.key("attempted").value(static_cast<std::size_t>(report.attempted));
    json.key("failed").value(static_cast<std::size_t>(report.failed));
    json.key("end_to_end");
    write_metrics(json, full.end_to_end, end_to_end_specs());
    json.key("per_layer");
    write_metrics(json, full.layers, layer_specs());
    json.key("notes").begin_object();
    for (const auto& [key, value] : report.notes) json.key(key).value(value);
    json.end_object();
    json.key("checks").begin_array();
    for (const Check& c : report.checks) {
      json.begin_object();
      json.key("name").value(c.name);
      json.key("ok").value(c.ok);
      json.key("detail").value(c.detail);
      json.end_object();
    }
    json.end_array();
    json.end_object();
    out << '\n';
  }

  // Last line: the machine-readable result. Untraced runs carry the
  // end-to-end metrics except error_rate, which is `failed / attempted`
  // (and 0 at a correct run, so it cannot serve as a relative gate).
  std::ostringstream line;
  {
    pacds::JsonWriter json(line);
    json.begin_object();
    json.key("correct").value(ok);
    json.key("attempted").value(static_cast<std::size_t>(report.attempted));
    json.key("failed").value(static_cast<std::size_t>(report.failed));
    json.key("metrics");
    if (options.trace) {
      write_metrics(json, full.layers, layer_specs());
    } else {
      std::vector<MetricSpec> gated;
      for (const MetricSpec& spec : end_to_end_specs()) {
        if (std::string(spec.name) != "error_rate") gated.push_back(spec);
      }
      write_metrics(json, full.end_to_end, gated);
    }
    json.end_object();
  }
  std::cout << line.str() << std::endl;
  return ok ? 0 : 1;
}

}  // namespace perfbench
