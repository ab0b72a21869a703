#pragma once
// Shared plumbing of the repository benchmark: command-line options, the
// report every workload fills (end-to-end metrics, per-layer metrics, output
// checks, host stamps), latency statistics, and the in-memory span recorder
// used by traced runs. Workloads live in their own files and drive the
// program only through its public entry points.

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double ns_between(Clock::time_point a,
                                       Clock::time_point b) {
  return static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count());
}
[[nodiscard]] inline double ms_between(Clock::time_point a,
                                       Clock::time_point b) {
  return ns_between(a, b) / 1e6;
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Smoke-test sizes: every workload shrunk to run in about a second.
  bool tiny = false;
  /// Negative test: perturb each workload's expected result so its output
  /// check must fail.
  bool corrupt_expected = false;
  /// Where span dumps and JSON reports go (relative to the working dir).
  std::string out_dir = ".bench_out";
  /// Source revision stamp (git rev, or a digest of the sources when the
  /// checkout has no git metadata); supplied by run.py.
  std::string rev = "unknown";
};

/// One output check: a name, whether it held, and what was compared.
struct Check {
  std::string name;
  bool ok = false;
  std::string detail;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Everything one run reports. Metrics are looked up by name, so workloads
/// set them in any order; emit() orders them by the canonical lists.
struct Report {
  std::string workload;
  std::vector<Metric> end_to_end;
  std::vector<Metric> layers;
  std::vector<Check> checks;
  /// Free-form facts printed with the report (tail percentile, sample
  /// counts, placement attempts, ...).
  std::vector<std::pair<std::string, std::string>> notes;
  std::uint64_t attempted = 0;  ///< operations tried (steps + checks)
  std::uint64_t failed = 0;     ///< failed checks + serve_error records

  void metric(const std::string& name, double value);
  void layer(const std::string& name, double value);
  void note(const std::string& key, const std::string& value);
  void note(const std::string& key, double value);
  /// Records a check; a failed check counts as a failed operation.
  void check(const std::string& name, bool ok, const std::string& detail);
  [[nodiscard]] bool all_checks_ok() const;
};

/// Unit of every end-to-end metric, in report order.
struct MetricSpec {
  const char* name;
  const char* unit;
};
[[nodiscard]] const std::vector<MetricSpec>& end_to_end_specs();
[[nodiscard]] const std::vector<MetricSpec>& layer_specs();

// ---- latency statistics ---------------------------------------------------

/// Nearest-rank percentile (p in [0, 100]) of an unsorted sample.
[[nodiscard]] double percentile(std::vector<double> values, double p);
[[nodiscard]] double median(std::vector<double> values);

/// The report's tail: the highest rung of {99.9, 99, 95, 90, 50} with at
/// least ten samples beyond it. Runs time a fixed number of steps (see
/// steps_for), so a workload's rung is the same on every run.
struct Tail {
  double percentile = 0.0;
  double value = 0.0;
  std::size_t beyond = 0;  ///< samples strictly above the rank
};
[[nodiscard]] Tail tail_of(const std::vector<double>& values);

/// How many steps a run of `seconds` times. The timed phase is a fixed
/// amount of work, calibrated to take about `seconds` on the reference host
/// at `steps_per_second`, rather than a wall-clock deadline: the cost of a
/// lifetime interval drifts as a run ages (the EL keys of gateways and
/// non-gateways spread apart), so under a deadline a faster program would
/// time later, costlier intervals than a slower one.
[[nodiscard]] std::size_t steps_for(double seconds, double steps_per_second);

/// Fills step_ms_p50, step_ms_tail and intervals_per_s from a timed phase
/// (`step_intervals[i]` = intervals completed by step i), and notes the
/// percentile and sample counts. Throughput is the median over `blocks`
/// equal runs of consecutive steps, so a burst of outside load in one part
/// of the run moves it less. With `block_tail` the tail is taken the same
/// way: tail_of each block, then the median of those. Workloads count their
/// own attempted operations (steps, points or requests).
void report_steps(Report& report, const std::vector<double>& step_ms,
                  const std::vector<double>& step_intervals,
                  std::size_t blocks, bool block_tail = false);

/// Peak resident set of this process image in MB (VmHWM).
[[nodiscard]] double peak_rss_mb();

/// Notes the set-up's peak RSS, returns freed heap to the OS and resets the
/// high-water mark, so that peak_rss_mb() afterwards reports the timed
/// phase alone. Set-up peaks
/// depend on transient work (discarded placements, allocator history) that
/// varies with the seed; the timed phase's footprint is the steady one.
void start_timed_rss(Report& report);

// ---- tracing --------------------------------------------------------------

/// In-memory span recorder for traced runs: name, start, end (ns since the
/// recorder was made) and the index of the span that caused it. Nothing is
/// written until write_jsonl() at the end of the run.
class Tracer {
 public:
  static constexpr std::size_t kNoParent = static_cast<std::size_t>(-1);

  Tracer();
  [[nodiscard]] std::size_t begin(const char* name,
                                  std::size_t parent = kNoParent);
  /// Ends span `id` and returns its duration in ns.
  double end(std::size_t id);
  /// Records an already measured interval as a span.
  std::size_t add(const char* name, Clock::time_point start,
                  Clock::time_point stop, std::size_t parent = kNoParent);
  void write_jsonl(const std::string& path) const;

 private:
  struct Span {
    const char* name;
    double start_ns;
    double end_ns;
    std::size_t parent;
  };
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

// ---- output ---------------------------------------------------------------

/// Prints the human-readable report (stamps, metrics with units, checks,
/// notes), writes it as JSON under options.out_dir, then prints the final
/// one-line result object. Returns the process exit code: 0 only if every
/// check passed and no operation failed.
int emit(const Report& report, const Options& options);

}  // namespace perfbench
