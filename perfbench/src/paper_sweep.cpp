#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <sstream>
#include <utility>
#include <vector>

#include "net/rng.hpp"
#include "probes.hpp"
#include "sim/experiment.hpp"
#include "sim/montecarlo.hpp"
#include "sim/stats.hpp"
#include "sim/threadpool.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

constexpr std::size_t kTrialPoolThreads = 4;

struct Point {
  int n = 0;
  pacds::RuleSet scheme = pacds::RuleSet::kNR;
  friend bool operator<(const Point& a, const Point& b) {
    return std::pair(a.n, a.scheme) < std::pair(b.n, b.scheme);
  }
};

/// One sweep point through the public sweep entry point. run_sweep seeds a
/// point from (base_seed, n) alone, so a one-point sweep reproduces that
/// point of the full grid exactly. A null `pool` runs the trials serially.
pacds::LifetimeSummary run_point(const pacds::SweepConfig& sweep,
                                 const Point& point, pacds::ThreadPool* pool) {
  pacds::SweepConfig one = sweep;
  one.host_counts = {point.n};
  one.schemes = {point.scheme};
  return pacds::run_sweep(one, pool).rows.at(0).per_scheme.at(0);
}

pacds::SimConfig point_config(const pacds::SweepConfig& sweep,
                              const Point& point) {
  pacds::SimConfig config = sweep.base;
  config.n_hosts = point.n;
  config.rule_set = point.scheme;
  return config;
}

std::uint64_t point_seed(const pacds::SweepConfig& sweep, const Point& point) {
  return sweep.base_seed ^ (static_cast<std::uint64_t>(point.n) << 32);
}

double total_intervals(const pacds::LifetimeSummary& s) {
  return std::round(s.intervals.mean * static_cast<double>(s.intervals.count));
}

std::string describe(const pacds::LifetimeSummary& s) {
  std::ostringstream out;
  out.precision(17);
  out << "trials=" << s.intervals.count << " lifetime_mean="
      << s.intervals.mean << " lifetime_min=" << s.intervals.min
      << " lifetime_max=" << s.intervals.max
      << " gateways_mean=" << s.avg_gateways.mean
      << " marked_mean=" << s.avg_marked.mean
      << " disconnected=" << s.disconnected_trials;
  return out.str();
}

bool same_summary(const pacds::Summary& a, const pacds::Summary& b) {
  return a.count == b.count && a.mean == b.mean && a.stddev == b.stddev &&
         a.min == b.min && a.max == b.max;
}

bool same_point(const pacds::LifetimeSummary& a,
                const pacds::LifetimeSummary& b) {
  return same_summary(a.intervals, b.intervals) &&
         same_summary(a.avg_gateways, b.avg_gateways) &&
         same_summary(a.avg_marked, b.avg_marked) &&
         same_summary(a.avg_churn, b.avg_churn) &&
         a.capped_trials == b.capped_trials &&
         a.disconnected_trials == b.disconnected_trials;
}

}  // namespace

Report run_paper_sweep(const Options& options) {
  Report report;
  report.workload = "paper_sweep";
  Tracer tracer;

  // Paper defaults: drain Model 2, sequential strategy (full-rebuild
  // engine), c = 0.5, initial energy 100, 500 placement retries.
  pacds::SweepConfig sweep;
  sweep.host_counts = options.tiny ? std::vector<int>{3, 10, 20}
                                   : pacds::paper_host_counts();
  sweep.schemes.assign(std::begin(pacds::kAllRuleSets),
                       std::end(pacds::kAllRuleSets));
  sweep.trials = options.tiny ? 4 : 40;
  // Every pass is a whole sweep with its own base seed (see pass_sweep).
  const auto pass_sweep = [&](std::uint64_t stream, std::size_t pass) {
    pacds::SweepConfig config = sweep;
    config.base_seed = pacds::derive_seed(
        pacds::derive_seed(options.seed, stream), pass);
    return config;
  };
  constexpr std::uint64_t kTimedStream = 0x5eed;
  constexpr std::uint64_t kTracedStream = 0x7ace;
  std::vector<Point> points;
  for (const int n : sweep.host_counts) {
    for (const pacds::RuleSet s : sweep.schemes) points.push_back({n, s});
  }

  // Set-up: the trial pool, then one warm-up point at the largest n so
  // allocator and page state are in steady state before timing; repeated,
  // the last pool is kept.
  std::vector<double> setup_s;
  std::unique_ptr<pacds::ThreadPool> pool;
  const int setup_reps = 5;
  for (int rep = 0; rep < setup_reps; ++rep) {
    pool.reset();
    const auto start = Clock::now();
    pool = std::make_unique<pacds::ThreadPool>(kTrialPoolThreads);
    (void)run_point(pass_sweep(kTimedStream, 0),
                    {sweep.host_counts.back(), pacds::RuleSet::kEL1},
                    pool.get());
    setup_s.push_back(ns_between(start, Clock::now()) / 1e9);
  }
  report.metric("setup_s", median(setup_s));
  report.note("setup.reps", static_cast<double>(setup_reps));
  report.note("sweep.points", static_cast<double>(points.size()));
  report.note("sweep.trials_per_point", static_cast<double>(sweep.trials));
  report.note("pool.lanes", static_cast<double>(pool->max_lanes()));

  // Output-check sample: one point from each half of the host grid.
  pacds::Xoshiro256 rng(pacds::derive_seed(options.seed, 0xc4ec));
  const std::size_t half = sweep.host_counts.size() / 2;
  const auto pick = [&](std::size_t lo, std::size_t hi) {
    const auto i = static_cast<std::size_t>(rng.uniform_int(
        static_cast<std::int64_t>(lo), static_cast<std::int64_t>(hi) - 1));
    const auto s = static_cast<std::size_t>(rng.uniform_int(
        0, static_cast<std::int64_t>(sweep.schemes.size()) - 1));
    return Point{sweep.host_counts[i], sweep.schemes[s]};
  };
  const std::vector<Point> sample{pick(0, half),
                                  pick(half, sweep.host_counts.size())};
  std::map<Point, pacds::LifetimeSummary> pooled;

  // Timed phase: whole passes over the grid, each in a fresh seeded order,
  // so every run samples each point equally often and the percentiles
  // describe the grid. Each pass also draws fresh trial seeds: point
  // latencies cluster by host count with gaps between clusters, and which
  // cluster sits at the median moves with the seed, so one seed per run
  // would make the median jump between runs. A pass takes ~3.5 s on the
  // reference host (see steps_for).
  constexpr double kPassSeconds = 3.5;
  const auto passes = static_cast<std::size_t>(
      std::max(1.0, std::round(options.seconds / kPassSeconds)));
  const auto timed = [&](std::size_t pass_count, std::uint64_t stream,
                         std::vector<double>& point_ms,
                         std::vector<double>& intervals, double& wall_s,
                         std::vector<Point>* visited) {
    // `visited` is set only on the traced pass, which also records spans.
    pacds::Xoshiro256 order_rng(pacds::derive_seed(options.seed, stream));
    wall_s = 0.0;
    for (std::size_t pass = 0; pass < pass_count; ++pass) {
      const pacds::SweepConfig config = pass_sweep(stream, pass);
      std::vector<Point> order = points;
      std::shuffle(order.begin(), order.end(), order_rng);
      for (const Point& point : order) {
        const auto start = Clock::now();
        const pacds::LifetimeSummary summary =
            run_point(config, point, pool.get());
        const auto stop = Clock::now();
        point_ms.push_back(ms_between(start, stop));
        wall_s += ns_between(start, stop) / 1e9;
        intervals.push_back(total_intervals(summary));
        if (visited != nullptr) {
          visited->push_back(point);
          tracer.add("sim.sweep_point", start, stop);
        }
        if (stream == kTimedStream && pass == 0) pooled.emplace(point, summary);
      }
    }
  };

  start_timed_rss(report);
  std::vector<double> point_ms;
  std::vector<double> intervals;
  double wall_s = 0.0;
  const std::size_t untraced_passes =
      options.trace ? std::max<std::size_t>(1, passes / 2) : passes;
  timed(untraced_passes, kTimedStream, point_ms, intervals, wall_s, nullptr);
  // One throughput block per whole pass over the grid.
  report_steps(report, point_ms, intervals, untraced_passes);
  report.metric("peak_rss_mb", peak_rss_mb());
  report.attempted += point_ms.size();

  if (options.trace) {
    // One traced pass of pooled points (spans around each run_sweep call),
    // then every trial of those points re-run serially, twice: detached for
    // the pool's busy fraction sum(trial) / (wall * lanes) and the tracing
    // baseline, attached for trial spans, phase buckets and counters.
    std::vector<double> traced_ms;
    std::vector<Point> visited;
    std::vector<double> traced_intervals;
    double traced_wall = 0.0;
    timed(1, kTracedStream, traced_ms, traced_intervals, traced_wall,
          &visited);
    const pacds::SweepConfig traced_sweep = pass_sweep(kTracedStream, 0);
    LayerTally tally;
    TallyObserver observer(tally);
    std::vector<double> trial_ms;
    std::vector<double> traced_trial_ms;
    double trial_ns = 0.0;
    double busy_wall_ns = 0.0;
    // The serial re-runs cover a fixed share of the traced pass's points.
    const std::size_t serial_points = std::max<std::size_t>(1, points.size() / 10);
    for (std::size_t i = 0; i < serial_points; ++i) {
      const Point& point = visited[i];
      const std::size_t point_span = tracer.begin("sim.sweep_point_serial");
      const pacds::SimConfig config =
          pacds::montecarlo_trial_config(point_config(sweep, point), true);
      for (std::size_t t = 0; t < sweep.trials; ++t) {
        const std::uint64_t seed =
            pacds::derive_seed(point_seed(traced_sweep, point), t);
        auto start = Clock::now();
        (void)pacds::run_lifetime_trial(config, seed);
        auto stop = Clock::now();
        trial_ns += ns_between(start, stop);
        trial_ms.push_back(ms_between(start, stop));

        const double attributed_before = tally.attributed_ns();
        start = Clock::now();
        (void)pacds::run_lifetime_trial(config, seed, &observer);
        stop = Clock::now();
        tracer.add("sim.trial", start, stop, point_span);
        traced_trial_ms.push_back(ms_between(start, stop));
        tally.add_step(ns_between(start, stop),
                       tally.attributed_ns() - attributed_before);
      }
      tracer.end(point_span);
      busy_wall_ns += traced_ms[i] * 1e6;
    }
    tally.publish(report);
    report.layer("sim.step_ns", traced_wall * 1e9 /
                                    static_cast<double>(traced_ms.size()));
    report.layer("sim.trial_ns", tally.mean_step_ns());
    report.layer("sim.pool_busy_frac",
                 busy_wall_ns > 0.0
                     ? trial_ns / (busy_wall_ns *
                                   static_cast<double>(pool->max_lanes()))
                     : 0.0);
    report.layer("trace.overhead_ms",
                 median(traced_trial_ms) - median(trial_ms));
    report.note("trace.points_serial_rerun",
                static_cast<double>(trial_ms.size() / sweep.trials));
    probe_layers(point_config(sweep, {sweep.host_counts.back(),
                                      pacds::RuleSet::kEL1}),
                 traced_sweep.base_seed, report, tracer);
    tracer.write_jsonl(options.out_dir + "/paper_sweep-seed" +
                       std::to_string(options.seed) + ".spans.jsonl");
  }

  // Output check: the sampled points of the first timed pass, re-run
  // through the same entry point without a pool (so trial by trial with
  // run_lifetime_trial), must equal their pooled results.
  const pacds::SweepConfig checked = pass_sweep(kTimedStream, 0);
  for (const Point& point : sample) {
    const pacds::LifetimeSummary& got = pooled.at(point);
    pacds::LifetimeSummary serial = run_point(checked, point, nullptr);
    if (options.corrupt_expected) serial.intervals.mean += 1.0;
    report.check("pooled_equals_serial_n" + std::to_string(point.n) + "_" +
                     pacds::to_string(point.scheme),
                 same_point(got, serial),
                 "pooled " + describe(got) + "; serial " + describe(serial));
  }
  return report;
}

}  // namespace perfbench
