#include <algorithm>
#include <deque>
#include <memory>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "io/json.hpp"
#include "io/json_parse.hpp"
#include "net/rng.hpp"
#include "obs/jsonl.hpp"
#include "obs/validate.hpp"
#include "probes.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "sim/config_json.hpp"
#include "sim/metrics_io.hpp"
#include "sim/montecarlo.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

constexpr int kExecutorThreads = 4;
/// Every kCreateEvery-th round also creates a tenant (evicting the LRU one)
/// and asks for a status.
constexpr std::uint64_t kCreateEvery = 8;
/// Lines of the sampled tenant compared against a standalone run.
constexpr std::size_t kCheckLines = 200;
/// Untimed rounds before the timed phase: whole create cycles, so timed
/// rounds keep their place in the cycle.
constexpr std::uint64_t kWarmupRounds = 4 * kCreateEvery;
/// A round waits for all executor lanes, so one preempted lane delays it;
/// the tail is the median of the tails of this many blocks of rounds, so a
/// burst of outside load in one part of the run moves it little. Eight
/// blocks keep p95 as the rung at --seconds 20 (237 rounds, 11 beyond).
constexpr std::size_t kBlocks = 8;

struct TenantSpec {
  std::string name;
  pacds::SimConfig config;
  std::uint64_t seed = 1;
  std::string faults_json;  // empty = no fault plan
};

struct Mix {
  std::vector<TenantSpec> tenants;  // residents first, then the spares
  std::size_t residents = 0;
  std::size_t sampled = 0;  // index of the tenant the output check replays
  long intervals_per_tick = 1;
};

/// The tenant pool. Sizes are an even ladder over 50-400 hosts (so the mix
/// costs the same for every seed; the seed drives placements and
/// trajectories), schemes cycle through the paper's five, strategies
/// alternate (so some tenants run the incremental engine), energy stays at
/// the paper default so trials roll over inside ticks. One tenant carries a
/// fault plan; one runs SEL keys with Gauss-Markov mobility and a shadowing
/// radio.
Mix make_mix(const Options& options) {
  Mix mix;
  mix.residents = options.tiny ? 4 : 16;
  const std::size_t spares = options.tiny ? 1 : 4;
  const int n_lo = options.tiny ? 20 : 50;
  const int n_hi = options.tiny ? 60 : 400;
  const std::size_t count = mix.residents + spares;
  for (std::size_t i = 0; i < count; ++i) {
    TenantSpec t;
    t.name = (i < 10 ? "t0" : "t") + std::to_string(i);
    // Wire integers must stay exact as JSON numbers (< 2^53).
    t.seed = pacds::derive_seed(options.seed, 0x100 + i) >> 24;
    // Ladder position 7i mod count spreads sizes across names (count is
    // coprime to 7).
    t.config.n_hosts = n_lo + static_cast<int>((n_hi - n_lo) * ((7 * i) % count) /
                                               (count - 1));
    t.config.rule_set = pacds::kAllRuleSets[i % 5];
    if (i % 2 == 0) {
      t.config.cds_options.strategy = pacds::Strategy::kSimultaneous;
    }
    mix.tenants.push_back(std::move(t));
  }
  TenantSpec& faulted = mix.tenants[mix.residents - 2];
  faulted.faults_json =
      "{\"seed\":7,\"crashes\":[{\"node\":1,\"at\":3,\"recover_at\":9},"
      "{\"node\":2,\"at\":5}],\"thefts\":[{\"node\":3,\"at\":4,"
      "\"amount\":40}]}";
  TenantSpec& scenario = mix.tenants[mix.residents - 1];
  scenario.config.rule_set = pacds::RuleSet::kSEL;
  scenario.config.mobility_kind = pacds::MobilityKind::kGaussMarkov;
  scenario.config.radio = pacds::RadioKind::kShadowing;
  mix.sampled = mix.residents - 1;
  return mix;
}

std::string create_line(const TenantSpec& t) {
  std::ostringstream out;
  pacds::JsonWriter json(out);
  json.begin_object();
  json.key("op").value("create");
  json.key("tenant").value(t.name);
  json.key("config");
  pacds::write_sim_config_json(json, t.config);
  json.key("seed").value(static_cast<std::size_t>(t.seed));
  json.key("trials").value(1000000);
  json.end_object();
  std::string line = out.str();
  if (!t.faults_json.empty()) {
    line.pop_back();  // reopen the object for the fault plan
    line += ",\"faults\":" + t.faults_json + "}";
  }
  return line;
}

std::string tick_line(const std::string& name, long intervals) {
  return "{\"op\":\"tick\",\"tenant\":\"" + name +
         "\",\"intervals\":" + std::to_string(intervals) + "}";
}

std::string status_line(const std::string& name) {
  return "{\"op\":\"status\",\"tenant\":\"" + name + "\"}";
}

/// Timing fields are the only nondeterministic part of a stream.
std::string canonical(std::string_view line) {
  std::string out;
  out.reserve(line.size());
  std::size_t i = 0;
  while (i < line.size()) {
    const std::size_t hit = line.find("_ns\":", i);
    if (hit == std::string_view::npos) break;
    std::size_t end = hit + 5;
    while (end < line.size() && line[end] >= '0' && line[end] <= '9') ++end;
    out.append(line.substr(i, hit + 5 - i));
    out += '0';
    i = end;
  }
  out.append(line.substr(i));
  return out;
}

/// The sampled tenant's interval / fault records as a standalone
/// LifetimeRun of the same config and seed emits them, trial after trial.
std::vector<std::string> standalone_lines(const TenantSpec& t,
                                          std::size_t count) {
  const pacds::SimConfig config = pacds::montecarlo_trial_config(t.config, true);
  std::ostringstream buffer;
  pacds::obs::JsonlSink sink(buffer);
  for (std::size_t trial = 0; sink.records() < count; ++trial) {
    pacds::JsonlIntervalObserver observer(sink, config, trial);
    pacds::LifetimeRun run(config, pacds::derive_seed(t.seed, trial),
                           &observer);
    while (sink.records() < count && run.step()) {
    }
  }
  std::vector<std::string> lines;
  std::istringstream in(buffer.str());
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  return lines;
}

/// Pulls (and clears) what the server wrote since the last call.
std::string drain(std::ostringstream& out) {
  std::string text = out.str();
  out.str("");
  out.clear();
  return text;
}

std::vector<std::string> split_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::size_t start = 0;
  while (start < text.size()) {
    std::size_t end = text.find('\n', start);
    if (end == std::string::npos) end = text.size();
    lines.emplace_back(text, start, end - start);
    start = end + 1;
  }
  return lines;
}

}  // namespace

Report run_serve_mix(const Options& options) {
  Report report;
  report.workload = "serve_mix";
  Tracer tracer;
  const Mix mix = make_mix(options);
  pacds::serve::ServeOptions serve_options;
  serve_options.threads = kExecutorThreads;
  serve_options.max_tenants = mix.residents;

  std::vector<std::string> creates;
  std::vector<std::string> first_ticks;
  for (std::size_t i = 0; i < mix.residents; ++i) {
    creates.push_back(create_line(mix.tenants[i]));
    first_ticks.push_back(
        tick_line(mix.tenants[i].name, mix.intervals_per_tick));
  }

  // Set-up: a fresh server, the initial creates and the first tick of each
  // tenant (its first full update), repeated; the last server stays
  // resident for the timed phase.
  std::vector<double> setup_s;
  std::ostringstream out;
  std::unique_ptr<pacds::serve::Server> server;
  const int setup_reps = 25;
  for (int rep = 0; rep < setup_reps; ++rep) {
    server.reset();
    (void)drain(out);
    const auto start = Clock::now();
    server = std::make_unique<pacds::serve::Server>(serve_options, out);
    server->process_lines(creates);
    server->process_lines(first_ticks);
    setup_s.push_back(ns_between(start, Clock::now()) / 1e9);
  }
  report.metric("setup_s", median(setup_s));
  report.note("setup.reps", static_cast<double>(setup_reps));
  report.note("tenants.resident", static_cast<double>(mix.residents));
  report.note("tenants.names", static_cast<double>(mix.tenants.size()));
  report.note("executor.threads", static_cast<double>(kExecutorThreads));
  report.note("tick.intervals", static_cast<double>(mix.intervals_per_tick));
  // The set-up's output (manifests plus the first interval of each tenant)
  // prefixes every round's block when it is validated, since the validator
  // wants a whole stream.
  const std::string setup_output = drain(out);
  std::size_t setup_intervals = 0;
  {
    std::istringstream stream(setup_output);
    setup_intervals =
        pacds::obs::validate_metrics_stream(stream).count_of("interval");
  }

  // Client state: residents in LRU order (every round ticks them front to
  // back, so the front is always the least recently used).
  std::deque<std::size_t> residents;
  for (std::size_t i = 0; i < mix.residents; ++i) residents.push_back(i);
  std::size_t spare_cursor = 0;
  std::uint64_t round = 0;
  std::size_t requests = 0;
  std::size_t errors = 0;
  std::size_t evictions = 0;
  std::size_t lru_mismatches = 0;
  std::size_t invalid_rounds = 0;
  std::string first_invalid;
  std::vector<std::string> sampled_lines;
  bool sampled_evicted = false;
  const std::string sampled_prefix =
      "{\"tenant\":\"" + mix.tenants[mix.sampled].name + "\",";

  // The sampled tenant's interval / fault records, in stream order.
  const auto collect_sample = [&](const std::string& line) {
    if (!sampled_evicted && sampled_lines.size() < kCheckLines &&
        line.rfind(sampled_prefix, 0) == 0 &&
        (line.find("\"type\":\"interval\"") != std::string::npos ||
         line.find("\"type\":\"fault_event\"") != std::string::npos)) {
      sampled_lines.push_back("{" + line.substr(sampled_prefix.size()));
    }
  };
  for (const std::string& line : split_lines(setup_output)) {
    collect_sample(line);
  }

  struct RoundPlan {
    std::vector<std::string> create;  // zero or one line
    std::vector<std::string> ticks;
    std::vector<std::string> status;  // zero or one line
    std::string expected_victim;
    [[nodiscard]] std::vector<std::string> lines() const {
      std::vector<std::string> all = create;
      all.insert(all.end(), ticks.begin(), ticks.end());
      all.insert(all.end(), status.begin(), status.end());
      return all;
    }
  };
  const auto plan_round = [&]() {
    RoundPlan plan;
    if (round % kCreateEvery == kCreateEvery - 1) {
      std::size_t pick = 0;
      for (std::size_t k = 0; k < mix.tenants.size(); ++k) {
        pick = (spare_cursor + k) % mix.tenants.size();
        if (std::find(residents.begin(), residents.end(), pick) ==
            residents.end()) {
          break;
        }
      }
      spare_cursor = pick + 1;
      plan.create.push_back(create_line(mix.tenants[pick]));
      plan.expected_victim = mix.tenants[residents.front()].name;
      // A re-created tenant restarts at trial 0; compare one residency only.
      if (residents.front() == mix.sampled) sampled_evicted = true;
      residents.pop_front();
      residents.push_back(pick);
      plan.status.push_back(status_line(mix.tenants[pick].name));
    }
    for (const std::size_t i : residents) {
      plan.ticks.push_back(tick_line(mix.tenants[i].name,
                                     mix.intervals_per_tick));
    }
    ++round;
    return plan;
  };

  // Untimed bookkeeping after each round: validation, error and interval
  // counts, the eviction the client predicted, the sampled tenant's lines.
  const auto absorb = [&](const RoundPlan& plan, const std::string& block,
                          LayerTally* tally) -> std::size_t {
    requests += plan.create.size() + plan.ticks.size() + plan.status.size();
    std::istringstream stream(setup_output + block);
    const pacds::obs::StreamValidation v =
        pacds::obs::validate_metrics_stream(stream);
    if (!v.ok) {
      ++invalid_rounds;
      if (first_invalid.empty()) first_invalid = v.error;
    }
    const std::size_t round_errors = v.count_of("serve_error");
    errors += round_errors;
    if (round_errors > 0 && first_invalid.empty()) {
      const std::size_t at = block.find("\"type\":\"serve_error\"");
      const std::size_t begin = block.rfind('\n', at);
      first_invalid = block.substr(begin == std::string::npos ? 0 : begin + 1,
                                   block.find('\n', at) - (begin + 1));
    }
    if (!plan.expected_victim.empty()) {
      const std::string key = "\"evicted\":\"" + plan.expected_victim + "\"";
      if (block.find(key) == std::string::npos) {
        ++lru_mismatches;
      } else {
        ++evictions;
      }
    }
    if ((!sampled_evicted && sampled_lines.size() < kCheckLines) ||
        tally != nullptr) {
      for (const std::string& line : split_lines(block)) {
        collect_sample(line);
        if (tally != nullptr &&
            line.find("\"type\":\"interval\"") != std::string::npos) {
          tally->add_interval(pacds::parse_json(line));
        }
      }
    }
    return v.count_of("interval") - setup_intervals;
  };

  start_timed_rss(report);
  for (std::uint64_t r = 0; r < kWarmupRounds; ++r) {
    const RoundPlan plan = plan_round();
    server->process_lines(plan.lines());
    (void)absorb(plan, drain(out), nullptr);
  }
  report.note("warmup.rounds", static_cast<double>(kWarmupRounds));
  // Rounds per second of --seconds on the reference host (see steps_for).
  const std::size_t rounds = steps_for(options.seconds, 95);
  const std::size_t untraced_rounds = options.trace ? rounds / 2 : rounds;
  std::vector<double> round_ms;
  std::vector<double> round_intervals;
  while (round_ms.size() < untraced_rounds) {
    const RoundPlan plan = plan_round();
    const std::vector<std::string> lines = plan.lines();
    const auto start = Clock::now();
    server->process_lines(lines);
    const auto stop = Clock::now();
    round_ms.push_back(ms_between(start, stop));
    round_intervals.push_back(
        static_cast<double>(absorb(plan, drain(out), nullptr)));
  }
  report_steps(report, round_ms, round_intervals, kBlocks, /*block_tail=*/true);
  report.metric("peak_rss_mb", peak_rss_mb());

  if (options.trace) {
    // Same rounds, issued as one process_lines call per request kind (the
    // create and status are serial barriers in the server either way), with
    // a span per kind, request parsing timed on its own, and every interval
    // record's phase buckets and counters tallied.
    LayerTally tally;
    std::vector<double> traced_ms;
    double tick_ns = 0.0, create_ns = 0.0, status_ns = 0.0, parse_ns = 0.0;
    double out_bytes = 0.0, records = 0.0;
    std::size_t creates_timed = 0, status_timed = 0;
    const std::size_t evictions_before = evictions;
    // Traced and untraced runs of kCreateEvery rounds alternate (so both
    // see creates), and the tracing overhead is measured against rounds
    // taken at the same time.
    std::vector<double> untraced_ms;
    for (std::size_t r = untraced_rounds; r < rounds; ++r) {
      const bool traced = (round / kCreateEvery) % 2 == 0;
      const RoundPlan plan = plan_round();
      if (!traced) {
        const auto start = Clock::now();
        server->process_lines(plan.lines());
        const auto stop = Clock::now();
        untraced_ms.push_back(ms_between(start, stop));
        (void)absorb(plan, drain(out), nullptr);
        continue;
      }
      const std::size_t round_span = tracer.begin("serve.round");
      const auto start = Clock::now();
      if (!plan.create.empty()) {
        const std::size_t span = tracer.begin("serve.create", round_span);
        server->process_lines(plan.create);
        create_ns += tracer.end(span);
        ++creates_timed;
      }
      const std::size_t tick_span = tracer.begin("serve.tick", round_span);
      server->process_lines(plan.ticks);
      tick_ns += tracer.end(tick_span);
      if (!plan.status.empty()) {
        const std::size_t span = tracer.begin("serve.status", round_span);
        server->process_lines(plan.status);
        status_ns += tracer.end(span);
        ++status_timed;
      }
      const auto stop = Clock::now();
      tracer.end(round_span);
      traced_ms.push_back(ms_between(start, stop));

      const auto parse_start = Clock::now();
      std::uint64_t seq = 0;
      for (const auto* group : {&plan.create, &plan.ticks, &plan.status}) {
        for (const std::string& line : *group) {
          pacds::serve::RequestError error;
          (void)pacds::serve::parse_request(line, ++seq, error);
        }
      }
      parse_ns += ns_between(parse_start, Clock::now());

      const std::string block = drain(out);
      out_bytes += static_cast<double>(block.size());
      records += static_cast<double>(
          std::count(block.begin(), block.end(), '\n'));
      // Executor lanes run tenants' intervals side by side, so the phase
      // time the records report covers about 1/lanes of as much wall time.
      const double attributed_before = tally.attributed_ns();
      (void)absorb(plan, block, &tally);
      tally.add_step(ns_between(start, stop),
                     (tally.attributed_ns() - attributed_before) /
                         kExecutorThreads);
    }
    tally.publish(report);
    const auto traced_rounds = static_cast<double>(traced_ms.size());
    report.layer("serve.tick_ns", tick_ns / traced_rounds);
    report.layer("serve.create_ns",
                 create_ns / static_cast<double>(std::max<std::size_t>(
                                 creates_timed, 1)));
    report.layer("serve.status_ns",
                 status_ns / static_cast<double>(std::max<std::size_t>(
                                 status_timed, 1)));
    report.layer("serve.evictions",
                 static_cast<double>(evictions - evictions_before));
    report.layer("io.parse_ns", parse_ns / traced_rounds);
    report.layer("obs.out_bytes", out_bytes / traced_rounds);
    report.layer("obs.records", records / traced_rounds);
    report.layer("trace.overhead_ms", median(traced_ms) - median(untraced_ms));
    const pacds::SimConfig& largest =
        std::max_element(mix.tenants.begin(), mix.tenants.end(),
                         [](const TenantSpec& a, const TenantSpec& b) {
                           return a.config.n_hosts < b.config.n_hosts;
                         })
            ->config;
    probe_layers(largest, options.seed, report, tracer);
    tracer.write_jsonl(options.out_dir + "/serve_mix-seed" +
                       std::to_string(options.seed) + ".spans.jsonl");
  }
  report.layer("serve.errors", static_cast<double>(errors));
  server.reset();

  report.attempted += requests;
  report.failed += errors;
  report.note("requests", static_cast<double>(requests));
  report.note("serve_errors", static_cast<double>(errors));
  report.note("evictions", static_cast<double>(evictions));
  report.check("stream_validates_without_serve_errors",
               invalid_rounds == 0 && errors == 0,
               std::to_string(invalid_rounds) + " invalid rounds, " +
                   std::to_string(errors) + " serve_error records" +
                   (first_invalid.empty() ? "" : "; first: " + first_invalid));
  report.check("lru_evicts_predicted_tenant", lru_mismatches == 0,
               std::to_string(evictions) + " evictions as predicted, " +
                   std::to_string(lru_mismatches) + " mismatched");

  std::vector<std::string> expected =
      standalone_lines(mix.tenants[mix.sampled], sampled_lines.size());
  if (options.corrupt_expected && !expected.empty()) {
    expected.front() += " ";
  }
  std::size_t mismatch = sampled_lines.size();
  for (std::size_t i = 0; i < sampled_lines.size(); ++i) {
    if (i >= expected.size() ||
        canonical(sampled_lines[i]) != canonical(expected[i])) {
      mismatch = i;
      break;
    }
  }
  report.check("sampled_tenant_matches_standalone",
               !sampled_lines.empty() && mismatch == sampled_lines.size(),
               mix.tenants[mix.sampled].name + ": " +
                   std::to_string(sampled_lines.size()) +
                   " records compared" +
                   (mismatch < sampled_lines.size()
                        ? ", first mismatch at record " +
                              std::to_string(mismatch)
                        : ""));
  return report;
}

}  // namespace perfbench
