#include "sim/faults.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <stdexcept>

#include "core/verify.hpp"
#include "io/json.hpp"
#include "io/json_parse.hpp"

namespace pacds {

namespace {

[[noreturn]] void fail(const std::string& message) {
  throw std::runtime_error("fault plan: " + message);
}

double number_of(const JsonValue& value, const std::string& what) {
  if (!value.is_number()) fail(what + " must be a number");
  return value.as_number();
}

/// An integer in [lo, hi]; otherwise fails with "<what> must be <rule>".
long integer_of(const JsonValue& value, const std::string& what, double lo,
                double hi, const char* rule) {
  const double raw = number_of(value, what);
  if (raw != std::floor(raw) || raw < lo || raw > hi) {
    fail(what + " must be " + rule);
  }
  return static_cast<long>(raw);
}

long interval_of(const JsonValue& value, const std::string& what) {
  return integer_of(value, what, 1.0, 1e15, "an integer interval >= 1");
}

/// recover_at / until: 0 (never) or a later interval; the "> at" half is
/// checked by the caller once both ends are known.
long end_interval_of(const JsonValue& value, const std::string& what) {
  return integer_of(value, what, 0.0, 1e15, "0 or an integer interval");
}

int node_of(const JsonValue& value, const std::string& what) {
  return static_cast<int>(integer_of(value, what, 0.0, 1e9,
                                     "a non-negative integer host id"));
}

double rate_of(const JsonValue& value, const std::string& what) {
  const double raw = number_of(value, what);
  if (!(raw >= 0.0) || raw >= 1.0) fail(what + " must be in [0, 1)");
  return raw;
}

/// One key of a plan object and how to read its value (`what` names the
/// value in errors).
struct Member {
  const char* key;
  std::function<void(const JsonValue& value, const std::string& what)> read;
  bool required = false;
};

/// Reads object `value` (named `at` in errors) member by member. Unknown
/// keys fail loudly, and so does a missing required member ("<at> needs
/// <needs>"); the parser rejects duplicate keys, so counting suffices.
void read_members(const JsonValue& value, const std::string& at,
                  const std::vector<Member>& members, const char* needs = "") {
  if (!value.is_object()) fail(at + " must be an object");
  std::ptrdiff_t required = 0;
  for (const auto& [key, member] : value.as_object()) {
    const auto it = std::find_if(members.begin(), members.end(),
                                 [&](const Member& m) { return key == m.key; });
    if (it == members.end()) fail(at + ": unknown key \"" + key + "\"");
    it->read(member, at + "." + key);
    required += it->required ? 1 : 0;
  }
  if (required < std::count_if(members.begin(), members.end(),
                               [](const Member& m) { return m.required; })) {
    fail(at + " needs " + needs);
  }
}

/// Appends every element of the array `value` (named `what`) to `out`.
template <typename Spec, typename Parse>
void read_list(const JsonValue& value, const std::string& what,
               std::vector<Spec>& out, Parse parse) {
  if (!value.is_array()) fail(what + " must be an array");
  const JsonArray& items = value.as_array();
  for (std::size_t i = 0; i < items.size(); ++i) {
    out.push_back(parse(items[i], what + "[" + std::to_string(i) + "]"));
  }
}

CrashSpec parse_crash(const JsonValue& value, const std::string& at) {
  CrashSpec spec;
  read_members(
      value, at,
      {{"node", [&](auto& v, auto& w) { spec.node = node_of(v, w); }, true},
       {"at", [&](auto& v, auto& w) { spec.at = interval_of(v, w); }, true},
       {"recover_at",
        [&](auto& v, auto& w) { spec.recover_at = end_interval_of(v, w); }}},
      R"("node" and "at")");
  if (spec.recover_at != 0 && spec.recover_at <= spec.at) {
    fail(at + ".recover_at must be 0 or > at");
  }
  return spec;
}

TheftSpec parse_theft(const JsonValue& value, const std::string& at) {
  TheftSpec spec;
  read_members(
      value, at,
      {{"node", [&](auto& v, auto& w) { spec.node = node_of(v, w); }, true},
       {"at", [&](auto& v, auto& w) { spec.at = interval_of(v, w); }, true},
       {"amount", [&](auto& v, auto& w) { spec.amount = number_of(v, w); },
        true}},
      R"("node", "at" and "amount")");
  if (!(spec.amount > 0.0)) fail(at + ".amount must be > 0");
  return spec;
}

BlackoutSpec parse_blackout(const JsonValue& value, const std::string& at) {
  BlackoutSpec spec;
  const auto coordinate = [&](double& field) {
    return [&field](auto& v, auto& w) { field = number_of(v, w); };
  };
  read_members(
      value, at,
      {{"x0", coordinate(spec.x0), true},
       {"y0", coordinate(spec.y0), true},
       {"x1", coordinate(spec.x1), true},
       {"y1", coordinate(spec.y1), true},
       {"at", [&](auto& v, auto& w) { spec.at = interval_of(v, w); }, true},
       {"until",
        [&](auto& v, auto& w) { spec.until = end_interval_of(v, w); }}},
      R"("x0", "y0", "x1", "y1" and "at")");
  if (spec.x1 < spec.x0 || spec.y1 < spec.y0) {
    fail(at + ": x1/y1 must not be below x0/y0");
  }
  if (spec.until != 0 && spec.until <= spec.at) {
    fail(at + ".until must be 0 or > at");
  }
  return spec;
}

}  // namespace

FaultPlan parse_fault_plan(const JsonValue& doc) {
  if (!doc.is_object()) fail("document must be a JSON object");
  FaultPlan plan;
  const auto rate = [](double& field) {
    return [&field](auto& v, auto& w) { field = rate_of(v, w); };
  };
  const auto count = [](int& field) {
    return [&field](auto& v, auto& w) {
      field = static_cast<int>(integer_of(v, w, 1.0, 1e9, "an integer >= 1"));
    };
  };
  for (const auto& [key, value] : doc.as_object()) {
    if (key == "seed") {
      const double raw = number_of(value, "seed");
      if (raw != std::floor(raw) || raw < 0.0) {
        fail("seed must be a non-negative integer");
      }
      plan.seed = static_cast<std::uint64_t>(raw);
    } else if (key == "crashes") {
      read_list(value, key, plan.crashes, parse_crash);
    } else if (key == "thefts") {
      read_list(value, key, plan.thefts, parse_theft);
    } else if (key == "blackouts") {
      read_list(value, key, plan.blackouts, parse_blackout);
    } else if (key == "channel") {
      read_members(value, key,
                   {{"drop", rate(plan.channel.drop)},
                    {"duplicate", rate(plan.channel.duplicate)},
                    {"delay", rate(plan.channel.delay)},
                    {"max_attempts", count(plan.retry.max_attempts)},
                    {"backoff_base", count(plan.retry.backoff_base)},
                    {"backoff_cap", count(plan.retry.backoff_cap)}});
      if (plan.retry.backoff_cap < plan.retry.backoff_base) {
        fail("channel.backoff_cap must be >= channel.backoff_base");
      }
    } else if (key == "churn") {
      read_members(value, key,
                   {{"off_probability", rate(plan.churn.off_probability)},
                    {"on_probability", rate(plan.churn.on_probability)}});
    } else {
      fail("unknown top-level key \"" + key + "\"");
    }
  }
  return plan;
}

FaultPlan parse_fault_plan(std::string_view text) {
  return parse_fault_plan(parse_json(text));
}

FaultPlan load_fault_plan(const std::string& path) {
  const JsonValue doc = load_json_file(path);
  try {
    return parse_fault_plan(doc);
  } catch (const std::exception& e) {
    throw std::runtime_error(path + ": " + e.what());
  }
}

void write_fault_plan(JsonWriter& json, const FaultPlan& plan) {
  json.begin_object();
  json.key("seed").value(static_cast<std::size_t>(plan.seed));
  json.key("crashes").begin_array();
  for (const CrashSpec& crash : plan.crashes) {
    json.begin_object();
    json.key("node").value(crash.node);
    json.key("at").value(static_cast<std::int64_t>(crash.at));
    json.key("recover_at").value(static_cast<std::int64_t>(crash.recover_at));
    json.end_object();
  }
  json.end_array();
  json.key("thefts").begin_array();
  for (const TheftSpec& theft : plan.thefts) {
    json.begin_object();
    json.key("node").value(theft.node);
    json.key("at").value(static_cast<std::int64_t>(theft.at));
    json.key("amount").value(theft.amount);
    json.end_object();
  }
  json.end_array();
  json.key("blackouts").begin_array();
  for (const BlackoutSpec& blackout : plan.blackouts) {
    json.begin_object();
    json.key("x0").value(blackout.x0);
    json.key("y0").value(blackout.y0);
    json.key("x1").value(blackout.x1);
    json.key("y1").value(blackout.y1);
    json.key("at").value(static_cast<std::int64_t>(blackout.at));
    json.key("until").value(static_cast<std::int64_t>(blackout.until));
    json.end_object();
  }
  json.end_array();
  json.key("channel").begin_object();
  json.key("drop").value(plan.channel.drop);
  json.key("duplicate").value(plan.channel.duplicate);
  json.key("delay").value(plan.channel.delay);
  json.key("max_attempts").value(plan.retry.max_attempts);
  json.key("backoff_base").value(plan.retry.backoff_base);
  json.key("backoff_cap").value(plan.retry.backoff_cap);
  json.end_object();
  if (plan.churn != ChurnModel{}) {
    json.key("churn").begin_object();
    json.key("off_probability").value(plan.churn.off_probability);
    json.key("on_probability").value(plan.churn.on_probability);
    json.end_object();
  }
  json.end_object();
}

void validate_fault_plan(const FaultPlan& plan, int n_hosts) {
  const auto check_node = [n_hosts](int node, const char* what) {
    if (node < 0 || node >= n_hosts) {
      throw std::invalid_argument(
          std::string("fault plan: ") + what + " node " +
          std::to_string(node) + " out of range [0, " +
          std::to_string(n_hosts) + ")");
    }
  };
  const auto require = [](bool ok, const std::string& what) {
    if (!ok) throw std::invalid_argument("fault plan: bad " + what);
  };
  for (const CrashSpec& crash : plan.crashes) {
    check_node(crash.node, "crash");
    require(crash.at >= 1 &&
                (crash.recover_at == 0 || crash.recover_at > crash.at),
            "crash schedule");
  }
  for (const TheftSpec& theft : plan.thefts) {
    check_node(theft.node, "theft");
    require(theft.at >= 1 && theft.amount > 0.0, "theft schedule");
  }
  for (const BlackoutSpec& b : plan.blackouts) {
    require(b.at >= 1 && (b.until == 0 || b.until > b.at) && b.x1 >= b.x0 &&
                b.y1 >= b.y0,
            "blackout schedule");
  }
  const ChurnModel& churn = plan.churn;
  for (const double p : {churn.off_probability, churn.on_probability}) {
    require(p >= 0.0 && p < 1.0, "churn rate (must be in [0, 1))");
  }
}

std::vector<ScheduledFault> resolve_schedule(const FaultPlan& plan) {
  std::vector<ScheduledFault> schedule;
  for (const CrashSpec& crash : plan.crashes) {
    schedule.push_back({crash.at, FaultKind::kCrash, FaultCause::kPlan,
                        crash.node, 0.0, -1});
    if (crash.recover_at != 0) {
      schedule.push_back({crash.recover_at, FaultKind::kRecover,
                          FaultCause::kPlan, crash.node, 0.0, -1});
    }
  }
  for (const TheftSpec& theft : plan.thefts) {
    schedule.push_back({theft.at, FaultKind::kTheft, FaultCause::kPlan,
                        theft.node, theft.amount, -1});
  }
  for (std::size_t i = 0; i < plan.blackouts.size(); ++i) {
    const BlackoutSpec& blackout = plan.blackouts[i];
    schedule.push_back({blackout.at, FaultKind::kCrash, FaultCause::kBlackout,
                        -1, 0.0, static_cast<int>(i)});
    if (blackout.until != 0) {
      schedule.push_back({blackout.until, FaultKind::kRecover,
                          FaultCause::kBlackout, -1, 0.0,
                          static_cast<int>(i)});
    }
  }
  std::stable_sort(schedule.begin(), schedule.end(),
                   [](const ScheduledFault& a, const ScheduledFault& b) {
                     return a.interval < b.interval;
                   });
  return schedule;
}

BackboneHealth assess_backbone(const Graph& g, const DynBitset& gateways,
                               const DynBitset& down, DynBitset& scratch) {
  scratch = gateways;
  down.for_each_set([&scratch](std::size_t host) { scratch.reset(host); });
  BackboneHealth health;
  health.active = static_cast<std::size_t>(g.num_nodes()) - down.count();
  health.active_gateways = scratch.count();
  health.backbone_ok = check_cds(g, scratch).ok();
  std::size_t covered = 0;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    const auto vi = static_cast<std::size_t>(v);
    if (down.test(vi)) continue;
    if (scratch.test(vi)) {
      ++covered;
      continue;
    }
    for (const NodeId u : g.neighbors(v)) {
      if (scratch.test(static_cast<std::size_t>(u))) {
        ++covered;
        break;
      }
    }
  }
  health.coverage = health.active == 0
                        ? 1.0
                        : static_cast<double>(covered) /
                              static_cast<double>(health.active);
  return health;
}

// ---- FaultInjector ---------------------------------------------------------

FaultInjector::FaultInjector(const FaultPlan& plan, std::size_t n_hosts,
                             double field_width, double radius,
                             std::uint64_t churn_seed)
    : plan_(&plan),
      schedule_(resolve_schedule(plan)),
      field_width_(field_width),
      park_spacing_(2.0 * (radius > 0.0 ? radius : 1.0)),
      down_reasons_(n_hosts, 0),
      dead_(n_hosts, false),
      churned_off_(n_hosts, false),
      churn_rng_(churn_seed),
      down_(n_hosts),
      blackout_members_(plan.blackouts.size()) {}

Vec2 FaultInjector::park_position(std::size_t host) const {
  return {field_width_ + park_spacing_ * static_cast<double>(host + 1),
          -park_spacing_};
}

void FaultInjector::switch_host(std::size_t host, bool down, FaultCause cause,
                                long interval,
                                std::vector<FaultRecord>& events) {
  const bool was_down = down_.test(host);
  if (down) {
    ++down_reasons_[host];
  } else if (down_reasons_[host] > 0) {
    --down_reasons_[host];
  }
  refresh_down(host);
  if (down_.test(host) != was_down) {
    events.push_back({interval, down ? FaultKind::kCrash : FaultKind::kRecover,
                      cause, static_cast<int>(host), 0.0, down_count_});
  }
}

void FaultInjector::refresh_down(std::size_t host) {
  const bool should_be_down = dead_[host] || down_reasons_[host] > 0;
  if (should_be_down == down_.test(host)) return;
  down_.set(host, should_be_down);
  if (should_be_down) {
    ++down_count_;
  } else {
    --down_count_;
  }
  down_changed_ = true;
}

void FaultInjector::apply(long interval, const std::vector<Vec2>& positions,
                          BatteryBank& batteries,
                          std::vector<FaultRecord>& events) {
  // Churn, from interval 2 on: every host not yet dead draws once.
  const ChurnModel& churn = plan_->churn;
  const bool churning = interval >= 2 && churn.off_probability > 0.0;
  for (std::size_t host = 0; churning && host < dead_.size(); ++host) {
    const bool off = churned_off_[host];
    if (dead_[host] || !churn_rng_.bernoulli(off ? churn.on_probability
                                                 : churn.off_probability)) {
      continue;
    }
    churned_off_[host] = !off;
    switch_host(host, !off, FaultCause::kChurn, interval, events);
  }
  while (cursor_ < schedule_.size() &&
         schedule_[cursor_].interval <= interval) {
    const ScheduledFault& event = schedule_[cursor_++];
    if (event.interval < interval) continue;  // defensive: already past
    switch (event.kind) {
      case FaultKind::kCrash: {
        if (event.blackout < 0) {
          switch_host(static_cast<std::size_t>(event.node), true,
                      FaultCause::kPlan, interval, events);
          break;
        }
        // Blackout entry: capture every functioning host inside the region.
        const BlackoutSpec& region =
            plan_->blackouts[static_cast<std::size_t>(event.blackout)];
        auto& members =
            blackout_members_[static_cast<std::size_t>(event.blackout)];
        members.clear();
        for (std::size_t host = 0; host < positions.size(); ++host) {
          if (down_.test(host)) continue;
          const Vec2 p = positions[host];
          if (p.x < region.x0 || p.x > region.x1 || p.y < region.y0 ||
              p.y > region.y1) {
            continue;
          }
          members.push_back(host);
          switch_host(host, true, FaultCause::kBlackout, interval, events);
        }
        break;
      }
      case FaultKind::kRecover: {
        if (event.blackout < 0) {
          switch_host(static_cast<std::size_t>(event.node), false,
                      FaultCause::kPlan, interval, events);
          break;
        }
        // Blackout exit: release exactly the hosts captured at entry (dead
        // ones stay down).
        auto& members =
            blackout_members_[static_cast<std::size_t>(event.blackout)];
        for (const std::size_t host : members) {
          switch_host(host, false, FaultCause::kBlackout, interval, events);
        }
        members.clear();
        break;
      }
      case FaultKind::kTheft: {
        const auto host = static_cast<std::size_t>(event.node);
        const bool killed = batteries.drain(host, event.amount);
        events.push_back({interval, FaultKind::kTheft, FaultCause::kPlan,
                          event.node, event.amount, down_count_});
        if (killed) record_death(host, interval, events);
        break;
      }
      case FaultKind::kDeath:
      case FaultKind::kRepair:
        break;  // never scheduled
    }
  }
}

void FaultInjector::record_death(std::size_t host, long interval,
                                 std::vector<FaultRecord>& events) {
  if (dead_[host]) return;
  dead_[host] = true;
  refresh_down(host);
  events.push_back({interval, FaultKind::kDeath, FaultCause::kBattery,
                    static_cast<int>(host), 0.0, down_count_});
}

const std::vector<Vec2>& FaultInjector::effective_positions(
    const std::vector<Vec2>& positions) {
  if (down_count_ == 0) return positions;
  effective_.assign(positions.begin(), positions.end());
  down_.for_each_set(
      [this](std::size_t host) { effective_[host] = park_position(host); });
  return effective_;
}

}  // namespace pacds
