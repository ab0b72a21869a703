#include "sim/config_json.hpp"

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <stdexcept>

#include "io/json.hpp"
#include "io/json_parse.hpp"

namespace pacds {
namespace {

[[noreturn]] void fail(const std::string& prefix, const std::string& message) {
  throw std::runtime_error(prefix + message);
}

const std::string& string_of(const std::string& prefix, const JsonValue& value,
                             const std::string& what) {
  if (!value.is_string()) fail(prefix, what + " must be a string");
  return value.as_string();
}

double number_of(const std::string& prefix, const JsonValue& value,
                 const std::string& what) {
  if (!value.is_number()) fail(prefix, what + " must be a number");
  const double raw = value.as_number();
  if (!std::isfinite(raw)) fail(prefix, what + " must be finite");
  return raw;
}

long integer_of(const std::string& prefix, const JsonValue& value,
                const std::string& what, double lo, double hi) {
  const double raw = number_of(prefix, value, what);
  if (raw != std::floor(raw) || raw < lo || raw > hi) {
    fail(prefix, what + " must be an integer in [" +
                     JsonWriter::format_double(lo) + ", " +
                     JsonWriter::format_double(hi) + "]");
  }
  return static_cast<long>(raw);
}

bool bool_of(const std::string& prefix, const JsonValue& value,
             const std::string& what) {
  if (!value.is_bool()) fail(prefix, what + " must be a boolean");
  return value.as_bool();
}

/// The enumerator `value` names in the enum's wire-name table; `noun` words
/// the error ("unknown mobility model \"warp\"").
template <typename Enum, std::size_t N>
Enum enum_of(const std::string& prefix, const JsonValue& value,
             const std::string& what, const WireName<Enum> (&table)[N],
             const char* noun) {
  const std::string& name = string_of(prefix, value, what);
  if (const auto parsed = parse_wire_name(table, name)) return *parsed;
  fail(prefix, "unknown " + std::string(noun) + " \"" + name + "\"");
}

// The 2^53 ceiling keeps integer-valued doubles exact, so a seed survives
// the JSON round trip bit-for-bit.
constexpr double kMaxExactSeed = 9007199254740992.0;

void parse_mobility_params(const std::string& prefix, const JsonValue& value,
                           MobilityParams& params) {
  if (!value.is_object()) fail(prefix, "config.mobility_params must be an object");
  for (const auto& [key, member] : value.as_object()) {
    const std::string what = "config.mobility_params." + key;
    if (key == "stay_probability") {
      params.stay_probability = number_of(prefix, member, what);
    } else if (key == "jump_min") {
      params.jump_min = static_cast<int>(integer_of(prefix, member, what, 0, 1e6));
    } else if (key == "jump_max") {
      params.jump_max = static_cast<int>(integer_of(prefix, member, what, 0, 1e6));
    } else if (key == "step_min") {
      params.step_min = number_of(prefix, member, what);
    } else if (key == "step_max") {
      params.step_max = number_of(prefix, member, what);
    } else if (key == "speed_min") {
      params.speed_min = number_of(prefix, member, what);
    } else if (key == "speed_max") {
      params.speed_max = number_of(prefix, member, what);
    } else if (key == "pause_intervals") {
      params.pause_intervals =
          static_cast<int>(integer_of(prefix, member, what, 0, 1e6));
    } else if (key == "mean_speed") {
      params.mean_speed = number_of(prefix, member, what);
    } else if (key == "alpha") {
      params.alpha = number_of(prefix, member, what);
    } else if (key == "speed_stddev") {
      params.speed_stddev = number_of(prefix, member, what);
    } else if (key == "heading_stddev") {
      params.heading_stddev = number_of(prefix, member, what);
    } else {
      fail(prefix, "config.mobility_params: unknown key \"" + key + "\"");
    }
  }
}

void parse_radio_params(const std::string& prefix, const JsonValue& value,
                        RadioParams& params) {
  if (!value.is_object()) fail(prefix, "config.radio_params must be an object");
  for (const auto& [key, member] : value.as_object()) {
    const std::string what = "config.radio_params." + key;
    if (key == "sigma_db") {
      params.sigma_db = number_of(prefix, member, what);
    } else if (key == "path_loss_exp") {
      params.path_loss_exp = number_of(prefix, member, what);
    } else if (key == "link_prob") {
      params.link_prob = number_of(prefix, member, what);
    } else if (key == "fading_seed") {
      params.fading_seed = static_cast<std::uint64_t>(
          integer_of(prefix, member, what, 0, kMaxExactSeed));
    } else {
      fail(prefix, "config.radio_params: unknown key \"" + key + "\"");
    }
  }
}

void parse_drain_params(const std::string& prefix, const JsonValue& value,
                        DrainParams& params) {
  if (!value.is_object()) fail(prefix, "config.drain_params must be an object");
  for (const auto& [key, member] : value.as_object()) {
    const std::string what = "config.drain_params." + key;
    if (key == "nongateway_drain") {
      params.nongateway_drain = number_of(prefix, member, what);
    } else if (key == "constant_base") {
      params.constant_base = number_of(prefix, member, what);
    } else if (key == "quadratic_divisor") {
      params.quadratic_divisor = number_of(prefix, member, what);
    } else {
      fail(prefix, "config.drain_params: unknown key \"" + key + "\"");
    }
  }
}

}  // namespace

void parse_sim_config_json(const JsonValue& value, SimConfig& config,
                           const std::string& prefix) {
  if (!value.is_object()) fail(prefix, "config must be an object");
  for (const auto& [key, member] : value.as_object()) {
    if (key == "n") {
      config.n_hosts =
          static_cast<int>(integer_of(prefix, member, "config.n", 1, 1e6));
    } else if (key == "field_width") {
      config.field_width = number_of(prefix, member, "config.field_width");
    } else if (key == "field_height") {
      config.field_height = number_of(prefix, member, "config.field_height");
    } else if (key == "field_depth") {
      // Optional (older corpus entries predate 3-D fields); 0 = planar.
      config.field_depth = number_of(prefix, member, "config.field_depth");
    } else if (key == "boundary") {
      config.boundary = enum_of(prefix, member, "config.boundary",
                                kBoundaryPolicyNames, "boundary policy");
    } else if (key == "radius") {
      config.radius = number_of(prefix, member, "config.radius");
    } else if (key == "link_model") {
      config.link_model = enum_of(prefix, member, "config.link_model",
                                  kLinkModelNames, "link model");
    } else if (key == "radio") {
      // Optional (older corpus entries predate radio models).
      config.radio =
          enum_of(prefix, member, "config.radio", kRadioKindNames, "radio");
    } else if (key == "radio_params") {
      parse_radio_params(prefix, member, config.radio_params);
    } else if (key == "initial_energy") {
      config.initial_energy =
          number_of(prefix, member, "config.initial_energy");
    } else if (key == "drain_model") {
      config.drain_model = enum_of(prefix, member, "config.drain_model",
                                   kDrainModelNames, "drain model");
    } else if (key == "drain_params") {
      // Optional: the drain shape knobs always defaulted on the wire before.
      parse_drain_params(prefix, member, config.drain_params);
    } else if (key == "stay_probability") {
      config.stay_probability =
          number_of(prefix, member, "config.stay_probability");
    } else if (key == "jump_min") {
      config.jump_min = static_cast<int>(
          integer_of(prefix, member, "config.jump_min", 0, 1e6));
    } else if (key == "jump_max") {
      config.jump_max = static_cast<int>(
          integer_of(prefix, member, "config.jump_max", 0, 1e6));
    } else if (key == "mobility") {
      // Optional, and THE bug this key's absence used to cause: without it
      // every non-default mobility model silently round-tripped back to
      // paper-jump, so serve tenants and replayed scenarios simulated a
      // different trajectory family than the one requested.
      config.mobility_kind = enum_of(prefix, member, "config.mobility",
                                     kMobilityKindNames, "mobility model");
    } else if (key == "mobility_params") {
      parse_mobility_params(prefix, member, config.mobility_params);
    } else if (key == "scheme") {
      config.rule_set =
          enum_of(prefix, member, "config.scheme", kRuleSetNames, "scheme");
    } else if (key == "strategy") {
      config.cds_options.strategy = enum_of(
          prefix, member, "config.strategy", kStrategyNames, "strategy");
    } else if (key == "clique_policy") {
      // Optional (defaulted silently before; another dropped-on-the-wire
      // field the exhaustive round-trip test now pins).
      config.cds_options.clique_policy =
          enum_of(prefix, member, "config.clique_policy", kCliquePolicyNames,
                  "clique policy");
    } else if (key == "custom_key") {
      if (member.is_null()) {
        config.custom_key.reset();
      } else {
        config.custom_key = enum_of(prefix, member, "config.custom_key",
                                    kKeyKindNames, "key kind");
      }
    } else if (key == "custom_rule2_form") {
      config.custom_rule2_form =
          enum_of(prefix, member, "config.custom_rule2_form",
                  kRule2FormNames, "rule2 form");
    } else if (key == "use_rule_k") {
      config.use_rule_k = bool_of(prefix, member, "config.use_rule_k");
    } else if (key == "quantum") {
      config.energy_key_quantum =
          number_of(prefix, member, "config.quantum");
    } else if (key == "stability_beta") {
      config.stability_beta =
          number_of(prefix, member, "config.stability_beta");
    } else if (key == "stability_quantum") {
      config.stability_quantum =
          number_of(prefix, member, "config.stability_quantum");
    } else if (key == "engine") {
      config.engine =
          enum_of(prefix, member, "config.engine", kSimEngineNames, "engine");
    } else if (key == "backbone") {
      // Optional (older corpus entries predate the (2,2) backbone).
      config.backbone = enum_of(prefix, member, "config.backbone",
                                kBackboneModeNames, "backbone");
    } else if (key == "tiles") {
      // Optional (older corpus entries predate the tiled engine): requested
      // tile count, 0 = auto. The TileGrid clamps, so any value is safe.
      config.tiles = static_cast<int>(
          integer_of(prefix, member, "config.tiles", 0, 1e6));
    } else if (key == "threads") {
      config.threads = static_cast<int>(
          integer_of(prefix, member, "config.threads", 0, 256));
    } else if (key == "max_intervals") {
      config.max_intervals =
          integer_of(prefix, member, "config.max_intervals", 1, 1e9);
    } else if (key == "connect_retries") {
      config.connect_retries = static_cast<int>(
          integer_of(prefix, member, "config.connect_retries", 1, 1e6));
    } else {
      fail(prefix, "config: unknown key \"" + key + "\"");
    }
  }
  if (!(config.radius > 0.0)) fail(prefix, "config.radius must be > 0");
  if (!(config.field_width > 0.0) || !(config.field_height > 0.0)) {
    fail(prefix, "config field dimensions must be > 0");
  }
  if (!(config.initial_energy > 0.0)) {
    fail(prefix, "config.initial_energy must be > 0");
  }
  if (!(config.stay_probability >= 0.0) || config.stay_probability > 1.0) {
    fail(prefix, "config.stay_probability must be in [0, 1]");
  }
  if (config.jump_max < config.jump_min) {
    fail(prefix, "config.jump_max must be >= config.jump_min");
  }
  if (config.energy_key_quantum < 0.0) {
    fail(prefix, "config.quantum must be >= 0");
  }
  if (config.field_depth < 0.0) {
    fail(prefix, "config.field_depth must be >= 0");
  }
  if (config.radio != RadioKind::kUnitDisk &&
      config.link_model != LinkModel::kUnitDisk) {
    fail(prefix,
         "config.radio other than unit-disk requires link_model unit-disk");
  }
  if (config.radio_params.sigma_db < 0.0) {
    fail(prefix, "config.radio_params.sigma_db must be >= 0");
  }
  if (!(config.radio_params.path_loss_exp > 0.0)) {
    fail(prefix, "config.radio_params.path_loss_exp must be > 0");
  }
  if (config.radio_params.link_prob < 0.0 ||
      config.radio_params.link_prob > 1.0) {
    fail(prefix, "config.radio_params.link_prob must be in [0, 1]");
  }
  if (config.stability_beta < 0.0 || config.stability_beta > 1.0) {
    fail(prefix, "config.stability_beta must be in [0, 1]");
  }
  if (config.mobility_params.jump_max < config.mobility_params.jump_min) {
    fail(prefix,
         "config.mobility_params.jump_max must be >= "
         "config.mobility_params.jump_min");
  }
  if (config.mobility_params.stay_probability < 0.0 ||
      config.mobility_params.stay_probability > 1.0) {
    fail(prefix, "config.mobility_params.stay_probability must be in [0, 1]");
  }
}

void write_sim_config_json(JsonWriter& json, const SimConfig& config) {
  json.begin_object();
  json.key("n").value(config.n_hosts);
  json.key("field_width").value(config.field_width);
  json.key("field_height").value(config.field_height);
  json.key("field_depth").value(config.field_depth);
  json.key("boundary").value(to_string(config.boundary));
  json.key("radius").value(config.radius);
  json.key("link_model").value(to_string(config.link_model));
  json.key("radio").value(to_string(config.radio));
  json.key("radio_params").begin_object();
  json.key("sigma_db").value(config.radio_params.sigma_db);
  json.key("path_loss_exp").value(config.radio_params.path_loss_exp);
  json.key("link_prob").value(config.radio_params.link_prob);
  json.key("fading_seed")
      .value(static_cast<std::size_t>(config.radio_params.fading_seed));
  json.end_object();
  json.key("initial_energy").value(config.initial_energy);
  json.key("drain_model")
      .value(wire_name(kDrainModelNames, config.drain_model));
  json.key("drain_params").begin_object();
  json.key("nongateway_drain").value(config.drain_params.nongateway_drain);
  json.key("constant_base").value(config.drain_params.constant_base);
  json.key("quadratic_divisor").value(config.drain_params.quadratic_divisor);
  json.end_object();
  json.key("stay_probability").value(config.stay_probability);
  json.key("jump_min").value(config.jump_min);
  json.key("jump_max").value(config.jump_max);
  json.key("mobility").value(to_string(config.mobility_kind));
  json.key("mobility_params").begin_object();
  json.key("stay_probability").value(config.mobility_params.stay_probability);
  json.key("jump_min").value(config.mobility_params.jump_min);
  json.key("jump_max").value(config.mobility_params.jump_max);
  json.key("step_min").value(config.mobility_params.step_min);
  json.key("step_max").value(config.mobility_params.step_max);
  json.key("speed_min").value(config.mobility_params.speed_min);
  json.key("speed_max").value(config.mobility_params.speed_max);
  json.key("pause_intervals").value(config.mobility_params.pause_intervals);
  json.key("mean_speed").value(config.mobility_params.mean_speed);
  json.key("alpha").value(config.mobility_params.alpha);
  json.key("speed_stddev").value(config.mobility_params.speed_stddev);
  json.key("heading_stddev").value(config.mobility_params.heading_stddev);
  json.end_object();
  json.key("scheme").value(to_string(config.rule_set));
  json.key("strategy").value(to_string(config.cds_options.strategy));
  json.key("clique_policy").value(to_string(config.cds_options.clique_policy));
  if (config.custom_key.has_value()) {
    json.key("custom_key").value(to_string(*config.custom_key));
  } else {
    json.key("custom_key").null();
  }
  json.key("custom_rule2_form").value(to_string(config.custom_rule2_form));
  json.key("use_rule_k").value(config.use_rule_k);
  json.key("quantum").value(config.energy_key_quantum);
  json.key("stability_beta").value(config.stability_beta);
  json.key("stability_quantum").value(config.stability_quantum);
  json.key("engine").value(to_string(config.engine));
  json.key("backbone").value(to_string(config.backbone));
  json.key("tiles").value(config.tiles);
  json.key("threads").value(config.threads);
  json.key("max_intervals")
      .value(static_cast<std::int64_t>(config.max_intervals));
  json.key("connect_retries").value(config.connect_retries);
  json.end_object();
}

}  // namespace pacds
