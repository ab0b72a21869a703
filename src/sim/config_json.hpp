#pragma once
// The SimConfig wire format: one strict JSON object mapping knob names to
// values, and the only code that writes or reads SimConfig fields as JSON.
// It is shared by the fuzz corpus ("config" in a pacds-fuzz-repro file),
// the serve request schema ("config" in a create request) and the metrics
// run manifest ("config" in a run_manifest record, so a manifest replays).
// Enum values travel as the names in each enum's wire-name table
// (core/names.hpp). Unknown keys, wrong types, out-of-range values and
// inconsistent combinations all throw — a config that parses is one the
// simulator will accept, and no consumer tolerates silent key drops.

#include <string>

#include "sim/lifetime.hpp"

namespace pacds {

class JsonValue;
class JsonWriter;

/// Applies the members of a parsed JSON config object onto `config`
/// (absent keys keep their current values, so defaults come from the
/// SimConfig the caller passes in). Throws std::runtime_error with
/// `error_prefix` prepended — e.g. "fuzz scenario: config.n must be ...".
void parse_sim_config_json(const JsonValue& value, SimConfig& config,
                           const std::string& error_prefix);

/// Writes the config object parse_sim_config_json accepts, every key
/// explicit, in the pinned corpus order. Exact round trip: parsing the
/// output reproduces the trial-relevant fields bit for bit.
void write_sim_config_json(JsonWriter& json, const SimConfig& config);

}  // namespace pacds
