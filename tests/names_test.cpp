// Wire-name tables (core/names.hpp): one parametrised test runs every
// enum's table through the same three checks — names are distinct, every
// enumerator round-trips through its to_string and the table's parse, and a
// name the table lacks is rejected. The config JSON, the run manifest, the
// CLI and the serve protocol all read these tables, so a table that passes
// here is the whole of that enum's wire vocabulary.

#include "core/names.hpp"

#include <gtest/gtest.h>

#include <cstddef>
#include <set>
#include <string>

#include "core/cds.hpp"
#include "energy/traffic.hpp"
#include "net/geometric.hpp"
#include "net/mobility.hpp"
#include "net/radio.hpp"
#include "net/space.hpp"
#include "serve/protocol.hpp"
#include "sim/lifetime.hpp"

namespace pacds {
namespace {

/// `last` is the enum's final enumerator: every wire enum counts up from 0,
/// so the table must hold exactly last + 1 entries, one per enumerator.
/// `show` is the name writers emit (to_string, or wire_name where to_string
/// is a display label).
template <typename Enum, std::size_t N, typename Show>
void check_table(const WireName<Enum> (&table)[N], Enum last, Show show) {
  ASSERT_EQ(N, static_cast<std::size_t>(last) + 1) << "table misses an entry";
  std::set<std::string> names;
  for (std::size_t i = 0; i < N; ++i) {
    const auto value = static_cast<Enum>(i);
    const std::string name = show(value);
    EXPECT_NE(name, "?") << "enumerator " << i << " has no name";
    EXPECT_TRUE(names.insert(name).second) << "duplicate name " << name;
    EXPECT_EQ(parse_wire_name(table, name), value) << name;
  }
  for (const char* unknown : {"", "?", "no-such-name"}) {
    EXPECT_EQ(parse_wire_name(table, unknown), std::nullopt) << unknown;
  }
}

template <typename Enum, std::size_t N>
void check_table(const WireName<Enum> (&table)[N], Enum last) {
  check_table(table, last,
              [](Enum value) { return std::string(to_string(value)); });
}

struct TableCase {
  const char* name;
  void (*check)();
};

const TableCase kTables[] = {
    {"RuleSet", [] { check_table(kRuleSetNames, RuleSet::kSEL); }},
    {"KeyKind",
     [] { check_table(kKeyKindNames, KeyKind::kStabilityEnergyId); }},
    {"Strategy", [] { check_table(kStrategyNames, Strategy::kVerified); }},
    {"Rule2Form", [] { check_table(kRule2FormNames, Rule2Form::kRefined); }},
    {"CliquePolicy",
     [] { check_table(kCliquePolicyNames, CliquePolicy::kElectMaxKey); }},
    {"MobilityKind",
     [] { check_table(kMobilityKindNames, MobilityKind::kStatic); }},
    {"RadioKind",
     [] { check_table(kRadioKindNames, RadioKind::kProbabilistic); }},
    {"BoundaryPolicy",
     [] { check_table(kBoundaryPolicyNames, BoundaryPolicy::kWrap); }},
    {"LinkModel", [] { check_table(kLinkModelNames, LinkModel::kRng); }},
    // to_string(DrainModel) is the display label ("d=N/|G'|"); writers put
    // the table's wire name on the wire instead.
    {"DrainModel",
     [] {
       check_table(kDrainModelNames, DrainModel::kQuadraticTotal,
                   [](DrainModel model) {
                     return std::string(wire_name(kDrainModelNames, model));
                   });
     }},
    {"SimEngine", [] { check_table(kSimEngineNames, SimEngine::kTiled); }},
    {"BackboneMode",
     [] { check_table(kBackboneModeNames, BackboneMode::kCds22); }},
    {"ServeOp", [] { check_table(serve::kOpNames, serve::Op::kShutdown); }},
    {"FaultKind", [] { check_table(kFaultKindNames, FaultKind::kRepair); }},
    {"FaultCause", [] { check_table(kFaultCauseNames, FaultCause::kChurn); }},
};

class WireNameTableTest : public ::testing::TestWithParam<TableCase> {};

TEST_P(WireNameTableTest, DistinctRoundTripAndRejectsUnknown) {
  GetParam().check();
}

INSTANTIATE_TEST_SUITE_P(
    EveryWireEnum, WireNameTableTest, ::testing::ValuesIn(kTables),
    [](const ::testing::TestParamInfo<TableCase>& case_info) {
      return std::string(case_info.param.name);
    });

TEST(WireNameTest, SharedNamesStayPerEnum) {
  // "EL2" names both a scheme and a key kind; each table resolves it to its
  // own enumerator.
  EXPECT_EQ(parse_wire_name(kRuleSetNames, "EL2"), RuleSet::kEL2);
  EXPECT_EQ(parse_wire_name(kKeyKindNames, "EL2"), KeyKind::kEnergyDegreeId);
  EXPECT_EQ(parse_wire_name(kKeyKindNames, "NR"), std::nullopt);
  EXPECT_STREQ(wire_name(kRuleSetNames, static_cast<RuleSet>(200)), "?");
}

}  // namespace
}  // namespace pacds
