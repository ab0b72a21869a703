#pragma once
// Per-interval observation of a lifetime run. The simulator publishes one
// IntervalRecord per update interval to an IntervalObserver; SimTrace is the
// in-memory consumer (gateway counts and the energy distribution over time,
// for post-hoc analysis and plotting), the JSONL emitter in sim/metrics_io
// is the streaming one. The record is plain data; io helpers serialize it.

#include <string>
#include <vector>

#include "core/names.hpp"
#include "obs/metrics.hpp"

namespace pacds {

/// One update interval's snapshot (taken after the drain step). The obs
/// fields (touched/phase_ns/counters) are that interval's slice of the
/// pipeline's metrics registry; all-zero when the producer ran unobserved.
struct IntervalRecord {
  long interval = 0;
  std::size_t marked = 0;       ///< marking-process set size
  std::size_t gateways = 0;     ///< final gateway count
  double min_energy = 0.0;
  double mean_energy = 0.0;
  double max_energy = 0.0;
  std::size_t alive = 0;
  std::size_t touched = 0;      ///< nodes re-evaluated this interval
  obs::PhaseArray phase_ns{};   ///< per-phase wall time, indexed by obs::Phase
  obs::CounterArray counters{};  ///< event counts, indexed by obs::Counter
};

/// What happened to a host (or to the backbone) in a fault event.
enum class FaultKind : std::uint8_t {
  kCrash,    ///< host went down (crash, blackout entry or churn switch-off)
  kRecover,  ///< host came back (recovery, blackout exit or churn switch-on)
  kTheft,    ///< battery theft drained a host by `amount`
  kDeath,    ///< battery reached zero (drain or theft)
  kRepair,   ///< localized backbone repair round after the down set changed
};

/// Why a crash/recover event fired.
enum class FaultCause : std::uint8_t {
  kPlan,      ///< an explicit per-node entry in the fault plan
  kBlackout,  ///< membership in a region blackout
  kBattery,   ///< energy depletion
  kNone,      ///< not applicable (repair records)
  kChurn,     ///< the plan's random on/off churn switched the host
};

inline constexpr WireName<FaultKind> kFaultKindNames[] = {
    {FaultKind::kCrash, "crash"},   {FaultKind::kRecover, "recover"},
    {FaultKind::kTheft, "theft"},   {FaultKind::kDeath, "death"},
    {FaultKind::kRepair, "repair"}};
inline constexpr WireName<FaultCause> kFaultCauseNames[] = {
    {FaultCause::kPlan, "plan"},       {FaultCause::kBlackout, "blackout"},
    {FaultCause::kBattery, "battery"}, {FaultCause::kNone, "none"},
    {FaultCause::kChurn, "churn"}};

[[nodiscard]] inline std::string to_string(FaultKind kind) {
  return wire_name(kFaultKindNames, kind);
}
[[nodiscard]] inline std::string to_string(FaultCause cause) {
  return wire_name(kFaultCauseNames, cause);
}

/// One fault event in a degraded-mode run. Events are published in the
/// order they applied; `down` is the total number of non-functioning hosts
/// immediately after the event. The repair-only fields describe the
/// localized recomputation that healed the interval's down-set change
/// (schema: the `fault_event` record, DESIGN.md §7 / FAULTS.md).
struct FaultRecord {
  long interval = 0;
  FaultKind kind = FaultKind::kCrash;
  FaultCause cause = FaultCause::kPlan;
  int node = -1;          ///< affected host; -1 for repair records
  double amount = 0.0;    ///< energy removed (theft records)
  std::size_t down = 0;   ///< hosts down after the event
  // Repair records only:
  std::size_t touched = 0;        ///< nodes re-evaluated by the repair
  std::uint64_t repair_ns = 0;    ///< wall time of the repair update
  bool backbone_ok = true;        ///< surviving set passes check_cds
  double coverage = 1.0;          ///< dominated fraction of active hosts
  std::size_t gateways = 0;       ///< active gateways after the repair
};

/// Receives every interval's record as the simulator produces it. Records
/// arrive in interval order; the referenced record dies with the call.
/// on_fault fires only in degraded-mode runs (a non-empty fault plan) and
/// defaults to ignoring the event, so interval-only consumers are untouched.
class IntervalObserver {
 public:
  virtual ~IntervalObserver() = default;
  virtual void on_interval(const IntervalRecord& record) = 0;
  virtual void on_fault(const FaultRecord& record) { (void)record; }
};

/// Whole-run trace: the buffering IntervalObserver.
struct SimTrace : IntervalObserver {
  std::vector<IntervalRecord> records;
  std::vector<FaultRecord> fault_records;

  void on_interval(const IntervalRecord& record) override {
    records.push_back(record);
  }
  void on_fault(const FaultRecord& record) override {
    fault_records.push_back(record);
  }

  [[nodiscard]] static std::vector<std::string> csv_header();
  [[nodiscard]] std::vector<std::vector<std::string>> csv_rows() const;

  /// Minimum-energy series, one value per interval (for sparklines).
  [[nodiscard]] std::vector<double> min_energy_series() const;
  [[nodiscard]] std::vector<double> gateway_series() const;
};

/// Compact ASCII sparkline of a series (8 levels, scaled to [lo, hi]).
[[nodiscard]] std::string sparkline(const std::vector<double>& series,
                                    double lo, double hi);

}  // namespace pacds
