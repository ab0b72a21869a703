#include "sim/trace.hpp"

#include <algorithm>
#include <sstream>

#include "io/table.hpp"

namespace pacds {

std::vector<std::string> SimTrace::csv_header() {
  return {"interval",    "marked",     "gateways", "min_energy",
          "mean_energy", "max_energy", "alive",    "touched"};
}

std::vector<std::vector<std::string>> SimTrace::csv_rows() const {
  std::vector<std::vector<std::string>> rows;
  rows.reserve(records.size());
  for (const IntervalRecord& r : records) {
    rows.push_back({std::to_string(r.interval), std::to_string(r.marked),
                    std::to_string(r.gateways),
                    TextTable::fmt(r.min_energy, 3),
                    TextTable::fmt(r.mean_energy, 3),
                    TextTable::fmt(r.max_energy, 3),
                    std::to_string(r.alive),
                    std::to_string(r.touched)});
  }
  return rows;
}

std::vector<double> SimTrace::min_energy_series() const {
  std::vector<double> out;
  out.reserve(records.size());
  for (const IntervalRecord& r : records) out.push_back(r.min_energy);
  return out;
}

std::vector<double> SimTrace::gateway_series() const {
  std::vector<double> out;
  out.reserve(records.size());
  for (const IntervalRecord& r : records) {
    out.push_back(static_cast<double>(r.gateways));
  }
  return out;
}

std::string sparkline(const std::vector<double>& series, double lo,
                      double hi) {
  static const char* const kLevels[] = {"▁", "▂", "▃",
                                        "▄", "▅", "▆",
                                        "▇", "█"};
  std::ostringstream os;
  const double span = hi > lo ? hi - lo : 1.0;
  for (const double value : series) {
    const double t = std::clamp((value - lo) / span, 0.0, 1.0);
    os << kLevels[static_cast<int>(t * 7.0 + 0.5)];
  }
  return os.str();
}

}  // namespace pacds
