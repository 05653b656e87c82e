#pragma once

// Metric arithmetic and output of the benchmark: engine-phase closure,
// the metric list and the one-line JSON result.

#include <cstdint>
#include <string>
#include <vector>

#include "wrappers.hpp"

namespace perfbench {

/// One round split into engine phases from the wrappers' hook timings,
/// microseconds. The phases are disjoint stretches of the engine thread:
/// selection hooks, then the exchange (payload materialization unioned over
/// concurrent calls, the rest is transport and training), then absorption,
/// finish and the accuracy probe. `unaccounted` is what they leave of the round's wall.
struct EnginePhases {
  double select = 0.0;
  double payload = 0.0;
  double exchange = 0.0;
  double absorb = 0.0;
  double finish = 0.0;
  double probe = 0.0;
  double wall = 0.0;
  double unaccounted = 0.0;
};

/// `probe_us` is the engine's own eval span: the probe cohort draw happens
/// in the engine before Strategy::probe_accuracy is reached.
EnginePhases engine_phases(const HookTimes& h, double probe_us,
                           double wall_us);

/// (wall − Σ phases) / wall over a set of rounds — the closure check.
double unaccounted_frac(const std::vector<EnginePhases>& rounds);

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// The result line: {"correct", "attempted", "failed", "metrics"}. Values
/// print with every digit (%.17g).
std::string result_json(bool correct, std::int64_t attempted,
                         std::int64_t failed,
                         const std::vector<Metric>& metrics);

/// Minimal JSON string escaping for the context line.
std::string json_quote(const std::string& s);

}  // namespace perfbench
