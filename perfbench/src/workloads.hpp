#pragma once

// The three benchmark workloads. Each builds its inputs from the seed, then
// runs "passes": one pass is the workload's fixed set of whole federation
// sessions, driven round by round through FederationEngine::run_round.
// A plain pass uses the strategies and selectors exactly as a user would; a
// traced pass puts the timing wrappers in the engine's seats and turns on
// the program's own wall spans around every round.

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "model/model.hpp"
#include "wrappers.hpp"

namespace perfbench {

struct PassOptions {
  /// Run the workload's reference sessions — fixed inputs, the sessions the
  /// quality metrics (accuracy, time to target) come from — instead of the
  /// sessions the run's seed draws.
  bool reference = false;
  /// Which of the seed's sessions to run: pass k of a run draws its
  /// sessions from (seed, k), so one run covers several cohort sequences.
  int draw = 0;
  /// Wrap the engine seats and record the program's wall spans per round.
  bool traced = false;
  /// When > 0, every session stops after this many rounds (thread-count
  /// check); the pass is then not a complete workload pass.
  int round_limit = 0;
};

/// Everything measured about one round of one session.
struct RoundSample {
  double wall_us = 0.0;  ///< FederationEngine::run_round, steady_clock
  int session = 0;       ///< index into PassResult::labels
  // Traced passes only.
  HookTimes hooks;
  /// Self times of the engine/server spans (all opened on the engine's
  /// thread, so they nest exactly).
  std::map<std::string, double> main_self_us;
  /// Summed durations per span key, every span (any thread).
  std::map<std::string, double> busy_us;
  double gemm_macs = 0.0;
  std::uint64_t spans_dropped = 0;
};

/// One pass: its rounds, its outputs and the program's own counters.
struct PassResult {
  std::vector<std::string> labels;  ///< strategy name per session
  std::vector<RoundSample> rounds;
  /// Wall time until the probe first reached the target, summed over the
  /// probed sessions; `reached` is false when some session never got there.
  double time_to_target_us = 0.0;
  bool reached = true;
  /// True when the pass ran reference sessions: its time to target and
  /// accuracy are the workload's quality metrics.
  bool reference = false;
  double accuracy = 0.0;
  double network_bytes = 0.0;  ///< CostMeter, all sessions
  double macs = 0.0;           ///< CostMeter, all sessions
  std::int64_t attempted = 0;  ///< client updates attempted
  std::int64_t lost = 0;       ///< updates that never reached aggregation
  // FabricStats, summed over the pass's fabric sessions.
  std::uint64_t frames_sent = 0;
  std::uint64_t bytes_sent = 0;
  std::uint64_t root_bytes = 0;
  std::uint64_t frames_retried = 0;
  std::uint64_t frames_rejected = 0;
  // FedTrans (table2-tiny).
  int transforms = 0;
  int family_models = 0;
  int fedtrans_sessions = 0;
  // Cohort pool (pop-1m).
  std::uint64_t materializations = 0;
  std::uint64_t pool_hits = 0;
  /// FNV-1a digest of every session's final weights and RoundRecord
  /// history — equal digests mean bitwise-identical sessions.
  std::uint64_t digest = 0;
  /// Traced passes only: the sessions' final models, for the replays.
  std::vector<fedtrans::Model> final_models;

  int total_rounds() const { return static_cast<int>(rounds.size()); }
};

class Workload {
 public:
  virtual ~Workload() = default;
  virtual std::string name() const = 0;
  /// Build every input from `seed` — data, fleet, population — and the
  /// engines a pass starts from, including the fabric's lazily built first
  /// round. Called several times per run; each call starts from scratch.
  virtual void setup(std::uint64_t seed) = 0;
  virtual PassResult run_pass(const PassOptions& opt) = 0;

  /// Local batch size; the layer replays run at it.
  virtual int local_batch() const = 0;

  /// Reference passes per untraced run; time to target is their median.
  virtual int reference_passes() const { return 3; }

  /// Output checks: the pass accuracy must be at least this.
  virtual double accuracy_floor() const = 0;

  /// Set-up components of the latest setup() call, in seconds.
  double data_generate_s = 0.0;
  double pop_build_s = 0.0;
  /// Bytes per idle client: descriptor index plus the engine's fleet copy.
  double bytes_per_idle_client = 0.0;
};

/// `smoke` shrinks every session to a few rounds (tests of the benchmark).
std::unique_ptr<Workload> make_workload(const std::string& name, bool smoke);
std::vector<std::string> workload_names();

}  // namespace perfbench
