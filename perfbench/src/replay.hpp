#pragma once

// Replays of single layers and of the wire codec on a workload's final
// models, timed from the benchmark's own files through public calls.

#include <map>
#include <string>
#include <vector>

#include "model/model.hpp"

namespace perfbench {

struct LayerTimes {
  /// Per layer kind ("conv2d", "linear", ...): median microseconds of one
  /// forward / backward call at the local batch size, summed over every
  /// layer of that kind in every replayed model.
  std::map<std::string, double> fwd_us;
  std::map<std::string, double> bwd_us;
  /// Median microseconds of one SGD train step (forward, loss, backward,
  /// update), summed over the replayed models.
  double train_step_us = 0.0;
};

/// Forward then backward through every layer of each model, in order, on a
/// random batch of `batch` samples; `reps` timed repetitions after a warm-up.
LayerTimes replay_layers(const std::vector<fedtrans::Model>& models, int batch,
                         int reps);

struct WireRates {
  double encode_mb_per_s = 0.0;
  double decode_mb_per_s = 0.0;
};

/// encode_message / decode_message of the frames the fabric ships for each
/// model — a ModelDown carrying its spec and weights and an UpdateUp
/// carrying a weight-shaped delta — repeated for at least `min_seconds`.
/// Rates are frame bytes over wall time.
WireRates replay_wire(const std::vector<fedtrans::Model>& models,
                      double min_seconds);

/// Snake-case layer kind of Layer::name() ("GlobalAvgPool" → "global_avg_pool").
std::string layer_kind(const std::string& layer_name);

}  // namespace perfbench
