#pragma once

#include <cstdint>

#include "fl/local_train.hpp"
#include "fl/selection.hpp"
#include "net/transport.hpp"

namespace fedtrans {

/// The shared runtime block every federated session carries — the one
/// definition of the fields that were historically copy-pasted across
/// FlRunConfig / FedTransConfig / BaselineConfig / AsyncRunConfig. The
/// legacy config structs now inherit from this block, so a field added here
/// is automatically available (and forwarded) everywhere.
struct SessionRuntime {
  /// Synchronous rounds to run (async sessions count aggregations instead).
  int rounds = 50;
  int clients_per_round = 10;
  LocalTrainConfig local{};
  /// Evaluate mean client accuracy every k rounds (0 = only on demand).
  int eval_every = 0;
  /// Client subsample size for periodic evaluation (0 = all clients).
  int eval_clients = 32;
  std::uint64_t seed = 1;
};

/// How the engine schedules client work: classic synchronous rounds, or
/// buffered-asynchronous (FedBuff-style) aggregation.
enum class SessionMode : std::uint8_t { Sync, Async };

/// On-wire encoding of reduced PartialUp group sums (wire v6 (a)). The
/// values mirror the wire's kPartialQuant* bytes: None ships dense fp32,
/// Int8 one fp32 scale per group plus 1 byte/param (~4× smaller uplink
/// hops), Fp16 dtype-tagged half floats (~2× smaller, ≲1e-3 relative error
/// on the final weights). Aggregators always dequantize to fp32 before
/// folding, so only the per-hop encoding is lossy — never the accumulation
/// — and rounds stay bitwise deterministic per tree shape and thread count.
enum class PartialQuant : std::uint8_t { None = 0, Int8 = 1, Fp16 = 2 };

/// Shape and reliability knobs of the federation fabric (only consulted
/// when `use_fabric` is set).
///
/// `levels`/`shards`/`branching` describe the aggregation tree every
/// fabric round runs over. `levels == 1` is flat: the 1-level tree whose
/// root is its own single leaf, so every client talks to the root and
/// `shards` is ignored. `levels >= 2` puts `levels - 1` aggregator tiers
/// between the root and the clients, with `shards` leaf aggregators on the
/// bottom tier and interior tiers shrinking by the `branching` factor going
/// up. The root ships one bundled `ShardDown` frame per child, interiors
/// split bundles among theirs, leaves fan out to their client partition
/// (task slot i lands on leaf i % shards), collect the partition's
/// `UpdateUp`s in parallel on the shared ThreadPool, and forward one
/// bundled `PartialUp` upstream, merged tier by tier back to the root. A
/// flat root runs the same fan-out and update match itself. By default
/// bundles carry the per-task updates verbatim (the numeric reduction
/// stays with the engine, in fixed task order), so fault-free tree rounds
/// of any depth are bitwise identical to flat ones.
///
/// `partial_aggregation` is the opt-in associativity-tolerant mode: leaf
/// and interior aggregators numerically reduce the updates they collect —
/// per reduce group, a running `Σ num_samples·Δ` plus the weight total —
/// and forward one pre-summed `PartialUp` instead of the verbatim bundle,
/// collapsing root fan-in traffic from O(clients) to O(branching).
/// Per-task metrics (loss, samples, MACs) still ride verbatim, so billing,
/// selector feedback and FedTrans's utility learning are unchanged; only
/// the float summation order of the weight reduction moves into the tree.
/// Requires a strategy whose reduction is a weighted linear sum
/// (`Strategy::supports_partial_aggregation`): FedAvg (uncompressed),
/// FedTrans and HeteroFL qualify. Results match flat rounds to numeric
/// tolerance and stay bitwise deterministic per tree shape.
///
/// `ack_timeout_s`/`max_retries` are the retry policy: a sender whose frame
/// was lost resends it `ack_timeout_s` simulated seconds later, up to
/// `max_retries` times; resent frames are flagged on the wire, counted in
/// FabricStats, and billed through CostMeter. In async sessions the server
/// additionally waits one ack-timeout per allowed uplink attempt — a
/// dispatched client whose update has not arrived
/// `(max_retries + 1) × ack_timeout_s` after dispatch is counted lost and
/// replaced. Leaves are per-shard fault domains: a leaf that dies for a
/// round (FaultConfig::leaf_death_prob) has its client partition reassigned
/// to an alive sibling under the same parent — the redirected bundle is
/// billed and the failover recorded in FabricStats/RoundRecord.
struct FabricTopology {
  /// Aggregation tiers above the clients: 1 = flat root, 2 = root +
  /// leaves, 3+ = interior aggregator tiers between root and leaves.
  int levels = 1;
  /// Leaf aggregator count when levels >= 2 (task slot i lands on shard
  /// i % shards).
  int shards = 1;
  /// Interior fan-out for levels >= 3: each interior node owns up to
  /// `branching` children on the tier below (0 = auto: ceil square-ish
  /// root so the tiers shrink evenly).
  int branching = 0;
  /// Numeric leaf/interior reduction (see above). Needs levels >= 2: the
  /// engine rejects it on a flat fabric at construction.
  bool partial_aggregation = false;
  /// Quantize reduced PartialUp group sums on the wire (requires
  /// partial_aggregation — the engine fails loudly otherwise).
  PartialQuant quantize_partials = PartialQuant::None;
  /// Content-addressed broadcast caching at the tree's aggregators: a
  /// ShardDown body the receiver already holds (same model spec, same
  /// bytes as last shipped) travels as a 64-bit hash instead of being
  /// re-shipped from the root. Cache-hit rounds are bitwise identical to
  /// cold ones; backbone savings land in FabricStats::cache_saved_bytes.
  bool broadcast_cache = false;
  /// Round-over-round delta ModelDowns: a client whose previous model the
  /// server still remembers receives a per-tensor {same, additive delta,
  /// literal} diff instead of full weights whenever that is smaller, and
  /// reconstructs bitwise-identical weights. Savings land in
  /// FabricStats::delta_saved_bytes and are credited back on CostMeter.
  bool delta_downlink = false;
  /// Simulated seconds between resend attempts / until async give-up.
  double ack_timeout_s = 60.0;
  /// Bounded resend budget for lost uplink/bundle frames (0 = no retries,
  /// the historical behavior).
  int max_retries = 0;
};

/// Which robust reduction a RobustStrategy (src/baselines/robust.hpp)
/// applies to the round's client deltas. None leaves a constructor-supplied
/// RobustConfig in force (and means "not configured" on SessionConfig).
enum class RobustAggregator : std::uint8_t {
  None = 0,
  /// Coordinate-wise median of the client deltas ("robust-median").
  CoordinateMedian,
  /// Coordinate-wise trimmed mean: drop the ⌈trim_fraction·n⌉ largest and
  /// smallest values per coordinate, average the rest ("trimmed-mean").
  TrimmedMean,
  /// Krum-style scoring plus norm clipping: drop the ⌈trim_fraction·n⌉
  /// highest-scoring (most outlying) updates, clip the survivors to
  /// clip_multiplier × their median L2 norm, average ("norm-clip").
  NormClip,
};

/// Byzantine-robust aggregation block (consumed by RobustStrategy; see
/// docs/robustness.md). Robust reductions are one-client-one-vote: they
/// deliberately ignore self-reported sample counts, which are themselves an
/// attack surface under the threat model.
struct RobustConfig {
  RobustAggregator aggregator = RobustAggregator::None;
  /// Per-side trim fraction (TrimmedMean) / outlier-discard fraction
  /// (NormClip's score cut). Clamped so at least one update survives.
  double trim_fraction = 0.2;
  /// NormClip survivors are clipped to this multiple of their median norm.
  double clip_multiplier = 1.0;
};

/// Asynchronous-scheduling block (FedBuff; Nguyen et al., AISTATS'22).
struct AsyncBlock {
  /// Number of client trainings kept in flight at all times.
  int concurrency = 10;
  /// Server aggregates after this many client updates arrive (FedBuff's K).
  int buffer_size = 10;
  /// Total number of server aggregations to perform.
  int aggregations = 50;
  /// Staleness discount exponent: update weight = (1 + τ)^(−p).
  double staleness_exponent = 0.5;
};

/// Engine-level session configuration: the shared runtime block plus the
/// scheduling / transport knobs that apply to *every* strategy. Built
/// fluently:
///
///   auto cfg = SessionConfig{}
///                  .with_rounds(30)
///                  .with_clients_per_round(8)
///                  .with_seed(7)
///                  .with_fabric();   // wire-protocol message passing
struct SessionConfig : SessionRuntime {
  SessionMode mode = SessionMode::Sync;
  /// Participant selection policy (Uniform reproduces the paper protocol).
  SelectorKind selector = SelectorKind::Uniform;
  /// Execute rounds over the federation fabric — wire-protocol messages on
  /// a simulated transport, collected by a multithreaded FederationServer —
  /// instead of direct in-process calls. With no fault injection the run is
  /// bitwise identical to the in-process path, for every strategy.
  bool use_fabric = false;
  /// Transport fault injection; the wire faults are only consulted when
  /// use_fabric is set, but the Byzantine client model (byzantine_prob /
  /// byzantine_mode) describes client behavior and applies to in-process
  /// sessions too — adversarial runs are path-independent.
  FaultConfig fabric_faults{};
  /// Fabric shape (flat vs sharded tree) + retry policy; only consulted
  /// when use_fabric is set.
  FabricTopology topology{};
  /// Which Transport implementation carries fabric frames. Fault-free
  /// rounds are bitwise identical across kinds; Socket pushes every frame
  /// through real non-blocking sockets with incremental reassembly.
  TransportKind transport = TransportKind::Sim;
  SocketOptions socket{};
  AsyncBlock async{};
  /// Byzantine-robust aggregation (RobustStrategy picks this up in attach
  /// when an aggregator is configured; other strategies ignore it).
  RobustConfig robust{};

  // Fluent builder.
  SessionConfig& with_rounds(int r) { rounds = r; return *this; }
  SessionConfig& with_clients_per_round(int k) {
    clients_per_round = k;
    return *this;
  }
  SessionConfig& with_local(const LocalTrainConfig& l) {
    local = l;
    return *this;
  }
  SessionConfig& with_eval(int every, int clients = 32) {
    eval_every = every;
    eval_clients = clients;
    return *this;
  }
  SessionConfig& with_seed(std::uint64_t s) { seed = s; return *this; }
  SessionConfig& with_selector(SelectorKind k) { selector = k; return *this; }
  SessionConfig& with_fabric(const FaultConfig& f = {}) {
    use_fabric = true;
    fabric_faults = f;
    return *this;
  }
  /// Run the fabric over real loopback sockets (implies with_fabric()).
  SessionConfig& with_socket_transport(const SocketOptions& s = {}) {
    use_fabric = true;
    transport = TransportKind::Socket;
    socket = s;
    return *this;
  }
  /// Deep aggregation tree: `levels` tiers above the clients, `shards`
  /// leaves, interior fan-out `branching` (implies with_fabric()).
  SessionConfig& with_tree(int levels, int shards, int branching = 0) {
    use_fabric = true;
    topology.levels = levels;
    topology.shards = shards;
    topology.branching = branching;
    return *this;
  }
  /// Associativity-tolerant numeric reduction at the tree's aggregators
  /// (see FabricTopology::partial_aggregation).
  SessionConfig& with_partial_aggregation(bool on = true) {
    topology.partial_aggregation = on;
    return *this;
  }
  /// Quantize reduced PartialUp hops (see FabricTopology::quantize_partials;
  /// requires with_partial_aggregation(true), enforced loudly at engine
  /// construction).
  SessionConfig& with_quantized_partials(PartialQuant q = PartialQuant::Int8) {
    topology.quantize_partials = q;
    return *this;
  }
  /// Content-addressed ShardDown body caching at aggregators (see
  /// FabricTopology::broadcast_cache).
  SessionConfig& with_broadcast_cache(bool on = true) {
    topology.broadcast_cache = on;
    return *this;
  }
  /// Round-over-round delta ModelDowns (see FabricTopology::delta_downlink).
  SessionConfig& with_delta_downlink(bool on = true) {
    topology.delta_downlink = on;
    return *this;
  }
  /// Fabric retry policy: bounded resend of lost frames, `ack_timeout_s`
  /// simulated seconds apart.
  SessionConfig& with_retries(int max_retries, double ack_timeout_s = 60.0) {
    topology.max_retries = max_retries;
    topology.ack_timeout_s = ack_timeout_s;
    return *this;
  }
  SessionConfig& with_async(const AsyncBlock& a) {
    mode = SessionMode::Async;
    async = a;
    return *this;
  }
  /// Mixed-precision training: clients train with `d` (F16/BF16) weight and
  /// activation storage, fp32 accumulation, and ship half-width ModelDown /
  /// UpdateUp payloads (~2× fewer bytes per round on CostMeter/FabricStats).
  /// `loss_scale` 0 picks the dtype default (1024 for F16, 1 for BF16).
  SessionConfig& with_precision(Dtype d, double loss_scale = 0.0) {
    local.precision.dtype = d;
    local.precision.loss_scale = loss_scale;
    return *this;
  }
  /// Byzantine-robust aggregation (RobustStrategy): pick the reducer and
  /// its knobs. Robust reductions are non-linear, so they compose with
  /// aggregation trees only in verbatim-bundle mode — combining this with
  /// with_partial_aggregation(true) fails loudly at engine construction.
  SessionConfig& with_robust_aggregation(RobustAggregator kind,
                                         double trim_fraction = 0.2,
                                         double clip_multiplier = 1.0) {
    robust.aggregator = kind;
    robust.trim_fraction = trim_fraction;
    robust.clip_multiplier = clip_multiplier;
    return *this;
  }

  /// Lift a legacy config's shared block into an engine session config.
  static SessionConfig from(const SessionRuntime& rt) {
    SessionConfig cfg;
    static_cast<SessionRuntime&>(cfg) = rt;
    return cfg;
  }
};

}  // namespace fedtrans
