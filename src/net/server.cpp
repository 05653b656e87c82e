#include "net/server.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <unordered_map>

#include "common/check.hpp"
#include "common/serial.hpp"
#include "common/thread_pool.hpp"
#include "fl/byzantine.hpp"
#include "fl/weights.hpp"
#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace fedtrans {

FabricTree::FabricTree(const FabricTopology& topo) : levels_(topo.levels) {
  FT_CHECK_MSG(levels_ >= 1, "a fabric tree needs at least its root");
  if (levels_ == 1) return;  // flat: the root is its own single leaf
  const int tiers = levels_ - 1;
  branching_ = topo.branching;
  if (branching_ <= 0) {
    // Auto fan-out: the smallest branching whose (levels-1)-fold power
    // covers the leaves, so every tier (including the root's) shrinks
    // about evenly.
    branching_ =
        tiers >= 2 ? std::max(2, static_cast<int>(std::ceil(std::pow(
                                     static_cast<double>(topo.shards),
                                     1.0 / static_cast<double>(tiers)))))
                   : topo.shards;
  }
  width_.assign(static_cast<std::size_t>(tiers), 0);
  width_[static_cast<std::size_t>(tiers - 1)] = topo.shards;
  for (int t = tiers - 2; t >= 0; --t)
    width_[static_cast<std::size_t>(t)] =
        (width_[static_cast<std::size_t>(t + 1)] + branching_ - 1) /
        branching_;
  // Leaves keep the historical endpoint ids aggregator_id(0..shards-1);
  // interior tiers take the ids above them, bottom-up.
  offset_.assign(static_cast<std::size_t>(tiers), 0);
  for (int t = tiers - 2; t >= 0; --t)
    offset_[static_cast<std::size_t>(t)] =
        offset_[static_cast<std::size_t>(t + 1)] +
        width_[static_cast<std::size_t>(t + 1)];
  total_ = 0;
  for (int w : width_) total_ += w;
}

std::int32_t FabricTree::node_id(int tier, int j) const {
  if (tier == 0) return kServerId;
  return aggregator_id(offset_[static_cast<std::size_t>(tier - 1)] + j);
}

std::int32_t FabricTree::parent_id(int tier, int j) const {
  if (tier == 1) return kServerId;
  return node_id(tier - 1, j / branching_);
}

std::pair<int, int> FabricTree::child_range(int tier, int j) const {
  if (tier == 0) return {0, tier_width(1)};
  const int below = tier_width(tier + 1);
  return {std::min(below, j * branching_),
          std::min(below, (j + 1) * branching_)};
}

std::pair<int, int> FabricTree::leaf_range(int tier, int j) const {
  // Tiers nest by powers of the branching factor: node (t, j) covers
  // leaves [j·b^(tiers-t), (j+1)·b^(tiers-t)) clamped to the leaf count;
  // the root covers them all.
  if (tier == 0) return {0, leaves()};
  std::int64_t span = 1;
  for (int t = tier; t < levels_ - 1; ++t) span *= branching_;
  const auto n = static_cast<std::int64_t>(leaves());
  return {static_cast<int>(std::min<std::int64_t>(n, j * span)),
          static_cast<int>(std::min<std::int64_t>(n, (j + 1) * span))};
}

std::pair<int, int> FabricTree::sibling_range(int leaf) const {
  if (levels_ <= 2) return {0, leaves()};  // all leaves share the root
  return child_range(levels_ - 2, leaf / branching_);
}

int FabricTree::node_covering(int tier, int leaf) const {
  std::int64_t span = 1;
  for (int t = tier; t < levels_ - 1; ++t) span *= branching_;
  return static_cast<int>(leaf / span);
}

namespace {

/// Send `encode(0)`; on loss resend `encode(kFlagRetry)` every
/// `ack_timeout_s` simulated seconds, up to `max_retries` times. Returns
/// whether any attempt was delivered. Every resend is counted in
/// FabricStats (frames_retried + the directional retry-byte counter the
/// engine bills through CostMeter).
bool send_with_retry(Transport& net, std::int32_t src, std::int32_t dst,
                     double first_at_s, const FabricTopology& policy,
                     bool downlink,
                     const std::function<std::string(std::uint8_t)>& encode) {
  std::string frame = encode(0);
  const std::size_t bytes = frame.size();
  if (net.send(src, dst, std::move(frame), first_at_s)) return true;
  static Histogram retry_latency_h("fedtrans_retry_latency_seconds");
  for (int k = 1; k <= policy.max_retries; ++k) {
    net.stats_mutable().frames_retried.fetch_add(1,
                                                 std::memory_order_relaxed);
    auto& counter = downlink ? net.stats_mutable().retry_bytes_down
                             : net.stats_mutable().retry_bytes_up;
    counter.fetch_add(bytes, std::memory_order_relaxed);
    const double resend_s =
        first_at_s + static_cast<double>(k) * policy.ack_timeout_s;
    FT_VSPAN_ARG("server", "retry", resend_s, 0.0, track_of_endpoint(dst),
                 "attempt", k);
    if (net.send(src, dst, encode(kFlagRetry), resend_s)) {
      // Latency the retry policy added before this frame finally left:
      // k ack-timeouts from the first (lost) attempt.
      retry_latency_h.observe(resend_s - first_at_s);
      return true;
    }
  }
  return false;
}

/// The [slot][spec][weights] head shared by every ModelDown payload: the
/// `body` argument is the [spec string][weights] section (encoded once per
/// distinct payload), the Rng state is appended per task.
std::string model_down_payload(std::int32_t slot, const std::string& body,
                               const std::array<std::uint64_t, 4>& rng_state) {
  std::ostringstream head(std::ios::binary);
  write_pod<std::int32_t>(head, slot);
  std::string payload = head.str();
  payload.reserve(payload.size() + body.size() + sizeof(rng_state));
  payload.append(body);
  payload.append(reinterpret_cast<const char*>(rng_state.data()),
                 sizeof(rng_state));
  return payload;
}

/// Encode the [empty spec][weight blob] body of a shared-model broadcast.
std::string shared_body(const WeightSet& global) {
  std::ostringstream os(std::ios::binary);
  write_string(os, std::string{});  // empty spec: use the prototype
  write_weight_set(os, global);
  return os.str();
}

/// Slot/sender validation shared by every update consumer (leaf match,
/// root merge): a task id is admissible iff it indexes the
/// round's task list and was reported by the client owning that slot.
/// First-arrival dedup stays with the caller — the structures differ.
bool admissible_slot(std::int32_t task, std::int32_t sender,
                     const std::vector<int>& clients) {
  return task >= 0 && task < static_cast<std::int32_t>(clients.size()) &&
         clients[static_cast<std::size_t>(task)] == sender;
}

/// Encode the [spec][weights] body of a heterogeneous payload model
/// (params() walks mutably, hence the non-const ref).
std::string task_body(Model& payload) {
  std::ostringstream os(std::ios::binary);
  write_string(os, payload.spec().serialize());
  auto ps = payload.params();
  write_pod<std::uint32_t>(os, static_cast<std::uint32_t>(ps.size()));
  for (auto& p : ps) p.value->save(os);
  return os.str();
}

/// Filter a downlink bundle to the tasks of leaf range [lo, hi),
/// rebuilding the body table with only the bodies that range references —
/// how interior nodes split a bundle among their children (and how the
/// root builds its per-child bundles from the full task list).
ShardDownlink subset_bundle(const ShardDownlink& d, int shards, int lo,
                            int hi) {
  ShardDownlink out;
  out.leaf_lo = lo;
  out.leaf_hi = hi;
  out.shard = hi - lo == 1 ? lo : -1;
  std::unordered_map<std::uint32_t, std::uint32_t> body_map;
  for (const DownlinkTask& t : d.tasks) {
    const int leaf = static_cast<int>(t.task) % shards;
    if (leaf < lo || leaf >= hi) continue;
    auto [it, fresh] = body_map.emplace(
        t.body, static_cast<std::uint32_t>(out.bodies.size()));
    if (fresh) out.bodies.push_back(d.bodies[t.body]);
    DownlinkTask nt = t;
    nt.body = it->second;
    out.tasks.push_back(nt);
  }
  return out;
}

/// Aggregator-state index of an aggregator endpoint (aggregator_id(k) → k).
std::size_t agg_index(std::int32_t endpoint) {
  return static_cast<std::size_t>(-2 - endpoint);
}

/// Per-tensor shape equality (delta downlinks may only diff a client's
/// stored model against a payload of identical geometry).
bool ws_shapes_match(const WeightSet& a, const WeightSet& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i)
    if (!a[i].same_shape(b[i])) return false;
  return true;
}

/// The smallest task slot a PartialUp covers (entries are present in both
/// verbatim and reduced mode; empty bundles are never sent).
std::int32_t bundle_min_slot(const PartialUpdate& p) {
  std::int32_t lo = std::numeric_limits<std::int32_t>::max();
  for (const UpdateEntry& e : p.entries) lo = std::min(lo, e.task);
  return lo;
}

/// Merge child bundles into one upstream bundle. Entries concatenate; in
/// reduced mode the per-key groups fold element-wise. Bundles are merged
/// in ascending min-slot order — the canonical order that keeps the
/// numeric reduction deterministic for a given tree shape, and independent
/// of the shape altogether when every bundle holds a single update.
PartialUpdate merge_bundles(std::vector<PartialUpdate> bundles,
                            bool reduced) {
  std::sort(bundles.begin(), bundles.end(),
            [](const PartialUpdate& a, const PartialUpdate& b) {
              const auto sa = bundle_min_slot(a), sb = bundle_min_slot(b);
              if (sa != sb) return sa < sb;
              return a.shard < b.shard;
            });
  PartialUpdate m;
  m.reduced = reduced;
  std::map<std::int32_t, std::size_t> by_key;  // reduce key → m.groups slot
  for (PartialUpdate& p : bundles) {
    for (UpdateEntry& e : p.entries) m.entries.push_back(std::move(e));
    for (ReducedGroup& g : p.groups) {
      auto it = by_key.find(g.key);
      if (it == by_key.end()) {
        by_key.emplace(g.key, m.groups.size());
        m.groups.push_back(std::move(g));
        continue;
      }
      ReducedGroup& dst = m.groups[it->second];
      ws_axpy(dst.sum, 1.0f, g.sum);
      dst.weight += g.weight;
      dst.count += g.count;
      dst.min_slot = std::min(dst.min_slot, g.min_slot);
    }
  }
  std::sort(m.groups.begin(), m.groups.end(),
            [](const ReducedGroup& a, const ReducedGroup& b) {
              return a.min_slot < b.min_slot;
            });
  return m;
}

/// Drain `node`'s mailbox and hand every frame of `round` that decodes to
/// `visit(msg, env)`. `decode` maps a frame to its message, or to
/// std::nullopt for a frame kind this consumer does not handle. This is the
/// one place a mailbox frame is decoded: a frame that fails to decode is
/// treated as loss, but counted — the transports never corrupt bytes, so
/// frames_rejected > 0 means a codec bug (asserted 0 in tests).
template <class Decode, class Visit>
void drain_decoded(Transport& net, std::int32_t node, std::uint32_t round,
                   Decode&& decode, Visit&& visit) {
  for (Envelope& env : net.drain(node)) {
    decltype(decode(env.frame)) msg;
    try {
      msg = decode(env.frame);
    } catch (const Error&) {
      net.stats_mutable().frames_rejected.fetch_add(1,
                                                    std::memory_order_relaxed);
      continue;
    }
    if (msg && msg->round == round) visit(*msg, env);
  }
}

std::optional<FabricMessage> as_message(const std::string& frame) {
  return decode_message(frame);
}

/// PartialUps only: Ack/Abort frames are bookkeeping, skipped undecoded.
std::optional<PartialUpdate> as_partial_up(const std::string& frame) {
  if (frame_type(frame) != MsgType::PartialUp) return std::nullopt;
  return decode_partial_up(frame);
}

/// The first `type` message of `round` in `node`'s mailbox and its delivery
/// instant; later duplicates are drained and dropped. Callers ask only
/// after a delivered send, so a missing message is a fabric bug.
FabricMessage first_arrival(Transport& net, std::int32_t node,
                            std::uint32_t round, MsgType type,
                            double& at_s) {
  std::optional<FabricMessage> first;
  drain_decoded(net, node, round, as_message,
                [&](FabricMessage& msg, const Envelope& env) {
                  if (msg.type != type || first) return;
                  at_s = env.deliver_at_s;
                  first = std::move(msg);
                });
  FT_CHECK_MSG(first.has_value(),
               "delivered frame missing from the mailbox of endpoint "
                   << node);
  return std::move(*first);
}

}  // namespace

std::shared_ptr<const DeltaStore::Entry> DeltaStore::peek(int client) const {
  std::lock_guard<std::mutex> lk(m_);
  const auto it = map_.find(client);
  return it == map_.end() ? nullptr : it->second;
}

void DeltaStore::update(int client, std::shared_ptr<const Entry> e) {
  std::lock_guard<std::mutex> lk(m_);
  map_[client] = std::move(e);
}

void DeltaStore::erase(int client) {
  std::lock_guard<std::mutex> lk(m_);
  map_.erase(client);
}

ClientAgent::ClientAgent(int id, const ClientDataProvider& data,
                         LocalTrainConfig local, FabricTopology policy)
    : id_(id), data_(&data), local_(local), policy_(policy) {}

void ClientAgent::poll(std::uint32_t round, const Model& prototype,
                       Transport& net,
                       std::vector<ClientOutcome>& outcomes,
                       DeltaStore* store) {
  FT_SPAN_ARG("client", "poll", "client", id_);
  // The model this device decoded last round — the base every delta-flagged
  // ModelDown of this round was diffed against. Snapshotted once up front:
  // the store only advances after this poll, so all of the round's frames
  // (duplicates included) decode against the same base.
  std::shared_ptr<const DeltaStore::Entry> prev;
  if (store != nullptr) prev = store->peek(id_);

  // Drain the mailbox first: duplicates and reordered frames all land here.
  // Invitations and models are paired per task slot; the agent keeps the
  // first arrival of each and ignores the rest.
  std::set<std::int32_t> invited;
  std::map<std::int32_t, FabricMessage> downs;  // task -> first ModelDown
  std::map<std::int32_t, double> down_at_s;

  drain_decoded(
      net, id_, round,
      [&](const std::string& frame) -> std::optional<FabricMessage> {
        return decode_message(frame, prev ? &prev->weights : nullptr,
                              prev ? prev->version : 0);
      },
      [&](FabricMessage& msg, const Envelope& env) {
        if (msg.type == MsgType::JoinRound) {
          if (invited.insert(msg.task).second) {
            FabricMessage ack;
            ack.type = MsgType::Ack;
            ack.round = round;
            ack.sender = id_;
            ack.receiver = msg.sender;
            net.send(id_, msg.sender, encode_message(ack), env.deliver_at_s);
          }
        } else if (msg.type == MsgType::ModelDown) {
          if (downs.find(msg.task) == downs.end()) {
            down_at_s[msg.task] = env.deliver_at_s;
            downs.emplace(msg.task, std::move(msg));
          }
        }
      });

  // Mid-round dropout is a per-(round, client) device event: if it fires,
  // every task trains (burning real compute) and then vanishes unsent.
  const bool dropped_out = net.client_dropped_out(round, id_);
  bool trained_any = false;
  double last_done_s = 0.0;
  std::set<std::int32_t> coordinators;  // distinct ModelDown senders

  for (auto& [task, msg] : downs) {
    // The invitation is load-bearing: a task whose JoinRound never arrived
    // does not participate even if the model frame made it through.
    if (invited.find(task) == invited.end()) continue;
    if (task < 0 || task >= static_cast<std::int32_t>(outcomes.size()))
      continue;

    // Train exactly as the in-process path would: the payload architecture
    // (prototype or on-the-wire spec), the weights, and the coordinator-
    // forked Rng all arrived on the wire.
    Rng spawn(0);  // init weights are overwritten below
    Model local = msg.spec_text.empty()
                      ? prototype
                      : Model(ModelSpec::deserialize(msg.spec_text), spawn);
    local.set_weights(msg.weights);
    Rng rng;
    rng.set_state(msg.rng_state);
    LocalTrainResult res =
        byzantine_local_train(local, data_->client(id_), data_->num_classes(),
                              local_, rng, net.faults(), round, id_);

    const double compute_s =
        res.macs_used / net.device(id_).compute_macs_per_s;
    const double done_s = down_at_s[task] + compute_s;
    // The device's train window on the simulated timeline: model arrival
    // to upload-ready, on the client's own track.
    FT_VSPAN_ARG("client", "train", down_at_s[task], compute_s,
                 kTrackClients + id_, "task", task);
    trained_any = true;
    last_done_s = std::max(last_done_s, done_s);
    coordinators.insert(msg.sender);

    if (dropped_out) {
      outcomes[static_cast<std::size_t>(task)] = ClientOutcome::Dropout;
      continue;
    }

    // Upload to the coordinator that sent the model (the root, or the
    // shard aggregator owning this slot), resending a lost frame under the
    // retry policy. A dropped-out device never retries — it is gone.
    FabricMessage up;
    up.type = MsgType::UpdateUp;
    up.round = round;
    up.sender = id_;
    up.receiver = msg.sender;
    up.task = task;
    up.weights = std::move(res.delta);
    up.avg_loss = res.avg_loss;
    up.num_samples = res.num_samples;
    up.macs_used = res.macs_used;
    const bool delivered = send_with_retry(
        net, id_, msg.sender, done_s, policy_, /*downlink=*/false,
        [&up](std::uint8_t flags) {
          up.flags = flags;
          return encode_message(up);
        });
    outcomes[static_cast<std::size_t>(task)] =
        delivered ? ClientOutcome::Trained : ClientOutcome::LostUp;
  }

  if (dropped_out && trained_any) {
    // The device vanished after training. It attempts a courtesy Abort to
    // each coordinator it trained for, riding the same lossy links as
    // everything else.
    for (std::int32_t coord : coordinators) {
      FabricMessage abort_msg;
      abort_msg.type = MsgType::Abort;
      abort_msg.round = round;
      abort_msg.sender = id_;
      abort_msg.receiver = coord;
      abort_msg.reason = "dropout";
      net.send(id_, coord, encode_message(abort_msg), last_done_s);
    }
    net.stats_mutable().client_dropouts.fetch_add(1,
                                                  std::memory_order_relaxed);
  }

  // Advance the delta store to what this device actually decoded — even on
  // dropout or a missing invitation, the bytes were decoded and are what
  // the next round's diff must be based on. Exactly one ModelDown: record
  // it. Several (a multi-slot round): the "previous model" is ambiguous,
  // so the entry is erased and the client goes back to full payloads. None
  // decoded: the old entry (still what the device last saw) stands.
  if (store != nullptr) {
    if (downs.size() == 1) {
      auto e = std::make_shared<DeltaStore::Entry>();
      FabricMessage& only = downs.begin()->second;
      e->version = prev ? prev->version + 1 : 1;
      e->spec_digest =
          fnv1a64(only.spec_text.data(), only.spec_text.size());
      e->weights = std::move(only.weights);
      store->update(id_, std::move(e));
    } else if (downs.size() > 1) {
      store->erase(id_);
    }
  }
}

FederationServer::FederationServer(const Model& prototype,
                                   const ClientDataProvider& data,
                                   std::vector<DeviceProfile> fleet,
                                   LocalTrainConfig local, FaultConfig faults,
                                   FabricTopology topology,
                                   TransportKind transport,
                                   SocketOptions socket)
    : prototype_(prototype), data_(&data), local_(local), topo_(topology) {
  FT_CHECK_MSG(static_cast<int>(fleet.size()) == data.num_clients(),
               "fabric fleet size must match client count");
  FT_CHECK_MSG(topo_.levels >= 1 && topo_.levels <= 6,
               "fabric topology supports 1 (flat) up to 6 aggregation "
               "levels, got " << topo_.levels);
  FT_CHECK_MSG(topo_.shards >= 1, "fabric topology needs >= 1 shard");
  FT_CHECK_MSG(topo_.branching >= 0, "negative fabric branching factor");
  FT_CHECK_MSG(!topo_.partial_aggregation || topo_.levels >= 2,
               "partial aggregation needs an aggregation tree (levels >= 2)");
  FT_CHECK_MSG(topo_.max_retries >= 0 && topo_.ack_timeout_s > 0.0,
               "fabric retry policy needs max_retries >= 0 and a positive "
               "ack timeout");
  FT_CHECK_MSG(topo_.quantize_partials == PartialQuant::None ||
                   topo_.partial_aggregation,
               "quantized partials (with_quantized_partials) require the "
               "numeric reduction (with_partial_aggregation) — verbatim "
               "bundles must stay bit-exact");
  tree_ = FabricTree(topo_);
  if (topo_.broadcast_cache) {
    // One receiver cache + one sender-side known-map per aggregator; sized
    // once so the per-node state never reallocates under the node-parallel
    // routing workers.
    bcast_cache_.resize(static_cast<std::size_t>(tree_.num_aggregators()));
    child_known_.resize(static_cast<std::size_t>(tree_.num_aggregators()));
  }
  net_ = make_transport(transport, std::move(fleet), faults,
                        tree_.num_aggregators(), socket);
}

int FederationServer::owner_leaf(std::uint32_t round, int s) const {
  if (!net_->leaf_dead(round, s)) return s;
  const auto [lo, hi] = tree_.sibling_range(s);
  for (int k = 1; k < hi - lo; ++k) {
    const int cand = lo + (s - lo + k) % (hi - lo);
    if (!net_->leaf_dead(round, cand)) return cand;
  }
  return -1;  // the whole fault domain is down this round
}

std::vector<std::uint8_t> FederationServer::elide_mask_for(
    std::int32_t dst, const ShardDownlink& d) {
  if (!topo_.broadcast_cache || dst >= kServerId) return {};
  const auto& known = child_known_[agg_index(dst)];
  std::vector<std::uint8_t> mask(d.bodies.size(), 0);
  // Decide per body against the receiver cache as it will evolve while it
  // decodes this bundle in table order (a later same-spec body evicts an
  // earlier one), so replay the eviction rule alongside the decisions.
  std::unordered_map<std::uint64_t, std::uint64_t> view = known;
  std::uint64_t hits = 0, saved = 0;
  for (std::size_t i = 0; i < d.bodies.size(); ++i) {
    const std::uint64_t hash = broadcast_body_hash(d.bodies[i]);
    const std::uint64_t spec = broadcast_body_spec_digest(d.bodies[i]);
    const auto it = view.find(spec);
    if (it != view.end() && it->second == hash) {
      mask[i] = 1;
      ++hits;
      saved += d.bodies[i].size();  // elided entry ships the hash instead
    }
    view[spec] = hash;
  }
  if (hits > 0) {
    net_->stats_mutable().cache_hits.fetch_add(hits,
                                               std::memory_order_relaxed);
    net_->stats_mutable().cache_saved_bytes.fetch_add(
        saved, std::memory_order_relaxed);
  }
  return mask;
}

void FederationServer::note_bundle_known(std::int32_t dst,
                                         const ShardDownlink& d) {
  if (!topo_.broadcast_cache || dst >= kServerId) return;
  auto& known = child_known_[agg_index(dst)];
  for (const std::string& b : d.bodies)
    known[broadcast_body_spec_digest(b)] = broadcast_body_hash(b);
}

void FederationServer::drop_missing_bodies(ShardDownlink& d,
                                           std::int32_t node) {
  bool any = false;
  for (const std::uint8_t m : d.missing) any = any || m != 0;
  if (!any) return;
  const std::size_t before = d.tasks.size();
  d.tasks.erase(std::remove_if(d.tasks.begin(), d.tasks.end(),
                               [&d](const DownlinkTask& t) {
                                 return d.missing[t.body] != 0;
                               }),
                d.tasks.end());
  FT_LOG_WARN("aggregator " << node << " round " << d.round << ": dropped "
                            << before - d.tasks.size()
                            << " downlink task(s) whose elided broadcast "
                               "body was missing from the cache (lost for "
                               "the round)");
}

FederationServer::ParsedBody FederationServer::parse_body(
    const std::string& body) {
  std::istringstream is(body, std::ios::binary);
  ParsedBody p;
  p.spec = read_string(is);
  p.spec_digest = fnv1a64(p.spec.data(), p.spec.size());
  p.weights = read_weight_set(is);
  return p;
}

std::string FederationServer::model_down_for(
    std::int32_t slot, int client, const std::string& body,
    const ParsedBody* parsed, const std::array<std::uint64_t, 4>& rng_state,
    std::uint8_t& flags) {
  flags = 0;
  if (topo_.delta_downlink && parsed != nullptr) {
    const auto entry = delta_store_.peek(client);
    if (entry && entry->spec_digest == parsed->spec_digest &&
        ws_shapes_match(entry->weights, parsed->weights)) {
      std::ostringstream os(std::ios::binary);
      write_pod<std::int32_t>(os, slot);
      write_string(os, parsed->spec);
      write_weight_delta(os, entry->version, entry->weights, parsed->weights);
      os.write(reinterpret_cast<const char*>(rng_state.data()),
               sizeof(rng_state));
      std::string delta_payload = os.str();
      // A diff that is not actually smaller (every tensor changed) falls
      // back to the full payload, so the saving is never negative.
      const std::size_t full =
          sizeof(slot) + body.size() + sizeof(rng_state);
      if (delta_payload.size() < full) {
        flags = kFlagDelta;
        net_->stats_mutable().delta_downlinks.fetch_add(
            1, std::memory_order_relaxed);
        net_->stats_mutable().delta_saved_bytes.fetch_add(
            full - delta_payload.size(), std::memory_order_relaxed);
        return delta_payload;
      }
    }
  }
  return model_down_payload(slot, body, rng_state);
}

ExchangeResult FederationServer::run_round(
    std::uint32_t round, const WeightSet& global,
    const std::vector<int>& clients, const std::vector<Rng>& client_rngs,
    const std::vector<std::int32_t>& reduce_keys) {
  // Serialize the weight set once; per task only the (tiny) slot id and
  // Rng-state sections of the ModelDown payload differ, so broadcast is one
  // encode plus a couple of memcpys per client rather than n WeightSet
  // deep copies.
  ShardDownlink all;
  all.bodies.push_back(shared_body(global));
  all.tasks.resize(clients.size());  // every slot downloads body 0
  return exchange(round, std::move(all), clients, client_rngs, reduce_keys);
}

ExchangeResult FederationServer::run_round(
    std::uint32_t round, const std::vector<Model*>& payloads,
    const std::vector<int>& clients, const std::vector<Rng>& client_rngs,
    const std::vector<std::int32_t>& reduce_keys) {
  FT_CHECK_MSG(payloads.size() == clients.size(),
               "one payload model per task slot required");
  // Architecture + weights ride the frame: the agent rebuilds the exact
  // submodel this task trains, no shared prototype required. The engine
  // hands tasks in the same payload_key group one Model instance, so the
  // (large) spec + weights section is encoded once per distinct instance
  // and reused; only the slot id and Rng state differ per frame.
  ShardDownlink all;
  all.tasks.resize(clients.size());
  std::unordered_map<const Model*, std::uint32_t> body_of;
  for (std::size_t i = 0; i < clients.size(); ++i) {
    auto [it, fresh] = body_of.emplace(
        payloads[i], static_cast<std::uint32_t>(all.bodies.size()));
    if (fresh) all.bodies.push_back(task_body(*payloads[i]));
    all.tasks[i].body = it->second;
  }
  return exchange(round, std::move(all), clients, client_rngs, reduce_keys);
}

ExchangeResult FederationServer::exchange(
    std::uint32_t round, ShardDownlink all, const std::vector<int>& clients,
    const std::vector<Rng>& client_rngs,
    const std::vector<std::int32_t>& reduce_keys) {
  FT_SPAN_ARG("server", "exchange", "tasks", clients.size());
  FT_CHECK_MSG(clients.size() == client_rngs.size(),
               "one forked Rng per task slot required");
  FT_CHECK_MSG(reduce_keys.empty() || reduce_keys.size() == clients.size(),
               "one reduce key per task slot required");
  // partial_aggregation implies a tree (checked at construction).
  reduced_round_ = topo_.partial_aggregation && !reduce_keys.empty();
  all.leaf_lo = 0;
  all.leaf_hi = tree_.leaves();
  for (std::size_t i = 0; i < clients.size(); ++i) {
    DownlinkTask& t = all.tasks[i];
    t.task = static_cast<std::int32_t>(i);
    t.client = clients[i];
    t.reduce = reduce_keys.empty() ? -1 : reduce_keys[i];
    t.rng_state = client_rngs[i].state();
  }
  ExchangeResult out;
  out.results.resize(clients.size());
  out.outcomes.assign(clients.size(), ClientOutcome::LostDown);
  out.reduced = reduced_round_;
  const std::uint64_t retry_down0 = net_->stats().retry_bytes_down.load();
  const std::uint64_t retry_up0 = net_->stats().retry_bytes_up.load();
  const std::uint64_t failovers0 = net_->stats().leaf_failovers.load();
  const std::uint64_t failover_b0 = net_->stats().failover_bytes_down.load();
  const std::uint64_t delta_saved0 = net_->stats().delta_saved_bytes.load();

  broadcast(round, std::move(all));
  collect(round, clients, out);  // aggregation happens in the caller

  out.retry_down_bytes = static_cast<double>(
      net_->stats().retry_bytes_down.load() - retry_down0);
  out.retry_up_bytes = static_cast<double>(
      net_->stats().retry_bytes_up.load() - retry_up0);
  out.leaf_failovers = static_cast<int>(
      net_->stats().leaf_failovers.load() - failovers0);
  out.failover_down_bytes = static_cast<double>(
      net_->stats().failover_bytes_down.load() - failover_b0);
  out.delta_saved_bytes = static_cast<double>(
      net_->stats().delta_saved_bytes.load() - delta_saved0);
  return out;
}

void FederationServer::broadcast(std::uint32_t round, ShardDownlink all) {
  FT_SPAN_ARG("server", "broadcast", "tasks", all.tasks.size());
  // The root holds the whole task list: a flat root (its own leaf) fans it
  // out, a tree root ships one bundle per child — each distinct payload
  // body copied once per child that references it. A bundle lost despite
  // retries leaves its whole subtree's tasks at LostDown.
  leaf_served_.assign(static_cast<std::size_t>(tree_.leaves()), {});
  route_down(round, 0, 0, all, /*at_s=*/0.0);
  route_tiers_down(round);
}

void FederationServer::route_down(std::uint32_t round, int tier, int j,
                                  const ShardDownlink& d, double at_s) {
  if (tier == tree_.levels() - 1) {
    fan_out(round, j, d, at_s);
    return;
  }
  const auto [clo, chi] = tree_.child_range(tier, j);
  for (int c = clo; c < chi; ++c) {
    const auto [llo, lhi] = tree_.leaf_range(tier + 1, c);
    send_bundle(round, tree_.node_id(tier, j), tier + 1, c,
                subset_bundle(d, tree_.leaves(), llo, lhi), at_s);
  }
}

void FederationServer::send_bundle(std::uint32_t round, std::int32_t src,
                                   int tier, int j, const ShardDownlink& d,
                                   double sent_at_s) {
  if (d.tasks.empty()) return;
  if (tier < topo_.levels - 1) {
    // Interior destination: straight down under the retry policy. The elide
    // mask is computed once per destination decision — retries reuse it, so
    // cache savings are counted once even when the frame is resent.
    const std::int32_t dst = tree_.node_id(tier, j);
    const std::vector<std::uint8_t> elide = elide_mask_for(dst, d);
    const bool delivered = send_with_retry(
        *net_, src, dst, sent_at_s, topo_, /*downlink=*/true,
        [&](std::uint8_t flags) {
          return encode_shard_down(round, src, dst, d, flags,
                                   elide.empty() ? nullptr : &elide);
        });
    if (delivered) note_bundle_known(dst, d);
    return;
  }
  // Leaf destination: the per-shard fault domain. An alive leaf gets its
  // partition's bundle under the retry policy; a dead one costs the parent
  // the first (wasted) send, and one ack-timeout later the partition is
  // redirected to the alive sibling — billed as failover traffic. With the
  // whole sibling group down the partition is lost for the round.
  const int owner = owner_leaf(round, j);
  if (owner == j) {
    const std::int32_t dst = tree_.leaf_id(j);
    const std::vector<std::uint8_t> elide = elide_mask_for(dst, d);
    const bool delivered = send_with_retry(
        *net_, src, dst, sent_at_s, topo_, /*downlink=*/true,
        [&](std::uint8_t flags) {
          return encode_shard_down(round, src, dst, d, flags,
                                   elide.empty() ? nullptr : &elide);
        });
    if (delivered) note_bundle_known(dst, d);
    return;
  }
  // The wasted frame elides against the dead leaf's known-map (the sender
  // cannot know the leaf is dead yet), but never advances it — the mail
  // rots undecoded, so the leaf's cache saw nothing.
  const std::vector<std::uint8_t> dead_elide =
      elide_mask_for(tree_.leaf_id(j), d);
  std::string wasted =
      encode_shard_down(round, src, tree_.leaf_id(j), d, 0,
                        dead_elide.empty() ? nullptr : &dead_elide);
  const std::size_t bytes = wasted.size();
  net_->send(src, tree_.leaf_id(j), std::move(wasted), sent_at_s);
  if (owner < 0) return;
  FT_VSPAN_ARG("server", "leaf_failover", sent_at_s + topo_.ack_timeout_s,
               0.0, track_of_endpoint(tree_.leaf_id(owner)), "dead_leaf", j);
  net_->stats_mutable().leaf_failovers.fetch_add(1,
                                                 std::memory_order_relaxed);
  net_->stats_mutable().failover_bytes_down.fetch_add(
      bytes, std::memory_order_relaxed);
  const std::int32_t dst = tree_.leaf_id(owner);
  const std::vector<std::uint8_t> elide = elide_mask_for(dst, d);
  const bool delivered = send_with_retry(
      *net_, src, dst, sent_at_s + topo_.ack_timeout_s, topo_,
      /*downlink=*/true, [&](std::uint8_t flags) {
        return encode_shard_down(round, src, dst, d, flags,
                                 elide.empty() ? nullptr : &elide);
      });
  if (delivered) note_bundle_known(dst, d);
}

void FederationServer::route_tiers_down(std::uint32_t round) {
  FT_SPAN("server", "route_tiers_down");
  // Downlink passes below the root, one tier at a time (node-parallel
  // within a tier: nodes own disjoint subtrees and mailboxes are
  // thread-safe). Each node routes the first arrival per leaf range; a leaf
  // dead for the round routes nothing — its mail rots.
  const int leaf_tier = tree_.levels() - 1;
  for (int t = 1; t <= leaf_tier; ++t) {
    ThreadPool::global().parallel_for(
        tree_.tier_width(t), 1, [&](std::int64_t lo, std::int64_t hi) {
          for (std::int64_t jj = lo; jj < hi; ++jj) {
            const int j = static_cast<int>(jj);
            const std::int32_t node = tree_.node_id(t, j);
            if (t == leaf_tier && net_->leaf_dead(round, j)) {
              net_->drain(node);
              continue;
            }
            BroadcastCache* cache = topo_.broadcast_cache
                                        ? &bcast_cache_[agg_index(node)]
                                        : nullptr;
            std::set<std::int32_t> handled;
            drain_decoded(
                *net_, node, round,
                [cache](const std::string& frame)
                    -> std::optional<ShardDownlink> {
                  return decode_shard_down(frame, cache);
                },
                [&](ShardDownlink& d, const Envelope& env) {
                  if (!handled.insert(d.leaf_lo).second) return;
                  drop_missing_bodies(d, node);
                  route_down(round, t, j, d, env.deliver_at_s);
                });
          }
        });
  }
}

void FederationServer::fan_out(std::uint32_t round, int s,
                               const ShardDownlink& d, double sent_at_s) {
  // JoinRound + ModelDown per task, byte-identical payloads whichever node
  // sends them (only the coordinator id differs), so agents train
  // bit-identically. Both per-client frames leave when the bundle arrived
  // (t = 0 at a flat root) — a retried ShardDown must not invite clients
  // retroactively. A leaf may serve several partitions after a failover,
  // but partitions are disjoint and the transport mailboxes thread-safe.
  const std::int32_t node = tree_.leaf_id(s);
  auto& served = leaf_served_[static_cast<std::size_t>(s)];
  // One parse per distinct body in the bundle, built lazily — rounds
  // without delta downlinks never deserialize here.
  std::vector<std::unique_ptr<ParsedBody>> parsed(d.bodies.size());
  for (const DownlinkTask& t : d.tasks) {
    FabricMessage join;
    join.type = MsgType::JoinRound;
    join.round = round;
    join.sender = node;
    join.receiver = t.client;
    join.task = t.task;
    net_->send(node, t.client, encode_message(join), sent_at_s);
    const ParsedBody* pb = nullptr;
    if (topo_.delta_downlink) {
      auto& slot = parsed[t.body];
      if (!slot)
        slot = std::make_unique<ParsedBody>(parse_body(d.bodies[t.body]));
      pb = slot.get();
    }
    std::uint8_t flags = 0;
    const std::string payload = model_down_for(
        t.task, t.client, d.bodies[t.body], pb, t.rng_state, flags);
    net_->send(node, t.client,
               encode_frame(MsgType::ModelDown, round, node, t.client,
                            payload, flags),
               sent_at_s);
    served[t.task] = t.reduce;
  }
}

void FederationServer::poll_agents(std::uint32_t round,
                                   const std::vector<int>& clients,
                                   ExchangeResult& out) {
  FT_SPAN_ARG("server", "poll_agents", "tasks", clients.size());
  // ClientAgent workers run concurrently on the shared ThreadPool — one
  // poll per *distinct* client (an agent drains its whole mailbox, which
  // may hold several task slots). Each task slot is written by exactly one
  // agent, so the result is independent of the thread schedule; nested
  // parallel_for inside local_train runs inline.
  std::vector<int> distinct;
  distinct.reserve(clients.size());
  std::set<int> seen_clients;
  for (int c : clients)
    if (seen_clients.insert(c).second) distinct.push_back(c);

  ThreadPool::global().parallel_for(
      static_cast<std::int64_t>(distinct.size()), 1,
      [&](std::int64_t lo, std::int64_t hi) {
        for (std::int64_t i = lo; i < hi; ++i)
          // Agents are stateless per-round workers (id + config + borrowed
          // data): build one on the stack per distinct client instead of
          // keeping a live object per population member. At a million
          // clients the always-materialized agent vector is exactly the
          // kind of resident cost the descriptor population avoids.
          ClientAgent(distinct[static_cast<std::size_t>(i)], *data_, local_,
                      topo_)
              .poll(round, prototype_, *net_, out.outcomes,
                    topo_.delta_downlink ? &delta_store_ : nullptr);
      });
}

void FederationServer::collect(std::uint32_t round,
                               const std::vector<int>& clients,
                               ExchangeResult& out) {
  FT_SPAN("server", "collect");
  poll_agents(round, clients, out);

  // Bottom-up, tier by tier: the leaves match their partitions' updates
  // (a flat root is its own leaf), the tiers above merge bundles.
  const int leaf_tier = tree_.levels() - 1;
  std::vector<PartialUpdate> at_root =
      collect_tier(round, leaf_tier, clients, out);
  FT_SPAN("server", "partial_merge");
  for (int t = leaf_tier - 1; t >= 0; --t)
    at_root = collect_tier(round, t, clients, out);

  // Fill the task list from what reached the root (and, in a numeric round,
  // the merged reduce groups the engine's absorb_reduced path consumes):
  // slot/sender validation and first-arrival dedup over bundled entries.
  PartialUpdate merged = merge_bundles(std::move(at_root), reduced_round_);
  std::vector<bool> seen(clients.size(), false);
  for (UpdateEntry& e : merged.entries) {
    if (!admissible_slot(e.task, e.client, clients)) continue;
    const auto slot = static_cast<std::size_t>(e.task);
    if (seen[slot]) continue;
    seen[slot] = true;
    LocalTrainResult& res = out.results[slot];
    res.delta = std::move(e.delta);
    res.avg_loss = e.avg_loss;
    res.num_samples = e.num_samples;
    res.macs_used = e.macs_used;
  }
  if (reduced_round_) out.groups = std::move(merged.groups);
  // An agent that believes its update was delivered must be matched at the
  // root; anything else is a fabric bug.
  for (std::size_t i = 0; i < clients.size(); ++i)
    if (out.outcomes[i] == ClientOutcome::Trained)
      FT_CHECK_MSG(seen[i], "delivered update missing from root mailbox");
}

std::vector<PartialUpdate> FederationServer::collect_tier(
    std::uint32_t round, int t, const std::vector<int>& clients,
    ExchangeResult& out) {
  // Node-parallel on the shared ThreadPool: nodes cover disjoint
  // partitions, so outcome flips never race.
  std::vector<PartialUpdate> at_root;
  ThreadPool::global().parallel_for(
      tree_.tier_width(t), 1, [&](std::int64_t lo, std::int64_t hi) {
        for (std::int64_t jj = lo; jj < hi; ++jj) {
          const int j = static_cast<int>(jj);
          std::vector<Upstream> ups = t == tree_.levels() - 1
                                          ? match_updates(round, j, clients)
                                          : merge_children(round, t, j);
          if (t == 0) {  // the root (tier width 1) keeps what it gathered
            for (Upstream& u : ups) at_root.push_back(std::move(u.bundle));
            continue;
          }
          const std::int32_t node = tree_.node_id(t, j);
          const std::int32_t parent = tree_.parent_id(t, j);
          for (Upstream& u : ups) {
            const bool delivered = send_with_retry(
                *net_, node, parent, u.at_s, topo_, /*downlink=*/false,
                [&](std::uint8_t flags) {
                  return encode_partial_up(round, node, parent, u.bundle,
                                           flags);
                });
            if (delivered) continue;
            // The bundle never reached its parent: its trained updates are
            // lost on the (backbone) uplink.
            for (const UpdateEntry& e : u.bundle.entries) {
              auto& o = out.outcomes[static_cast<std::size_t>(e.task)];
              if (o == ClientOutcome::Trained) o = ClientOutcome::LostUp;
            }
          }
        }
      });
  return at_root;
}

std::vector<FederationServer::Upstream> FederationServer::match_updates(
    std::uint32_t round, int s, const std::vector<int>& clients) {
  const std::int32_t leaf = tree_.leaf_id(s);
  const auto& served = leaf_served_[static_cast<std::size_t>(s)];
  if (served.empty()) {
    net_->drain(leaf);  // dead or idle: nothing was fanned out
    return {};
  }
  // Duplicates are dropped here (first arrival wins); unknown slots,
  // sender/slot mismatches and slots another leaf served are ignored. Ack
  // and Abort are bookkeeping only: the agents' ground-truth outcomes
  // already account for dropouts.
  std::map<std::int32_t, UpdateEntry> matched;  // slot -> first arrival
  std::map<std::int32_t, double> up_at;  // partition -> last delivery
  drain_decoded(*net_, leaf, round, as_message,
                [&](FabricMessage& msg, const Envelope& env) {
                  const std::int32_t i = msg.task;
                  if (msg.type != MsgType::UpdateUp ||
                      !admissible_slot(i, msg.sender, clients) ||
                      served.count(i) == 0 || matched.count(i) != 0)
                    return;
                  UpdateEntry e;
                  e.task = i;
                  e.client = msg.sender;
                  e.delta = std::move(msg.weights);
                  e.avg_loss = msg.avg_loss;
                  e.num_samples = msg.num_samples;
                  e.macs_used = msg.macs_used;
                  matched.emplace(i, std::move(e));
                  auto& at = up_at[tree_.leaf_of(i)];
                  at = std::max(at, env.deliver_at_s);
                });

  // One bundle per served partition, slots in ascending order (matched is
  // slot-sorted); numeric rounds fold the deltas into per-key groups as
  // they go and keep the metrics verbatim.
  std::map<std::int32_t, PartialUpdate> parts;
  for (auto& [slot, e] : matched) {
    PartialUpdate& p = parts[tree_.leaf_of(slot)];
    if (reduced_round_) {
      const std::int32_t key = served.at(slot);
      ReducedGroup* g = nullptr;
      for (ReducedGroup& cand : p.groups)
        if (cand.key == key) g = &cand;
      if (g == nullptr) {
        ReducedGroup fresh;
        fresh.key = key;
        fresh.min_slot = slot;
        fresh.sum = ws_zeros_like(e.delta);
        p.groups.push_back(std::move(fresh));
        g = &p.groups.back();
      }
      ws_axpy(g->sum, static_cast<float>(e.num_samples), e.delta);
      g->weight += static_cast<double>(e.num_samples);
      g->count += 1;
      g->min_slot = std::min(g->min_slot, slot);
      e.delta.clear();  // the sum rides instead; metrics stay
    }
    p.entries.push_back(std::move(e));
  }
  std::vector<Upstream> ups;
  for (auto& [part, p] : parts) {
    p.shard = part;
    p.reduced = reduced_round_;
    p.quant = reduced_round_
                  ? static_cast<std::uint8_t>(topo_.quantize_partials)
                  : kPartialQuantF32;
    ups.push_back({std::move(p), up_at[part]});
  }
  return ups;
}

std::vector<FederationServer::Upstream> FederationServer::merge_children(
    std::uint32_t round, int t, int j) {
  // Duplicate deliveries dedup at bundle granularity (first arrival per
  // (sender, partition)).
  std::vector<PartialUpdate> bundles;
  std::set<std::pair<std::int32_t, std::int32_t>> seen;
  double last_s = 0.0;
  drain_decoded(*net_, tree_.node_id(t, j), round, as_partial_up,
                [&](PartialUpdate& p, const Envelope& env) {
                  if (!seen.insert({p.sender, p.shard}).second) return;
                  last_s = std::max(last_s, env.deliver_at_s);
                  bundles.push_back(std::move(p));
                });
  if (bundles.empty()) return {};
  Upstream u{merge_bundles(std::move(bundles), reduced_round_), last_s};
  u.bundle.shard = j;
  u.bundle.quant = reduced_round_
                       ? static_cast<std::uint8_t>(topo_.quantize_partials)
                       : kPartialQuantF32;
  std::vector<Upstream> ups;
  ups.push_back(std::move(u));
  return ups;
}

AsyncTurnaround FederationServer::async_exchange(std::uint32_t job,
                                                 int client,
                                                 const WeightSet& global,
                                                 const Rng& rng,
                                                 double now_s) {
  FT_SPAN_ARG("server", "async_exchange", "client", client);
  FT_CHECK_MSG(client >= 0 && client < num_clients(),
               "async dispatch to unknown client " << client);
  AsyncTurnaround t;
  const std::uint64_t retry0 = net_->stats().retry_bytes_up.load();

  // Route: a flat session talks straight to the client; a tree session
  // hops through the aggregator chain above the client's leaf partition
  // (leaf = client % shards, failover applied per job) on the
  // zero-latency backbone — so the server-side delivery order the engine
  // folds completions in is preserved relative to a flat fabric.
  std::vector<std::int32_t> chain;  // root-to-leaf aggregator endpoints
  if (sharded()) {
    const int part = tree_.leaf_of(client);
    const int owner = owner_leaf(job, part);
    if (owner < 0) return t;  // whole fault domain down: LostDown
    if (owner != part) {
      t.failed_over = true;
      net_->stats_mutable().leaf_failovers.fetch_add(
          1, std::memory_order_relaxed);
    }
    for (int tier = 1; tier < topo_.levels - 1; ++tier)
      chain.push_back(tree_.node_id(tier, tree_.node_covering(tier, owner)));
    chain.push_back(tree_.leaf_id(owner));
  }

  // Downlink: one ModelDown (task slot 0, round field = job id) carrying
  // the dispatch-time weight snapshot and the forked Rng — hop by hop down
  // the chain, then over the client's radio link, the real wire path, so
  // the client trains on exactly what it downloaded. Any lost hop is
  // LostDown: async dispatches are not retried downward — the engine
  // replaces timed-out clients instead.
  const std::string payload =
      model_down_payload(0, shared_body(global), rng.state());
  std::int32_t down_src = kServerId;
  double down_sent_s = now_s;
  for (std::int32_t hop : chain) {
    if (!net_->send(down_src, hop,
                    encode_frame(MsgType::ModelDown, job, down_src, hop,
                                 payload),
                    down_sent_s))
      return t;
    first_arrival(*net_, hop, job, MsgType::ModelDown, down_sent_s);
    down_src = hop;
  }
  const bool down_ok = net_->send(
      down_src, client,
      encode_frame(MsgType::ModelDown, job, down_src, client, payload),
      down_sent_s);
  if (!down_ok) return t;  // LostDown: the device never saw the job

  // Client side: drain, decode, train on receipt.
  double down_at = 0.0;
  const FabricMessage down =
      first_arrival(*net_, client, job, MsgType::ModelDown, down_at);

  Model local = prototype_;
  local.set_weights(down.weights);
  Rng crng;
  crng.set_state(down.rng_state);
  t.res = byzantine_local_train(local, data_->client(client),
                                data_->num_classes(), local_, crng,
                                net_->faults(), job, client);
  const double compute_s =
      t.res.macs_used / net_->device(client).compute_macs_per_s;
  const double done_s = down_at + compute_s;
  FT_VSPAN_ARG("client", "train", down_at, compute_s, kTrackClients + client,
               "job", job);
  t.busy_s = done_s - now_s;

  if (net_->client_dropped_out(job, client)) {
    t.outcome = ClientOutcome::Dropout;
    return t;  // trained, then vanished — no upload, no retries
  }

  // Uplink under the retry policy: client → its coordinator (the leaf in
  // tree sessions), then hop by hop back to the root, each backbone leg
  // under the same retry policy.
  FabricMessage up;
  up.type = MsgType::UpdateUp;
  up.round = job;
  up.sender = client;
  up.receiver = chain.empty() ? kServerId : chain.back();
  up.task = 0;
  up.weights = std::move(t.res.delta);
  up.avg_loss = t.res.avg_loss;
  up.num_samples = t.res.num_samples;
  up.macs_used = t.res.macs_used;
  const bool delivered = send_with_retry(
      *net_, client, up.receiver, done_s, topo_, /*downlink=*/false,
      [&up](std::uint8_t flags) {
        up.flags = flags;
        return encode_message(up);
      });
  if (!delivered) {
    t.retry_up_bytes = static_cast<double>(
        net_->stats().retry_bytes_up.load() - retry0);
    t.outcome = ClientOutcome::LostUp;
    return t;
  }
  for (std::size_t k = chain.size(); k-- > 0;) {
    const std::int32_t node = chain[k];
    double up_at = 0.0;
    FabricMessage fwd =
        first_arrival(*net_, node, job, MsgType::UpdateUp, up_at);
    const std::int32_t parent = k == 0 ? kServerId : chain[k - 1];
    fwd.sender = node;
    fwd.receiver = parent;
    const bool fwd_ok = send_with_retry(
        *net_, node, parent, up_at, topo_, /*downlink=*/false,
        [&fwd](std::uint8_t flags) {
          fwd.flags = flags;
          return encode_message(fwd);
        });
    if (!fwd_ok) {
      t.retry_up_bytes = static_cast<double>(
          net_->stats().retry_bytes_up.load() - retry0);
      t.outcome = ClientOutcome::LostUp;
      return t;
    }
  }
  t.retry_up_bytes = static_cast<double>(
      net_->stats().retry_bytes_up.load() - retry0);

  // Server side: collect this job's UpdateUp and its delivery instant.
  t.res.delta = first_arrival(*net_, kServerId, job, MsgType::UpdateUp,
                              t.update_at_s)
                    .weights;
  t.outcome = ClientOutcome::Trained;
  t.busy_s = std::max(t.busy_s, t.update_at_s - now_s);
  return t;
}

}  // namespace fedtrans
