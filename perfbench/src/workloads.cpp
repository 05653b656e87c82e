#include "workloads.hpp"

#include <iostream>
#include <sstream>

#include "baselines/fluid.hpp"
#include "baselines/hetero_fl.hpp"
#include "baselines/split_mix.hpp"
#include "core/trainer.hpp"
#include "fl/runner.hpp"
#include "harness/presets.hpp"
#include "net/wire.hpp"
#include "obs/trace.hpp"

namespace perfbench {

using namespace fedtrans;

namespace {

/// Byte image of final weights and round history; its FNV-1a digest is
/// equal exactly when two sessions ended bitwise identical.
class Digest {
 public:
  template <typename T>
  void pod(const T& v) {
    buf_.append(reinterpret_cast<const char*>(&v), sizeof v);
  }
  void weights(Model& m) {
    for (const ParamRef& p : m.params())
      buf_.append(reinterpret_cast<const char*>(p.value->data()),
                  static_cast<std::size_t>(p.value->numel()) * sizeof(float));
  }
  void history(const std::vector<RoundRecord>& h) {
    for (const RoundRecord& r : h) {
      pod(r.round);
      pod(r.avg_loss);
      pod(r.cum_macs);
      pod(r.accuracy);
      pod(r.round_time_s);
      pod(r.participants);
      pod(r.lost_updates);
      pod(r.leaf_failovers);
      pod(r.byzantine_updates);
    }
  }
  std::uint64_t value() const { return fnv1a64(buf_.data(), buf_.size()); }

 private:
  std::string buf_;
};

/// Mean probe accuracy over the session's last third of rounds — the final
/// model's quality with the probe's sampling noise averaged out.
double late_accuracy(const FederationEngine& eng) {
  const auto& h = eng.history();
  const std::size_t from = h.size() - h.size() / 3;
  double sum = 0.0;
  int n = 0;
  for (std::size_t i = from; i < h.size(); ++i)
    if (h[i].accuracy >= 0.0) {
      sum += h[i].accuracy;
      ++n;
    }
  return n > 0 ? sum / n : 0.0;
}

/// One engine plus the wrappers it borrows (declared first, destroyed last).
struct Session {
  std::unique_ptr<TimedDataProvider> data_wrap;
  std::unique_ptr<FederationEngine> engine;
};

/// Builds sessions for one pass and drives their rounds, timing each
/// run_round call and — on traced passes — collecting the hook timings and
/// the program's spans of that round.
class PassRunner {
 public:
  PassRunner(const PassOptions& opt, PassResult& out) : opt_(opt), out_(out) {}

  /// `selector` replaces the engine's configured selector (null: keep it,
  /// wrapped on traced passes). On traced passes `data` is wrapped too when
  /// `wrap_data` is set.
  Session open(std::unique_ptr<Strategy> strategy,
               const ClientDataProvider& data, std::vector<DeviceProfile> fleet,
               const SessionConfig& cfg,
               std::unique_ptr<ClientSelector> selector = nullptr,
               bool wrap_data = false) {
    Session s;
    const ClientDataProvider* seat = &data;
    if (opt_.traced) {
      strategy = std::make_unique<TimedStrategy>(std::move(strategy), clock_);
      if (wrap_data) {
        s.data_wrap = std::make_unique<TimedDataProvider>(data, clock_);
        seat = s.data_wrap.get();
      }
      if (!selector)
        selector = std::make_unique<TimedSelector>(make_selector(cfg.selector),
                                                   clock_);
    }
    s.engine = std::make_unique<FederationEngine>(std::move(strategy), *seat,
                                                  std::move(fleet), cfg);
    if (selector) s.engine->set_selector(std::move(selector));
    return s;
  }

  /// Run `rounds` rounds (capped by the pass's round limit). With a target,
  /// the session's wall time until its probe first reaches it is added to
  /// the pass's time to target.
  void run(Session& s, int rounds, const std::string& label,
           double target = -1.0) {
    const int session = static_cast<int>(out_.labels.size());
    out_.labels.push_back(label);
    if (opt_.round_limit > 0) rounds = std::min(rounds, opt_.round_limit);
    FederationEngine& eng = *s.engine;
    double elapsed = 0.0;
    double prev_elapsed = 0.0;
    double prev_acc = -1.0;
    bool hit = target < 0.0;
    for (int r = 0; r < rounds; ++r) {
      RoundSample smp;
      smp.session = session;
      if (opt_.traced) {
        clock_.reset();
        trace_clear();
        trace_start(TraceClock::Wall);
      }
      const double t0 = now_us();
      eng.run_round();
      smp.wall_us = now_us() - t0;
      if (opt_.traced) {
        trace_stop();
        collect_spans(smp);
        smp.hooks = clock_.take();
      }
      elapsed += smp.wall_us;
      const double acc = eng.history().back().accuracy;
      if (!hit && acc >= target) {
        // Interpolate linearly between this probe and the previous one, so
        // the time does not jump by whole probe intervals.
        double t = elapsed;
        if (prev_acc >= 0.0 && acc > prev_acc)
          t = prev_elapsed +
              (target - prev_acc) / (acc - prev_acc) * (elapsed - prev_elapsed);
        hit = true;
        out_.time_to_target_us += t;
      }
      if (acc >= 0.0) {
        prev_acc = acc;
        prev_elapsed = elapsed;
      }
      out_.rounds.push_back(std::move(smp));
    }
    if (!hit) out_.reached = false;
    // The session's probe curve, one line on stderr (where the targets in
    // this file were read off).
    std::cerr << "# session " << label << " rounds " << rounds << " wall_s "
              << elapsed * 1e-6 << " probes";
    for (const RoundRecord& rec : eng.history())
      if (rec.accuracy >= 0.0) std::cerr << " " << rec.round << ":" << rec.accuracy;
    std::cerr << "\n";
    account(eng);
  }

  Digest& digest() { return digest_; }
  HookClock& clock() { return clock_; }
  void finish() { out_.digest = digest_.value(); }
  bool traced() const { return opt_.traced; }

 private:
  void collect_spans(RoundSample& smp) {
    std::ostringstream os;
    trace_export_json(os);
    smp.spans_dropped = trace_dropped_count();
    std::vector<Span> main;
    for (Span& sp : parse_trace_events(os.str())) {
      smp.busy_us[span_key(sp)] += sp.dur_us;
      if (sp.cat == "kernel" && sp.name == "gemm") smp.gemm_macs += sp.arg;
      if (sp.cat == "engine" || sp.cat == "server") main.push_back(std::move(sp));
    }
    smp.main_self_us = fold_self_us(std::move(main));
    trace_clear();
  }

  void account(FederationEngine& eng) {
    out_.network_bytes += eng.costs().network_bytes();
    out_.macs += eng.costs().total_macs();
    for (const RoundRecord& r : eng.history()) {
      out_.attempted += r.participants + r.lost_updates;
      out_.lost += r.lost_updates;
    }
    if (const FederationServer* f = eng.fabric()) {
      const FabricStats& st = f->stats();
      out_.frames_sent += st.frames_sent.load();
      out_.bytes_sent += st.bytes_sent.load();
      out_.root_bytes += st.bytes_root_in.load();
      out_.frames_retried += st.frames_retried.load();
      out_.frames_rejected += st.frames_rejected.load();
    }
    digest_.history(eng.history());
  }

  PassOptions opt_;
  PassResult& out_;
  HookClock clock_;
  Digest digest_;
};

double seconds_since(double t0_us) { return (now_us() - t0_us) * 1e-6; }

/// Session seed of draw `k` under run seed `seed`; draw 0 is the seed itself.
std::uint64_t session_seed(std::uint64_t seed, int k) {
  return seed + 1000003ULL * static_cast<std::uint64_t>(k);
}

// ---------------------------------------------------------------------------
// table2-tiny: the paper's Table 2 protocol on the four tiny presets.

class Table2Tiny : public Workload {
 public:
  explicit Table2Tiny(bool smoke)
      : rounds_(smoke ? 3 : kRounds), eval_every_(smoke ? 1 : kEvalEvery),
        smoke_(smoke) {}

  std::string name() const override { return "table2-tiny"; }
  // A pass is ~30 s and the FedTrans sessions in it are fixed, so one
  // reference pass is enough.
  int reference_passes() const override { return 1; }
  int local_batch() const override { return 10; }
  double accuracy_floor() const override { return smoke_ ? 0.0 : kFloor; }

  void setup(std::uint64_t seed) override {
    presets_.clear();
    data_generate_s = 0.0;
    // Every pass runs FedTrans on the paper presets exactly (preset seed 1)
    // — the reference sessions, whose time to target and accuracy move only
    // when the program does — and the baselines on sessions the seed draws:
    // initial weights, client selection and local batches.
    baseline_seed_ = seed;
    for (ExperimentPreset& p : all_presets(Scale::Tiny, 1)) {
      Preset pr;
      pr.p = std::move(p);
      pr.p.fedtrans.rounds = rounds_;
      pr.p.fedtrans.eval_every = eval_every_;
      const double t0 = now_us();
      pr.data = std::make_unique<FederatedDataset>(
          FederatedDataset::generate(pr.p.dataset));
      data_generate_s += seconds_since(t0);
      pr.fleet = sample_fleet(pr.p.fleet);
      presets_.push_back(std::move(pr));
    }
    // The engines a pass starts from (FedTrans builds its initial model).
    for (Preset& pr : presets_) {
      FederationEngine eng(
          std::make_unique<FedTransStrategy>(pr.p.initial_model, pr.p.fedtrans),
          *pr.data, pr.fleet, pr.p.fedtrans);
    }
  }

  PassResult run_pass(const PassOptions& opt) override {
    PassResult out;
    PassRunner drv(opt, out);
    double acc_sum = 0.0;
    for (std::size_t i = 0; i < presets_.size(); ++i) {
      Preset& pr = presets_[i];
      const FedTransConfig& cfg = pr.p.fedtrans;
      auto ft = std::make_unique<FedTransStrategy>(pr.p.initial_model, cfg);
      FedTransStrategy* fts = ft.get();
      Session s = drv.open(std::move(ft), *pr.data, pr.fleet, cfg);
      drv.run(s, rounds_, "fedtrans", smoke_ ? -1.0 : kTargets[i]);
      const FinalEval ev = fts->evaluate_final();
      acc_sum += ev.mean_accuracy;
      for (double a : ev.client_accuracy) drv.digest().pod(a);
      for (int m = 0; m < fts->num_models(); ++m)
        drv.digest().weights(fts->model(m));
      out.transforms += fts->transforms_done();
      out.family_models += fts->num_models();
      ++out.fedtrans_sessions;
      Model& largest = fts->model(fts->num_models() - 1);
      const ModelSpec spec = largest.spec();
      if (drv.traced()) out.final_models.push_back(largest);

      // Baselines receive FedTrans's largest model (paper §A.1).
      SessionConfig bc = SessionConfig::from(cfg);
      bc.eval_every = 0;
      bc.seed = session_seed(baseline_seed_, opt.draw);
      {
        auto st = std::make_unique<FluidStrategy>(spec);
        FluidStrategy* p = st.get();
        Session b = drv.open(std::move(st), *pr.data, pr.fleet, bc);
        drv.run(b, rounds_, "fluid");
        drv.digest().weights(p->global());
        if (drv.traced()) out.final_models.push_back(p->global());
      }
      {
        auto st = std::make_unique<HeteroFLStrategy>(
            spec, std::vector<double>{1.0, 0.5, 0.25, 0.125, 0.0625});
        HeteroFLStrategy* p = st.get();
        Session b = drv.open(std::move(st), *pr.data, pr.fleet, bc);
        drv.run(b, rounds_, "heterofl");
        drv.digest().weights(p->global());
        if (drv.traced()) out.final_models.push_back(p->global());
      }
      {
        auto st = std::make_unique<SplitMixStrategy>(spec, 8);
        SplitMixStrategy* p = st.get();
        Session b = drv.open(std::move(st), *pr.data, pr.fleet, bc);
        drv.run(b, rounds_, "splitmix");
        for (int k = 0; k < p->num_bases(); ++k) drv.digest().weights(p->base(k));
        if (drv.traced()) out.final_models.push_back(p->base(0));
      }
    }
    out.accuracy = acc_sum / static_cast<double>(presets_.size());
    // FedTrans runs the same sessions in every pass; the reference pass is
    // the one whose quality metrics count.
    out.reference = opt.reference;
    drv.finish();
    return out;
  }

 private:
  static constexpr int kRounds = 40;
  static constexpr int kEvalEvery = 1;
  /// Probe-accuracy targets per preset (cifar, femnist, speech, openimage):
  /// the reference sessions cross them at rounds 25, 12, 23 and 34 of 40,
  /// late on each curve but with rounds to spare, so a change that only
  /// perturbs the arithmetic (a new summation order) still reaches them.
  static constexpr double kTargets[4] = {0.55, 0.35, 0.60, 0.30};
  static constexpr double kFloor = 0.45;

  struct Preset {
    ExperimentPreset p;
    std::unique_ptr<FederatedDataset> data;
    std::vector<DeviceProfile> fleet;
  };

  int rounds_;
  int eval_every_;
  bool smoke_;
  std::uint64_t baseline_seed_ = 1;
  std::vector<Preset> presets_;
};

// ---------------------------------------------------------------------------
// tree-socket-mlp: FedAvg on an MB-scale MLP over a 3-level numeric tree on
// real loopback sockets.

class TreeSocketMlp : public Workload {
 public:
  explicit TreeSocketMlp(bool smoke)
      : rounds_(smoke ? 3 : kRounds), eval_every_(smoke ? 1 : kEvalEvery),
        smoke_(smoke) {}

  std::string name() const override { return "tree-socket-mlp"; }
  int local_batch() const override { return 10; }
  double accuracy_floor() const override { return smoke_ ? 0.0 : kFloor; }

  void setup(std::uint64_t seed) override {
    seed_ = seed;
    DatasetConfig dc;
    dc.name = "tree-socket-mlp";
    dc.num_classes = 10;
    dc.channels = 1;
    dc.hw = 12;
    dc.num_clients = 256;
    dc.seed = 17;  // the learning task is fixed
    const double t0 = now_us();
    data_ = std::make_unique<FederatedDataset>(FederatedDataset::generate(dc));
    data_generate_s = seconds_since(t0);
    FleetConfig fc;
    fc.num_devices = dc.num_clients;
    fc.seed = seed * 7 + 3;
    fleet_ = sample_fleet(fc);
    LocalTrainConfig local;
    local.steps = 2;
    local.batch = 10;
    cfg_ = SessionConfig{}
               .with_rounds(rounds_)
               .with_clients_per_round(64)
               .with_local(local)
               .with_eval(eval_every_, 32)
               .with_seed(seed)
               .with_tree(3, 8)
               .with_partial_aggregation()
               .with_socket_transport();
    // Engine construction plus the first round, which builds the fabric.
    FederationEngine eng(make_strategy(seed), *data_, fleet_, cfg_);
    eng.run_round();
  }

  PassResult run_pass(const PassOptions& opt) override {
    PassResult out;
    PassRunner drv(opt, out);
    const std::uint64_t seed =
        opt.reference ? kReferenceSeed : session_seed(seed_, opt.draw);
    auto st = make_strategy(seed);
    FedAvgStrategy* fa = st.get();
    SessionConfig cfg = cfg_;
    cfg.seed = seed;
    Session s = drv.open(std::move(st), *data_, fleet_, cfg);
    drv.run(s, rounds_, "fedavg", opt.reference && !smoke_ ? kTarget : -1.0);
    out.reference = opt.reference;
    out.accuracy = late_accuracy(*s.engine);
    drv.digest().weights(fa->model());
    if (drv.traced()) out.final_models.push_back(fa->model());
    drv.finish();
    return out;
  }

 private:
  static constexpr int kRounds = 26;
  static constexpr int kEvalEvery = 1;
  static constexpr std::uint64_t kReferenceSeed = 1;
  /// The reference session's probe climbs 0.91 → 0.96 → 0.98 over rounds
  /// 3–5 and from round 8 moves only by single probe samples (0.9875–1.0),
  /// so any later target would be decided by probe noise: this one sits at
  /// the end of the climb (crossed between rounds 3 and 4 of 26).
  static constexpr double kTarget = 0.95;
  static constexpr double kFloor = 0.90;

  static std::unique_ptr<FedAvgStrategy> make_strategy(std::uint64_t seed) {
    Rng rng(seed + 41);
    return std::make_unique<FedAvgStrategy>(
        Model(ModelSpec::mlp(144, 10, 256, {256, 256}), rng), FedAvgOptions{});
  }

  int rounds_;
  int eval_every_;
  bool smoke_;
  std::uint64_t seed_ = 1;
  std::unique_ptr<FederatedDataset> data_;
  std::vector<DeviceProfile> fleet_;
  SessionConfig cfg_;
};

// ---------------------------------------------------------------------------
// pop-1m: FedAvg over a million-client sparse population.

class Pop1m : public Workload {
 public:
  explicit Pop1m(bool smoke)
      : rounds_(smoke ? 3 : kRounds), eval_every_(smoke ? 1 : kEvalEvery),
        smoke_(smoke) {}

  std::string name() const override { return "pop-1m"; }
  int local_batch() const override { return 4; }
  double accuracy_floor() const override { return smoke_ ? 0.0 : kFloor; }

  void setup(std::uint64_t seed) override {
    seed_ = seed;
    pop_.reset();
    PopulationConfig pc;
    pc.num_clients = 1'000'000;
    // The population — descriptors and the data every client regenerates
    // from — is fixed; sessions differ in initial weights, cohorts and local
    // batches.
    pc.seed = 5;
    pc.shard.num_classes = 4;
    pc.shard.channels = 1;
    pc.shard.hw = 8;
    pc.shard.mean_train_samples = 12;
    pc.shard.min_train_samples = 8;
    pc.shard.eval_samples = 4;
    pc.fleet.with_median_capacity(5e6);
    pc.availability.base_online_frac = 0.8;
    pc.availability.diurnal_amplitude = 0.1;
    pc.pool_capacity = 2 * kCohort;
    const double t0 = now_us();
    pop_ = std::make_unique<Population>(pc);
    pop_build_s = seconds_since(t0);
    fleet_ = pop_->fleet();
    bytes_per_idle_client =
        static_cast<double>(pop_->descriptor_bytes() +
                            fleet_.capacity() * sizeof(DeviceProfile)) /
        static_cast<double>(pop_->num_clients());
    LocalTrainConfig local;
    local.steps = 2;
    local.batch = 4;
    local.sgd.lr = kLr;
    cfg_ = SessionConfig{}
               .with_rounds(rounds_)
               .with_clients_per_round(kCohort)
               .with_local(local)
               .with_eval(eval_every_, kEvalClients)
               .with_seed(seed)
               .with_fabric();
    PopulationDataView view(*pop_);
    FederationEngine eng(make_strategy(seed), view, fleet_, cfg_);
    eng.set_selector(std::make_unique<PopulationSelector>(*pop_, &view));
    eng.run_round();
  }

  PassResult run_pass(const PassOptions& opt) override {
    PassResult out;
    PassRunner drv(opt, out);
    const std::uint64_t seed =
        opt.reference ? kReferenceSeed : session_seed(seed_, opt.draw);
    // A fresh view per pass: every pass starts from a cold cohort pool.
    PopulationDataView view(*pop_);
    auto st = make_strategy(seed);
    FedAvgStrategy* fa = st.get();
    SessionConfig cfg = cfg_;
    cfg.seed = seed;
    std::unique_ptr<ClientSelector> selector;
    if (opt.traced)
      selector = std::make_unique<TimedPopulationSelector>(*pop_, view,
                                                           drv.clock());
    else
      selector = std::make_unique<PopulationSelector>(*pop_, &view);
    Session s = drv.open(std::move(st), view, fleet_, cfg,
                         std::move(selector), /*wrap_data=*/true);
    drv.run(s, rounds_, "fedavg", opt.reference && !smoke_ ? kTarget : -1.0);
    out.reference = opt.reference;
    out.accuracy = late_accuracy(*s.engine);
    out.materializations = view.pool().materializations();
    out.pool_hits = view.pool().hits();
    drv.digest().weights(fa->model());
    if (drv.traced()) out.final_models.push_back(fa->model());
    drv.finish();
    return out;
  }

 private:
  static constexpr int kCohort = 128;
  static constexpr double kLr = 0.2;
  static constexpr int kEvalClients = 64;
  static constexpr int kRounds = 41;
  static constexpr int kEvalEvery = 2;
  static constexpr std::uint64_t kReferenceSeed = 1;
  static constexpr double kTarget = 0.60;
  static constexpr double kFloor = 0.60;

  static std::unique_ptr<FedAvgStrategy> make_strategy(std::uint64_t seed) {
    Rng rng(seed + 41);
    return std::make_unique<FedAvgStrategy>(
        Model(ModelSpec::conv(1, 8, 4, 4, {6, 8}), rng), FedAvgOptions{});
  }

  int rounds_;
  int eval_every_;
  bool smoke_;
  std::uint64_t seed_ = 1;
  std::unique_ptr<Population> pop_;
  std::vector<DeviceProfile> fleet_;
  SessionConfig cfg_;
};

}  // namespace

std::vector<std::string> workload_names() {
  return {"table2-tiny", "tree-socket-mlp", "pop-1m"};
}

std::unique_ptr<Workload> make_workload(const std::string& name, bool smoke) {
  if (name == "table2-tiny") return std::make_unique<Table2Tiny>(smoke);
  if (name == "tree-socket-mlp") return std::make_unique<TreeSocketMlp>(smoke);
  if (name == "pop-1m") return std::make_unique<Pop1m>(smoke);
  return nullptr;
}

}  // namespace perfbench
