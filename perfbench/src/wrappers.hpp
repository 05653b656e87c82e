#pragma once

// Timing wrappers that sit in the engine's public seats: a forwarding
// Strategy, a forwarding ClientSelector, an availability-aware population
// selector that times Population::select_cohort and CohortPool::begin_round
// separately, and a forwarding ClientDataProvider. Each forwards every call
// unchanged and only records wall intervals into a HookClock, so a wrapped
// session must stay bitwise identical to an unwrapped one (the benchmark
// asserts it on every traced run).

#include <memory>
#include <mutex>
#include <vector>

#include "fl/engine.hpp"
#include "pop/population.hpp"
#include "spans.hpp"

namespace perfbench {

/// Hook timings of one engine round, filled by the wrappers while
/// FederationEngine::run_round executes. Times are microseconds.
struct HookTimes {
  double select_us = 0.0;       ///< plan_round + prepare_task
  double prepare_us = 0.0;      ///< prepare_task alone
  double select_end = -1.0;     ///< when the last selection hook returned
  double first_absorb = -1.0;   ///< when the first post-exchange hook began
  double absorb_us = 0.0;       ///< absorb_update/metrics/reduced + lost_update
  double finish_us = 0.0;       ///< finish_round
  double selector_us = 0.0;     ///< ClientSelector::select
  double cohort_us = 0.0;       ///< Population::select_cohort
  double pin_us = 0.0;          ///< CohortPool::begin_round
  std::vector<Interval> payload;     ///< client_payload calls (concurrent)
  std::vector<Interval> data_calls;  ///< ClientDataProvider::client calls
};

/// Shared sink of the wrappers. Hooks that run concurrently (payloads,
/// data-provider calls) append under the mutex.
class HookClock {
 public:
  void reset() {
    std::lock_guard<std::mutex> lk(m_);
    t_ = HookTimes{};
  }
  HookTimes take() {
    std::lock_guard<std::mutex> lk(m_);
    return t_;
  }
  /// Main-thread hooks (called from the engine's own thread only).
  HookTimes& main() { return t_; }
  void add_payload(Interval iv) {
    std::lock_guard<std::mutex> lk(m_);
    t_.payload.push_back(iv);
  }
  void add_data_call(Interval iv) {
    std::lock_guard<std::mutex> lk(m_);
    t_.data_calls.push_back(iv);
  }
  /// Marks the end of the exchange: the first hook after it.
  void mark_absorb(double t) {
    if (t_.first_absorb < 0.0) t_.first_absorb = t;
  }

 private:
  std::mutex m_;
  HookTimes t_;
};

/// Forwards every Strategy hook to `inner`, timing the ones the engine
/// calls inside a synchronous round (the probe is timed by the engine's own
/// eval span, which also covers the probe cohort draw).
class TimedStrategy : public fedtrans::Strategy {
 public:
  TimedStrategy(std::unique_ptr<fedtrans::Strategy> inner, HookClock& clock)
      : inner_(std::move(inner)), clock_(clock) {}

  std::string name() const override { return inner_->name(); }
  void attach(fedtrans::RoundContext& ctx, fedtrans::Rng& rng) override {
    inner_->attach(ctx, rng);
  }
  std::vector<fedtrans::ClientTask> plan_round(fedtrans::RoundContext& ctx,
                                               fedtrans::Rng& rng) override;
  void prepare_task(fedtrans::ClientTask& task, fedtrans::Rng& rng,
                    fedtrans::RoundContext& ctx) override;
  fedtrans::Model client_payload(const fedtrans::ClientTask& task) override;
  fedtrans::Model* shared_model() override { return inner_->shared_model(); }
  int payload_key(const fedtrans::ClientTask& task) const override {
    return inner_->payload_key(task);
  }
  const fedtrans::Model& reference_model() const override {
    return inner_->reference_model();
  }
  double initial_storage_bytes() const override {
    return inner_->initial_storage_bytes();
  }
  void absorb_update(const fedtrans::ClientTask& task, fedtrans::Model* trained,
                     fedtrans::LocalTrainResult& res,
                     fedtrans::RoundContext& ctx) override;
  void lost_update(const fedtrans::ClientTask& task,
                   fedtrans::ClientOutcome outcome,
                   fedtrans::RoundContext& ctx) override;
  bool supports_partial_aggregation() const override {
    return inner_->supports_partial_aggregation();
  }
  int reduce_key(const fedtrans::ClientTask& task) const override {
    return inner_->reduce_key(task);
  }
  void absorb_metrics(const fedtrans::ClientTask& task,
                      const fedtrans::LocalTrainResult& res,
                      fedtrans::RoundContext& ctx) override;
  void absorb_reduced(const fedtrans::ClientTask& task,
                      fedtrans::Model* payload, fedtrans::WeightSet& sum,
                      double weight, int count,
                      fedtrans::RoundContext& ctx) override;
  void finish_round(fedtrans::RoundContext& ctx,
                    fedtrans::RoundRecord& rec) override;
  double probe_accuracy(const std::vector<int>& ids,
                        fedtrans::RoundContext& ctx) override {
    return inner_->probe_accuracy(ids, ctx);
  }
  std::optional<double> absorb_async(int client, fedtrans::LocalTrainResult& res,
                                     double discount,
                                     fedtrans::RoundContext& ctx) override {
    return inner_->absorb_async(client, res, discount, ctx);
  }

 private:
  std::unique_ptr<fedtrans::Strategy> inner_;
  HookClock& clock_;
};

/// Forwards to `inner`, timing select().
class TimedSelector : public fedtrans::ClientSelector {
 public:
  TimedSelector(std::unique_ptr<fedtrans::ClientSelector> inner,
                HookClock& clock)
      : inner_(std::move(inner)), clock_(clock) {}

  std::vector<int> select(int population, int k, fedtrans::Rng& rng) override;
  void report(int client, double loss, int samples) override {
    inner_->report(client, loss, samples);
  }
  std::string name() const override { return inner_->name(); }
  void save_state(std::ostream& os) const override { inner_->save_state(os); }
  void load_state(std::istream& is) override { inner_->load_state(is); }

 private:
  std::unique_ptr<fedtrans::ClientSelector> inner_;
  HookClock& clock_;
};

/// PopulationSelector's selection cut to its two public calls —
/// Population::select_cohort, then CohortPool::begin_round on the view — so
/// each is timed on its own. It skips the selector's metrics gauges, which
/// the benchmark does not read; the wrapped-vs-plain check proves the
/// cohorts and pool contents match.
class TimedPopulationSelector : public fedtrans::ClientSelector {
 public:
  TimedPopulationSelector(const fedtrans::Population& pop,
                          fedtrans::PopulationDataView& view, HookClock& clock)
      : pop_(pop), view_(view), clock_(clock) {}

  std::vector<int> select(int population, int k, fedtrans::Rng& rng) override;
  std::string name() const override { return "population"; }

 private:
  const fedtrans::Population& pop_;
  fedtrans::PopulationDataView& view_;
  HookClock& clock_;
  std::uint32_t round_ = 0;
};

/// Forwards to `inner`, recording the wall interval of every client() call.
class TimedDataProvider : public fedtrans::ClientDataProvider {
 public:
  TimedDataProvider(const fedtrans::ClientDataProvider& inner, HookClock& clock)
      : inner_(inner), clock_(clock) {}

  int num_clients() const override { return inner_.num_clients(); }
  int num_classes() const override { return inner_.num_classes(); }
  const fedtrans::ClientData& client(int c) const override;

 private:
  const fedtrans::ClientDataProvider& inner_;
  HookClock& clock_;
};

}  // namespace perfbench
