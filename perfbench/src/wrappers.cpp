#include "wrappers.hpp"

namespace perfbench {

using namespace fedtrans;

std::vector<ClientTask> TimedStrategy::plan_round(RoundContext& ctx,
                                                  Rng& rng) {
  const double t0 = now_us();
  auto tasks = inner_->plan_round(ctx, rng);
  const double t1 = now_us();
  clock_.main().select_us += t1 - t0;
  clock_.main().select_end = t1;
  return tasks;
}

void TimedStrategy::prepare_task(ClientTask& task, Rng& rng,
                                 RoundContext& ctx) {
  const double t0 = now_us();
  inner_->prepare_task(task, rng, ctx);
  const double t1 = now_us();
  clock_.main().select_us += t1 - t0;
  clock_.main().prepare_us += t1 - t0;
  clock_.main().select_end = t1;
}

Model TimedStrategy::client_payload(const ClientTask& task) {
  const double t0 = now_us();
  Model m = inner_->client_payload(task);
  clock_.add_payload({t0, now_us()});
  return m;
}

void TimedStrategy::absorb_update(const ClientTask& task, Model* trained,
                                  LocalTrainResult& res, RoundContext& ctx) {
  const double t0 = now_us();
  clock_.mark_absorb(t0);
  inner_->absorb_update(task, trained, res, ctx);
  clock_.main().absorb_us += now_us() - t0;
}

void TimedStrategy::lost_update(const ClientTask& task, ClientOutcome outcome,
                                RoundContext& ctx) {
  const double t0 = now_us();
  clock_.mark_absorb(t0);
  inner_->lost_update(task, outcome, ctx);
  clock_.main().absorb_us += now_us() - t0;
}

void TimedStrategy::absorb_metrics(const ClientTask& task,
                                   const LocalTrainResult& res,
                                   RoundContext& ctx) {
  const double t0 = now_us();
  clock_.mark_absorb(t0);
  inner_->absorb_metrics(task, res, ctx);
  clock_.main().absorb_us += now_us() - t0;
}

void TimedStrategy::absorb_reduced(const ClientTask& task, Model* payload,
                                   WeightSet& sum, double weight, int count,
                                   RoundContext& ctx) {
  const double t0 = now_us();
  clock_.mark_absorb(t0);
  inner_->absorb_reduced(task, payload, sum, weight, count, ctx);
  clock_.main().absorb_us += now_us() - t0;
}

void TimedStrategy::finish_round(RoundContext& ctx, RoundRecord& rec) {
  const double t0 = now_us();
  clock_.mark_absorb(t0);
  inner_->finish_round(ctx, rec);
  clock_.main().finish_us += now_us() - t0;
}

std::vector<int> TimedSelector::select(int population, int k, Rng& rng) {
  const double t0 = now_us();
  auto out = inner_->select(population, k, rng);
  clock_.main().selector_us += now_us() - t0;
  return out;
}

std::vector<int> TimedPopulationSelector::select(int /*population*/, int k,
                                                 Rng& rng) {
  // The two calls PopulationSelector::select (src/pop/population.cpp) makes,
  // in its order; keep them in step with it.
  const double t0 = now_us();
  std::vector<int> cohort = pop_.select_cohort(round_, k, rng);
  const double t1 = now_us();
  ++round_;
  view_.pool().begin_round(cohort);
  const double t2 = now_us();
  HookTimes& t = clock_.main();
  t.cohort_us += t1 - t0;
  t.pin_us += t2 - t1;
  t.selector_us += t2 - t0;
  return cohort;
}

const ClientData& TimedDataProvider::client(int c) const {
  const double t0 = now_us();
  const ClientData& d = inner_.client(c);
  clock_.add_data_call({t0, now_us()});
  return d;
}

}  // namespace perfbench
