// perfbench — whole federation sessions, timed by wall clock.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--smoke]
//
// --trace 0 sets up several times (setup_s is their median), runs passes of
// the workload's reference sessions (fixed inputs: time to target and
// accuracy come from them), then passes of the sessions the seed draws until
// `seconds` have passed and at least kMinRounds rounds were timed, and
// prints the end-to-end metrics.
// --trace 1 runs one plain pass and one wrapped, traced pass, asserts they
// are bitwise identical, compares 1 thread against the pool's thread count
// on a short pass, replays layers and wire frames on the final models, and
// prints the per-layer metrics. Either way the last stdout line is the JSON
// result; a failed output check prints correct=false, no metrics, and exits 1.
// Refusals (debug build, more threads than CPUs) exit 3 without a result.

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "common/thread_pool.hpp"
#include "replay.hpp"
#include "report.hpp"
#include "tensor/gemm.hpp"
#include "workloads.hpp"

using namespace perfbench;

namespace {

constexpr int kSetups = 7;
constexpr int kMinRounds = 100;  // ≥ 10 rounds beyond p90
constexpr double kClosureTolerance = 0.05;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  bool smoke = false;
};

bool parse_args(int argc, char** argv, Args& a) {
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    const char* v = nullptr;
    if (k == "--smoke") {
      a.smoke = true;
    } else if ((v = next()) == nullptr) {
      return false;
    } else if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::strtoull(v, nullptr, 10);
    } else if (k == "--seconds") {
      a.seconds = std::strtod(v, nullptr);
    } else if (k == "--trace") {
      a.trace = std::atoi(v);
    } else {
      return false;
    }
  }
  return !a.workload.empty();
}

int host_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0) return CPU_COUNT(&set);
  return 1;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::string build_type() {
#ifdef PERFBENCH_BUILD_TYPE
  return PERFBENCH_BUILD_TYPE;
#else
  return "unknown";
#endif
}

/// Collects failed output checks; a run with any prints no numbers.
struct Checks {
  std::vector<std::string> failed;
  void expect(bool ok, const std::string& what) {
    if (!ok) failed.push_back(what);
  }
};

double mean_of(double sum, std::size_t n) {
  return n > 0 ? sum / static_cast<double>(n) : 0.0;
}

double sum_walls(const PassResult& p) {
  double s = 0.0;
  for (const RoundSample& r : p.rounds) s += r.wall_us;
  return s;
}

void check_pass(const Workload& wl, const PassResult& p, bool smoke,
                Checks& c) {
  c.expect(p.lost == 0, "lost updates: " + std::to_string(p.lost));
  c.expect(p.frames_rejected == 0,
           "rejected frames: " + std::to_string(p.frames_rejected));
  if (!p.reference) return;
  c.expect(p.accuracy >= wl.accuracy_floor(),
           "accuracy " + std::to_string(p.accuracy) + " below floor " +
               std::to_string(wl.accuracy_floor()));
  if (!smoke) c.expect(p.reached, "probe never reached the target accuracy");
}

bool same_outputs(const PassResult& a, const PassResult& b) {
  return a.digest == b.digest && a.accuracy == b.accuracy &&
         a.network_bytes == b.network_bytes && a.macs == b.macs;
}

/// Timing over every round of every pass; quality from the reference
/// passes; cost per round from the seed's sessions (the last pass).
std::vector<Metric> end_to_end(const std::vector<PassResult>& passes,
                               const std::vector<double>& setup_s) {
  std::vector<double> walls_ms;
  std::vector<double> ttt_s;
  std::vector<double> accuracy;
  double wall_us = 0.0;
  double attempted = 0.0;
  double ok = 0.0;
  for (const PassResult& p : passes) {
    for (const RoundSample& r : p.rounds) walls_ms.push_back(r.wall_us * 1e-3);
    wall_us += sum_walls(p);
    if (p.reference) {
      ttt_s.push_back(p.time_to_target_us * 1e-6);
      accuracy.push_back(p.accuracy);
    }
    attempted += static_cast<double>(p.attempted);
    ok += static_cast<double>(p.attempted - p.lost) -
          static_cast<double>(p.frames_rejected);
  }
  const PassResult& p = passes.back();
  const double rounds = p.total_rounds();
  return {
      {"rounds_per_s", static_cast<double>(walls_ms.size()) / (wall_us * 1e-6),
       "rounds/s"},
      {"round_ms_p50", quantile(walls_ms, 0.5), "ms"},
      {"round_ms_p90", quantile(walls_ms, 0.9), "ms"},
      {"time_to_target_s", median(ttt_s), "s"},
      {"accuracy", median(accuracy), "fraction"},
      {"bytes_per_round", p.network_bytes / rounds, "bytes"},
      {"macs_per_round", p.macs / rounds, "MACs"},
      {"update_ok_frac", attempted > 0 ? ok / attempted : 0.0, "fraction"},
      {"setup_s", median(setup_s), "s"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
  };
}

std::vector<Metric> per_layer(const Workload& wl, const PassResult& plain,
                              const PassResult& traced,
                              const std::vector<double>& generate_s,
                              const std::vector<double>& build_s,
                              double& closure) {
  const auto& rounds = traced.rounds;
  const double n = static_cast<double>(rounds.size());
  std::vector<EnginePhases> phases;
  EnginePhases sum;
  double core_prepare = 0.0, core_finish = 0.0;
  std::size_t core_rounds = 0;
  std::map<std::string, std::pair<double, std::size_t>> by_strategy;
  std::map<std::string, double> self, busy;
  double gemm_macs = 0.0;
  double selector = 0.0, cohort = 0.0, pin = 0.0, fill = 0.0;
  for (const RoundSample& r : rounds) {
    const auto eval = r.busy_us.find("engine/eval");
    const EnginePhases p = engine_phases(
        r.hooks, eval == r.busy_us.end() ? 0.0 : eval->second, r.wall_us);
    phases.push_back(p);
    sum.select += p.select;
    sum.payload += p.payload;
    sum.exchange += p.exchange;
    sum.absorb += p.absorb;
    sum.finish += p.finish;
    sum.probe += p.probe;
    const std::string& label = traced.labels[static_cast<std::size_t>(r.session)];
    auto& s = by_strategy[label];
    s.first += r.wall_us;
    ++s.second;
    if (label == "fedtrans") {
      core_prepare += r.hooks.prepare_us;
      core_finish += r.hooks.finish_us;
      ++core_rounds;
    }
    for (const auto& [k, v] : r.main_self_us) self[k] += v;
    for (const auto& [k, v] : r.busy_us) busy[k] += v;
    gemm_macs += r.gemm_macs;
    selector += r.hooks.selector_us;
    cohort += r.hooks.cohort_us;
    pin += r.hooks.pin_us;
    fill += union_us(r.hooks.data_calls);
  }
  closure = unaccounted_frac(phases);
  auto ms = [&](double us) { return n > 0 ? us * 1e-3 / n : 0.0; };
  auto self_ms = [&](std::initializer_list<const char*> keys) {
    double us = 0.0;
    for (const char* k : keys) us += self.count(k) ? self.at(k) : 0.0;
    return ms(us);
  };
  auto busy_us = [&](std::initializer_list<const char*> keys) {
    double us = 0.0;
    for (const char* k : keys) us += busy.count(k) ? busy.at(k) : 0.0;
    return us;
  };
  auto strategy_ms = [&](const char* label) {
    auto it = by_strategy.find(label);
    return it == by_strategy.end()
               ? 0.0
               : mean_of(it->second.first, it->second.second) * 1e-3;
  };

  std::vector<Metric> m = {
      {"fl.select_ms", ms(sum.select), "ms"},
      {"fl.selector_ms", ms(selector), "ms"},
      {"fl.payload_ms", ms(sum.payload), "ms"},
      {"fl.exchange_ms", ms(sum.exchange), "ms"},
      {"fl.absorb_ms", ms(sum.absorb), "ms"},
      {"fl.finish_ms", ms(sum.finish), "ms"},
      {"fl.probe_ms", ms(sum.probe), "ms"},
      {"fl.unaccounted_frac", closure, "fraction"},
      {"core.prepare_ms", mean_of(core_prepare, core_rounds) * 1e-3, "ms"},
      {"core.finish_ms", mean_of(core_finish, core_rounds) * 1e-3, "ms"},
      {"core.transforms", static_cast<double>(traced.transforms), "count"},
      {"core.family_size",
       mean_of(traced.family_models,
               static_cast<std::size_t>(traced.fedtrans_sessions)),
       "models"},
      {"strategy.fedtrans.round_ms", strategy_ms("fedtrans"), "ms"},
      {"strategy.fluid.round_ms", strategy_ms("fluid"), "ms"},
      {"strategy.heterofl.round_ms", strategy_ms("heterofl"), "ms"},
      {"strategy.splitmix.round_ms", strategy_ms("splitmix"), "ms"},
  };

  const LayerTimes lt = replay_layers(traced.final_models, wl.local_batch(), 7);
  for (const char* kind :
       {"conv2d", "scale_shift", "relu", "linear", "global_avg_pool"}) {
    auto get = [&](const std::map<std::string, double>& t) {
      auto it = t.find(kind);
      return it == t.end() ? 0.0 : it->second;
    };
    m.push_back({std::string("nn.") + kind + ".fwd_us", get(lt.fwd_us), "us"});
    m.push_back({std::string("nn.") + kind + ".bwd_us", get(lt.bwd_us), "us"});
  }
  m.push_back({"model.train_step_us", lt.train_step_us, "us"});

  const double gemm_us = busy_us({"kernel/gemm", "kernel/gemm_half"});
  m.push_back({"kernel.conv_ms",
               ms(busy_us({"kernel/conv2d_fwd", "kernel/conv2d_bwd",
                           "kernel/grouped_conv2d_fwd",
                           "kernel/grouped_conv2d_bwd"})),
               "ms"});
  m.push_back({"kernel.gemm_ms", ms(gemm_us), "ms"});
  m.push_back({"kernel.gemm_gflops",
               gemm_us > 0.0 ? 2.0 * gemm_macs / gemm_us * 1e-3 : 0.0,
               "GFLOP/s"});

  const double rn = n > 0 ? n : 1.0;
  m.push_back({"net.frames_per_round",
               static_cast<double>(traced.frames_sent) / rn, "frames"});
  m.push_back({"net.wire_bytes_per_round",
               static_cast<double>(traced.bytes_sent) / rn, "bytes"});
  m.push_back({"net.root_bytes_per_round",
               static_cast<double>(traced.root_bytes) / rn, "bytes"});
  m.push_back({"net.frames_retried", static_cast<double>(traced.frames_retried),
               "count"});
  m.push_back({"net.frames_rejected",
               static_cast<double>(traced.frames_rejected), "count"});

  const WireRates wr = replay_wire(traced.final_models, 0.2);
  m.push_back({"wire.encode_mb_per_s", wr.encode_mb_per_s, "MB/s"});
  m.push_back({"wire.decode_mb_per_s", wr.decode_mb_per_s, "MB/s"});
  m.push_back({"server.broadcast_ms",
               self_ms({"server/broadcast", "server/broadcast_sharded"}), "ms"});
  m.push_back({"server.route_down_ms",
               self_ms({"server/route_tiers_down", "server/fan_out_shards"}),
               "ms"});
  m.push_back({"server.poll_agents_ms", self_ms({"server/poll_agents"}), "ms"});
  m.push_back({"server.collect_ms",
               self_ms({"server/collect", "server/collect_sharded"}), "ms"});
  m.push_back({"server.merge_ms", self_ms({"server/partial_merge"}), "ms"});
  m.push_back({"client.poll_cpu_ms", ms(busy_us({"client/poll"})), "ms"});

  const double mats = static_cast<double>(traced.materializations);
  const double hits = static_cast<double>(traced.pool_hits);
  m.push_back({"pop.select_ms", ms(cohort), "ms"});
  m.push_back({"pop.pin_ms", ms(pin), "ms"});
  m.push_back({"pop.fill_ms", ms(fill), "ms"});
  m.push_back({"pop.materializations_per_round", mats / rn, "count"});
  m.push_back({"pop.pool_hit_ratio",
               mats + hits > 0.0 ? hits / (mats + hits) : 0.0, "fraction"});
  m.push_back({"pop.bytes_per_idle_client", wl.bytes_per_idle_client, "bytes"});
  m.push_back({"pop.build_s", median(build_s), "s"});
  m.push_back({"data.generate_s", median(generate_s), "s"});
  const double plain_us = sum_walls(plain);
  m.push_back({"obs.trace_overhead_frac",
               plain_us > 0.0 ? sum_walls(traced) / plain_us - 1.0 : 0.0,
               "fraction"});
  return m;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, args)) {
    std::cerr << "usage: perfbench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> [--smoke]\n";
    return 2;
  }
  auto wl = make_workload(args.workload, args.smoke);
  if (!wl) {
    std::cerr << "perfbench: unknown workload '" << args.workload
              << "'; one of:";
    for (const std::string& n : workload_names()) std::cerr << " " << n;
    std::cerr << "\n";
    return 2;
  }

  // Refuse to record numbers that would not mean what they say.
  const int cpus = host_cpus();
  const int threads = fedtrans::ThreadPool::global_threads();
#ifndef NDEBUG
  std::cerr << "perfbench: refusing to record from a build without NDEBUG\n";
  return 3;
#endif
  if (threads > cpus) {
    std::cerr << "perfbench: refusing to record with FEDTRANS_THREADS="
              << threads << " > " << cpus << " CPUs\n";
    return 3;
  }

  std::vector<double> setup_s, generate_s, build_s;
  const int setups = args.smoke ? 1 : kSetups;
  for (int i = 0; i < setups; ++i) {
    const double t0 = now_us();
    wl->setup(args.seed);
    setup_s.push_back((now_us() - t0) * 1e-6);
    generate_s.push_back(wl->data_generate_s);
    build_s.push_back(wl->pop_build_s);
  }

  Checks checks;
  std::vector<Metric> metrics;
  std::vector<PassResult> passes;
  std::string notes;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  if (args.trace == 0) {
    const double t0 = now_us();
    std::size_t rounds = 0;
    const std::size_t min_rounds = args.smoke ? 0 : kMinRounds;
    PassOptions opt;
    const int references = args.smoke ? 1 : wl->reference_passes();
    while (static_cast<int>(passes.size()) < references ||
           (now_us() - t0) * 1e-6 < args.seconds || rounds < min_rounds) {
      opt.reference = static_cast<int>(passes.size()) < references;
      if (!opt.reference) ++opt.draw;
      passes.push_back(wl->run_pass(opt));
      rounds += passes.back().rounds.size();
    }
    // Repetitions of the reference sessions must agree bitwise.
    for (const PassResult& p : passes) {
      check_pass(*wl, p, args.smoke, checks);
      if (p.reference)
        checks.expect(same_outputs(p, passes.front()),
                      "outputs differ between repetitions");
    }
    metrics = end_to_end(passes, setup_s);
  } else {
    passes.push_back(wl->run_pass({}));
    PassOptions traced;
    traced.traced = true;
    passes.push_back(wl->run_pass(traced));
    const PassResult& plain = passes[0];
    const PassResult& wrapped = passes[1];
    check_pass(*wl, plain, args.smoke, checks);
    checks.expect(same_outputs(plain, wrapped),
                  "wrapped session differs from the unwrapped one");
    std::uint64_t dropped = 0;
    for (const RoundSample& r : wrapped.rounds) dropped += r.spans_dropped;
    checks.expect(dropped == 0, "trace buffers dropped spans");

    // Thread-count independence on a short pass: 1 thread vs the pool.
    PassOptions short_pass;
    short_pass.round_limit = 2;
    fedtrans::ThreadPool::set_global_threads(1);
    const PassResult one = wl->run_pass(short_pass);
    fedtrans::ThreadPool::set_global_threads(threads);
    const PassResult many = wl->run_pass(short_pass);
    checks.expect(one.digest == many.digest,
                  "1-thread and " + std::to_string(threads) +
                      "-thread sessions differ");

    double closure = 0.0;
    metrics = per_layer(*wl, plain, wrapped, generate_s, build_s, closure);
    checks.expect(std::abs(closure) <= kClosureTolerance,
                  "engine phases leave " + std::to_string(closure) +
                      " of run_round wall unaccounted");
  }
  for (const PassResult& p : passes) {
    attempted += p.attempted;
    failed += p.lost + static_cast<std::int64_t>(p.frames_rejected);
  }

  std::size_t total_rounds = 0;
  for (const PassResult& p : passes) total_rounds += p.rounds.size();
  std::cout << "# context {\"workload\": " << json_quote(wl->name())
            << ", \"seed\": " << args.seed << ", \"trace\": " << args.trace
            << ", \"smoke\": " << (args.smoke ? "true" : "false")
            << ", \"nproc\": " << cpus << ", \"fedtrans_threads\": " << threads
            << ", \"gemm_backend\": "
            << json_quote(fedtrans::gemm_backend_name(
                   fedtrans::best_gemm_backend()))
            << ", \"build_type\": " << json_quote(build_type())
            << ", \"ndebug\": true"
            << ", \"source\": "
            << json_quote(std::getenv("PERFBENCH_SOURCE")
                              ? std::getenv("PERFBENCH_SOURCE")
                              : "unknown")
            << ", \"passes\": " << passes.size()
            << ", \"rounds\": " << total_rounds << ", \"digest\": \""
            << std::hex << passes.front().digest << std::dec << "\"}\n";
  for (const std::string& f : checks.failed)
    std::cerr << "perfbench: check failed: " << f << "\n";
  const bool ok = checks.failed.empty();
  std::cout << result_json(ok, std::max<std::int64_t>(attempted, 1), failed,
                           ok ? metrics : std::vector<Metric>{})
            << std::endl;
  return ok ? 0 : 1;
}
