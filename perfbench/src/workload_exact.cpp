// Workload `exact`: a closed loop of 2 clients over a 2-thread Scheduler
// with its cache on.  Every request is `solve optimal`, and every cache
// lookup misses, so the exact solvers do the work.
//
// The instances are pinned: one universe of kUniverse instances drawn from
// a fixed seed, a 10-slot cycle of 1 enumeration-sized (n = 6, all four
// families; the serving path's n! enumeration) and 9 branch-and-bound-sized
// (n = 8, uniform and uniform-integral) instances.  B&B cost per instance is
// heavy-tailed (coefficient of variation ~1.5-2, single n = 8 solves up to
// seconds), so freshly drawn instances make a run's throughput depend on
// the draw by 15-25%; serving the same universe keeps runs comparable.  The
// seed draws what the program receives: fresh units (volume, weight and
// machine scales) for every request.  The universe is cycled in its pinned
// order, because the order decides which solves share the two scheduler
// threads at a time: a seed-drawn order moved throughput by ~13% from seed
// to seed.  Each cycle presents every instance in a new task order, so no
// request repeats a cache key and every lookup misses.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>
#include <memory>
#include <thread>

#include "malsched/core/bnb.hpp"
#include "malsched/core/optimal.hpp"
#include "malsched/core/order_lp.hpp"
#include "malsched/core/orderings.hpp"
#include "malsched/service/scheduler.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace core = malsched::core;
namespace service = malsched::service;
using malsched::support::Rng;
using malsched::support::Sample;

namespace {

constexpr unsigned kClients = 2;
constexpr unsigned kThreads = 2;
constexpr double kProcessors = 4.0;
constexpr std::uint64_t kUniverseSeed = 20120521;
constexpr std::size_t kUniverse = 120;
/// Traced runs serve this prefix of the universe once.
constexpr std::size_t kTracedRequests = 48;

std::vector<core::Instance> make_universe(std::size_t count) {
  static const core::Family kSmall[] = {
      core::Family::Uniform, core::Family::UniformIntegral,
      core::Family::HeavyTailVolumes, core::Family::EqualWeights};
  static const core::Family kLarge[] = {core::Family::Uniform,
                                        core::Family::UniformIntegral};
  Rng rng(kUniverseSeed);
  std::vector<core::Instance> universe;
  for (std::size_t i = 0; i < count; ++i) {
    core::GeneratorConfig config;
    config.processors = kProcessors;
    if (i % 10 == 0) {
      config.num_tasks = 6;
      config.family = kSmall[(i / 10) % 4];
    } else {
      config.num_tasks = 8;
      config.family = kLarge[i % 2];
    }
    universe.push_back(generate_conditioned(config, rng));
  }
  return universe;
}

/// One request: a universe instance presented in fresh units and a fresh
/// task order.
struct Request {
  std::size_t index = 0;  ///< into the universe
  core::Instance instance;
  /// objective(presented) = objective_scale * objective(universe instance)
  double objective_scale = 1.0;
};

/// The seed's request stream over the universe.  Request k serves universe
/// instance k mod U with its own units; its task order is the
/// (k div U)-th permutation, so the same instance never repeats a
/// scale-only cache key (`optimal` is not order-invariant) and every
/// lookup misses without flushing the cache.
struct Stream {
  const std::vector<core::Instance>* universe = nullptr;
  std::uint64_t seed = 0;

  Stream(const std::vector<core::Instance>& u, std::uint64_t s)
      : universe(&u), seed(s) {}

  [[nodiscard]] Request at(std::size_t k) const {
    const std::size_t index = k % universe->size();
    const core::Instance& base = (*universe)[index];
    Rng rng(seed * 0x9e3779b97f4a7c15ULL + 7919 * (k + 1));
    const double vs = rng.uniform(0.25, 4.0);
    const double ws = rng.uniform(0.25, 4.0);
    const double ms = rng.uniform(0.5, 2.0);
    std::vector<std::size_t> perm(base.size());
    for (std::size_t i = 0; i < perm.size(); ++i) {
      perm[i] = i;
    }
    for (std::size_t c = k / universe->size(); c > 0; --c) {
      std::next_permutation(perm.begin(), perm.end());
    }
    std::vector<core::Task> tasks;
    for (const std::size_t i : perm) {
      core::Task t = base.tasks()[i];
      t.volume *= vs;
      t.weight *= ws;
      t.width *= ms;
      tasks.push_back(t);
    }
    return {index, core::Instance(base.processors() * ms, std::move(tasks)),
            ws * vs / ms};
  }
};

struct Served {
  std::size_t k = 0;
  std::size_t index = 0;
  double objective_scale = 1.0;
  service::SolveResult result;
  double latency = 0.0;     ///< seconds
  double completion = 0.0;  ///< seconds from the loop start
};

struct LoopOutcome {
  std::vector<Served> served;  ///< by k
  double elapsed = 0.0;        ///< to the last completion
  service::CacheStats cache;
};

/// Closed loop: each client builds and interns request k, submits it and
/// waits for the answer before taking the next k.  Stops issuing after
/// `limit` requests or `seconds`, whichever first.
LoopOutcome closed_loop(service::Scheduler& scheduler, const Stream& stream,
                        std::size_t limit, double seconds, Tracer* tracer) {
  std::atomic<std::size_t> next{0};
  std::vector<std::vector<Served>> per_client(kClients);
  const auto start = Clock::now();
  const auto deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  const auto client = [&](std::vector<Served>* out) {
    for (std::size_t k = next.fetch_add(1);
         k < limit && Clock::now() < deadline; k = next.fetch_add(1)) {
      const Request request = stream.at(k);
      const std::uint64_t id = k + 1;
      service::InstanceHandle handle;
      {
        ScopedSpan span(tracer, "service.canonical.intern", 0, id);
        handle = service::intern(request.instance);
      }
      const auto t0 = Clock::now();
      service::Ticket ticket;
      {
        ScopedSpan span(tracer, "service.scheduler.submit", 0, id);
        ticket = scheduler.submit("optimal", handle);
      }
      Served served;
      {
        ScopedSpan span(tracer, "service.scheduler.wait", 0, id);
        span.set_solver("optimal", request.instance.size());
        served.result = ticket.get();
      }
      const auto t1 = Clock::now();
      served.k = k;
      served.index = request.index;
      served.objective_scale = request.objective_scale;
      served.latency = seconds_between(t0, t1);
      served.completion = seconds_between(start, t1);
      out->push_back(std::move(served));
    }
  };
  std::vector<std::thread> clients;
  for (auto& out : per_client) {
    clients.emplace_back(client, &out);
  }
  for (auto& t : clients) {
    t.join();
  }
  LoopOutcome outcome;
  for (auto& list : per_client) {
    for (auto& s : list) {
      outcome.elapsed = std::max(outcome.elapsed, s.completion);
      outcome.served.push_back(std::move(s));
    }
  }
  std::sort(outcome.served.begin(), outcome.served.end(),
            [](const Served& a, const Served& b) { return a.k < b.k; });
  outcome.cache = scheduler.cache_stats();
  return outcome;
}

service::Scheduler::Options scheduler_options() {
  service::Scheduler::Options options;
  options.threads = kThreads;
  return options;
}

struct BnbCheck {
  core::BnbResult bnb;
  double seconds = 0.0;
};

/// Direct core::branch_and_bound on the first `count` universe instances,
/// spread over `threads` threads.
std::vector<BnbCheck> direct_bnb(const std::vector<core::Instance>& universe,
                                 std::size_t count, unsigned threads) {
  std::vector<BnbCheck> checks(count);
  std::atomic<std::size_t> next{0};
  std::vector<std::thread> workers;
  for (unsigned t = 0; t < threads; ++t) {
    workers.emplace_back([&] {
      for (std::size_t i = next.fetch_add(1); i < count;
           i = next.fetch_add(1)) {
        const auto t0 = Clock::now();
        checks[i].bnb = core::branch_and_bound(universe[i]);
        checks[i].seconds = seconds_between(t0, Clock::now());
      }
    });
  }
  for (auto& w : workers) {
    w.join();
  }
  return checks;
}

/// Both sides are optimal up to the B&B bound slack; the served side also
/// went through the canonical rescale and back.
bool objectives_agree(double served, double reference) {
  const double slack = core::BnbOptions{}.bound_slack;
  return std::fabs(served - reference) <=
         2.0 * slack * std::max(1.0, std::fabs(reference)) +
             1e-9 * std::fabs(reference);
}

/// Every served objective must match branch_and_bound on its universe
/// instance, rescaled to the request's units.
void check_served(RunResult& result, const LoopOutcome& outcome,
                  const std::vector<BnbCheck>& checks) {
  for (const Served& s : outcome.served) {
    const double expected =
        s.objective_scale * checks[s.index].bnb.objective;
    ++result.attempted;
    if (!s.result.ok()) {
      result.mismatch("instance " + std::to_string(s.index) + " failed: " +
                      s.result.error().to_string());
    } else if (!objectives_agree(s.result.objective(), expected)) {
      result.mismatch("instance " + std::to_string(s.index) + ": optimal " +
                      std::to_string(s.result.objective()) +
                      " vs branch_and_bound " + std::to_string(expected));
    }
  }
}

void set_core_metrics(RunResult& result,
                      const std::vector<core::Instance>& universe,
                      const std::vector<BnbCheck>& checks) {
  core::BnbStats total;
  double bnb_seconds = 0.0;
  for (const BnbCheck& c : checks) {
    total.nodes += c.bnb.stats.nodes;
    total.leaves += c.bnb.stats.leaves;
    total.lp_evaluations += c.bnb.stats.lp_evaluations;
    total.pruned_by_bound += c.bnb.stats.pruned_by_bound;
    total.pruned_by_cut += c.bnb.stats.pruned_by_cut;
    total.pruned_by_dominance += c.bnb.stats.pruned_by_dominance;
    bnb_seconds += c.seconds;
  }
  const auto count = [&](const char* name, std::size_t v) {
    result.set(name, static_cast<double>(v), "count");
  };
  count("core.bnb.nodes", total.nodes);
  count("core.bnb.leaves", total.leaves);
  count("core.bnb.lp_evaluations", total.lp_evaluations);
  count("core.bnb.pruned_by_bound", total.pruned_by_bound);
  count("core.bnb.pruned_by_cut", total.pruned_by_cut);
  count("core.bnb.pruned_by_dominance", total.pruned_by_dominance);
  const double pruned = static_cast<double>(
      total.pruned_by_bound + total.pruned_by_cut + total.pruned_by_dominance);
  result.set("core.bnb.us_per_node",
             total.nodes == 0 ? 0.0
                              : bnb_seconds * 1e6 /
                                    static_cast<double>(total.nodes),
             "us");
  result.set("core.bnb.prune_ratio",
             pruned / std::max(1.0, pruned + static_cast<double>(total.nodes)),
             "share");

  // Enumeration: the serving path's n! search on the small instances, and
  // the oracle for the first n = 8 instance (crossover raised to 8).
  const std::size_t crossover = core::OptimalOptions{}.enumeration_crossover;
  Sample enumeration_ms;
  bool checked_eight = false;
  for (std::size_t i = 0; i < checks.size(); ++i) {
    const std::size_t n = universe[i].size();
    core::OptimalOptions options;
    if (n > crossover) {
      if (checked_eight || n > 8) {
        continue;
      }
      options.enumeration_crossover = n;
      checked_eight = true;
    }
    const auto t0 = Clock::now();
    const core::OptimalResult enumerated =
        core::optimal_by_enumeration(universe[i], options);
    if (n <= crossover) {
      enumeration_ms.add(seconds_between(t0, Clock::now()) * 1e3);
    }
    if (!objectives_agree(checks[i].bnb.objective, enumerated.objective)) {
      result.mismatch("instance " + std::to_string(i) + ": branch_and_bound " +
                      std::to_string(checks[i].bnb.objective) +
                      " vs enumeration " +
                      std::to_string(enumerated.objective));
    }
  }
  if (!enumeration_ms.empty()) {
    result.set("core.enumeration.ms", enumeration_ms.median(), "ms");
  }

  // Order-LP pushes over each instance's Smith order.
  double push_s = 0.0;
  double exact_s = 0.0;
  std::size_t pushes = 0;
  for (std::size_t i = 0; i < checks.size(); ++i) {
    const auto order = core::smith_order(universe[i]);
    core::OrderLpEvaluator evaluator(universe[i]);
    const auto t0 = Clock::now();
    for (const std::size_t task : order) {
      (void)evaluator.push(task, false);
    }
    const auto t1 = Clock::now();
    while (evaluator.depth() > 0) {
      evaluator.pop();
    }
    const auto t2 = Clock::now();
    for (const std::size_t task : order) {
      (void)evaluator.push(task, true);
    }
    const auto t3 = Clock::now();
    push_s += seconds_between(t0, t1);
    exact_s += seconds_between(t2, t3);
    pushes += order.size();
  }
  const double n_pushes = static_cast<double>(std::max<std::size_t>(1, pushes));
  result.set("core.order_lp.push_us", push_s * 1e6 / n_pushes, "us");
  result.set("core.order_lp.push_exact_us", exact_s * 1e6 / n_pushes, "us");
}

RunResult run_traced(const Options& options) {
  RunResult result;
  const std::vector<core::Instance> universe = make_universe(kTracedRequests);
  const Stream stream(universe, options.seed);
  const auto plain = service::SolverRegistry::with_default_solvers();
  LoopOutcome untraced;
  {
    service::Scheduler scheduler(plain, scheduler_options());
    untraced = closed_loop(scheduler, stream, universe.size(), 1e9, nullptr);
  }
  Tracer tracer;
  const auto registry = instrumented_registry(tracer);
  LoopOutcome traced;
  {
    service::Scheduler scheduler(registry, scheduler_options());
    traced = closed_loop(scheduler, stream, universe.size(), 1e9, &tracer);
  }
  tracer.link_solves();
  set_self_shares(result, tracer.self_seconds_by_layer());
  set_scheduler_metrics(result, tracer, kThreads, traced.elapsed);
  set_cache_counts(result, traced.cache);
  result.set("bench.trace_overhead_ratio", traced.elapsed / untraced.elapsed,
             "ratio");

  const auto checks = direct_bnb(universe, universe.size(), 1);
  check_served(result, traced, checks);
  set_core_metrics(result, universe, checks);

  std::vector<core::Instance> sample;
  std::vector<std::string> keys;
  std::vector<std::size_t> tasks;
  const bool order_invariant = plain.find("optimal")->order_invariant;
  for (std::size_t k = 0; k < universe.size(); ++k) {
    sample.push_back(stream.at(k).instance);
    keys.push_back(cache_key("optimal", sample.back(), order_invariant));
    tasks.push_back(sample.back().size());
  }
  set_canonical_metrics(result, sample);
  set_cache_replay_metrics(result, keys, tasks, scheduler_cache_options());
  write_trace(tracer, options);
  return result;
}

}  // namespace

RunResult run_exact(const Options& options) {
  if (options.trace) {
    return run_traced(options);
  }
  RunResult result;
  struct Setup {
    service::SolverRegistry registry;
    std::vector<core::Instance> universe;
    std::unique_ptr<Stream> stream;
    std::unique_ptr<service::Scheduler> scheduler;
  };
  std::unique_ptr<Setup> setup;
  Sample setup_s;
  for (std::size_t r = 0; r < kSetupRepeats; ++r) {
    setup.reset();
    const auto t0 = Clock::now();
    setup = std::make_unique<Setup>();
    setup->registry = service::SolverRegistry::with_default_solvers();
    setup->universe = make_universe(kUniverse);
    setup->stream = std::make_unique<Stream>(setup->universe, options.seed);
    setup->scheduler = std::make_unique<service::Scheduler>(
        setup->registry, scheduler_options());
    setup_s.add(seconds_between(t0, Clock::now()));
  }

  const LoopOutcome outcome =
      closed_loop(*setup->scheduler, *setup->stream,
                  std::numeric_limits<std::size_t>::max(), options.seconds,
                  nullptr);
  setup->scheduler.reset();
  const double peak_rss = peak_rss_mb(false);
  const auto checks = direct_bnb(
      setup->universe, kUniverse,
      std::max(1u, std::thread::hardware_concurrency()));
  check_served(result, outcome, checks);

  // The metrics count whole cycles only: cycle c is requests
  // [c U, (c + 1) U), the whole universe once in its pinned order, so every
  // cycle serves the same instance mix.  Throughput is U over the median
  // cycle time (the time between the last completions of consecutive
  // cycles), so a cycle slowed by a noisy neighbour does not move it;
  // latency quantiles pool the requests of every whole cycle (~1300 at
  // 30 s, so p99 has ~13 samples beyond it).
  std::vector<std::size_t> served_in(outcome.served.size() / kUniverse + 1, 0);
  std::vector<double> cycle_end(served_in.size(), 0.0);
  for (const Served& s : outcome.served) {
    const std::size_t c = s.k / kUniverse;
    if (c < served_in.size()) {
      ++served_in[c];
      cycle_end[c] = std::max(cycle_end[c], s.completion);
    }
  }
  std::size_t cycles = 0;
  while (cycles < served_in.size() && served_in[cycles] == kUniverse) {
    ++cycles;
  }
  if (cycles == 0) {
    result.mismatch("no whole cycle of the universe was served in " +
                    std::to_string(options.seconds) + " s");
    return result;
  }
  Sample cycle_s;
  for (std::size_t c = 0; c < cycles; ++c) {
    cycle_s.add(cycle_end[c] - (c == 0 ? 0.0 : cycle_end[c - 1]));
  }
  Sample latencies;
  for (const Served& s : outcome.served) {
    if (s.k < cycles * kUniverse) {
      latencies.add(s.latency);
    }
  }
  set_end_to_end(result, setup_s.median(),
                 static_cast<double>(kUniverse) / cycle_s.median(),
                 latency_quantiles(latencies), peak_rss);
  return result;
}

}  // namespace perfbench
