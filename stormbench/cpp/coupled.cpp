/// \file coupled.cpp
/// field_coupled / particles_coupled: whole adaptation intervals of
/// CoupledSimulation (weather step, split files, PDA, tracker, pipeline,
/// payload lifecycle, integration) with the field or particle payload on
/// the real-mode Mumbai scenario, BG/L 1024 cores, `dynamic` strategy, one
/// 2-thread pool serving both the pipeline and the workload.
///
/// A run cycles through kEpisodes scenario seeds drawn from the run seed,
/// kEpisodeIntervals intervals each, until the time is up. Several
/// scenarios per run keep the per-interval figures from hanging on one
/// weather history. Each episode's final state fingerprint must equal a
/// serial (no executor) run of the same scenario to the same interval.
///
/// The traced run replays CoupledSimulation::advance() through the public
/// layer calls with a span around each, then checks that the replay ended
/// on the untraced engine's pipeline, tracker and workload fingerprints.

#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <stdexcept>
#include <utility>
#include <vector>

#include "core/coupled.hpp"
#include "core/experiment.hpp"
#include "core/machine.hpp"
#include "core/nest_tracker.hpp"
#include "exec/executor.hpp"
#include "pda/pda.hpp"
#include "redist/redistributor.hpp"
#include "util/check.hpp"
#include "util/fnv.hpp"
#include "wsim/split_file.hpp"
#include "wsim/workload.hpp"
#include "counters.hpp"
#include "workloads.hpp"

namespace stormbench {
namespace {

using namespace stormtrack;

constexpr int kCores = 1024;
constexpr int kEpisodes = 24;
constexpr int kEpisodeIntervals = 50;

/// Everything a run sets up before its first interval.
struct Rig {
  ModelStack models;
  Machine machine = Machine::bluegene(kCores);
  ThreadPoolExecutor pool{kExecutorThreads};
};

std::uint64_t episode_seed(std::uint64_t run_seed, int episode) {
  return mix_seed(run_seed, 100 + static_cast<std::uint64_t>(episode));
}

CoupledConfig episode_config(const std::string& payload,
                             std::uint64_t run_seed, int episode,
                             Executor* executor) {
  CoupledConfig cfg;
  cfg.scenario.seed = episode_seed(run_seed, episode);
  cfg.scenario.num_intervals = kEpisodeIntervals;
  cfg.manager.strategy = "dynamic";
  cfg.manager.executor = executor;
  cfg.executor = executor;
  cfg.workload = payload;
  return cfg;
}

std::unique_ptr<CoupledSimulation> make_sim(Rig& rig, const std::string& payload,
                                            std::uint64_t run_seed, int episode,
                                            Executor* executor) {
  return std::make_unique<CoupledSimulation>(
      rig.machine, rig.models.model, rig.models.truth,
      episode_config(payload, run_seed, episode, executor));
}

/// The state the traced replay must reproduce.
struct Fingerprints {
  std::uint64_t pipeline = 0;
  std::uint64_t tracker = 0;
  std::uint64_t workload = 0;
  friend bool operator==(const Fingerprints&, const Fingerprints&) = default;
};

Fingerprints engine_fingerprints(const CoupledSimulation& sim) {
  NestTracker tracker;
  tracker.restore(sim.export_state().driver.tracker);
  Fingerprint workload;
  sim.workload().add_state_fingerprint(workload);
  return {sim.pipeline().state_fingerprint(), tracker.state_fingerprint(),
          workload.value()};
}

/// Where one episode of the timed loop stopped.
struct EpisodeEnd {
  int episode = 0;
  int length = 0;  ///< Intervals completed.
  std::uint64_t state = 0;     ///< CoupledSimulation::state_fingerprint().
  Fingerprints layers;         ///< Traced runs only.
};

/// Lengths each episode must be checked at.
std::map<int, std::set<int>> lengths_needed(const std::vector<EpisodeEnd>& ends) {
  std::map<int, std::set<int>> need;
  for (const EpisodeEnd& e : ends)
    if (e.length > 0) need[e.episode].insert(e.length);
  return need;
}

/// CoupledSimulation::advance() replayed step by step through the public
/// calls of each layer, with a span around every call.
class Replay {
 public:
  Replay(const Rig& rig, CoupledConfig cfg)
      : machine_(rig.machine),
        cfg_(std::move(cfg)),
        weather_(cfg_.scenario.weather, cfg_.scenario.seed),
        pipeline_(rig.machine, rig.models.model, rig.models.truth,
                  cfg_.manager),
        redistributor_(rig.machine.comm(), cfg_.manager.bytes_per_point),
        workload_(WorkloadRegistry::global().create(
            cfg_.workload, WorkloadParams{cfg_.nest_dynamics, cfg_.particles})) {}

  void advance(Tracer& tracer, LayerReport& layers, std::uint64_t op) {
    const Tracer::Scope root(tracer, "trace.op", op, -1);
    const int parent = root.index();

    {
      const Tracer::Scope s(tracer, "wsim.weather_step", op, parent);
      weather_.step();
    }
    std::vector<SplitFile> files;
    {
      const Tracer::Scope s(tracer, "wsim.split_files", op, parent);
      files = write_split_files(weather_, cfg_.scenario.sim_px,
                                cfg_.scenario.sim_py);
    }
    for (const SplitFile& f : files)
      layers.add("wsim.split_bytes",
                 static_cast<double>((f.qcloud.size() + f.olr.size()) *
                                     sizeof(double)));
    PdaResult pda;
    {
      const Tracer::Scope s(tracer, "pda.analysis", op, parent);
      pda = parallel_data_analysis(files, cfg_.scenario.pda);
    }
    layers.add("pda.rois", static_cast<double>(pda.rectangles.size()));
    ST_CHECK_MSG(!pda.degraded(), "replay runs without fault injection");
    NestDiff diff;
    {
      const Tracer::Scope s(tracer, "core.tracker", op, parent);
      diff = tracker_.update(pda.rectangles);
    }

    // Retained nests keep the spec they were spawned with.
    std::vector<NestSpec> active;
    for (const NestSpec& spec : tracker_.active())
      active.push_back(workload_->has_nest(spec.id)
                           ? workload_->nest_spec(spec.id)
                           : spec);
    const std::map<NestId, Rect> previous = pipeline_.allocation().rects();
    StepOutcome outcome;
    {
      const Tracer::Scope s(tracer, "core.apply", op, parent);
      outcome = pipeline_.apply(active);
    }
    ST_CHECK_MSG(outcome.degradation.empty(),
                 "replay runs without fault injection");

    TrafficReport moved;
    const WorkloadEnv move_env = env(&moved);
    for (const int id : diff.deleted) {
      const Tracer::Scope s(tracer, "wsim.lifecycle", op, parent);
      workload_->delete_nest(id);
    }
    for (const NestSpec& spec : active) {
      if (workload_->has_nest(spec.id)) continue;
      const Tracer::Scope s(tracer, "wsim.lifecycle", op, parent);
      workload_->insert_nest(spec, move_env);
    }
    for (const NestSpec& spec : active) {
      const auto prev = previous.find(spec.id);
      if (prev == previous.end()) continue;
      const auto now = pipeline_.allocation().find(spec.id);
      ST_CHECK(now.has_value());
      if (*now == prev->second) continue;
      const Tracer::Scope s(tracer, "wsim.lifecycle", op, parent);
      workload_->move_nest(spec.id, prev->second, *now, move_env);
    }
    layers.add("wsim.moved_bytes", static_cast<double>(moved.total_bytes));

    const WorkloadEnv step_env = env(nullptr);
    const int steps = cfg_.manager.steps_per_interval;
    for (const int id : workload_->nest_ids()) {
      const auto rect = pipeline_.allocation().find(id);
      ST_CHECK(rect.has_value());
      TrafficReport halo;
      {
        const Tracer::Scope s(tracer, "wsim.integrate", op, parent);
        halo = workload_->integrate(id, *rect, steps, step_env);
      }
      layers.add("wsim.halo_bytes", static_cast<double>(halo.total_bytes));
    }
  }

  [[nodiscard]] Fingerprints fingerprints() const {
    Fingerprint workload;
    workload_->add_state_fingerprint(workload);
    return {pipeline_.state_fingerprint(), tracker_.state_fingerprint(),
            workload.value()};
  }

  [[nodiscard]] const MetricsRegistry& metrics() const {
    return pipeline_.metrics();
  }

 private:
  [[nodiscard]] WorkloadEnv env(TrafficReport* data_movement) {
    WorkloadEnv e;
    e.comm = &machine_.comm();
    e.grid_px = machine_.grid_px();
    e.weather = &weather_;
    e.redistributor = &redistributor_;
    e.metrics = &pipeline_.metrics();
    e.executor = cfg_.executor;
    e.data_movement = data_movement;
    return e;
  }

  const Machine& machine_;
  CoupledConfig cfg_;
  WeatherModel weather_;
  NestTracker tracker_;
  AdaptationPipeline pipeline_;
  Redistributor redistributor_;
  std::unique_ptr<INestWorkload> workload_;
};

std::string payload_of(const Options& opt) {
  return opt.workload == "field_coupled" ? "field" : "particles";
}

/// Serial engine runs of every episode in \p need (several episodes at
/// once); returns the state_fingerprint() after each needed length.
std::map<std::pair<int, int>, std::uint64_t> serial_references(
    Rig& rig, const std::string& payload, std::uint64_t seed,
    const std::map<int, std::set<int>>& need) {
  const std::vector<std::pair<int, std::set<int>>> jobs(need.begin(), need.end());
  std::vector<std::map<int, std::uint64_t>> found(jobs.size());
  run_parallel(jobs.size(), [&](std::size_t j) {
    const auto& [episode, lengths] = jobs[j];
    const auto sim = make_sim(rig, payload, seed, episode, nullptr);
    for (int len = 1; len <= *lengths.rbegin(); ++len) {
      (void)sim->advance();
      if (lengths.contains(len)) found[j][len] = sim->state_fingerprint();
    }
  });
  std::map<std::pair<int, int>, std::uint64_t> ref;
  for (std::size_t j = 0; j < jobs.size(); ++j)
    for (const auto& [len, fp] : found[j]) ref[{jobs[j].first, len}] = fp;
  return ref;
}

Result run_untraced(const Options& opt, const std::string& payload) {
  Result r;
  const auto rig = std::make_unique<Rig>();
  std::unique_ptr<CoupledSimulation> sim;

  std::vector<EpisodeEnd> ends;
  Meter meter;
  const auto t0 = Clock::now();
  bool done = false;
  for (int ep = 0; !done; ++ep) {
    const int k = ep % kEpisodes;
    if (!sim) sim = make_sim(*rig, payload, opt.seed, k, &rig->pool);
    int len = 0;
    bool broken = false;
    while (len < kEpisodeIntervals && !done) {
      const auto a = Clock::now();
      ++r.attempted;
      try {
        (void)sim->advance();
      } catch (const std::exception& e) {
        ++r.failed;
        broken = true;
        r.notes.push_back(std::string("interval threw: ") + e.what());
        break;
      }
      const auto b = Clock::now();
      meter.add(static_cast<std::uint64_t>(k) * kEpisodeIntervals +
                    static_cast<std::uint64_t>(len),
                a, b, true);
      ++len;
      done = seconds_between(t0, b) >= opt.seconds;
    }
    if (!broken) ends.push_back({k, len, sim->state_fingerprint(), {}});
    sim.reset();
  }
  meter.close();

  // Result check, outside the timed window.
  const auto ref = serial_references(*rig, payload, opt.seed,
                                     lengths_needed(ends));
  for (const EpisodeEnd& e : ends) {
    if (e.length == 0) continue;
    std::uint64_t expect = ref.at({e.episode, e.length});
    if (opt.corrupt_reference) expect ^= 1;
    if (e.state != expect) {
      r.failed += e.length;
      r.correct = false;
      std::ostringstream n;
      n << "MISMATCH episode " << e.episode << " after " << e.length
        << " intervals: fingerprint " << std::hex << e.state
        << " != serial reference " << expect;
      r.notes.push_back(n.str());
    }
  }
  put_end_to_end(r, meter, opt, "interval");
  std::ostringstream n;
  n << "aliases: interval_ms_p50=" << fmt(r.metrics["op_ms_p50"].value)
    << " interval_ms_p95=" << fmt(r.metrics["op_ms_p95"].value)
    << " intervals_per_s=" << fmt(r.metrics["ops_per_s"].value)
    << " episodes_checked=" << ends.size();
  r.notes.push_back(n.str());
  return r;
}

Result run_traced(const Options& opt, const std::string& payload) {
  Result r;
  const auto rig = std::make_unique<Rig>();

  auto owned_tracer = std::make_unique<Tracer>(true);
  Tracer& tracer = *owned_tracer;
  LayerReport layers;
  std::vector<EpisodeEnd> ends;
  // (episode, interval) -> replay seconds at its latest, warmest visit.
  std::map<std::pair<int, int>, double> latest;
  const CounterSnapshot before =
      CounterSnapshot::take(&rig->models.model, &rig->pool);
  const auto t0 = Clock::now();
  bool done = false;
  std::uint64_t op = 0;
  for (int ep = 0; !done; ++ep) {
    const int k = ep % kEpisodes;
    Replay replay(*rig, episode_config(payload, opt.seed, k, &rig->pool));
    int len = 0;
    bool broken = false;
    while (len < kEpisodeIntervals && !done) {
      const auto a = Clock::now();
      ++r.attempted;
      try {
        replay.advance(tracer, layers, op++);
      } catch (const std::exception& e) {
        ++r.failed;
        broken = true;
        r.notes.push_back(std::string("replayed interval threw: ") + e.what());
        break;
      }
      const auto b = Clock::now();
      latest[{k, len}] = seconds_between(a, b);
      ++len;
      done = seconds_between(t0, b) >= opt.seconds;
    }
    add_pipeline_totals(layers, replay.metrics());
    if (!broken) ends.push_back({k, len, 0, replay.fingerprints()});
  }
  const double wall = seconds_between(t0, Clock::now());
  const CounterSnapshot after =
      CounterSnapshot::take(&rig->models.model, &rig->pool);

  // The untraced engine over the same intervals: fingerprint gate and the
  // baseline of the tracing overhead.
  double engine_s = 0.0;
  double replay_s = 0.0;
  for (const auto& [episode, lengths] : lengths_needed(ends)) {
    const auto sim = make_sim(*rig, payload, opt.seed, episode, &rig->pool);
    std::map<int, Fingerprints> at;
    for (int len = 0; len < *lengths.rbegin(); ++len) {
      const auto a = Clock::now();
      (void)sim->advance();
      const double dt = seconds_between(a, Clock::now());
      if (const auto it = latest.find({episode, len}); it != latest.end()) {
        engine_s += dt;
        replay_s += it->second;
      }
      if (lengths.contains(len + 1)) at[len + 1] = engine_fingerprints(*sim);
    }
    for (const EpisodeEnd& e : ends) {
      if (e.episode != episode) continue;
      Fingerprints expect = at.at(e.length);
      if (opt.corrupt_reference) expect.pipeline ^= 1;
      if (!(e.layers == expect)) {
        r.failed += e.length;
        r.correct = false;
        std::ostringstream n;
        n << "MISMATCH replay of episode " << episode << " after " << e.length
          << " intervals: pipeline/tracker/workload fingerprints " << std::hex
          << e.layers.pipeline << "/" << e.layers.tracker << "/"
          << e.layers.workload << " != engine " << expect.pipeline << "/"
          << expect.tracker << "/" << expect.workload;
        r.notes.push_back(n.str());
      }
    }
  }

  layers.add_spans(tracer);
  add_counter_deltas(layers, before, after, wall);
  layers.set("trace.overhead_ratio", engine_s > 0 ? replay_s / engine_s : 0.0);
  layers.finish(r, r.attempted);
  std::ostringstream n;
  n << "trace: spans=" << tracer.size() << " replayed_intervals=" << r.attempted
    << " traced_wall_s=" << fmt(wall) << " overhead_base_intervals="
    << latest.size() << " replay_s=" << fmt(replay_s)
    << " engine_s=" << fmt(engine_s);
  r.notes.push_back(n.str());
  r.tracer = std::move(owned_tracer);
  return r;
}

}  // namespace

Result run_coupled(const Options& opt) {
  const std::string payload = payload_of(opt);
  Result r = opt.trace ? run_traced(opt, payload) : run_untraced(opt, payload);
  std::ostringstream n;
  n << "config: machine=bgl-" << kCores << " strategy=dynamic payload="
    << payload << " executor_threads=" << kExecutorThreads
    << " episodes=" << kEpisodes << " episode_intervals=" << kEpisodeIntervals
    << " first_scenario_seed=" << episode_seed(opt.seed, 0);
  r.notes.insert(r.notes.begin(), n.str());
  return r;
}

void probe_coupled(const Options& opt) {
  const auto rig = std::make_unique<Rig>();
  const auto sim = make_sim(*rig, payload_of(opt), opt.seed, 0, &rig->pool);
  report_setup_done();
}

}  // namespace stormbench
