/// \file realloc.cpp
/// realloc_scale: the §V-B synthetic traces (70 events each) through
/// AdaptationPipeline::apply on BG/L-16384 under the `dynamic` strategy,
/// candidates evaluated on a 2-thread pool. No weather, PDA or payload:
/// the pipeline's candidate building and redistribution do the work.
///
/// A run cycles through kTraces traces drawn from the run seed, a fresh
/// pipeline per trace pass, until the time is up. After every pass (and
/// the last, partial one) the pipeline's state_fingerprint() must equal a
/// serial pipeline fed the same events.

#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <stdexcept>
#include <utility>
#include <vector>

#include "core/experiment.hpp"
#include "core/machine.hpp"
#include "core/pipeline.hpp"
#include "core/traces.hpp"
#include "exec/executor.hpp"
#include "counters.hpp"
#include "workloads.hpp"

namespace stormbench {
namespace {

using namespace stormtrack;

constexpr int kCores = 16384;
constexpr int kTraces = 16;
constexpr int kEventsPerTrace = 70;

struct Rig {
  ModelStack models;
  Machine machine = Machine::bluegene(kCores);
  ThreadPoolExecutor pool{kExecutorThreads};
  std::vector<Trace> traces;
};

std::unique_ptr<Rig> make_rig(std::uint64_t seed) {
  auto rig = std::make_unique<Rig>();
  for (int t = 0; t < kTraces; ++t) {
    SyntheticTraceConfig cfg;
    cfg.num_events = kEventsPerTrace;
    cfg.seed = mix_seed(seed, 200 + static_cast<std::uint64_t>(t));
    rig->traces.push_back(generate_synthetic_trace(cfg));
  }
  return rig;
}

std::unique_ptr<AdaptationPipeline> make_pipeline(const Rig& rig,
                                                  Executor* executor) {
  ManagerConfig cfg;
  cfg.strategy = "dynamic";
  cfg.executor = executor;
  return std::make_unique<AdaptationPipeline>(rig.machine, rig.models.model,
                                              rig.models.truth, cfg);
}

/// Where one trace pass stopped.
struct PassEnd {
  int trace = 0;
  int length = 0;
  std::uint64_t fingerprint = 0;
};

/// Runs passes over the traces until \p seconds elapse. \p on_apply wraps
/// each apply() (the traced run opens spans there); \p on_pass_end sees
/// each pipeline before it is dropped. Returns the timed window in s.
template <typename OnApply, typename OnPassEnd>
double run_passes(Rig& rig, double seconds, Result& r,
                  std::unique_ptr<AdaptationPipeline> first, Meter& meter,
                  std::vector<PassEnd>& ends, OnApply on_apply,
                  OnPassEnd on_pass_end) {
  std::unique_ptr<AdaptationPipeline> pipeline = std::move(first);
  const auto t0 = Clock::now();
  bool done = false;
  for (int pass = 0; !done; ++pass) {
    const int t = pass % kTraces;
    if (!pipeline) pipeline = make_pipeline(rig, &rig.pool);
    int len = 0;
    bool broken = false;
    for (const std::vector<NestSpec>& active : rig.traces[t]) {
      const auto a = Clock::now();
      ++r.attempted;
      try {
        on_apply(*pipeline, active, pass, len);
      } catch (const std::exception& e) {
        ++r.failed;
        broken = true;
        r.notes.push_back(std::string("apply threw: ") + e.what());
        break;
      }
      const auto b = Clock::now();
      meter.add(static_cast<std::uint64_t>(t) * kEventsPerTrace +
                    static_cast<std::uint64_t>(len),
                a, b, true);
      ++len;
      done = seconds_between(t0, b) >= seconds;
      if (done) break;
    }
    on_pass_end(*pipeline);
    if (!broken) ends.push_back({t, len, pipeline->state_fingerprint()});
    pipeline.reset();
  }
  return seconds_between(t0, Clock::now());
}

/// Fingerprints of pipelines fed each needed prefix of each trace. Serial
/// pipelines (\p executor null) run several traces at once; pipelines on
/// \p executor run one after another and record per-apply times.
std::map<std::pair<int, int>, std::uint64_t> reference_passes(
    Rig& rig, const std::vector<PassEnd>& ends, Executor* executor,
    std::map<std::pair<int, int>, double>* times) {
  std::map<int, std::set<int>> need;
  for (const PassEnd& e : ends)
    if (e.length > 0) need[e.trace].insert(e.length);
  const std::vector<std::pair<int, std::set<int>>> jobs(need.begin(), need.end());
  std::vector<std::map<int, std::uint64_t>> found(jobs.size());
  const auto run_job = [&](std::size_t j) {
    const auto& [t, lengths] = jobs[j];
    const auto pipeline = make_pipeline(rig, executor);
    for (int i = 0; i < *lengths.rbegin(); ++i) {
      const auto a = Clock::now();
      (void)pipeline->apply(rig.traces[t][static_cast<std::size_t>(i)]);
      if (times != nullptr)
        (*times)[{t, i}] = seconds_between(a, Clock::now());
      if (lengths.contains(i + 1)) found[j][i + 1] = pipeline->state_fingerprint();
    }
  };
  if (executor == nullptr) {
    run_parallel(jobs.size(), run_job);
  } else {
    for (std::size_t j = 0; j < jobs.size(); ++j) run_job(j);
  }
  std::map<std::pair<int, int>, std::uint64_t> ref;
  for (std::size_t j = 0; j < jobs.size(); ++j)
    for (const auto& [len, fp] : found[j]) ref[{jobs[j].first, len}] = fp;
  return ref;
}

void check_passes(const Options& opt, const std::vector<PassEnd>& ends,
                  const std::map<std::pair<int, int>, std::uint64_t>& ref,
                  const char* what, Result& r) {
  for (const PassEnd& e : ends) {
    if (e.length == 0) continue;
    std::uint64_t expect = ref.at({e.trace, e.length});
    if (opt.corrupt_reference) expect ^= 1;
    if (e.fingerprint == expect) continue;
    r.failed += e.length;
    r.correct = false;
    std::ostringstream n;
    n << "MISMATCH trace " << e.trace << " after " << e.length
      << " points: pipeline fingerprint " << std::hex << e.fingerprint
      << " != " << what << " " << expect;
    r.notes.push_back(n.str());
  }
}

}  // namespace

Result run_realloc(const Options& opt) {
  Result r;
  const std::unique_ptr<Rig> rig = make_rig(opt.seed);
  std::unique_ptr<AdaptationPipeline> first = make_pipeline(*rig, &rig->pool);

  Meter meter;
  std::vector<PassEnd> ends;
  if (!opt.trace) {
    (void)run_passes(
        *rig, opt.seconds, r, std::move(first), meter, ends,
        [](AdaptationPipeline& p, const std::vector<NestSpec>& active, int,
           int) { (void)p.apply(active); },
        [](const AdaptationPipeline&) {});
    meter.close();
    check_passes(opt, ends, reference_passes(*rig, ends, nullptr, nullptr),
                 "serial reference", r);
    put_end_to_end(r, meter, opt, "apply");
    std::ostringstream n;
    n << "aliases: adapt_ms_p50=" << fmt(r.metrics["op_ms_p50"].value)
      << " adapt_ms_p95=" << fmt(r.metrics["op_ms_p95"].value)
      << " adapt_points_per_s=" << fmt(r.metrics["ops_per_s"].value)
      << " passes_checked=" << ends.size();
    r.notes.push_back(n.str());
  } else {
    auto tracer = std::make_unique<Tracer>(true);
    LayerReport layers;
    // (trace, point) -> traced seconds at its latest, warmest visit.
    std::map<std::pair<int, int>, double> latest;
    std::uint64_t op_id = 0;
    const CounterSnapshot before =
        CounterSnapshot::take(&rig->models.model, &rig->pool);
    const double wall = run_passes(
        *rig, opt.seconds, r, std::move(first), meter, ends,
        [&](AdaptationPipeline& p, const std::vector<NestSpec>& active,
            int pass, int index) {
          const auto a = Clock::now();
          {
            const Tracer::Scope root(*tracer, "trace.op", op_id, -1);
            const Tracer::Scope s(*tracer, "core.apply", op_id, root.index());
            (void)p.apply(active);
          }
          ++op_id;
          latest[{pass % kTraces, index}] = seconds_between(a, Clock::now());
        },
        [&](const AdaptationPipeline& p) {
          add_pipeline_totals(layers, p.metrics());
        });
    const CounterSnapshot after =
        CounterSnapshot::take(&rig->models.model, &rig->pool);

    // The same points untraced on the same pool: the fingerprint gate and
    // the base of the tracing overhead.
    std::map<std::pair<int, int>, double> untraced;
    check_passes(opt, ends, reference_passes(*rig, ends, &rig->pool, &untraced),
                 "untraced pipeline", r);
    double traced_s = 0.0;
    double untraced_s = 0.0;
    for (const auto& [key, s] : latest) {
      const auto it = untraced.find(key);
      if (it == untraced.end()) continue;
      traced_s += s;
      untraced_s += it->second;
    }
    layers.add_spans(*tracer);
    add_counter_deltas(layers, before, after, wall);
    layers.set("trace.overhead_ratio",
               untraced_s > 0 ? traced_s / untraced_s : 0.0);
    layers.finish(r, r.attempted);
    std::ostringstream n;
    n << "trace: spans=" << tracer->size() << " points=" << r.attempted
      << " traced_wall_s=" << fmt(wall) << " overhead_base_points="
      << latest.size() << " traced_s=" << fmt(traced_s)
      << " untraced_s=" << fmt(untraced_s);
    r.notes.push_back(n.str());
    r.tracer = std::move(tracer);
  }
  std::ostringstream n;
  n << "config: machine=bgl-" << kCores << " strategy=dynamic executor_threads="
    << kExecutorThreads << " traces=" << kTraces
    << " events_per_trace=" << kEventsPerTrace;
  r.notes.insert(r.notes.begin(), n.str());
  return r;
}

void probe_realloc(const Options& opt) {
  const std::unique_ptr<Rig> rig = make_rig(opt.seed);
  const auto pipeline = make_pipeline(*rig, &rig->pool);
  report_setup_done();
}

}  // namespace stormbench
