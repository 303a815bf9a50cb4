#include "counters.hpp"

#include <string>

#include "core/pipeline.hpp"

namespace stormbench {

using namespace stormtrack;

CounterSnapshot CounterSnapshot::take(const ExecTimeModel* model,
                                      const Executor* pool) {
  CounterSnapshot s;
  s.redist = redist_counters();
  if (model != nullptr) s.model = model->cache_stats();
  if (pool != nullptr) s.pool = pool->stats();
  s.files = atomic_file_counters();
  return s;
}

void add_counter_deltas(LayerReport& layers, const CounterSnapshot& before,
                        const CounterSnapshot& after, double wall) {
  const auto d = [](auto b, auto a) { return static_cast<double>(a - b); };
  const RedistCounters& r0 = before.redist;
  const RedistCounters& r1 = after.redist;
  layers.add("redist.plans_built", d(r0.plans_built, r1.plans_built));
  layers.add("redist.messages_materialized",
             d(r0.messages_materialized, r1.messages_materialized));
  layers.add("redist.message_bytes_materialized",
             d(r0.message_bytes_materialized, r1.message_bytes_materialized));
  layers.add("redist.intersection_probes",
             d(r0.intersection_probes, r1.intersection_probes));
  layers.add("redist.moved_blocks_enumerated",
             d(r0.moved_blocks_enumerated, r1.moved_blocks_enumerated));
  layers.set("redist.cost_cache_hit_ratio",
             ratio(d(r0.cost_cache_hits, r1.cost_cache_hits),
                   d(r0.cost_cache_misses, r1.cost_cache_misses)));

  const double lookups = d(before.model.lookups, after.model.lookups);
  const double misses = d(before.model.misses, after.model.misses);
  layers.add("perfmodel.exec_lookups", lookups);
  layers.set("perfmodel.exec_hit_ratio", ratio(lookups - misses, misses));

  layers.add("exec.tasks", d(before.pool.tasks, after.pool.tasks));
  layers.add("exec.batches", d(before.pool.batches, after.pool.batches));
  const double busy = after.pool.busy_seconds - before.pool.busy_seconds;
  layers.add("exec.busy_s", busy);
  stormtrack::ExecutorStats window = after.pool;
  window.busy_seconds = busy;
  layers.set("exec.occupancy", window.occupancy(wall));

  layers.add("ckpt.files_written",
             d(before.files.files_written, after.files.files_written));
  layers.add("ckpt.file_syncs",
             d(before.files.file_syncs, after.files.file_syncs));
  layers.add("ckpt.dir_syncs", d(before.files.dir_syncs, after.files.dir_syncs));
}

void add_pipeline_totals(LayerReport& layers, const MetricsRegistry& metrics) {
  for (int s = 0; s < kNumPipelineStages; ++s) {
    const auto stage = static_cast<PipelineStage>(s);
    layers.add("core.stage_" + std::string(to_string(stage)) + "_ms",
               metrics.get(stage_metric_name(stage)).seconds * 1e3);
  }
  const auto count = [&](const char* key) {
    return static_cast<double>(metrics.get(key).count);
  };
  layers.add("core.candidates_built", count("pipeline.candidates_built"));
  layers.add("core.cost_queries", count("pipeline.cost_queries"));
  layers.add("core.redist_plans", count("pipeline.redist_plans"));
  layers.add("core.stable_subtrees", count("pipeline.stable_subtrees"));
  layers.add("wsim.handoffs", count("workload.handoffs"));
  layers.add("wsim.ping_pong_particles", count("workload.ping_pong_particles"));
  layers.add("wsim.advected_particle_steps",
             count("workload.advected_particle_steps"));
}

}  // namespace stormbench
