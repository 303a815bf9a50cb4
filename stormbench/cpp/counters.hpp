#pragma once

/// \file counters.hpp
/// Readings of the program's own public counters, folded into a traced
/// run's LayerReport as deltas over the timed window.

#include "common.hpp"
#include "exec/executor.hpp"
#include "perfmodel/exec_model.hpp"
#include "redist/redistributor.hpp"
#include "util/atomic_file.hpp"
#include "util/metrics.hpp"

namespace stormbench {

/// Process-wide and per-object counters at one instant. The model and
/// executor readings stay zero when the run cannot reach them (the
/// daemon's supervisor owns both privately).
struct CounterSnapshot {
  stormtrack::RedistCounters redist;
  stormtrack::ExecModelCacheStats model;
  stormtrack::ExecutorStats pool;
  stormtrack::AtomicFileCounters files;

  [[nodiscard]] static CounterSnapshot take(
      const stormtrack::ExecTimeModel* model,
      const stormtrack::Executor* pool);
};

/// redist.*, perfmodel.*, exec.* and ckpt.* (file counts) from the change
/// between \p before and \p after; \p wall is the window's length.
void add_counter_deltas(LayerReport& layers, const CounterSnapshot& before,
                        const CounterSnapshot& after, double wall);

/// core.stage_*_ms, core.* counters and the particle workload's wsim.*
/// counters from one pipeline's metrics registry.
void add_pipeline_totals(LayerReport& layers,
                         const stormtrack::MetricsRegistry& metrics);

}  // namespace stormbench
