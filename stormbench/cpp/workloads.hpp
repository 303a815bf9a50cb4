#pragma once

/// \file workloads.hpp
/// The benchmark's workloads. Each runs in its own process, measures for
/// Options::seconds, checks its outputs against references computed
/// outside the timed window, and returns end-to-end metrics (untraced) or
/// per-layer metrics (traced). Each also has a set-up probe: the body of a
/// --setup-probe process, which sets the workload up as a run would, calls
/// report_setup_done() and tears down again.

#include "common.hpp"

namespace stormbench {

/// field_coupled / particles_coupled: CoupledSimulation episodes with the
/// field or particle payload on the real-mode Mumbai scenario.
[[nodiscard]] Result run_coupled(const Options& opt);
void probe_coupled(const Options& opt);

/// realloc_scale: §V-B synthetic traces through AdaptationPipeline::apply
/// on BG/L-16384.
[[nodiscard]] Result run_realloc(const Options& opt);
void probe_realloc(const Options& opt);

/// daemon_sessions: an in-process stormtrackd (supervisor + socket server)
/// driven by a forked closed-loop load generator.
[[nodiscard]] Result run_daemon(const Options& opt);
void probe_daemon(const Options& opt);

}  // namespace stormbench
