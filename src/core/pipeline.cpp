#include "core/pipeline.hpp"

#include <algorithm>
#include <array>
#include <functional>

#include "exec/cancel.hpp"
#include "exec/executor.hpp"
#include "fault/invariants.hpp"
#include "fault/snapshot.hpp"
#include "tree/tree_delta.hpp"
#include "util/check.hpp"

namespace stormtrack {

namespace {

constexpr std::string_view kStageNames[kNumPipelineStages] = {
    "diff_nests",    "derive_weights", "build_candidates",
    "predict_costs", "commit",         "redistribute"};

constexpr std::string_view kStageMetricNames[kNumPipelineStages] = {
    "stage.1_diff_nests",    "stage.2_derive_weights",
    "stage.3_build_candidates", "stage.4_predict_costs",
    "stage.5_commit",        "stage.6_redistribute"};

}  // namespace

std::string_view to_string(PipelineStage stage) {
  return kStageNames[static_cast<int>(stage)];
}

std::string_view stage_metric_name(PipelineStage stage) {
  return kStageMetricNames[static_cast<int>(stage)];
}

const PipelineCandidate* PipelineContext::find(std::string_view name) const {
  for (const PipelineCandidate& c : candidates)
    if (c.name == name) return &c;
  return nullptr;
}

void PipelineCandidate::reset() {
  name.clear();
  tree = AllocTree{};
  alloc = Allocation{};
  costs.clear();  // keeps capacity
  metrics = CandidateMetrics{};
  traffic = TrafficReport{};
  overlap_points = 0;
  total_points = 0;
}

void PipelineContext::reset() {
  active.clear();
  retained.clear();
  inserted.clear();
  deleted.clear();
  request.deleted.clear();
  request.retained.clear();
  request.inserted.clear();
  // Candidate slots are kept (and re-reset by BuildCandidates after it
  // sizes the vector) so their cost vectors keep capacity too.
  for (PipelineCandidate& c : candidates) c.reset();
  committed_index = 0;
}

AdaptationPipeline::AdaptationPipeline(const Machine& machine,
                                       const ExecTimeModel& model,
                                       const GroundTruthCost& truth,
                                       ManagerConfig config)
    : machine_(&machine),
      model_(&model),
      truth_(&truth),
      config_(std::move(config)),
      strategy_(StrategyRegistry::global().create(config_.strategy,
                                                  config_.strategy_options)),
      view_px_(machine.grid_px()),
      view_py_(machine.grid_py()) {
  ST_CHECK_MSG(config_.steps_per_interval >= 1,
               "steps_per_interval must be >= 1");
  ST_CHECK_MSG((config_.initial_view_px == 0) ==
                   (config_.initial_view_py == 0),
               "initial view must set both dimensions (or neither), got "
                   << config_.initial_view_px << "x"
                   << config_.initial_view_py);
  if (config_.initial_view_px != 0) {
    ST_CHECK_MSG(config_.initial_view_px >= 1 &&
                     config_.initial_view_px <= machine.grid_px() &&
                     config_.initial_view_py >= 1 &&
                     config_.initial_view_py <= machine.grid_py(),
                 "initial view " << config_.initial_view_px << "x"
                                 << config_.initial_view_py
                                 << " does not fit the machine grid "
                                 << machine.grid_px() << "x"
                                 << machine.grid_py());
    view_px_ = config_.initial_view_px;
    view_py_ = config_.initial_view_py;
  }
  for (const ResizeEvent& e : config_.resize_schedule)
    ST_CHECK_MSG(e.point >= 0 && e.px >= 1 && e.px <= machine.grid_px() &&
                     e.py >= 1 && e.py <= machine.grid_py(),
                 "resize event at point " << e.point << " to " << e.px << "x"
                                          << e.py
                                          << " does not fit the machine grid "
                                          << machine.grid_px() << "x"
                                          << machine.grid_py());
}

std::uint64_t AdaptationPipeline::state_fingerprint() const {
  Fingerprint fp;
  add_fingerprint(fp, tree_);
  add_fingerprint(fp, allocation_);
  fp.add(static_cast<std::int64_t>(current_.size()));
  for (const auto& [id, spec] : current_) {
    fp.add(id);
    add_fingerprint(fp, spec.region);
    fp.add(spec.shape.nx);
    fp.add(spec.shape.ny);
  }
  fp.add(view_px_);
  fp.add(view_py_);
  return fp.value();
}

AdaptationPipeline::PipelineState AdaptationPipeline::export_state() const {
  PipelineState state;
  state.tree = tree_;
  state.allocation = allocation_;
  state.current.reserve(current_.size());
  for (const auto& [id, spec] : current_) state.current.push_back(spec);
  state.point_index = point_index_;
  state.view_px = view_px_;
  state.view_py = view_py_;
  state.seen_faults = seen_faults_;
  state.metrics = metrics_;
  state.strategy_state = strategy_->export_state();
  state.resize_events_applied = resize_events_applied_;
  return state;
}

void AdaptationPipeline::import_state(const PipelineState& state) {
  ST_CHECK_MSG(state.point_index >= 0, "pipeline state has negative "
                                       "adaptation-point index "
                                           << state.point_index);
  ST_CHECK_MSG(state.view_px >= 1 && state.view_px <= machine_->grid_px() &&
                   state.view_py >= 1 && state.view_py <= machine_->grid_py(),
               "pipeline state view " << state.view_px << "x" << state.view_py
                                      << " does not fit the machine grid "
                                      << machine_->grid_px() << "x"
                                      << machine_->grid_py());
  ST_CHECK_MSG(state.allocation.rects().empty() ||
                   (state.allocation.grid_px() == machine_->grid_px() &&
                    state.allocation.grid_py() == machine_->grid_py()),
               "pipeline state allocation is on a "
                   << state.allocation.grid_px() << "x"
                   << state.allocation.grid_py()
                   << " grid but the machine is " << machine_->grid_px() << "x"
                   << machine_->grid_py());
  std::map<int, NestSpec> current;
  for (const NestSpec& spec : state.current) {
    ST_CHECK_MSG(current.emplace(spec.id, spec).second,
                 "pipeline state repeats nest id " << spec.id);
    ST_CHECK_MSG(state.allocation.find(spec.id).has_value(),
                 "pipeline state nest " << spec.id
                                        << " has no allocation rectangle");
  }
  ST_CHECK_MSG(current.size() == state.allocation.rects().size(),
               "pipeline state has " << current.size() << " nests but "
                                     << state.allocation.rects().size()
                                     << " allocation rectangles");
  // The same gate every commit passes through: a checkpoint can never
  // install an allocation the pipeline itself would have refused.
  if (!state.tree.empty() || !state.allocation.rects().empty())
    validate_allocation(state.tree, state.allocation,
                        Rect{0, 0, state.view_px, state.view_py});
  // Resize-schedule consistency: the checkpoint must have consumed exactly
  // the events this pipeline's schedule places before its point_index — a
  // state saved under a different schedule is refused here.
  int expected_resizes = 0;
  for (const ResizeEvent& e : config_.resize_schedule)
    if (e.point < state.point_index) ++expected_resizes;
  ST_CHECK_MSG(state.resize_events_applied == expected_resizes,
               "pipeline state consumed " << state.resize_events_applied
                                          << " resize events but the "
                                             "configured schedule has "
                                          << expected_resizes
                                          << " before point "
                                          << state.point_index);

  tree_ = state.tree;
  allocation_ = state.allocation;
  current_ = std::move(current);
  point_index_ = state.point_index;
  view_px_ = state.view_px;
  view_py_ = state.view_py;
  seen_faults_ = state.seen_faults;
  metrics_ = state.metrics;
  strategy_->import_state(state.strategy_state);
  resize_events_applied_ = state.resize_events_applied;
}

// --------------------------------------------------------------- DiffNests

void AdaptationPipeline::stage_diff_nests(PipelineContext& ctx,
                                          std::span<const NestSpec> active) {
  std::map<int, NestSpec> next;
  for (const NestSpec& n : active) {
    ST_CHECK_MSG(next.emplace(n.id, n).second,
                 "duplicate nest id " << n.id << " in active set");
    ST_CHECK_MSG(n.shape.nx > 0 && n.shape.ny > 0,
                 "nest " << n.id << " has empty shape");
  }
  for (const auto& [id, spec] : current_) {
    if (auto it = next.find(id); it != next.end())
      ctx.retained.push_back(it->second);
    else
      ctx.deleted.push_back(id);
  }
  for (const auto& [id, spec] : next)
    if (!current_.count(id)) ctx.inserted.push_back(spec);
  ctx.active.assign(active.begin(), active.end());
  std::sort(ctx.active.begin(), ctx.active.end(),
            [](const NestSpec& a, const NestSpec& b) { return a.id < b.id; });
  current_ = std::move(next);
}

// ----------------------------------------------------------- DeriveWeights

void AdaptationPipeline::stage_derive_weights(PipelineContext& ctx) const {
  // Weights are predicted execution-time ratios over the whole active set
  // (identical for both candidate methods, §IV-C).
  std::vector<NestShape> shapes;
  shapes.reserve(ctx.active.size());
  for (const NestSpec& n : ctx.active) shapes.push_back(n.shape);
  const std::vector<double> ratios =
      ctx.active.empty() ? std::vector<double>{}
                         : weight_ratios(*model_, shapes, machine_->cores());

  ctx.request.deleted = ctx.deleted;
  for (std::size_t i = 0; i < ctx.active.size(); ++i) {
    const NestWeight nw{ctx.active[i].id, ratios[i]};
    const bool is_new = std::any_of(
        ctx.inserted.begin(), ctx.inserted.end(),
        [&](const NestSpec& s) { return s.id == ctx.active[i].id; });
    (is_new ? ctx.request.inserted : ctx.request.retained).push_back(nw);
  }
}

// --------------------------------------------------------- BuildCandidates

void AdaptationPipeline::stage_build_candidates(PipelineContext& ctx,
                                                AttemptMode mode) const {
  const ScratchPartitioner scratch_p;
  const DiffusionPartitioner diffusion_p;
  std::vector<const Partitioner*> partitioners{
      static_cast<const Partitioner*>(&scratch_p)};
  // The scratch-only ladder rung drops the diffusion candidate: a fault
  // pinned to its task index (or a genuine diffusion bug) cannot fire.
  if (mode == AttemptMode::kFull) partitioners.push_back(&diffusion_p);
  // The proposals are independent: each reads the committed tree /
  // allocation (immutable here) and writes only its own candidate slot.
  // Slots (and their cost-vector capacity) survive across points; reset
  // here so a reused slot never leaks the previous point's state.
  ctx.candidates.resize(partitioners.size());
  for (PipelineCandidate& c : ctx.candidates) c.reset();
  const std::function<void(std::size_t)> guard =
      config_.injector == nullptr
          ? std::function<void(std::size_t)>{}
          : [&](std::size_t pi) {
              config_.injector->guard_task("build_candidates", pi);
            };
  // Pricing backend, in priority order: the process-wide shared cache
  // (scoped by machine fingerprint, warmed across pipelines), the
  // pipeline-private cache, or a direct computation when caching is off.
  // All three are bit-identical; only hit rates differ.
  const std::uint64_t scope =
      config_.shared_pricing != nullptr ? machine_->fingerprint() : 0;
  const auto price = [&](const NestShape& shape, const Rect& old_rect,
                         const Rect& new_rect) {
    if (!config_.pricing_cache) {
      return redistribution_cost(shape, old_rect, new_rect,
                                 machine_->grid_px(), config_.bytes_per_point,
                                 &machine_->comm());
    }
    if (config_.shared_pricing != nullptr) {
      return config_.shared_pricing->price(
          scope, shape, old_rect, new_rect, machine_->grid_px(),
          config_.bytes_per_point, &machine_->comm());
    }
    return cost_cache_.price(shape, old_rect, new_rect, machine_->grid_px(),
                             config_.bytes_per_point, &machine_->comm());
  };
  const std::function<void(std::size_t)> body = [&](std::size_t pi) {
    const Partitioner* p = partitioners[pi];
    PipelineCandidate& c = ctx.candidates[pi];
    c.name = p->name();
    c.tree = p->propose(tree_, ctx.request);
    c.alloc = allocate(c.tree, machine_->grid_px(), machine_->grid_py(),
                       view_rect());
    // Redistribution pricing: one streaming cost summary per retained nest
    // (§IV: "MPI_Alltoallv to redistribute data for each nest"), moving
    // from the committed allocation to this candidate's. Aggregates only —
    // the message matrices are materialized in the Redistribute stage, so
    // candidate pricing never allocates a Message vector.
    c.costs.reserve(ctx.retained.size());
    for (const NestSpec& nest : ctx.retained) {
      const auto old_rect = allocation_.find(nest.id);
      const auto new_rect = c.alloc.find(nest.id);
      ST_CHECK_MSG(old_rect && new_rect,
                   "retained nest " << nest.id << " missing an allocation");
      c.costs.push_back(price(nest.shape, *old_rect, *new_rect));
      c.overlap_points += c.costs.back().overlap_points;
      c.total_points += c.costs.back().total_points;
    }
  };
  resolve_executor(config_.executor)
      .parallel_for(partitioners.size(), body, guard);
}

// ------------------------------------------------------------ PredictCosts

void AdaptationPipeline::stage_predict_costs(PipelineContext& ctx) const {
  const RedistTimeModel redist_model(machine_->comm());
  const std::function<void(std::size_t)> guard =
      config_.injector == nullptr
          ? std::function<void(std::size_t)>{}
          : [&](std::size_t ci) {
              config_.injector->guard_task("predict_costs", ci);
            };
  // Candidates are priced concurrently; each candidate's accumulation stays
  // in the serial loop's floating-point order within its own slot.
  resolve_executor(config_.executor)
      .parallel_for(
          ctx.candidates.size(),
          [&](std::size_t ci) {
        PipelineCandidate& c = ctx.candidates[ci];
        // §IV-C-1: predict each retained nest's phase; phases run
        // sequentially. The streaming summaries carry the prediction terms
        // pre-accumulated in the message-list overload's exact order, so
        // this sum is bit-identical to pricing materialized plans.
        for (const RedistCostSummary& cost : c.costs)
          c.metrics.predicted_redist += redist_model.predict(cost);
        // §IV-C-2: nests run concurrently on disjoint processor rectangles,
        // so the coupled interval advances with the slowest nest. The model
        // predicts from the processor *count* — it cannot see the
        // rectangle's aspect ratio, which is precisely why dynamic
        // selection can occasionally pick the wrong method (§V-F).
        double predicted_max = 0.0;
        for (const NestSpec& nest : ctx.active) {
          const auto rect = c.alloc.find(nest.id);
          ST_CHECK_MSG(rect.has_value(),
                       "active nest " << nest.id << " missing allocation");
          predicted_max = std::max(
              predicted_max,
              model_->predict(nest.shape, static_cast<int>(rect->area())));
        }
        c.metrics.predicted_exec = config_.steps_per_interval * predicted_max;
          },
          guard);
}

// ------------------------------------------------------------------ Commit

void AdaptationPipeline::stage_commit(PipelineContext& ctx, AttemptMode mode) {
  if (config_.injector != nullptr) config_.injector->guard_task("commit", 0);
  // Scratch-only attempts commit their single candidate unconditionally:
  // the strategy's preference is moot when diffusion was not built.
  ctx.committed_index =
      mode == AttemptMode::kScratchOnly ? 0 : strategy_->decide(ctx);
  ST_CHECK_MSG(ctx.committed_index < ctx.candidates.size(),
               "strategy '" << strategy_->name()
                            << "' chose candidate index "
                            << ctx.committed_index << " of "
                            << ctx.candidates.size());
}

// ------------------------------------------------------------ Redistribute

StepOutcome AdaptationPipeline::stage_redistribute(PipelineContext& ctx) {
  const std::function<void(std::size_t)> guard =
      config_.injector == nullptr
          ? std::function<void(std::size_t)>{}
          : [&](std::size_t ci) {
              config_.injector->guard_task("redistribute", ci);
            };
  // Every candidate's phases run on the simulated network and its interval
  // is charged at ground truth — not just the committed one — so §V-F
  // experiments can judge each decision against the road not taken. The
  // candidates score concurrently (simulated network and ground truth are
  // const); committing below stays on the calling thread.
  resolve_executor(config_.executor)
      .parallel_for(
          ctx.candidates.size(),
          [&](std::size_t ci) {
        PipelineCandidate& c = ctx.candidates[ci];
        // The phases run from the still-committed allocation_ (it is not
        // replaced until after this stage), so they are exactly the moves
        // the pricing stages summarized, walked by the same sparse
        // moved-block enumeration.
        for (const NestSpec& nest : ctx.retained) {
          const auto old_rect = allocation_.find(nest.id);
          const auto new_rect = c.alloc.find(nest.id);
          ST_CHECK_MSG(old_rect && new_rect,
                       "retained nest " << nest.id
                                        << " missing an allocation");
          c.traffic += redistribution_phase(nest.shape, *old_rect, *new_rect,
                                            machine_->grid_px(),
                                            config_.bytes_per_point,
                                            machine_->comm())
                           .traffic;
        }
        c.metrics.actual_redist = c.traffic.modeled_time;
        double actual_max = 0.0;
        for (const NestSpec& nest : ctx.active) {
          const auto rect = c.alloc.find(nest.id);
          ST_CHECK_MSG(rect.has_value(),
                       "active nest " << nest.id << " missing allocation");
          actual_max = std::max(actual_max, truth_->execution_time(
                                                nest.shape, rect->w, rect->h));
        }
        c.metrics.actual_exec = config_.steps_per_interval * actual_max;
          },
          guard);

  StepOutcome out;
  if (const PipelineCandidate* s = ctx.find("scratch")) out.scratch = s->metrics;
  if (const PipelineCandidate* d = ctx.find("diffusion"))
    out.diffusion = d->metrics;
  PipelineCandidate& committed = ctx.candidates[ctx.committed_index];
  out.chosen = committed.name;
  out.committed = committed.metrics;
  out.traffic = committed.traffic;
  out.overlap_fraction =
      committed.total_points == 0
          ? 0.0
          : static_cast<double>(committed.overlap_points) /
                static_cast<double>(committed.total_points);
  out.num_deleted = static_cast<int>(ctx.deleted.size());
  out.num_retained = static_cast<int>(ctx.retained.size());
  out.num_inserted = static_cast<int>(ctx.inserted.size());
  out.allocation = committed.alloc;

  // Invariant validator gates every commit: a recovery path (or a buggy
  // partitioner) must never install a broken allocation.
  validate_allocation(committed.tree, committed.alloc, view_rect());
  metrics_.add_count("recovery.validations");

  tree_ = std::move(committed.tree);
  allocation_ = std::move(committed.alloc);
  return out;
}

// ----------------------------------------------------- rank-loss recovery

void AdaptationPipeline::recover_rank_loss(int rank) {
  metrics_.add_count("fault.rank_deaths");
  const int x = rank % machine_->grid_px();
  const int y = rank / machine_->grid_px();
  if (x >= view_px_ || y >= view_py_) {
    // Already outside the usable view (e.g. retired by an earlier death).
    metrics_.add_count("fault.rank_deaths_outside_view");
    return;
  }
  // Shrink the view to the largest origin-anchored rectangle that excludes
  // the dead rank: cut either the columns from x on, or the rows from y on,
  // whichever retires fewer processors. Rank numbering stays on the full
  // machine grid — survivors are never renumbered (the diffusion tree's
  // whole point: retained nests keep their processors).
  const std::int64_t area_keep_rows =
      static_cast<std::int64_t>(x) * view_py_;
  const std::int64_t area_keep_cols =
      static_cast<std::int64_t>(view_px_) * y;
  const Rect old_view = view_rect();
  if (area_keep_rows >= area_keep_cols)
    view_px_ = x;
  else
    view_py_ = y;
  ST_CHECK_MSG(view_px_ >= 1 && view_py_ >= 1,
               "rank-loss recovery: no usable processor view remains after "
               "rank " << rank << " died");
  ST_CHECK_MSG(view_rect().area() >=
                   static_cast<std::int64_t>(tree_.num_nests()),
               "rank-loss recovery: view " << view_rect() << " too small for "
                                           << tree_.num_nests() << " nests");
  metrics_.add_count("recovery.procs_retired",
                     old_view.area() - view_rect().area());
  // Re-subdivide the existing tree on the smaller view — structure (and
  // with it, retained nests' relative placement) is preserved, weights
  // renormalize implicitly through proportional subdivision — then move
  // only the displaced blocks.
  reallocate_on_view("recovery.rank_loss");
}

void AdaptationPipeline::reallocate_on_view(const std::string& metric_prefix) {
  if (tree_.empty()) return;
  const std::string timer_name = metric_prefix + "_redist";
  ScopedTimer t(&metrics_, timer_name);
  const Allocation old_alloc = allocation_;
  Allocation new_alloc =
      allocate(tree_, machine_->grid_px(), machine_->grid_py(), view_rect());
  validate_allocation(tree_, new_alloc, view_rect());
  // "recovery.rank_loss" -> recovery.validations (the historical counter);
  // "elastic.resize" -> elastic.validations.
  metrics_.add_count(metric_prefix.substr(0, metric_prefix.find('.')) +
                     ".validations");
  std::int64_t total_points = 0;
  std::int64_t overlap_points = 0;
  TrafficReport traffic;
  for (const auto& [nest_id, new_rect] : new_alloc.rects()) {
    const auto old_rect = old_alloc.find(nest_id);
    ST_CHECK_MSG(old_rect.has_value(),
                 "nest " << nest_id << " missing from the old allocation");
    const auto spec = current_.find(nest_id);
    ST_CHECK_MSG(spec != current_.end(),
                 "nest " << nest_id << " missing from the active map");
    const RedistMetrics moved = redistribution_phase(
        spec->second.shape, *old_rect, new_rect, machine_->grid_px(),
        config_.bytes_per_point, machine_->comm());
    traffic += moved.traffic;
    total_points += moved.total_points;
    overlap_points += moved.overlap_points;
  }
  metrics_.add_count(metric_prefix + "_total_points", total_points);
  metrics_.add_count(metric_prefix + "_overlap_points", overlap_points);
  metrics_.add_count(metric_prefix + "_moved_points",
                     total_points - overlap_points);
  allocation_ = std::move(new_alloc);
}

// ----------------------------------------------------------- malleability

void AdaptationPipeline::resize_view(int px, int py) {
  ST_CHECK_MSG(px >= 1 && px <= machine_->grid_px() && py >= 1 &&
                   py <= machine_->grid_py(),
               "resize to " << px << "x" << py
                            << " does not fit the machine grid "
                            << machine_->grid_px() << "x"
                            << machine_->grid_py());
  ST_CHECK_MSG(static_cast<std::int64_t>(px) * py >=
                   static_cast<std::int64_t>(tree_.num_nests()),
               "resize to " << px << "x" << py << " too small for "
                            << tree_.num_nests() << " committed nests");
  if (px == view_px_ && py == view_py_) return;
  const std::int64_t old_area = view_rect().area();
  const std::int64_t new_area = static_cast<std::int64_t>(px) * py;
  view_px_ = px;
  view_py_ = py;
  if (new_area > old_area) {
    metrics_.add_count("elastic.grow_events");
    metrics_.add_count("elastic.procs_added", new_area - old_area);
  } else if (new_area < old_area) {
    metrics_.add_count("elastic.shrink_events");
    metrics_.add_count("elastic.procs_retired", old_area - new_area);
  } else {
    metrics_.add_count("elastic.reshape_events");
  }
  reallocate_on_view("elastic.resize");
}

// ------------------------------------------------------------------- apply

StepOutcome AdaptationPipeline::apply_attempt(PipelineContext& ctx,
                                              std::span<const NestSpec> active,
                                              AttemptMode mode) {
  {
    ScopedTimer t(&metrics_, stage_metric_name(PipelineStage::kDiffNests));
    if (config_.injector != nullptr)
      config_.injector->guard_task("diff_nests", 0);
    stage_diff_nests(ctx, active);
  }
  {
    ScopedTimer t(&metrics_,
                  stage_metric_name(PipelineStage::kDeriveWeights));
    if (config_.injector != nullptr)
      config_.injector->guard_task("derive_weights", 0);
    stage_derive_weights(ctx);
  }
  {
    ScopedTimer t(&metrics_,
                  stage_metric_name(PipelineStage::kBuildCandidates));
    stage_build_candidates(ctx, mode);
  }
  // Incremental-pricing observability: retained nests whose root-to-leaf
  // path signature survived into a candidate tree keep their rectangles,
  // so their pricing was an identity move (and a cost-cache hit after the
  // first point). Derived purely from committed + candidate trees, so the
  // count is deterministic and resume-invariant.
  {
    std::int64_t stable = 0;
    for (const PipelineCandidate& c : ctx.candidates) {
      const std::vector<NestId> perturbed = perturbed_leaves(tree_, c.tree);
      for (const NestSpec& nest : ctx.retained)
        if (!std::binary_search(perturbed.begin(), perturbed.end(), nest.id))
          ++stable;
    }
    metrics_.add_count("pipeline.stable_subtrees", stable);
  }
  {
    ScopedTimer t(&metrics_, stage_metric_name(PipelineStage::kPredictCosts));
    stage_predict_costs(ctx);
  }
  {
    ScopedTimer t(&metrics_, stage_metric_name(PipelineStage::kCommit));
    stage_commit(ctx, mode);
  }
  StepOutcome out;
  {
    ScopedTimer t(&metrics_, stage_metric_name(PipelineStage::kRedistribute));
    out = stage_redistribute(ctx);
  }
  metrics_.add_count("pipeline.candidates_built",
                     static_cast<std::int64_t>(ctx.candidates.size()));
  metrics_.add_count("pipeline.redist_plans",
                     static_cast<std::int64_t>(ctx.retained.size()) *
                         static_cast<std::int64_t>(ctx.candidates.size()));
  metrics_.add_count("pipeline.cost_queries",
                     static_cast<std::int64_t>(ctx.retained.size()) *
                         static_cast<std::int64_t>(ctx.candidates.size()));
  return out;
}

StepOutcome AdaptationPipeline::apply(std::span<const NestSpec> active) {
  // Cancellation is polled here, outside the transaction and the ladder:
  // a cancelled run aborts between committed adaptation points and the
  // pipeline state stays exactly the last committed one (resumable from
  // the newest checkpoint).
  if (config_.cancel != nullptr) config_.cancel->check();
  Executor& exec = resolve_executor(config_.executor);
  const ExecutorStats exec_before = exec.stats();
  FaultInjector* const injector = config_.injector;
  const int point = point_index_++;

  // Scheduled malleability runs before anything else at this point (in
  // particular before fault injection, so a death lands on the resized
  // view). Events replay identically after a checkpoint resume: the
  // restored point_index skips exactly the events already consumed.
  for (const ResizeEvent& e : config_.resize_schedule)
    if (e.point == point) {
      resize_view(e.px, e.py);
      ++resize_events_applied_;
    }

  StepOutcome out;
  if (injector == nullptr) {
    // No fault schedule: exactly the pre-fault behavior — one attempt,
    // exceptions propagate to the caller. The context is reused scratch:
    // reset() keeps its buffers' capacity across adaptation points.
    ctx_.reset();
    out = apply_attempt(ctx_, active, AttemptMode::kFull);
  } else {
    injector->begin_point(point);
    for (const int rank : injector->ranks_dying_at(point)) {
      recover_rank_loss(rank);
      ++out.ranks_lost;
    }
    const int ranks_lost = out.ranks_lost;

    // Transactional snapshot: any failed attempt restores it, so a rolled-
    // back point is byte-identical to the pre-adaptation state.
    const AllocTree tree_snapshot = tree_;
    const Allocation alloc_snapshot = allocation_;
    const std::map<int, NestSpec> current_snapshot = current_;

    // Degradation ladder: full attempt; full retry (transient fault
    // budgets drain between attempts); scratch-only; retain + skip.
    struct Rung {
      AttemptMode mode;
      const char* label;   // StepOutcome::degradation; "" = clean
      const char* metric;  // recovery.* counter; nullptr = none
    };
    constexpr Rung kLadder[] = {
        {AttemptMode::kFull, "", nullptr},
        {AttemptMode::kFull, "retried", "recovery.retried_points"},
        {AttemptMode::kScratchOnly, "scratch_only",
         "recovery.scratch_fallbacks"},
    };
    bool committed = false;
    for (const Rung& rung : kLadder) {
      ctx_.reset();
      try {
        out = apply_attempt(ctx_, active, rung.mode);
        out.ranks_lost = ranks_lost;
        if (rung.label[0] != '\0') {
          out.degraded = true;
          out.degradation = rung.label;
        }
        if (rung.metric != nullptr) metrics_.add_count(rung.metric);
        committed = true;
        break;
      } catch (const std::exception&) {
        tree_ = tree_snapshot;
        allocation_ = alloc_snapshot;
        current_ = current_snapshot;
        metrics_.add_count("recovery.rollbacks");
      }
    }
    if (!committed) {
      // Bottom of the ladder: keep the previous allocation, skip the point.
      out = StepOutcome{};
      out.chosen = "retained";
      out.degraded = true;
      out.degradation = "retained_previous";
      out.ranks_lost = ranks_lost;
      out.allocation = allocation_;
      metrics_.add_count("recovery.skipped_points");
    }

    // Injection observability: counter deltas since the last apply().
    const FaultInjectorStats now = injector->stats();
    metrics_.add_count("fault.split_read_faults",
                       now.split_read_faults - seen_faults_.split_read_faults);
    metrics_.add_count("fault.payload_drops",
                       now.payload_drops - seen_faults_.payload_drops);
    metrics_.add_count(
        "fault.payload_corruptions",
        now.payload_corruptions - seen_faults_.payload_corruptions);
    metrics_.add_count("fault.task_faults",
                       now.task_faults - seen_faults_.task_faults);
    seen_faults_ = now;
  }

  metrics_.add_count("pipeline.adaptation_points");
  // Executor observability: batches/tasks the pool completed and the wall
  // time its threads spent inside task bodies while this adaptation point
  // ran. On a pipeline-private executor these are exactly this point's
  // submissions; on a shared pool (a sweep) they are pool-wide — occupancy
  // of the machine, not of this case. Timings/counters are reported, never
  // fed back, so results stay deterministic either way.
  const ExecutorStats exec_after = exec.stats();
  metrics_.add_count("exec.pool_batches",
                     exec_after.batches - exec_before.batches);
  metrics_.add_count("exec.pool_tasks", exec_after.tasks - exec_before.tasks);
  metrics_.add_time("exec.pool_busy",
                    exec_after.busy_seconds - exec_before.busy_seconds);
  return out;
}

}  // namespace stormtrack
