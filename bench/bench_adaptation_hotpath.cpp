/// \file bench_adaptation_hotpath.cpp
/// Candidate-pricing throughput of the adaptation hot path: the streaming
/// redistribution-cost walk (redistribution_cost + RedistTimeModel) plus
/// the memoized execution-time model, at 64–4096 BG/L ranks and 1–8 nests.
///
/// This is the perf-regression anchor for the allocation-free pricing
/// path. Besides advisory wall times (1-CPU CI runners make wall time too
/// noisy to gate on), every row pins *deterministic* counters that the CI
/// perf-smoke job diffs against bench/baselines/BENCH_adaptation.json via
/// tools/check_bench_regression.py:
///
///   counter_cost_queries            streaming pricings performed
///   counter_plans_built             RedistPlan materializations — must
///                                   stay 0 in the pricing loop
///   counter_messages_materialized   Message structs pushed — must stay 0
///   counter_intersection_probes     interval-index bisection steps
///   counter_moved_blocks            off-rank blocks enumerated
///   counter_exec_lookups            ExecTimeModel::predict calls
///   counter_exec_misses             cold interpolations (cache misses)
///
/// A regression that reintroduces message-vector materialization into
/// pricing, or defeats the exec-model memo cache, moves these counters far
/// beyond the 25% gate even when wall time hides it.
///
/// A second, extreme-scale section prices at 65536–1048576 ranks on all
/// four topology models (rows "topo=<name>/ranks=<P>", pricing-only, no
/// exec model). Those rows pin the same counters AND assert in-binary
/// (CheckError -> nonzero exit) that intersection probes stay sub-linear
/// in the rank count — the dense sender×receiver walk this path replaced
/// was Ω(P) per query, so quadratic behaviour cannot sneak past the drift
/// gate.
///
/// A third section runs redistribution phases at 1024 and 16384 BG/L ranks
/// (rows "phase/ranks=<P>"): the streamed redistribution_phase against the
/// materialized plan_redistribution + SimComm::alltoallv it replaced. The
/// rows pin counter_plans_built = counter_messages_materialized = 0 over
/// the streamed loop, and assert in-binary that both paths agree bit for
/// bit on every move and that the streamed one is at least 2x faster,
/// timed in this process.

#include <algorithm>
#include <bit>
#include <chrono>
#include <cstdint>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/experiment.hpp"
#include "core/machine.hpp"
#include "perfmodel/redist_model.hpp"
#include "redist/redistributor.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

namespace stormtrack {
namespace {

/// One retained nest at one adaptation point: price moving `shape` from
/// `old_rect` to `new_rect`.
struct PricingCase {
  NestShape shape;
  Rect old_rect;
  Rect new_rect;
};

Rect random_rect(Xoshiro256& rng, int px, int py) {
  const int w = static_cast<int>(rng.uniform_int(1, px));
  const int h = static_cast<int>(rng.uniform_int(1, py));
  const int x = static_cast<int>(rng.uniform_int(0, px - w));
  const int y = static_cast<int>(rng.uniform_int(0, py - h));
  return Rect{x, y, w, h};
}

/// The pricing workload of `points` adaptation points over `nests` nests.
/// Shapes and rects recur across points (a pool, like real traces where
/// the same nests persist between events) so the exec-model cache sees the
/// recurrence it is built for; everything is drawn from a fixed-seed
/// Xoshiro so the counter fields are bit-deterministic across runs and
/// machines.
std::vector<PricingCase> make_workload(int points, int nests, int px, int py,
                                       std::uint64_t seed) {
  Xoshiro256 rng(seed);
  const int pool_size = 4 * nests;
  std::vector<NestShape> shapes;
  shapes.reserve(static_cast<std::size_t>(pool_size));
  for (int i = 0; i < pool_size; ++i)
    shapes.push_back(NestShape{static_cast<int>(rng.uniform_int(100, 450)),
                               static_cast<int>(rng.uniform_int(100, 450))});
  std::vector<std::pair<Rect, Rect>> moves;
  moves.reserve(16);
  for (int i = 0; i < 16; ++i)
    moves.emplace_back(random_rect(rng, px, py), random_rect(rng, px, py));

  std::vector<PricingCase> out;
  out.reserve(static_cast<std::size_t>(points) *
              static_cast<std::size_t>(nests));
  for (int p = 0; p < points; ++p)
    for (int n = 0; n < nests; ++n) {
      const auto& [old_rect, new_rect] =
          moves[static_cast<std::size_t>((p * 5 + n * 3) % 16)];
      out.push_back(PricingCase{
          shapes[static_cast<std::size_t>((p + n) % pool_size)], old_rect,
          new_rect});
    }
  return out;
}

struct RowResult {
  double wall_seconds = 0.0;
  std::int64_t cases = 0;
  RedistCounters redist;          ///< Deltas over the pricing loop.
  ExecModelCacheStats exec;
  double checksum = 0.0;          ///< Defeats dead-code elimination.
};

RowResult run_config(int ranks, int nests) {
  const Machine machine = Machine::bluegene(ranks);
  const RedistTimeModel redist_model(machine.comm());
  // Fresh model per row: the exec lookup/miss counters of each row are
  // independent of the row execution order.
  const ModelStack models;

  constexpr int kPoints = 192;
  constexpr int kRepeats = 3;
  const std::vector<PricingCase> workload =
      make_workload(kPoints, nests, machine.grid_px(), machine.grid_py(),
                    0x9e3779b9ULL ^ (static_cast<std::uint64_t>(ranks) << 8) ^
                        static_cast<std::uint64_t>(nests));

  RowResult row;
  const RedistCounters before = redist_counters();
  const auto t0 = std::chrono::steady_clock::now();
  for (int r = 0; r < kRepeats; ++r)
    for (const PricingCase& c : workload) {
      const RedistCostSummary cost = redistribution_cost(
          c.shape, c.old_rect, c.new_rect, machine.grid_px(),
          kDefaultBytesPerPoint, &machine.comm());
      row.checksum += redist_model.predict(cost);
      row.checksum += models.model.predict(
          c.shape, static_cast<int>(c.new_rect.area()));
    }
  const auto t1 = std::chrono::steady_clock::now();
  const RedistCounters after = redist_counters();

  row.wall_seconds = std::chrono::duration<double>(t1 - t0).count();
  row.cases = static_cast<std::int64_t>(workload.size()) * kRepeats;
  row.redist.cost_queries = after.cost_queries - before.cost_queries;
  row.redist.plans_built = after.plans_built - before.plans_built;
  row.redist.messages_materialized =
      after.messages_materialized - before.messages_materialized;
  row.redist.message_bytes_materialized =
      after.message_bytes_materialized - before.message_bytes_materialized;
  row.redist.intersection_probes =
      after.intersection_probes - before.intersection_probes;
  row.redist.moved_blocks_enumerated =
      after.moved_blocks_enumerated - before.moved_blocks_enumerated;
  row.exec = models.model.cache_stats();
  return row;
}

// ------------------------------------------------- extreme-scale section

/// Pricing-only row at extreme rank counts: no exec model, no plans — the
/// sparse interval-index walk is the only per-candidate work that survives
/// at this scale.
RowResult run_extreme(const std::string& topo, int ranks) {
  const Machine machine = Machine::by_name(topo, ranks);
  constexpr int kQueries = 24;
  const std::vector<PricingCase> workload =
      make_workload(kQueries, 1, machine.grid_px(), machine.grid_py(),
                    0x5ca1ab1eULL ^ (static_cast<std::uint64_t>(ranks) << 4) ^
                        static_cast<std::uint64_t>(topo.size()));

  RowResult row;
  const RedistCounters before = redist_counters();
  const auto t0 = std::chrono::steady_clock::now();
  for (const PricingCase& c : workload) {
    const RedistCostSummary cost = redistribution_cost(
        c.shape, c.old_rect, c.new_rect, machine.grid_px(),
        kDefaultBytesPerPoint, &machine.comm());
    row.checksum += static_cast<double>(cost.hop_bytes) +
                    cost.worst_pair_time + cost.worst_sender_time;
  }
  const auto t1 = std::chrono::steady_clock::now();
  const RedistCounters after = redist_counters();

  row.wall_seconds = std::chrono::duration<double>(t1 - t0).count();
  row.cases = static_cast<std::int64_t>(workload.size());
  row.redist.cost_queries = after.cost_queries - before.cost_queries;
  row.redist.plans_built = after.plans_built - before.plans_built;
  row.redist.messages_materialized =
      after.messages_materialized - before.messages_materialized;
  row.redist.intersection_probes =
      after.intersection_probes - before.intersection_probes;
  row.redist.moved_blocks_enumerated =
      after.moved_blocks_enumerated - before.moved_blocks_enumerated;

  // The scaling gate: grid-spanning rects probe O((w + h) · log P) — far
  // below one probe per rank. Linear (let alone quadratic) behaviour
  // trips this long before the counter-drift gate would notice.
  const double per_query = static_cast<double>(row.redist.intersection_probes) /
                           static_cast<double>(row.redist.cost_queries);
  ST_CHECK_MSG(per_query < static_cast<double>(ranks),
               topo << " at " << ranks << " ranks: " << per_query
                    << " probes/query is not sub-linear in the rank count");
  return row;
}

// ----------------------------------------------- redistribute-phase section

struct PhaseRow {
  RowResult streamed;           ///< Counters over one streamed pass.
  double reference_seconds = 0.0;
  std::int64_t messages = 0;    ///< Off-rank messages per timed pass.
  double speedup = 0.0;
};

template <typename Pass>
double seconds_of(Pass&& pass) {
  const auto t0 = std::chrono::steady_clock::now();
  pass();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

PhaseRow run_phases(int ranks) {
  const Machine machine = Machine::bluegene(ranks);
  const SimComm& comm = machine.comm();
  constexpr int kPhases = 32;
  constexpr int kRounds = 7;
  const std::vector<PricingCase> workload =
      make_workload(kPhases, 1, machine.grid_px(), machine.grid_py(),
                    0x9a5e5ULL ^ (static_cast<std::uint64_t>(ranks) << 4));

  PhaseRow row;
  std::int64_t workload_messages = 0;
  // Bit-identity first, outside the timed passes.
  for (const PricingCase& c : workload) {
    const RedistPlan plan =
        plan_redistribution(c.shape, c.old_rect, c.new_rect,
                            machine.grid_px(), kDefaultBytesPerPoint);
    const TrafficReport want = comm.alltoallv(plan.messages);
    const RedistMetrics got =
        redistribution_phase(c.shape, c.old_rect, c.new_rect,
                             machine.grid_px(), kDefaultBytesPerPoint, comm);
    ST_CHECK_MSG(
        std::bit_cast<std::uint64_t>(got.traffic.modeled_time) ==
                std::bit_cast<std::uint64_t>(want.modeled_time) &&
            got.traffic.total_bytes == want.total_bytes &&
            got.traffic.hop_bytes == want.hop_bytes &&
            got.traffic.local_bytes == want.local_bytes &&
            got.traffic.num_messages == want.num_messages &&
            got.traffic.max_hops == want.max_hops &&
            got.overlap_points == plan.overlap_points &&
            got.total_points == plan.total_points,
        "streamed phase differs from plan + alltoallv at " << ranks
            << " ranks: " << c.old_rect << " -> " << c.new_rect);
    workload_messages += want.num_messages;
  }

  // A timed pass runs the workload often enough to move ~400k messages,
  // so short passes at 1024 ranks are not lost in timer and cache noise.
  const std::int64_t repeats = std::max<std::int64_t>(
      1, 400'000 / std::max<std::int64_t>(1, workload_messages));
  row.messages = workload_messages * repeats;
  const auto streamed_pass = [&] {
    for (std::int64_t r = 0; r < repeats; ++r)
      for (const PricingCase& c : workload)
        row.streamed.checksum +=
            redistribution_phase(c.shape, c.old_rect, c.new_rect,
                                 machine.grid_px(), kDefaultBytesPerPoint,
                                 comm)
                .traffic.modeled_time;
  };
  const auto reference_pass = [&] {
    for (std::int64_t r = 0; r < repeats; ++r)
      for (const PricingCase& c : workload)
        row.streamed.checksum -=
            comm.alltoallv(plan_redistribution(c.shape, c.old_rect,
                                               c.new_rect, machine.grid_px(),
                                               kDefaultBytesPerPoint)
                               .messages)
                .modeled_time;
  };

  const RedistCounters before = redist_counters();
  streamed_pass();
  const RedistCounters after = redist_counters();
  row.streamed.cases = static_cast<std::int64_t>(workload.size()) * repeats;
  row.streamed.redist.phases_executed =
      after.phases_executed - before.phases_executed;
  row.streamed.redist.plans_built = after.plans_built - before.plans_built;
  row.streamed.redist.messages_materialized =
      after.messages_materialized - before.messages_materialized;
  row.streamed.redist.cost_queries = after.cost_queries - before.cost_queries;
  ST_CHECK_MSG(row.streamed.redist.plans_built == 0 &&
                   row.streamed.redist.messages_materialized == 0 &&
                   row.streamed.redist.cost_queries == 0,
               "streamed phases built plans, messages or pricings");

  // Alternate the two sides so both see the same host conditions, and keep
  // each side's fastest round: the one the rest of the host disturbed least.
  double streamed_best = seconds_of(streamed_pass);
  double reference_best = seconds_of(reference_pass);
  for (int r = 1; r < kRounds; ++r) {
    streamed_best = std::min(streamed_best, seconds_of(streamed_pass));
    reference_best = std::min(reference_best, seconds_of(reference_pass));
  }
  row.streamed.wall_seconds = streamed_best;
  row.reference_seconds = reference_best;
  row.speedup = reference_best / streamed_best;
  ST_CHECK_MSG(row.speedup >= 2.0,
               "streamed phases at " << ranks << " ranks are only "
                                     << row.speedup
                                     << "x faster than plan + alltoallv");
  return row;
}

}  // namespace
}  // namespace stormtrack

int main(int argc, char** argv) {
  using namespace stormtrack;

  constexpr int kRanks[] = {64, 256, 1024, 4096};
  constexpr int kNests[] = {1, 2, 4, 8};

  bench::JsonSummary summary("adaptation_hotpath");
  Table table({"Ranks", "Nests", "Pricings", "Wall (ms)", "Pricings/s",
               "Plans built", "Exec hit rate"});
  table.set_title(
      "Candidate-pricing throughput (streaming cost + memoized exec model)");

  for (const int ranks : kRanks)
    for (const int nests : kNests) {
      const RowResult row = run_config(ranks, nests);
      const double per_second =
          row.wall_seconds > 0.0
              ? static_cast<double>(row.cases) / row.wall_seconds
              : 0.0;
      table.add_row({std::to_string(ranks), std::to_string(nests),
                     std::to_string(row.cases),
                     Table::num(row.wall_seconds * 1e3, 2),
                     Table::num(per_second, 0),
                     std::to_string(row.redist.plans_built),
                     Table::num(row.exec.hit_rate(), 3)});
      summary
          .add_row("ranks=" + std::to_string(ranks) +
                       "/nests=" + std::to_string(nests),
                   row.wall_seconds, 1, row.cases)
          .add_field("counter_cost_queries",
                     static_cast<double>(row.redist.cost_queries))
          .add_field("counter_plans_built",
                     static_cast<double>(row.redist.plans_built))
          .add_field("counter_messages_materialized",
                     static_cast<double>(row.redist.messages_materialized))
          .add_field("counter_intersection_probes",
                     static_cast<double>(row.redist.intersection_probes))
          .add_field("counter_moved_blocks",
                     static_cast<double>(
                         row.redist.moved_blocks_enumerated))
          .add_field("counter_exec_lookups",
                     static_cast<double>(row.exec.lookups))
          .add_field("counter_exec_misses",
                     static_cast<double>(row.exec.misses))
          .add_field("pricings_per_second", per_second)
          .add_field("checksum", row.checksum);
    }

  table.print(std::cout);

  const std::string kTopos[] = {"bgl", "fist", "dragonfly", "fattree"};
  constexpr int kExtremeRanks[] = {65536, 262144, 1048576};
  Table extreme({"Topology", "Ranks", "Queries", "Wall (ms)",
                 "Probes/query", "Blocks/query", "Plans built"});
  extreme.set_title(
      "Extreme-scale pricing (interval-index only, 65k-1M ranks)");
  for (const std::string& topo : kTopos) {
    double probes_at_min = 0.0;
    for (const int ranks : kExtremeRanks) {
      const RowResult row = run_extreme(topo, ranks);
      const double probes_per_query =
          static_cast<double>(row.redist.intersection_probes) /
          static_cast<double>(row.redist.cost_queries);
      if (ranks == kExtremeRanks[0]) probes_at_min = probes_per_query;
      // Axis extents grow 4x over the sweep; probes grow ~ axis · log
      // axis. A 16x jump would mean the index degenerated to a scan.
      ST_CHECK_MSG(probes_per_query <= 8.0 * probes_at_min,
                   topo << " probe growth " << probes_at_min << " -> "
                        << probes_per_query
                        << " across the rank sweep is super-logarithmic");
      extreme.add_row(
          {topo, std::to_string(ranks), std::to_string(row.cases),
           Table::num(row.wall_seconds * 1e3, 2),
           Table::num(probes_per_query, 1),
           Table::num(static_cast<double>(
                          row.redist.moved_blocks_enumerated) /
                          static_cast<double>(row.redist.cost_queries),
                      0),
           std::to_string(row.redist.plans_built)});
      summary
          .add_row("topo=" + topo + "/ranks=" + std::to_string(ranks),
                   row.wall_seconds, 1, row.cases)
          .add_field("counter_cost_queries",
                     static_cast<double>(row.redist.cost_queries))
          .add_field("counter_plans_built",
                     static_cast<double>(row.redist.plans_built))
          .add_field("counter_messages_materialized",
                     static_cast<double>(row.redist.messages_materialized))
          .add_field("counter_intersection_probes",
                     static_cast<double>(row.redist.intersection_probes))
          .add_field("counter_moved_blocks",
                     static_cast<double>(
                         row.redist.moved_blocks_enumerated))
          .add_field("probes_per_query", probes_per_query)
          .add_field("checksum", row.checksum);
    }
  }
  extreme.print(std::cout);

  constexpr int kPhaseRanks[] = {1024, 16384};
  Table phases({"Ranks", "Phases", "Messages", "Streamed (ms)",
                "Plan+alltoallv (ms)", "Speedup", "Plans built"});
  phases.set_title(
      "Redistribute phases: streamed walk vs plan + alltoallv (best of 7)");
  for (const int ranks : kPhaseRanks) {
    const PhaseRow row = run_phases(ranks);
    phases.add_row({std::to_string(ranks), std::to_string(row.streamed.cases),
                    std::to_string(row.messages),
                    Table::num(row.streamed.wall_seconds * 1e3, 2),
                    Table::num(row.reference_seconds * 1e3, 2),
                    Table::num(row.speedup, 1),
                    std::to_string(row.streamed.redist.plans_built)});
    summary
        .add_row("phase/ranks=" + std::to_string(ranks),
                 row.streamed.wall_seconds, 1, row.streamed.cases)
        .add_field("counter_phases_executed",
                   static_cast<double>(row.streamed.redist.phases_executed))
        .add_field("counter_plans_built",
                   static_cast<double>(row.streamed.redist.plans_built))
        .add_field("counter_messages_materialized",
                   static_cast<double>(
                       row.streamed.redist.messages_materialized))
        .add_field("counter_phase_messages",
                   static_cast<double>(row.messages))
        .add_field("reference_wall_seconds", row.reference_seconds)
        .add_field("speedup_vs_plan", row.speedup)
        .add_field("checksum", row.streamed.checksum);
  }
  phases.print(std::cout);

  std::cout << "Pricing and phases must build zero plans and materialize "
               "zero messages\n(counters above); wall times are advisory, "
               "the counter_* fields are the\nregression gate. The "
               "extreme-scale rows additionally assert sub-linear probe\n"
               "growth in-binary, the phase rows bit-identity with plan + "
               "alltoallv and a\n>= 2x speedup over it.\n";

  if (const auto path = bench::json_output_path(argc, argv))
    summary.write(*path);
  return 0;
}
