/// Bit-identity of the streamed redistribution phase: on seeded random
/// moves across all four interconnect models, redistribution_phase() must
/// equal the materialized path — SimComm::alltoallv over
/// plan_redistribution()'s message list, plus the plan's point accounting —
/// on every TrafficReport field, modeled_time compared as bits. The cases
/// include identity moves, grow / shrink / reshape moves, and nests
/// narrower than their processor rectangle, whose decompositions have
/// empty blocks.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <string>

#include "core/machine.hpp"
#include "redist/redistributor.hpp"
#include "util/rng.hpp"

namespace stormtrack {
namespace {

void expect_phase_matches_plan(const NestShape& nest, const Rect& a,
                               const Rect& b, int bpp,
                               const Machine& machine) {
  const SimComm& comm = machine.comm();
  const RedistPlan plan =
      plan_redistribution(nest, a, b, machine.grid_px(), bpp);
  const TrafficReport want = comm.alltoallv(plan.messages);
  const RedistMetrics got =
      redistribution_phase(nest, a, b, machine.grid_px(), bpp, comm);
  SCOPED_TRACE(::testing::Message()
               << machine.label() << " nest " << nest.nx << "x" << nest.ny
               << " " << a << " -> " << b);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(got.traffic.modeled_time),
            std::bit_cast<std::uint64_t>(want.modeled_time))
      << got.traffic.modeled_time << " vs " << want.modeled_time;
  EXPECT_EQ(got.traffic.total_bytes, want.total_bytes);
  EXPECT_EQ(got.traffic.hop_bytes, want.hop_bytes);
  EXPECT_EQ(got.traffic.local_bytes, want.local_bytes);
  EXPECT_EQ(got.traffic.num_messages, want.num_messages);
  EXPECT_EQ(got.traffic.max_hops, want.max_hops);
  EXPECT_EQ(got.total_points, plan.total_points);
  EXPECT_EQ(got.overlap_points, plan.overlap_points);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(got.overlap_fraction),
            std::bit_cast<std::uint64_t>(plan.overlap_fraction()));
}

Rect random_rect(Xoshiro256& rng, int grid_px, int grid_py) {
  const int w = static_cast<int>(rng.uniform_int(1, grid_px));
  const int h = static_cast<int>(rng.uniform_int(1, grid_py));
  return Rect{static_cast<int>(rng.uniform_int(0, grid_px - w)),
              static_cast<int>(rng.uniform_int(0, grid_py - h)), w, h};
}

/// \p r grown (or shrunk, for negative deltas) at its far edges, clamped to
/// the grid and to at least one processor per side.
Rect resized(const Rect& r, int dw, int dh, int grid_px, int grid_py) {
  Rect out = r;
  out.w = std::clamp(r.w + dw, 1, grid_px - r.x);
  out.h = std::clamp(r.h + dh, 1, grid_py - r.y);
  return out;
}

/// Same origin, roughly the same processor count, another aspect ratio.
Rect reshaped(const Rect& r, int grid_px, int grid_py) {
  Rect out = r;
  out.w = std::clamp(r.h, 1, grid_px - r.x);
  out.h = std::clamp(r.w, 1, grid_py - r.y);
  return out;
}

void sweep_machine(const Machine& machine, std::uint64_t seed) {
  const int px = machine.grid_px();
  const int py = machine.grid_py();
  Xoshiro256 rng(seed);
  for (int trial = 0; trial < 24; ++trial) {
    // Every third nest is narrower than the grid, so rectangles wider or
    // taller than the nest leave some processors an empty block.
    const bool narrow = trial % 3 == 0;
    const NestShape nest{
        static_cast<int>(narrow ? rng.uniform_int(1, px - 1)
                                : rng.uniform_int(20, 361)),
        static_cast<int>(narrow ? rng.uniform_int(1, py)
                                : rng.uniform_int(20, 361))};
    const Rect a = random_rect(rng, px, py);
    const int bpp = trial % 2 == 0 ? 8 : kDefaultBytesPerPoint;
    expect_phase_matches_plan(nest, a, random_rect(rng, px, py), bpp,
                              machine);
    expect_phase_matches_plan(nest, a, a, bpp, machine);  // identity
    expect_phase_matches_plan(nest, a, resized(a, 3, 2, px, py), bpp,
                              machine);  // grow
    expect_phase_matches_plan(nest, a, resized(a, -2, -3, px, py), bpp,
                              machine);  // shrink
    expect_phase_matches_plan(nest, a, reshaped(a, px, py), bpp, machine);
  }
}

class StreamPhaseSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(StreamPhaseSweep, MatchesPlanOnTorus) {
  sweep_machine(Machine::bluegene(256), GetParam());
}

TEST_P(StreamPhaseSweep, MatchesPlanOnSwitched) {
  sweep_machine(Machine::fist_cluster(128), GetParam() + 11);
}

TEST_P(StreamPhaseSweep, MatchesPlanOnDragonfly) {
  sweep_machine(Machine::dragonfly(256), GetParam() + 23);
}

TEST_P(StreamPhaseSweep, MatchesPlanOnFatTree) {
  sweep_machine(Machine::fattree(192), GetParam() + 37);
}

// 3 seeds × 4 topologies × 24 trials × 5 moves = 1440 equivalence cases.
INSTANTIATE_TEST_SUITE_P(Seeds, StreamPhaseSweep,
                         ::testing::Values(0x5eedULL, 0xc0ffeeULL,
                                           0x7e57ab1eULL));

TEST(StreamPhase, NestNarrowerThanBothRectangles) {
  // 3x2 points over 8x6 and 5x7 processor rectangles: most blocks on both
  // sides are empty.
  const Machine machine = Machine::bluegene(256);
  expect_phase_matches_plan(NestShape{3, 2}, Rect{0, 0, 8, 6},
                            Rect{4, 3, 5, 7}, 8, machine);
  expect_phase_matches_plan(NestShape{1, 1}, Rect{2, 2, 4, 4},
                            Rect{0, 0, 16, 16}, 8, machine);
}

TEST(StreamPhase, BumpsOnlyPhasesExecuted) {
  const Machine machine = Machine::bluegene(256);
  const RedistCounters before = redist_counters();
  (void)redistribution_phase(NestShape{120, 90}, Rect{0, 0, 6, 5},
                             Rect{3, 2, 7, 4}, machine.grid_px(), 8,
                             machine.comm());
  const RedistCounters after = redist_counters();
  EXPECT_EQ(after.phases_executed, before.phases_executed + 1);
  EXPECT_EQ(after.plans_built, before.plans_built);
  EXPECT_EQ(after.messages_materialized, before.messages_materialized);
  EXPECT_EQ(after.cost_queries, before.cost_queries);
  EXPECT_EQ(after.intersection_probes, before.intersection_probes);
  EXPECT_EQ(after.moved_blocks_enumerated, before.moved_blocks_enumerated);
}

TEST(StreamPhase, RedistributorRunsTheStreamedPhase) {
  const Machine machine = Machine::fattree(192);
  const Redistributor redist(machine.comm(), 16);
  const NestShape nest{200, 150};
  const Rect a{1, 1, 6, 4};
  const Rect b{2, 0, 5, 6};
  const RedistMetrics via_class = redist.redistribute(nest, a, b,
                                                      machine.grid_px());
  const RedistMetrics direct = redistribution_phase(
      nest, a, b, machine.grid_px(), 16, machine.comm());
  EXPECT_EQ(std::bit_cast<std::uint64_t>(via_class.traffic.modeled_time),
            std::bit_cast<std::uint64_t>(direct.traffic.modeled_time));
  EXPECT_EQ(via_class.traffic.hop_bytes, direct.traffic.hop_bytes);
  EXPECT_EQ(via_class.overlap_points, direct.overlap_points);
}

}  // namespace
}  // namespace stormtrack
