#include "redist/redistributor.hpp"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

#include "redist/interval_index.hpp"
#include "util/check.hpp"

namespace stormtrack {

namespace detail {

RedistCounterState& redist_counter_state() {
  static RedistCounterState state;
  return state;
}

}  // namespace detail

RedistCounters redist_counters() {
  const auto& s = detail::redist_counter_state();
  RedistCounters out;
  out.plans_built = s.plans_built.load(std::memory_order_relaxed);
  out.messages_materialized =
      s.messages_materialized.load(std::memory_order_relaxed);
  out.message_bytes_materialized =
      out.messages_materialized * static_cast<std::int64_t>(sizeof(Message));
  out.cost_queries = s.cost_queries.load(std::memory_order_relaxed);
  out.intersection_probes =
      s.intersection_probes.load(std::memory_order_relaxed);
  out.moved_blocks_enumerated =
      s.moved_blocks_enumerated.load(std::memory_order_relaxed);
  out.cost_cache_hits = s.cost_cache_hits.load(std::memory_order_relaxed);
  out.cost_cache_misses = s.cost_cache_misses.load(std::memory_order_relaxed);
  out.phases_executed = s.phases_executed.load(std::memory_order_relaxed);
  return out;
}

std::int64_t count_redist_messages(const NestShape& nest, const Rect& old_rect,
                                   const Rect& new_rect, int grid_px) {
  // The decomposition is a tensor product of independent column and row
  // splits, so (sender block, receiver block) pairs with a non-empty
  // intersection factor into intersecting column-block pairs × intersecting
  // row-block pairs. The constructions validate the arguments exactly as
  // the fill loops would.
  [[maybe_unused]] const BlockDecomposition old_d(nest, old_rect, grid_px);
  [[maybe_unused]] const BlockDecomposition new_d(nest, new_rect, grid_px);
  std::int64_t col_pairs = 0;
  for (int i = 0; i < old_rect.w; ++i) {
    const Span1D span = block_range(i, nest.nx, old_rect.w);
    if (span.count == 0) continue;
    const PartRange r =
        overlapping_parts(span.begin, span.end(), nest.nx, new_rect.w);
    col_pairs += r.last - r.first + 1;
  }
  std::int64_t row_pairs = 0;
  for (int j = 0; j < old_rect.h; ++j) {
    const Span1D span = block_range(j, nest.ny, old_rect.h);
    if (span.count == 0) continue;
    const PartRange r =
        overlapping_parts(span.begin, span.end(), nest.ny, new_rect.h);
    row_pairs += r.last - r.first + 1;
  }
  return col_pairs * row_pairs;
}

RedistPlan plan_redistribution(const NestShape& nest, const Rect& old_rect,
                               const Rect& new_rect, int grid_px,
                               int bytes_per_point) {
  ST_CHECK_MSG(bytes_per_point > 0, "bytes_per_point must be positive");
  RedistPlan plan;
  plan.total_points = static_cast<std::int64_t>(nest.nx) * nest.ny;
  plan.messages.reserve(static_cast<std::size_t>(
      count_redist_messages(nest, old_rect, new_rect, grid_px)));

  for_each_redist_block(
      nest, old_rect, new_rect, grid_px,
      [&](int sender, int receiver, const Rect& inter) {
        plan.messages.push_back(
            Message{sender, receiver, inter.area() * bytes_per_point});
        if (sender == receiver) plan.overlap_points += inter.area();
      });

  auto& counters = detail::redist_counter_state();
  counters.plans_built.fetch_add(1, std::memory_order_relaxed);
  counters.messages_materialized.fetch_add(
      static_cast<std::int64_t>(plan.messages.size()),
      std::memory_order_relaxed);
  return plan;
}

RedistCostSummary redistribution_cost_dense(const NestShape& nest,
                                            const Rect& old_rect,
                                            const Rect& new_rect, int grid_px,
                                            int bytes_per_point,
                                            const SimComm* comm) {
  ST_CHECK_MSG(bytes_per_point > 0, "bytes_per_point must be positive");
  RedistCostSummary s;
  s.total_points = static_cast<std::int64_t>(nest.nx) * nest.ny;
  const Topology* topo = comm != nullptr ? &comm->topology() : nullptr;
  const bool direct = topo != nullptr && topo->is_direct_network();

  // Per-sender serial time for the switched-network §IV-C-1 term: senders
  // arrive strictly ascending and contiguous from for_each_redist_block, so
  // a running (sender, sum) pair reproduces RedistTimeModel's per-sender
  // map — same additions per sender in the same order, folded into the max
  // in the same ascending-sender order.
  int current_sender = -1;
  double sender_sum = 0.0;
  const auto flush_sender = [&] {
    s.worst_sender_time = std::max(s.worst_sender_time, sender_sum);
    sender_sum = 0.0;
  };

  for_each_redist_block(
      nest, old_rect, new_rect, grid_px,
      [&](int sender, int receiver, const Rect& inter) {
        const std::int64_t points = inter.area();
        const std::int64_t bytes = points * bytes_per_point;
        if (sender == receiver) {
          s.overlap_points += points;
          s.local_bytes += bytes;
          return;
        }
        s.total_bytes += bytes;
        s.num_messages += 1;
        if (topo == nullptr) return;
        const int h = comm->hops(sender, receiver);
        s.hop_bytes += bytes * h;
        s.max_hops = std::max(s.max_hops, h);
        const double t = topo->pair_time(h, bytes);
        if (direct) {
          s.worst_pair_time = std::max(s.worst_pair_time, t);
        } else {
          if (sender != current_sender) {
            flush_sender();
            current_sender = sender;
          }
          sender_sum += t;
        }
      });
  flush_sender();

  detail::redist_counter_state().cost_queries.fetch_add(
      1, std::memory_order_relaxed);
  return s;
}

// ---------------------------------------------------------- sparse pricing

namespace {

/// One per-dimension (sender block, receiver block) intersection.
struct AxisEntry {
  int pos = 0;      ///< Receiver's absolute process-grid line.
  int len = 0;      ///< Overlap length (> 0).
  bool diag = false;  ///< Sender and receiver sit on the same grid line.
};

/// Per-dimension pair list in CSR-by-sender-part layout, plus the closed-
/// form aggregates the 2-D summary factors into. Lives in thread-local
/// scratch: reset() keeps capacity, so steady-state pricing is
/// allocation-free like the dense walk it replaced.
struct AxisPairs {
  std::vector<AxisEntry> entries;  ///< Grouped by sender part, r ascending.
  std::vector<int> offsets;        ///< entries index per sender part (+1).
  std::vector<int> nonempty;       ///< Sender parts with >= 1 entry.
  std::vector<int> off_diag;       ///< Sender parts with >= 1 off-diag entry.
  std::int64_t pair_count = 0;
  std::int64_t diag_count = 0;
  std::int64_t diag_len = 0;       ///< Σ overlap length over diagonal pairs.

  void reset() {
    entries.clear();
    offsets.clear();
    nonempty.clear();
    off_diag.clear();
    pair_count = 0;
    diag_count = 0;
    diag_len = 0;
  }

  /// A sender part whose every intersection is diagonal (at most one per
  /// part and dimension) emits no off-rank message along this axis.
  [[nodiscard]] bool all_diag(int s) const {
    return offsets[static_cast<std::size_t>(s) + 1] ==
               offsets[static_cast<std::size_t>(s)] + 1 &&
           entries[static_cast<std::size_t>(offsets[
               static_cast<std::size_t>(s)])].diag;
  }
};

/// Build one dimension's pair list: for each sender block of the old split,
/// locate the overlapping receiver blocks of the new split via the interval
/// index (O(log parts) probes each) and record the surviving intersections.
/// A pair is *diagonal* when sender and receiver occupy the same absolute
/// grid line (old_origin + s == new_origin + r) — a message is local iff
/// both its column pair and its row pair are diagonal.
void build_axis_pairs(int n, int old_parts, int new_parts, int old_origin,
                      int new_origin, AxisPairs& out, std::int64_t& probes) {
  out.reset();
  out.offsets.reserve(static_cast<std::size_t>(old_parts) + 1);
  const BlockIntervalIndex index(n, new_parts);
  for (int s = 0; s < old_parts; ++s) {
    out.offsets.push_back(static_cast<int>(out.entries.size()));
    const Span1D span = block_range(s, n, old_parts);
    if (span.count == 0) continue;
    const PartRange pr = index.overlapping(span.begin, span.end(), &probes);
    bool any_off_diag = false;
    for (int r = pr.first; r <= pr.last; ++r) {
      const Span1D rs = block_range(r, n, new_parts);
      const int lo = std::max(span.begin, rs.begin);
      const int hi = std::min(span.end(), rs.end());
      if (hi <= lo) continue;  // empty receiver block inside the range
      const bool diag = old_origin + s == new_origin + r;
      out.entries.push_back(AxisEntry{new_origin + r, hi - lo, diag});
      ++out.pair_count;
      if (diag) {
        ++out.diag_count;
        out.diag_len += hi - lo;
      } else {
        any_off_diag = true;
      }
    }
    if (static_cast<int>(out.entries.size()) > out.offsets.back())
      out.nonempty.push_back(s);
    if (any_off_diag) out.off_diag.push_back(s);
  }
  out.offsets.push_back(static_cast<int>(out.entries.size()));
}

/// One move factored per axis: the sender decomposition, the column and
/// row pair lists (thread-local scratch, overwritten by the next move on
/// the thread) and the closed-form 2-D aggregates. Every (column pair, row
/// pair) combination is one intersecting (sender, receiver) block with
/// area clen·rlen, and it is local exactly when both pairs are diagonal.
struct MoveAxes {
  BlockDecomposition old_d;
  const AxisPairs& cols;
  const AxisPairs& rows;
  std::int64_t probes = 0;

  [[nodiscard]] std::int64_t overlap_points() const {
    return cols.diag_len * rows.diag_len;
  }
  [[nodiscard]] std::int64_t num_messages() const {
    return cols.pair_count * rows.pair_count -
           cols.diag_count * rows.diag_count;
  }
};

MoveAxes build_move_axes(const NestShape& nest, const Rect& old_rect,
                         const Rect& new_rect, int grid_px) {
  // Same argument validation (and rank arithmetic) as the dense walk.
  const BlockDecomposition old_d(nest, old_rect, grid_px);
  [[maybe_unused]] const BlockDecomposition new_d(nest, new_rect, grid_px);
  thread_local AxisPairs cols;
  thread_local AxisPairs rows;
  std::int64_t probes = 0;
  build_axis_pairs(nest.nx, old_rect.w, new_rect.w, old_rect.x, new_rect.x,
                   cols, probes);
  build_axis_pairs(nest.ny, old_rect.h, new_rect.h, old_rect.y, new_rect.y,
                   rows, probes);
  return MoveAxes{old_d, cols, rows, probes};
}

/// The moved-block walk shared by pricing and execution: calls
/// `fn(sender, receiver, bytes)` for every off-rank block intersection of
/// the move, in plan_redistribution's exact order — sender cells row-major
/// (j outer, i inner), so senders arrive ascending and contiguous, and
/// receivers row-major (rj outer, ri inner) within each sender. Integer
/// sums and float maxes are order-free, but per-rank float *sums* are not;
/// this order is what keeps them bit-identical to the materialized plan.
/// Sender cells whose column and row pairs are all diagonal move nothing
/// and are skipped wholesale — the identity-move fast path. Returns the
/// number of blocks visited.
template <typename Fn>
std::int64_t for_each_moved_block(const MoveAxes& axes, int bytes_per_point,
                                  Fn&& fn) {
  const AxisPairs& cols = axes.cols;
  const AxisPairs& rows = axes.rows;
  const int grid_px = axes.old_d.grid_px();
  std::int64_t moved_blocks = 0;
  for (const int j : rows.nonempty) {
    const int rb = rows.offsets[static_cast<std::size_t>(j)];
    const int re = rows.offsets[static_cast<std::size_t>(j) + 1];
    const std::vector<int>& col_list =
        rows.all_diag(j) ? cols.off_diag : cols.nonempty;
    for (const int i : col_list) {
      const int cb = cols.offsets[static_cast<std::size_t>(i)];
      const int ce = cols.offsets[static_cast<std::size_t>(i) + 1];
      const int sender = axes.old_d.rank_at(i, j);
      for (int rj = rb; rj < re; ++rj) {
        const AxisEntry& row_pair = rows.entries[static_cast<std::size_t>(rj)];
        for (int ci = cb; ci < ce; ++ci) {
          const AxisEntry& col_pair =
              cols.entries[static_cast<std::size_t>(ci)];
          if (row_pair.diag && col_pair.diag) continue;  // local block
          ++moved_blocks;
          fn(sender, row_pair.pos * grid_px + col_pair.pos,
             static_cast<std::int64_t>(col_pair.len) * row_pair.len *
                 bytes_per_point);
        }
      }
    }
  }
  return moved_blocks;
}

}  // namespace

RedistCostSummary redistribution_cost(const NestShape& nest,
                                      const Rect& old_rect,
                                      const Rect& new_rect, int grid_px,
                                      int bytes_per_point,
                                      const SimComm* comm) {
  ST_CHECK_MSG(bytes_per_point > 0, "bytes_per_point must be positive");
  const MoveAxes axes = build_move_axes(nest, old_rect, new_rect, grid_px);

  RedistCostSummary s;
  s.total_points = static_cast<std::int64_t>(nest.nx) * nest.ny;
  s.overlap_points = axes.overlap_points();
  s.local_bytes = s.overlap_points * bytes_per_point;
  s.total_bytes = (s.total_points - s.overlap_points) * bytes_per_point;
  s.num_messages = axes.num_messages();

  std::int64_t moved_blocks = 0;
  if (comm != nullptr && s.num_messages > 0) {
    const Topology& topo = comm->topology();
    const bool direct = topo.is_direct_network();
    // Senders arrive contiguous, so a running (sender, sum) pair folds the
    // switched-network per-sender sums into the max. A fully-local sender
    // is never visited; it would contribute max(·, 0), which the initial
    // 0.0 already covers.
    int current_sender = -1;
    double sender_sum = 0.0;
    moved_blocks = for_each_moved_block(
        axes, bytes_per_point,
        [&](int sender, int receiver, std::int64_t bytes) {
          const int h = comm->hops(sender, receiver);
          s.hop_bytes += bytes * h;
          s.max_hops = std::max(s.max_hops, h);
          const double t = topo.pair_time(h, bytes);
          if (direct) {
            s.worst_pair_time = std::max(s.worst_pair_time, t);
            return;
          }
          if (sender != current_sender) {
            s.worst_sender_time = std::max(s.worst_sender_time, sender_sum);
            sender_sum = 0.0;
            current_sender = sender;
          }
          sender_sum += t;
        });
    s.worst_sender_time = std::max(s.worst_sender_time, sender_sum);
  }

  auto& counters = detail::redist_counter_state();
  counters.cost_queries.fetch_add(1, std::memory_order_relaxed);
  counters.intersection_probes.fetch_add(axes.probes,
                                         std::memory_order_relaxed);
  counters.moved_blocks_enumerated.fetch_add(moved_blocks,
                                             std::memory_order_relaxed);
  return s;
}

RedistMetrics redistribution_phase(const NestShape& nest, const Rect& old_rect,
                                   const Rect& new_rect, int grid_px,
                                   int bytes_per_point, const SimComm& comm) {
  ST_CHECK_MSG(bytes_per_point > 0, "bytes_per_point must be positive");
  const MoveAxes axes = build_move_axes(nest, old_rect, new_rect, grid_px);

  RedistMetrics m;
  m.total_points = static_cast<std::int64_t>(nest.nx) * nest.ny;
  m.overlap_points = axes.overlap_points();
  m.overlap_fraction = m.total_points == 0
                           ? 0.0
                           : static_cast<double>(m.overlap_points) /
                                 static_cast<double>(m.total_points);
  // Only the moved blocks reach the network; the local ones are exactly
  // the plan's self messages, which alltoallv would tally as local bytes.
  AlltoallvPhase phase(comm);
  if (axes.num_messages() > 0)
    (void)for_each_moved_block(
        axes, bytes_per_point, [&](int sender, int receiver,
                                   std::int64_t bytes) {
          phase.add(sender, receiver, bytes);
        });
  m.traffic = phase.finish();
  m.traffic.local_bytes = m.overlap_points * bytes_per_point;

  detail::redist_counter_state().phases_executed.fetch_add(
      1, std::memory_order_relaxed);
  return m;
}

Redistributor::Redistributor(const SimComm& comm, int bytes_per_point,
                             PayloadFaultHook* faults)
    : comm_(&comm), bytes_per_point_(bytes_per_point), faults_(faults) {
  ST_CHECK_MSG(bytes_per_point > 0, "bytes_per_point must be positive");
}

RedistMetrics Redistributor::redistribute(const NestShape& nest,
                                          const Rect& old_rect,
                                          const Rect& new_rect,
                                          int grid_px) const {
  return redistribution_phase(nest, old_rect, new_rect, grid_px,
                              bytes_per_point_, *comm_);
}

Grid2D<double> Redistributor::redistribute_field(const Grid2D<double>& field,
                                                 const Rect& old_rect,
                                                 const Rect& new_rect,
                                                 int grid_px,
                                                 RedistMetrics* metrics)
    const {
  const NestShape nest{field.width(), field.height()};

  // Build typed messages: one per intersecting (sender region, receiver
  // region) pair, payload = the intersection's values, row-major, prefixed
  // by the intersection rectangle (as 4 doubles) so the receiver can place
  // the block without global knowledge of the old decomposition.
  std::vector<TypedMessage<double>> msgs;
  msgs.reserve(static_cast<std::size_t>(
      count_redist_messages(nest, old_rect, new_rect, grid_px)));
  std::int64_t overlap_points = 0;
  for_each_redist_block(
      nest, old_rect, new_rect, grid_px,
      [&](int sender, int receiver, const Rect& inter) {
        if (sender == receiver) overlap_points += inter.area();
        TypedMessage<double> m;
        m.src = sender;
        m.dst = receiver;
        m.payload.resize(static_cast<std::size_t>(inter.area()) + 4);
        m.payload[0] = inter.x;
        m.payload[1] = inter.y;
        m.payload[2] = inter.w;
        m.payload[3] = inter.h;
        double* out = m.payload.data() + 4;
        for (int y = inter.y; y < inter.y_end(); ++y, out += inter.w)
          std::copy_n(&field(inter.x, y), inter.w, out);
        msgs.push_back(std::move(m));
      });

  const ExchangeResult<double> ex = exchange(std::move(msgs));

  // Reassemble the field from delivered blocks (grouped by destination;
  // placement only needs every block once, in any deterministic order).
  Grid2D<double> out(nest.nx, nest.ny, 0.0);
  std::int64_t placed = 0;
  for (const TypedMessage<double>& m : ex.messages) {
    ST_CHECK_MSG(m.payload.size() >= 4, "malformed redistribution payload");
    const Rect inter{static_cast<int>(m.payload[0]),
                     static_cast<int>(m.payload[1]),
                     static_cast<int>(m.payload[2]),
                     static_cast<int>(m.payload[3])};
    ST_CHECK_MSG(static_cast<std::int64_t>(m.payload.size()) ==
                     inter.area() + 4,
                 "payload size does not match block " << inter);
    const double* in = m.payload.data() + 4;
    for (int y = inter.y; y < inter.y_end(); ++y, in += inter.w)
      std::copy_n(in, inter.w, &out(inter.x, y));
    placed += inter.area();
  }
  ST_CHECK_MSG(placed == static_cast<std::int64_t>(nest.nx) * nest.ny,
               "redistribution conservation violated: placed " << placed
                                                               << " of "
                                                               << nest.nx *
                                                                      nest.ny);
  // Placement copies values verbatim, so the reassembled field must be
  // bit-identical to the source; any mismatch means payload bytes were
  // damaged in flight.
  for (int y = 0; y < nest.ny; ++y)
    for (int x = 0; x < nest.nx; ++x)
      ST_CHECK_MSG(std::bit_cast<std::uint64_t>(out(x, y)) ==
                       std::bit_cast<std::uint64_t>(field(x, y)),
                   "redistribution integrity violated at (" << x << ", " << y
                                                            << ")");
  if (metrics != nullptr) {
    metrics->traffic = ex.traffic;
    metrics->total_points = static_cast<std::int64_t>(nest.nx) * nest.ny;
    metrics->overlap_points = overlap_points;
    metrics->overlap_fraction =
        static_cast<double>(overlap_points) /
        static_cast<double>(metrics->total_points);
  }
  return out;
}

}  // namespace stormtrack
