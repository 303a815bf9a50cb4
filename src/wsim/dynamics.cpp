#include "wsim/dynamics.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "util/check.hpp"

namespace stormtrack {

namespace {

void validate_params(const DynamicsParams& p) {
  ST_CHECK_MSG(p.diffusion >= 0.0, "diffusion must be non-negative");
  // Positivity / maximum principle for upwind + FTCS: the centre-cell
  // coefficient 1 - |u| - |v| - 4D must stay non-negative.
  ST_CHECK_MSG(std::abs(p.u) + std::abs(p.v) + 4.0 * p.diffusion <= 1.0,
               "unstable dynamics: need |u| + |v| + 4*diffusion <= 1, got "
                   << std::abs(p.u) + std::abs(p.v) + 4.0 * p.diffusion);
}

/// Zero-gradient (Neumann) sample of the field at clamped coordinates.
double sample(const Grid2D<double>& f, int x, int y) {
  return f(std::clamp(x, 0, f.width() - 1), std::clamp(y, 0, f.height() - 1));
}

/// Stencil update of one cell from any field view with Neumann clamping.
double update_cell(const Grid2D<double>& f, int x, int y,
                   const DynamicsParams& p) {
  const double c = sample(f, x, y);
  const double w = sample(f, x - 1, y);
  const double e = sample(f, x + 1, y);
  const double s = sample(f, x, y - 1);
  const double n = sample(f, x, y + 1);
  // First-order upwind advection.
  const double adv_x = p.u >= 0.0 ? p.u * (c - w) : p.u * (e - c);
  const double adv_y = p.v >= 0.0 ? p.v * (c - s) : p.v * (n - c);
  // 5-point diffusion.
  const double diff = p.diffusion * (w + e + s + n - 4.0 * c);
  return c - adv_x - adv_y + diff;
}

}  // namespace

Grid2D<double> step_reference(const Grid2D<double>& field,
                              const DynamicsParams& params) {
  validate_params(params);
  Grid2D<double> out(field.width(), field.height());
  for (int y = 0; y < field.height(); ++y)
    for (int x = 0; x < field.width(); ++x)
      out(x, y) = update_cell(field, x, y, params);
  return out;
}

DistributedNestStepper::DistributedNestStepper(const SimComm& comm,
                                               const NestShape& nest,
                                               const Rect& proc_rect,
                                               int grid_px,
                                               DynamicsParams params)
    : comm_(&comm), decomp_(nest, proc_rect, grid_px), params_(params) {
  validate_params(params);
}

TrafficReport DistributedNestStepper::step(Grid2D<double>& field) const {
  const Rect proc_rect = decomp_.proc_rect();

  // ---- 1. Halo exchange: each block ships its one-cell-deep edges to the
  //         N/S/E/W neighbouring blocks (8 bytes per cell).
  std::vector<Message> msgs;
  for (int j = 0; j < proc_rect.h; ++j) {
    for (int i = 0; i < proc_rect.w; ++i) {
      const Rect region = decomp_.owned_region(i, j);
      if (region.empty()) continue;
      const int me = decomp_.rank_at(i, j);
      const auto send_edge = [&](int ni, int nj, int cells) {
        if (ni < 0 || ni >= proc_rect.w || nj < 0 || nj >= proc_rect.h)
          return;
        if (decomp_.owned_region(ni, nj).empty()) return;
        msgs.push_back(Message{me, decomp_.rank_at(ni, nj),
                               static_cast<std::int64_t>(cells) * 8});
      };
      send_edge(i - 1, j, region.h);
      send_edge(i + 1, j, region.h);
      send_edge(i, j - 1, region.w);
      send_edge(i, j + 1, region.w);
    }
  }
  const TrafficReport traffic = comm_->alltoallv(msgs);

  // ---- 2. Per-block update from a halo-extended local view. Each block
  //         reads only its own cells plus the one-cell halo it just
  //         received; blocks at the nest edge clamp (Neumann).
  Grid2D<double> out(field.width(), field.height());
  for (int j = 0; j < proc_rect.h; ++j) {
    for (int i = 0; i < proc_rect.w; ++i) {
      const Rect region = decomp_.owned_region(i, j);
      if (region.empty()) continue;
      // Halo-extended view, clamped at the global nest boundary.
      const Rect halo_rect{
          std::max(0, region.x - 1), std::max(0, region.y - 1),
          std::min(field.width(), region.x_end() + 1) -
              std::max(0, region.x - 1),
          std::min(field.height(), region.y_end() + 1) -
              std::max(0, region.y - 1)};
      const Grid2D<double> local = field.extract(halo_rect);
      for (int y = region.y; y < region.y_end(); ++y)
        for (int x = region.x; x < region.x_end(); ++x)
          out(x, y) = update_cell(local, x - halo_rect.x, y - halo_rect.y,
                                  params_);
    }
  }

  field = std::move(out);
  return traffic;
}

}  // namespace stormtrack
