#include "topo/topology.hpp"

#include <cstdlib>
#include <sstream>

namespace stormtrack {

// ---------------------------------------------------------------- Torus3D

Torus3D::Torus3D(int dx, int dy, int dz, LinkParams link)
    : Topology(link), dx_(dx), dy_(dy), dz_(dz) {
  ST_CHECK_MSG(dx >= 1 && dy >= 1 && dz >= 1,
               "torus dims must be >= 1, got " << dx << "x" << dy << "x"
                                               << dz);
  plane_.reserve(static_cast<std::size_t>(dx) * static_cast<std::size_t>(dy));
  for (int y = 0; y < dy; ++y)
    for (int x = 0; x < dx; ++x) plane_.push_back(Coord3{x, y, 0});
}

int Torus3D::ring_distance(int a, int b, int dim) {
  const int d = std::abs(a - b);
  return std::min(d, dim - d);
}

Coord3 Torus3D::coord(int n) const {
  require_node(n);
  const int plane = dx_ * dy_;
  const int z = n / plane;
  Coord3 c = plane_[static_cast<std::size_t>(n - z * plane)];
  c.z = z;
  return c;
}

int Torus3D::node(const Coord3& c) const {
  ST_CHECK_MSG(c.x >= 0 && c.x < dx_ && c.y >= 0 && c.y < dy_ && c.z >= 0 &&
                   c.z < dz_,
               "coord (" << c.x << "," << c.y << "," << c.z
                         << ") outside torus " << name());
  return (c.z * dy_ + c.y) * dx_ + c.x;
}

int Torus3D::hops(int node_a, int node_b) const {
  const Coord3 a = coord(node_a);
  const Coord3 b = coord(node_b);
  return ring_distance(a.x, b.x, dx_) + ring_distance(a.y, b.y, dy_) +
         ring_distance(a.z, b.z, dz_);
}

std::string Torus3D::name() const {
  std::ostringstream os;
  os << "torus3d-" << dx_ << 'x' << dy_ << 'x' << dz_;
  return os.str();
}

// ----------------------------------------------------------------- Mesh2D

Mesh2D::Mesh2D(int dx, int dy, LinkParams link)
    : Topology(link), dx_(dx), dy_(dy) {
  ST_CHECK_MSG(dx >= 1 && dy >= 1,
               "mesh dims must be >= 1, got " << dx << "x" << dy);
}

int Mesh2D::hops(int node_a, int node_b) const {
  require_node(node_a);
  require_node(node_b);
  const int ax = node_a % dx_, ay = node_a / dx_;
  const int bx = node_b % dx_, by = node_b / dx_;
  return std::abs(ax - bx) + std::abs(ay - by);
}

std::string Mesh2D::name() const {
  std::ostringstream os;
  os << "mesh2d-" << dx_ << 'x' << dy_;
  return os.str();
}

// -------------------------------------------------------- SwitchedNetwork

SwitchedNetwork::SwitchedNetwork(int nodes, int nodes_per_switch,
                                 LinkParams link)
    : Topology(link), nodes_(nodes), per_switch_(nodes_per_switch) {
  ST_CHECK_MSG(nodes >= 1, "need at least one node");
  ST_CHECK_MSG(nodes_per_switch >= 1, "need at least one port per switch");
}

int SwitchedNetwork::hops(int node_a, int node_b) const {
  require_node(node_a);
  require_node(node_b);
  if (node_a == node_b) return 0;
  if (node_a / per_switch_ == node_b / per_switch_) return 2;
  return 4;
}

std::string SwitchedNetwork::name() const {
  std::ostringstream os;
  os << "switched-" << nodes_ << "n-" << per_switch_ << "per";
  return os.str();
}

// -------------------------------------------------------------- Dragonfly

Dragonfly::Dragonfly(int groups, int routers_per_group, int nodes_per_router,
                     LinkParams link)
    : Topology(link),
      groups_(groups),
      routers_per_group_(routers_per_group),
      nodes_per_router_(nodes_per_router) {
  ST_CHECK_MSG(groups >= 1 && routers_per_group >= 1 && nodes_per_router >= 1,
               "dragonfly dims must be >= 1, got " << groups << " groups x "
                                                   << routers_per_group
                                                   << " routers x "
                                                   << nodes_per_router
                                                   << " nodes");
}

int Dragonfly::hops(int node_a, int node_b) const {
  require_node(node_a);
  require_node(node_b);
  if (node_a == node_b) return 0;
  if (node_a / nodes_per_router_ == node_b / nodes_per_router_) return 2;
  if (node_a / group_size() == node_b / group_size()) return 4;
  return 6;
}

std::string Dragonfly::name() const {
  std::ostringstream os;
  os << "dragonfly-" << groups_ << 'g' << routers_per_group_ << 'r'
     << nodes_per_router_ << 'n';
  return os.str();
}

// ---------------------------------------------------------------- FatTree

FatTree::FatTree(int nodes, int nodes_per_leaf, int leaves_per_pod,
                 LinkParams link)
    : Topology(link),
      nodes_(nodes),
      per_leaf_(nodes_per_leaf),
      leaves_per_pod_(leaves_per_pod) {
  ST_CHECK_MSG(nodes >= 1, "need at least one node");
  ST_CHECK_MSG(nodes_per_leaf >= 1 && leaves_per_pod >= 1,
               "fat-tree arity must be >= 1, got " << nodes_per_leaf
                                                   << " per leaf, "
                                                   << leaves_per_pod
                                                   << " leaves per pod");
}

int FatTree::hops(int node_a, int node_b) const {
  require_node(node_a);
  require_node(node_b);
  if (node_a == node_b) return 0;
  if (node_a / per_leaf_ == node_b / per_leaf_) return 2;
  if (node_a / pod_size() == node_b / pod_size()) return 4;
  return 6;
}

std::string FatTree::name() const {
  std::ostringstream os;
  os << "fattree-" << nodes_ << "n-" << per_leaf_ << "per-" << leaves_per_pod_
     << "pod";
  return os.str();
}

// -------------------------------------------------------------- factories

std::unique_ptr<Torus3D> make_bluegene(int cores) {
  ST_CHECK_MSG(cores >= 64 && cores % 64 == 0,
               "BG/L partition must be a positive multiple of 64 nodes, got "
                   << cores);
  return std::make_unique<Torus3D>(8, 8, cores / 64);
}

std::unique_ptr<SwitchedNetwork> make_fist(int cores) {
  return std::make_unique<SwitchedNetwork>(cores, 16,
                                           SwitchedNetwork::fist_links());
}

std::unique_ptr<Dragonfly> make_dragonfly(int cores) {
  ST_CHECK_MSG(cores >= 64 && cores % 64 == 0,
               "dragonfly machine must be a positive multiple of 64 nodes "
               "(16 routers x 4 nodes per group), got "
                   << cores);
  return std::make_unique<Dragonfly>(cores / 64, 16, 4);
}

std::unique_ptr<FatTree> make_fattree(int cores) {
  return std::make_unique<FatTree>(cores, 16, 8);
}

}  // namespace stormtrack
