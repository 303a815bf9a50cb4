#pragma once

/// \file topology.hpp
/// Interconnect models.
///
/// The paper evaluates on two machines: a Blue Gene/L with a 3D-torus
/// interconnect (hop count between nodes matters; the direct Alltoallv
/// algorithm's completion time is the max over sender→receiver pair times)
/// and `fist`, an Infiniband *switched* cluster (hop counts are small and
/// uniform; per-sender messages serialize, §IV-C-1). We model both, plus a
/// plain 2D mesh, behind one interface. A Topology deals in *physical node
/// ids*; the separate Mapping class (mapping.hpp) places process-grid ranks
/// onto nodes.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "util/check.hpp"

namespace stormtrack {

/// Per-link communication cost parameters for the analytic cost model:
///   pair_time(h, b) = alpha + h * per_hop + b / bandwidth.
struct LinkParams {
  double alpha = 3e-6;           ///< Per-message startup latency (s).
  double per_hop = 50e-9;        ///< Additional latency per network hop (s).
  double bandwidth = 150.0e6;    ///< Link bandwidth (bytes/s).
  /// Fraction of the theoretical aggregate link capacity that irregular
  /// all-to-all traffic actually achieves on a direct network (routing
  /// imbalance, head-of-line blocking). Applied by Torus3D/Mesh2D
  /// aggregate_capacity().
  double utilization = 0.15;
};

/// 3D integer coordinate on a torus/mesh.
struct Coord3 {
  int x = 0;
  int y = 0;
  int z = 0;
  friend constexpr bool operator==(const Coord3&, const Coord3&) = default;
};

/// Abstract interconnect interface: node count, pairwise hop distance, and
/// whether the network is *direct* (mesh/torus/dragonfly — per-pair times
/// overlap, Alltoallv completion is the max over pairs) or
/// *indirect/switched* (fat-tree/leaf-spine — per-sender messages
/// serialize). This small surface is everything the performance models
/// consume: RedistTimeModel and SimComm use only hops(),
/// is_direct_network(), pair_time(), and aggregate_capacity(), so new
/// interconnects (dragonfly, fat-tree below) plug in without touching any
/// model code.
class ITopology {
 public:
  explicit ITopology(LinkParams link) : link_(link) {
    ST_CHECK_MSG(link.bandwidth > 0, "bandwidth must be positive");
  }
  virtual ~ITopology() = default;
  ITopology(const ITopology&) = delete;
  ITopology& operator=(const ITopology&) = delete;

  /// Total number of physical nodes (== maximum usable ranks).
  [[nodiscard]] virtual int num_nodes() const = 0;

  /// Minimal routing distance in links between two nodes; 0 when equal.
  [[nodiscard]] virtual int hops(int node_a, int node_b) const = 0;

  /// True for mesh/torus-style direct networks.
  [[nodiscard]] virtual bool is_direct_network() const = 0;

  /// Aggregate network capacity in bytes/s: the sum of link bandwidths the
  /// fabric can move concurrently. Used by the simulated runtime's
  /// contention term (phase time >= hop_bytes / aggregate_capacity): a
  /// phase that pushes many bytes across many links cannot finish faster
  /// than the fabric drains them, which is what makes hop-bytes costly on
  /// real machines (§V-E).
  [[nodiscard]] virtual double aggregate_capacity() const = 0;

  /// Human-readable identifier, e.g. "torus3d-8x8x16".
  [[nodiscard]] virtual std::string name() const = 0;

  [[nodiscard]] const LinkParams& link() const { return link_; }

  /// Modeled time for one point-to-point message of \p bytes over
  /// \p hop_count links (direct-algorithm building block, §IV-C-1).
  [[nodiscard]] double pair_time(int hop_count, std::int64_t bytes) const {
    return link_.alpha + static_cast<double>(hop_count) * link_.per_hop +
           static_cast<double>(bytes) / link_.bandwidth;
  }

 protected:
  void require_node(int node) const {
    ST_CHECK_MSG(node >= 0 && node < num_nodes(),
                 "node " << node << " outside topology of " << num_nodes()
                         << " nodes");
  }

 private:
  LinkParams link_;
};

/// Historical name of the interface; all pre-refactor code (and most call
/// sites) read `Topology`, which is exactly the ITopology interface.
using Topology = ITopology;

/// 3D torus (Blue Gene/L-like): nodes on a dx×dy×dz lattice with wraparound
/// links in all three dimensions; hop distance is the sum of per-dimension
/// ring distances (XYZ dimension-ordered routing).
class Torus3D final : public ITopology {
 public:
  Torus3D(int dx, int dy, int dz, LinkParams link = bgl_links());

  [[nodiscard]] int num_nodes() const override { return dx_ * dy_ * dz_; }
  [[nodiscard]] int hops(int node_a, int node_b) const override;
  [[nodiscard]] bool is_direct_network() const override { return true; }
  /// 3 undirected torus links per node, derated by achievable utilization.
  [[nodiscard]] double aggregate_capacity() const override {
    return 3.0 * num_nodes() * link().bandwidth * link().utilization;
  }
  [[nodiscard]] std::string name() const override;

  [[nodiscard]] int dim_x() const { return dx_; }
  [[nodiscard]] int dim_y() const { return dy_; }
  [[nodiscard]] int dim_z() const { return dz_; }

  /// Coordinate of a node id (x fastest-varying).
  [[nodiscard]] Coord3 coord(int node) const;
  /// Node id of a coordinate (must be in range).
  [[nodiscard]] int node(const Coord3& c) const;

  /// Ring distance along one dimension of size \p dim.
  [[nodiscard]] static int ring_distance(int a, int b, int dim);

  /// Default Blue Gene/L-flavoured link parameters (175 MB/s torus links,
  /// ~3 µs software overhead, ~50 ns router traversal per hop).
  [[nodiscard]] static LinkParams bgl_links() {
    return LinkParams{3e-6, 50e-9, 150.0e6};
  }

 private:
  int dx_, dy_, dz_;
  /// (x, y) of every position in one z-plane: coord() costs one division
  /// instead of three, and hops() runs for every priced or executed
  /// message.
  std::vector<Coord3> plane_;
};

/// 2D mesh (no wraparound): hop distance is Manhattan distance. Used for
/// mapping ablations and as a generic direct network.
class Mesh2D final : public ITopology {
 public:
  Mesh2D(int dx, int dy, LinkParams link = Torus3D::bgl_links());

  [[nodiscard]] int num_nodes() const override { return dx_ * dy_; }
  [[nodiscard]] int hops(int node_a, int node_b) const override;
  [[nodiscard]] bool is_direct_network() const override { return true; }
  /// Exact undirected mesh link count, derated by achievable utilization.
  [[nodiscard]] double aggregate_capacity() const override {
    return ((dx_ - 1.0) * dy_ + dx_ * (dy_ - 1.0)) * link().bandwidth *
           link().utilization;
  }
  [[nodiscard]] std::string name() const override;

  [[nodiscard]] int dim_x() const { return dx_; }
  [[nodiscard]] int dim_y() const { return dy_; }

 private:
  int dx_, dy_;
};

/// Two-level switched network (fist-like Infiniband cluster): nodes hang off
/// leaf switches of \p nodes_per_switch ports; leaf switches connect through
/// one core switch. Hop distances: 0 (same node), 2 (same leaf switch),
/// 4 (across the core).
class SwitchedNetwork final : public ITopology {
 public:
  SwitchedNetwork(int nodes, int nodes_per_switch,
                  LinkParams link = fist_links());

  [[nodiscard]] int num_nodes() const override { return nodes_; }
  [[nodiscard]] int hops(int node_a, int node_b) const override;
  [[nodiscard]] bool is_direct_network() const override { return false; }
  /// Modestly oversubscribed fabric: half the node links active at once.
  [[nodiscard]] double aggregate_capacity() const override {
    return 0.5 * nodes_ * link().bandwidth;
  }
  [[nodiscard]] std::string name() const override;

  [[nodiscard]] int nodes_per_switch() const { return per_switch_; }

  /// Infiniband-flavoured link parameters (~1 GB/s, 2 µs startup,
  /// ~100 ns per switch traversal).
  [[nodiscard]] static LinkParams fist_links() {
    return LinkParams{2e-6, 100e-9, 1.0e9};
  }

 private:
  int nodes_, per_switch_;
};

/// Dragonfly (Cray XC-like): all-to-all connected *groups*, each group a set
/// of routers joined all-to-all, each router hosting a few nodes. Minimal
/// routing crosses at most one global link, so hop distances are tiny and
/// nearly flat: 0 (same node), 2 (same router), 4 (same group, across the
/// local all-to-all), 6 (different groups: local + global + local). A direct
/// network — per-pair transfers overlap.
class Dragonfly final : public ITopology {
 public:
  Dragonfly(int groups, int routers_per_group, int nodes_per_router,
            LinkParams link = dragonfly_links());

  [[nodiscard]] int num_nodes() const override {
    return groups_ * routers_per_group_ * nodes_per_router_;
  }
  [[nodiscard]] int hops(int node_a, int node_b) const override;
  [[nodiscard]] bool is_direct_network() const override { return true; }
  /// Each router contributes its local + global links; the global
  /// all-to-all keeps path diversity high, so derate less than a torus.
  [[nodiscard]] double aggregate_capacity() const override {
    return 2.0 * num_nodes() * link().bandwidth * link().utilization;
  }
  [[nodiscard]] std::string name() const override;

  [[nodiscard]] int groups() const { return groups_; }
  [[nodiscard]] int routers_per_group() const { return routers_per_group_; }
  [[nodiscard]] int nodes_per_router() const { return nodes_per_router_; }
  /// Nodes per group — the natural tile size for locality-preserving
  /// mappings (TiledMapping in mapping.hpp).
  [[nodiscard]] int group_size() const {
    return routers_per_group_ * nodes_per_router_;
  }

  /// Optical-global-link flavoured parameters: fast links, higher
  /// utilization than a torus thanks to adaptive routing.
  [[nodiscard]] static LinkParams dragonfly_links() {
    return LinkParams{1.5e-6, 100e-9, 1.0e9, 0.5};
  }

 private:
  int groups_, routers_per_group_, nodes_per_router_;
};

/// Three-level fat-tree (leaf / pod spine / core): nodes hang off leaf
/// switches, leaves group into pods under pod switches, pods connect through
/// core switches. Hop distances: 0 (same node), 2 (same leaf), 4 (same pod),
/// 6 (across the core). An indirect network — per-sender messages serialize
/// through the injection link, like SwitchedNetwork.
class FatTree final : public ITopology {
 public:
  FatTree(int nodes, int nodes_per_leaf, int leaves_per_pod,
          LinkParams link = SwitchedNetwork::fist_links());

  [[nodiscard]] int num_nodes() const override { return nodes_; }
  [[nodiscard]] int hops(int node_a, int node_b) const override;
  [[nodiscard]] bool is_direct_network() const override { return false; }
  /// Full-bisection at the leaf level, 2:1 oversubscribed above it.
  [[nodiscard]] double aggregate_capacity() const override {
    return 0.5 * nodes_ * link().bandwidth;
  }
  [[nodiscard]] std::string name() const override;

  [[nodiscard]] int nodes_per_leaf() const { return per_leaf_; }
  [[nodiscard]] int leaves_per_pod() const { return leaves_per_pod_; }
  /// Nodes per pod — the natural tile size for locality-preserving
  /// mappings (TiledMapping in mapping.hpp).
  [[nodiscard]] int pod_size() const { return per_leaf_ * leaves_per_pod_; }

 private:
  int nodes_, per_leaf_, leaves_per_pod_;
};

/// Standard machine factories used throughout the experiments.
/// Blue Gene/L partition of \p cores nodes as an 8×8×(cores/64) torus
/// (cores must be a positive multiple of 64; 1024 gives the real BG/L
/// midplane shape 8×8×16).
[[nodiscard]] std::unique_ptr<Torus3D> make_bluegene(int cores);

/// fist-like switched cluster: \p cores nodes, 16 per leaf switch.
[[nodiscard]] std::unique_ptr<SwitchedNetwork> make_fist(int cores);

/// Dragonfly of \p cores nodes: 16 routers per group, 4 nodes per router
/// (64-node groups; cores must be a positive multiple of 64).
[[nodiscard]] std::unique_ptr<Dragonfly> make_dragonfly(int cores);

/// Fat-tree of \p cores nodes: 16 per leaf, 8 leaves per pod (128-node
/// pods).
[[nodiscard]] std::unique_ptr<FatTree> make_fattree(int cores);

}  // namespace stormtrack
