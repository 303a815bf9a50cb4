#pragma once

/// \file simcomm.hpp
/// Simulated message-passing runtime.
///
/// The paper's experiments run MPI on Blue Gene/L and an Infiniband cluster;
/// neither is available here, so the library ships a deterministic simulated
/// communicator. A SimComm binds a Topology (physical hop distances + link
/// cost parameters) to a Mapping (rank→node placement) and prices message
/// phases with a single-port + contention model:
///
///  * point-to-point pair time  t(h, b) = α + h·per_hop + b/BW;
///  * MPI_Alltoallv phase time = max(serial, contention) with
///      serial     = max over ranks of max(Σ send times, Σ receive times)
///      contention = contended bytes / topology.aggregate_capacity(),
///      where the contended quantity is hop-bytes on direct networks
///      (messages occupy every traversed link) and total bytes on switched
///      fabrics (the core carries each byte once).
///
/// The simulated network stands in for the *real machine*; the paper's
/// simpler §IV-C-1 prediction formula (max over pair times on mesh/torus,
/// per-sender sums on switched networks) is implemented verbatim in
/// RedistTimeModel (perfmodel/redist_model.hpp) and used only to predict.
///
/// Every phase returns a TrafficReport with the modeled time plus the exact
/// byte/hop-byte accounting used for the paper's Fig. 10 metric. A phase is
/// priced either from a message list (SimComm::alltoallv) or message by
/// message (AlltoallvPhase, which alltoallv is built on), so a caller that
/// can enumerate its messages never has to materialize them. Typed
/// exchange helpers actually move payload bytes so redistribution
/// correctness (conservation) is testable end-to-end.

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "topo/mapping.hpp"
#include "topo/topology.hpp"
#include "util/check.hpp"

namespace stormtrack {

/// Byte-, hop- and time-accounting for one communication phase.
struct TrafficReport {
  double modeled_time = 0.0;       ///< Phase completion time (s).
  std::int64_t total_bytes = 0;    ///< Payload bytes moved off-rank.
  std::int64_t hop_bytes = 0;      ///< Σ bytes × hops (network load, Fig. 10).
  std::int64_t local_bytes = 0;    ///< Bytes "moved" rank→itself (0 hops).
  std::int64_t num_messages = 0;   ///< Off-rank messages in the phase.
  int max_hops = 0;                ///< Longest route used.

  /// Average hops travelled per off-rank byte (the paper's "average
  /// hop-bytes" per test case); 0 when no bytes moved.
  [[nodiscard]] double avg_hops_per_byte() const {
    if (total_bytes == 0) return 0.0;
    return static_cast<double>(hop_bytes) / static_cast<double>(total_bytes);
  }

  /// Sequential composition of phases: times add, counters add, max_hops
  /// takes the max.
  TrafficReport& operator+=(const TrafficReport& o);
};

/// One point-to-point message in a phase (payload size only; use
/// TypedExchange for payload-carrying traffic).
struct Message {
  int src = 0;
  int dst = 0;
  std::int64_t bytes = 0;
};

/// Simulated communicator over all ranks of a Mapping.
class SimComm {
 public:
  /// Both referents must outlive the communicator.
  SimComm(const Topology& topo, const Mapping& mapping);

  [[nodiscard]] int size() const {
    return static_cast<int>(rank_node_.size());
  }
  [[nodiscard]] const Topology& topology() const { return *topo_; }
  [[nodiscard]] const Mapping& mapping() const { return *mapping_; }

  /// Node that runs \p rank under the bound mapping.
  [[nodiscard]] int node_of(int rank) const {
    require_rank(rank);
    return rank_node_[static_cast<std::size_t>(rank)];
  }

  /// Hop distance between two ranks under the bound mapping.
  [[nodiscard]] int hops(int rank_a, int rank_b) const {
    return topo_->hops(node_of(rank_a), node_of(rank_b));
  }

  /// Price an Alltoallv phase described by its sparse message list, in
  /// any order. Zero-byte and self messages cost nothing on the network
  /// but self messages are tallied in local_bytes.
  [[nodiscard]] TrafficReport alltoallv(std::span<const Message> msgs) const;

  /// Price a Gatherv of \p bytes_per_rank[i] bytes from every rank i to
  /// \p root (modelled as the Alltoallv of the corresponding messages).
  [[nodiscard]] TrafficReport gatherv(
      std::span<const std::int64_t> bytes_per_rank, int root) const;

  /// Price a binomial-tree broadcast of \p bytes from \p root: ceil(log2 P)
  /// rounds, each priced at the worst pair time of that round.
  [[nodiscard]] TrafficReport bcast(std::int64_t bytes, int root) const;

 private:
  void require_rank(int rank) const {
    ST_CHECK_MSG(rank >= 0 && rank < size(),
                 "rank " << rank << " outside communicator of " << size());
  }

  const Topology* topo_;
  const Mapping* mapping_;
  /// mapping_->node_of_rank() of every rank, looked up once: hops() runs
  /// for every priced or executed message.
  std::vector<int> rank_node_;
};

namespace detail {

/// One rank's serialized send and receive time in the open phase.
struct RankTimes {
  double send = 0.0;
  double recv = 0.0;
};

struct RankTimeScratch {
  std::vector<RankTimes> ranks;  ///< Dense, all-zero outside a phase.
  std::vector<int> touched;      ///< Every rank with a nonzero entry.
  bool open = false;

  /// The entry of \p rank, recorded in `touched` on its first use: pair
  /// times are positive, so an entry is all-zero until its first message.
  RankTimes& use(int rank) {
    RankTimes& r = ranks[static_cast<std::size_t>(rank)];
    if (r.send == 0.0 && r.recv == 0.0) touched.push_back(rank);
    return r;
  }
};

}  // namespace detail

/// One Alltoallv phase priced message by message — SimComm::alltoallv
/// without the message list. add() the messages in the order a list would
/// hold them and finish() returns, bit for bit, the TrafficReport
/// alltoallv(list) returns: each rank's send and receive times are summed
/// in add() order either way.
///
/// The per-rank sums live in dense thread-local scratch sized to the
/// largest communicator seen on the thread, and only the ranks a phase
/// touched are reset, so a phase costs O(messages) whatever size() is and
/// allocates nothing in steady state. The destructor resets the scratch
/// too, so a phase abandoned by an exception leaves nothing behind. At
/// most one phase may be open per thread at a time.
class AlltoallvPhase {
 public:
  explicit AlltoallvPhase(const SimComm& comm);
  ~AlltoallvPhase();
  AlltoallvPhase(const AlltoallvPhase&) = delete;
  AlltoallvPhase& operator=(const AlltoallvPhase&) = delete;

  /// Add one message of \p bytes from \p src to \p dst.
  void add(int src, int dst, std::int64_t bytes) {
    ST_CHECK_MSG(scratch_ != nullptr, "Alltoallv phase already finished");
    const int src_node = comm_->node_of(src);
    const int dst_node = comm_->node_of(dst);
    ST_CHECK_MSG(bytes >= 0, "negative message size " << bytes);
    if (bytes == 0) return;
    if (src == dst) {
      rep_.local_bytes += bytes;
      return;
    }
    const Topology& topo = comm_->topology();
    const int h = topo.hops(src_node, dst_node);
    const double t = topo.pair_time(h, bytes);
    rep_.total_bytes += bytes;
    rep_.hop_bytes += bytes * h;
    rep_.num_messages += 1;
    rep_.max_hops = std::max(rep_.max_hops, h);
    scratch_->use(src).send += t;
    scratch_->use(dst).recv += t;
  }

  /// The priced phase; the phase takes no further messages.
  [[nodiscard]] TrafficReport finish();

 private:
  void release();

  const SimComm* comm_;
  detail::RankTimeScratch* scratch_;
  TrafficReport rep_;
};

/// Hook consulted once per message in exchange_payloads, after pricing
/// (the bytes were sent; faults strike in flight). kDrop removes the
/// message before delivery; kCorrupt damages payload bytes but keeps the
/// message, so receivers must detect the damage themselves.
class PayloadFaultHook {
 public:
  enum class Action { kNone, kDrop, kCorrupt };

  virtual ~PayloadFaultHook() = default;
  [[nodiscard]] virtual Action on_payload(int src, int dst,
                                          std::int64_t bytes) = 0;
};

/// Payload-carrying exchange: moves per-message payload vectors between
/// ranks and prices the phase like SimComm::alltoallv. Delivered messages
/// are grouped contiguously by destination rank (ascending), each group
/// ascending by source rank — a deterministic iteration order without the
/// per-destination map + per-list sort the old implementation paid.
template <typename T>
struct TypedMessage {
  int src = 0;
  int dst = 0;
  std::vector<T> payload;
};

/// Half-open range of a destination rank's messages in
/// ExchangeResult::messages.
struct DeliveryGroup {
  int dst = 0;
  std::size_t begin = 0;
  std::size_t end = 0;
};

template <typename T>
struct ExchangeResult {
  /// Every delivered message, grouped by destination (ascending), each
  /// group ascending by source.
  std::vector<TypedMessage<T>> messages;
  /// One entry per destination that received anything, ascending by dst.
  std::vector<DeliveryGroup> groups;
  TrafficReport traffic;

  /// Messages delivered to \p dst (empty when it received nothing).
  [[nodiscard]] std::span<const TypedMessage<T>> received_by(int dst) const {
    const auto it = std::lower_bound(
        groups.begin(), groups.end(), dst,
        [](const DeliveryGroup& g, int d) { return g.dst < d; });
    if (it == groups.end() || it->dst != dst) return {};
    return std::span<const TypedMessage<T>>(messages)
        .subspan(it->begin, it->end - it->begin);
  }
};

template <typename T>
[[nodiscard]] ExchangeResult<T> exchange_payloads(
    const SimComm& comm, std::vector<TypedMessage<T>> msgs,
    PayloadFaultHook* faults = nullptr) {
  ExchangeResult<T> out;
  AlltoallvPhase phase(comm);
  for (const auto& m : msgs)
    phase.add(m.src, m.dst,
              static_cast<std::int64_t>(m.payload.size() * sizeof(T)));
  out.traffic = phase.finish();
  if (faults != nullptr) {
    std::size_t keep = 0;
    for (std::size_t i = 0; i < msgs.size(); ++i) {
      auto& m = msgs[i];
      const auto bytes =
          static_cast<std::int64_t>(m.payload.size() * sizeof(T));
      const auto action = faults->on_payload(m.src, m.dst, bytes);
      if (action == PayloadFaultHook::Action::kDrop) continue;
      if (action == PayloadFaultHook::Action::kCorrupt && !m.payload.empty()) {
        // Damage only the trailing element: structured headers at the front
        // of a payload stay parseable, so corruption is a *data* integrity
        // problem for the receiver to detect, not a crash.
        auto* bytes_ptr =
            reinterpret_cast<unsigned char*>(&m.payload.back());
        for (std::size_t b = 0; b < sizeof(T); ++b) bytes_ptr[b] ^= 0xA5;
      }
      if (keep != i) msgs[keep] = std::move(m);
      ++keep;
    }
    msgs.resize(keep);
  }
  // Single stable sort (dst, then src); equal (src, dst) pairs keep
  // submission order, matching the old stable per-list sorts.
  std::stable_sort(msgs.begin(), msgs.end(),
                   [](const TypedMessage<T>& a, const TypedMessage<T>& b) {
                     if (a.dst != b.dst) return a.dst < b.dst;
                     return a.src < b.src;
                   });
  out.messages = std::move(msgs);
  for (std::size_t i = 0; i < out.messages.size();) {
    std::size_t j = i;
    while (j < out.messages.size() &&
           out.messages[j].dst == out.messages[i].dst)
      ++j;
    out.groups.push_back(DeliveryGroup{out.messages[i].dst, i, j});
    i = j;
  }
  return out;
}

}  // namespace stormtrack
