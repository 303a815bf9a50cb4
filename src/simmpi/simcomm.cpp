#include "simmpi/simcomm.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

namespace stormtrack {

TrafficReport& TrafficReport::operator+=(const TrafficReport& o) {
  modeled_time += o.modeled_time;
  total_bytes += o.total_bytes;
  hop_bytes += o.hop_bytes;
  local_bytes += o.local_bytes;
  num_messages += o.num_messages;
  max_hops = std::max(max_hops, o.max_hops);
  return *this;
}

SimComm::SimComm(const Topology& topo, const Mapping& mapping)
    : topo_(&topo), mapping_(&mapping) {
  ST_CHECK_MSG(mapping.num_ranks() <= topo.num_nodes(),
               "mapping places " << mapping.num_ranks() << " ranks on "
                                 << topo.num_nodes() << " nodes");
  rank_node_.reserve(static_cast<std::size_t>(mapping.num_ranks()));
  for (int r = 0; r < mapping.num_ranks(); ++r)
    rank_node_.push_back(mapping.node_of_rank(r));
}

TrafficReport SimComm::alltoallv(std::span<const Message> msgs) const {
  AlltoallvPhase phase(*this);
  for (const Message& m : msgs) phase.add(m.src, m.dst, m.bytes);
  return phase.finish();
}

namespace {

detail::RankTimeScratch& rank_time_scratch() {
  thread_local detail::RankTimeScratch scratch;
  return scratch;
}

}  // namespace

AlltoallvPhase::AlltoallvPhase(const SimComm& comm)
    : comm_(&comm), scratch_(&rank_time_scratch()) {
  ST_CHECK_MSG(!scratch_->open,
               "an Alltoallv phase is already open on this thread");
  scratch_->open = true;
  if (scratch_->ranks.size() < static_cast<std::size_t>(comm.size()))
    scratch_->ranks.resize(static_cast<std::size_t>(comm.size()));
}

AlltoallvPhase::~AlltoallvPhase() { release(); }

void AlltoallvPhase::release() {
  if (scratch_ == nullptr) return;
  for (const int r : scratch_->touched)
    scratch_->ranks[static_cast<std::size_t>(r)] = detail::RankTimes{};
  scratch_->touched.clear();
  scratch_->open = false;
  scratch_ = nullptr;
}

TrafficReport AlltoallvPhase::finish() {
  ST_CHECK_MSG(scratch_ != nullptr, "Alltoallv phase already finished");
  // Single-port endpoint model with a fabric contention floor:
  //
  //   serial     = max over ranks of max(Σ send times, Σ receive times)
  //   contention = hop_bytes / aggregate_capacity
  //   phase time = max(serial, contention)
  //
  // Each rank injects/drains one message at a time (single-port), so its
  // sends and its receives serialize while different ranks overlap; and no
  // phase can finish before the fabric has drained every byte across every
  // link it traverses. This is deliberately *richer* than the paper's
  // §IV-C-1 prediction formula (see RedistTimeModel, which implements that
  // one verbatim): here the simulated network plays the role of the real
  // machine, where endpoint serialization and link contention are what the
  // paper's measured 10–25% redistribution-time gains come from.
  double serial = 0.0;
  for (const int r : scratch_->touched) {
    const detail::RankTimes& t = scratch_->ranks[static_cast<std::size_t>(r)];
    serial = std::max(serial, std::max(t.send, t.recv));
  }
  release();
  // Contended quantity: on direct networks messages occupy every link they
  // traverse (hop-bytes); on switched fabrics the core carries each byte
  // once regardless of the 2/4-hop switch path.
  const Topology& topo = comm_->topology();
  const double contended_bytes = static_cast<double>(
      topo.is_direct_network() ? rep_.hop_bytes : rep_.total_bytes);
  rep_.modeled_time =
      std::max(serial, contended_bytes / topo.aggregate_capacity());
  return rep_;
}

TrafficReport SimComm::gatherv(std::span<const std::int64_t> bytes_per_rank,
                               int root) const {
  ST_CHECK_MSG(static_cast<int>(bytes_per_rank.size()) == size(),
               "gatherv needs one byte count per rank");
  require_rank(root);
  AlltoallvPhase phase(*this);
  for (int r = 0; r < size(); ++r)
    phase.add(r, root, bytes_per_rank[static_cast<std::size_t>(r)]);
  return phase.finish();
}

TrafficReport SimComm::bcast(std::int64_t bytes, int root) const {
  require_rank(root);
  ST_CHECK_MSG(bytes >= 0, "negative broadcast size");
  TrafficReport rep;
  if (size() <= 1 || bytes == 0) return rep;

  // Binomial tree: in round k, ranks that already hold the payload forward
  // it 2^k positions away (modulo rotation around the root).
  int have = 1;
  while (have < size()) {
    double round_time = 0.0;
    for (int i = 0; i < have && i + have < size(); ++i) {
      const int src = (root + i) % size();
      const int dst = (root + i + have) % size();
      const int h = hops(src, dst);
      rep.total_bytes += bytes;
      rep.hop_bytes += bytes * h;
      rep.num_messages += 1;
      rep.max_hops = std::max(rep.max_hops, h);
      round_time = std::max(round_time, topo_->pair_time(h, bytes));
    }
    rep.modeled_time += round_time;
    have *= 2;
  }
  return rep;
}

}  // namespace stormtrack
