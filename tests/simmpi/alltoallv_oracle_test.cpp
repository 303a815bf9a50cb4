/// SimComm::alltoallv keeps its per-rank send/receive sums in dense
/// thread-local scratch. These tests pin it, bit for bit, to a test-local
/// oracle that keeps the sums in two std::unordered_map<int, double> — the
/// straightforward reading of the single-port + contention model — on
/// unsorted message lists with repeated ranks, zero-byte and self messages,
/// and on communicators of different sizes used in turn on one thread, so
/// stale scratch from one phase would show up in the next.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "core/machine.hpp"
#include "simmpi/simcomm.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace stormtrack {
namespace {

TrafficReport oracle_alltoallv(const SimComm& comm,
                               const std::vector<Message>& msgs) {
  TrafficReport rep;
  std::unordered_map<int, double> send_time;
  std::unordered_map<int, double> recv_time;
  for (const Message& m : msgs) {
    if (m.bytes == 0) continue;
    if (m.src == m.dst) {
      rep.local_bytes += m.bytes;
      continue;
    }
    const int h = comm.hops(m.src, m.dst);
    const double t = comm.topology().pair_time(h, m.bytes);
    rep.total_bytes += m.bytes;
    rep.hop_bytes += m.bytes * h;
    rep.num_messages += 1;
    rep.max_hops = std::max(rep.max_hops, h);
    send_time[m.src] += t;
    recv_time[m.dst] += t;
  }
  double serial = 0.0;
  for (const auto& [r, t] : send_time) serial = std::max(serial, t);
  for (const auto& [r, t] : recv_time) serial = std::max(serial, t);
  const Topology& topo = comm.topology();
  const double contended = static_cast<double>(
      topo.is_direct_network() ? rep.hop_bytes : rep.total_bytes);
  rep.modeled_time = std::max(serial, contended / topo.aggregate_capacity());
  return rep;
}

void expect_same(const TrafficReport& got, const TrafficReport& want) {
  EXPECT_EQ(std::bit_cast<std::uint64_t>(got.modeled_time),
            std::bit_cast<std::uint64_t>(want.modeled_time))
      << got.modeled_time << " vs " << want.modeled_time;
  EXPECT_EQ(got.total_bytes, want.total_bytes);
  EXPECT_EQ(got.hop_bytes, want.hop_bytes);
  EXPECT_EQ(got.local_bytes, want.local_bytes);
  EXPECT_EQ(got.num_messages, want.num_messages);
  EXPECT_EQ(got.max_hops, want.max_hops);
}

/// Unsorted messages over a small rank subset, so ranks repeat as senders
/// and receivers; about one in six is a self message and one in eight is
/// empty.
std::vector<Message> random_phase(Xoshiro256& rng, int ranks, int count) {
  const int pool = std::min(ranks, 12);
  std::vector<int> subset;
  for (int i = 0; i < pool; ++i)
    subset.push_back(static_cast<int>(rng.uniform_int(0, ranks - 1)));
  std::vector<Message> msgs;
  for (int i = 0; i < count; ++i) {
    const int src = subset[static_cast<std::size_t>(
        rng.uniform_int(0, pool - 1))];
    int dst = subset[static_cast<std::size_t>(rng.uniform_int(0, pool - 1))];
    if (rng.uniform_int(0, 5) == 0) dst = src;
    const std::int64_t bytes =
        rng.uniform_int(0, 7) == 0 ? 0 : rng.uniform_int(1, 1 << 22);
    msgs.push_back(Message{src, dst, bytes});
  }
  return msgs;
}

TEST(AlltoallvOracle, MatchesMapOracleOnEveryTopology) {
  const Machine machines[] = {Machine::bluegene(256),
                              Machine::fist_cluster(128),
                              Machine::dragonfly(256),
                              Machine::fattree(192)};
  Xoshiro256 rng(0xa11707a11ULL);
  for (const Machine& machine : machines)
    for (int trial = 0; trial < 40; ++trial) {
      const std::vector<Message> msgs = random_phase(
          rng, machine.comm().size(),
          static_cast<int>(rng.uniform_int(0, 60)));
      expect_same(machine.comm().alltoallv(msgs),
                  oracle_alltoallv(machine.comm(), msgs));
    }
}

TEST(AlltoallvOracle, ScratchResetsAcrossCommunicatorsOfDifferentSizes) {
  // Alternate a large and a small communicator on one thread: the dense
  // scratch is sized by the larger one, and every phase must start from
  // zero sums whichever communicator ran before it.
  const Machine big = Machine::bluegene(1024);
  const Machine small = Machine::fist_cluster(64);
  Xoshiro256 rng(0x5c7a7c4ULL);
  for (int round = 0; round < 30; ++round) {
    const Machine& m = round % 2 == 0 ? big : small;
    const std::vector<Message> msgs =
        random_phase(rng, m.comm().size(), 40);
    expect_same(m.comm().alltoallv(msgs), oracle_alltoallv(m.comm(), msgs));
  }
}

TEST(AlltoallvOracle, RepeatedPhaseIsIndependentOfThePreviousOne) {
  const Machine machine = Machine::bluegene(256);
  const std::vector<Message> heavy{Message{5, 9, 1 << 24},
                                   Message{9, 5, 1 << 24}};
  const std::vector<Message> light{Message{5, 9, 16}};
  (void)machine.comm().alltoallv(heavy);
  expect_same(machine.comm().alltoallv(light),
              oracle_alltoallv(machine.comm(), light));
}

TEST(AlltoallvOracle, ThrowingPhaseLeavesNoStaleSums) {
  // A rank-range failure part way through a phase must not leak the sums
  // of the messages before it into the next phase on this thread.
  const Machine machine = Machine::bluegene(256);
  const std::vector<Message> bad{Message{1, 2, 1 << 24},
                                 Message{3, 4, 1 << 24},
                                 Message{0, 256, 10}};
  EXPECT_THROW((void)machine.comm().alltoallv(bad), CheckError);
  const std::vector<Message> good{Message{1, 2, 8}, Message{4, 3, 8}};
  expect_same(machine.comm().alltoallv(good),
              oracle_alltoallv(machine.comm(), good));
}

TEST(AlltoallvOracle, StreamedPhaseEqualsTheListForm) {
  const Machine machine = Machine::dragonfly(256);
  Xoshiro256 rng(0x57eaa3ULL);
  const std::vector<Message> msgs =
      random_phase(rng, machine.comm().size(), 80);
  AlltoallvPhase phase(machine.comm());
  for (const Message& m : msgs) phase.add(m.src, m.dst, m.bytes);
  const TrafficReport streamed = phase.finish();
  expect_same(streamed, machine.comm().alltoallv(msgs));
}

TEST(AlltoallvOracle, OnePhasePerThread) {
  const Machine machine = Machine::bluegene(64);
  AlltoallvPhase outer(machine.comm());
  EXPECT_THROW({ AlltoallvPhase inner(machine.comm()); }, CheckError);
  outer.add(0, 1, 8);
  (void)outer.finish();
  EXPECT_THROW(outer.add(0, 1, 8), CheckError);
}

}  // namespace
}  // namespace stormtrack
