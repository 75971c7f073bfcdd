#include <gtest/gtest.h>

#include <memory>

#include "src/baselines/psm.h"
#include "src/baselines/span.h"
#include "src/baselines/sync.h"
#include "src/net/channel.h"
#include "src/routing/tree.h"

namespace essat::baselines {
namespace {

using util::Time;

struct BaselineRig {
  explicit BaselineRig(std::size_t n)
      : topo{net::Topology::line(n, 100.0, 125.0)}, channel{sim, topo} {
    for (std::size_t i = 0; i < n; ++i) {
      radios.push_back(std::make_unique<energy::Radio>(sim, energy::RadioParams{}));
      macs.push_back(std::make_unique<mac::CsmaMac>(sim, channel, *radios.back(),
                                                    static_cast<net::NodeId>(i),
                                                    mac::MacParams{}, util::Rng{31 + i}));
    }
  }

  sim::Simulator sim;
  net::Topology topo;
  net::Channel channel;
  std::vector<std::unique_ptr<energy::Radio>> radios;
  std::vector<std::unique_ptr<mac::CsmaMac>> macs;
};

TEST(Sync, DutyCycleMatchesConfiguration) {
  BaselineRig rig{1};
  SyncNode sync{rig.sim, *rig.radios[0], *rig.macs[0], SyncParams{}};
  sync.start(Time::zero());
  rig.radios[0]->begin_measurement();
  rig.sim.run_until(Time::seconds(20));
  // 20% duty, 0.2 s period (§5). Transition latencies push it slightly up.
  EXPECT_NEAR(rig.radios[0]->duty_cycle(), 0.20, 0.05);
}

TEST(Sync, BuffersFramesUntilActiveWindow) {
  BaselineRig rig{2};
  SyncNode s0{rig.sim, *rig.radios[0], *rig.macs[0], SyncParams{}};
  SyncNode s1{rig.sim, *rig.radios[1], *rig.macs[1], SyncParams{}};
  s0.start(Time::milliseconds(200));
  s1.start(Time::milliseconds(200));

  Time delivered_at = Time::zero();
  rig.macs[1]->set_rx_handler([&](const net::Packet&) { delivered_at = rig.sim.now(); });
  // Enqueue mid-sleep (t = 150 ms): must wait for the 200 ms window.
  rig.sim.schedule_at(Time::milliseconds(150), [&] {
    net::DataHeader h;
    rig.macs[0]->send(net::make_data_packet(0, 1, h));
  });
  rig.sim.run_until(Time::seconds(1));
  EXPECT_GE(delivered_at, Time::milliseconds(200));
  EXPECT_LT(delivered_at, Time::milliseconds(240));  // inside the window
}

TEST(Sync, SchedulesAreNetworkSynchronized) {
  BaselineRig rig{2};
  SyncNode s0{rig.sim, *rig.radios[0], *rig.macs[0], SyncParams{}};
  SyncNode s1{rig.sim, *rig.radios[1], *rig.macs[1], SyncParams{}};
  s0.start(Time::zero());
  s1.start(Time::zero());
  rig.sim.run_until(Time::milliseconds(20));
  EXPECT_TRUE(s0.in_active_window());
  EXPECT_TRUE(s1.in_active_window());
  rig.sim.run_until(Time::milliseconds(100));
  EXPECT_FALSE(s0.in_active_window());
  EXPECT_FALSE(s1.in_active_window());
}

TEST(Sync, GuardBlocksLateTransmissions) {
  BaselineRig rig{2};
  SyncParams params;
  SyncNode s0{rig.sim, *rig.radios[0], *rig.macs[0], params};
  SyncNode s1{rig.sim, *rig.radios[1], *rig.macs[1], params};
  s0.start(Time::zero());
  s1.start(Time::zero());
  Time delivered_at = Time::zero();
  rig.macs[1]->set_rx_handler([&](const net::Packet&) { delivered_at = rig.sim.now(); });
  // Enqueue 0.5 ms before the window closes: under the 2 ms guard, so it
  // waits for the next window at 200 ms.
  rig.sim.schedule_at(Time::from_milliseconds(39.5), [&] {
    net::DataHeader h;
    rig.macs[0]->send(net::make_data_packet(0, 1, h));
  });
  rig.sim.run_until(Time::seconds(1));
  EXPECT_GE(delivered_at, Time::milliseconds(200));
}

TEST(Psm, UninvolvedNodesSleepAfterAtimWindow) {
  BaselineRig rig{2};
  PsmNode p0{rig.sim, *rig.radios[0], *rig.macs[0], PsmParams{}};
  PsmNode p1{rig.sim, *rig.radios[1], *rig.macs[1], PsmParams{}};
  p0.start(Time::zero());
  p1.start(Time::zero());
  rig.radios[0]->begin_measurement();
  rig.sim.run_until(Time::seconds(10));
  // No traffic at all: duty = ATIM window / beacon period = 12.5 %.
  EXPECT_NEAR(rig.radios[0]->duty_cycle(), 0.125, 0.03);
  EXPECT_EQ(p0.atims_sent(), 0u);
}

// A node restarted by churn starts its beacon schedule after the network's
// first beacon has passed: the schedule starts now rather than at a time
// already behind the clock (which trips the Timer's armed-in-the-past
// assert in debug builds).
TEST(Psm, RestartedNodeWhoseFirstBeaconPassedStartsNow) {
  BaselineRig rig{1};
  rig.sim.run_until(Time::seconds(1));
  PsmNode p{rig.sim, *rig.radios[0], *rig.macs[0], PsmParams{}};
  p.start(Time::zero());
  rig.sim.run_until(Time::from_milliseconds(1010.0));
  EXPECT_TRUE(rig.radios[0]->is_on());  // ATIM window opened at 1 s
  rig.sim.run_until(Time::from_milliseconds(1030.0));
  EXPECT_TRUE(rig.radios[0]->is_off());  // nothing announced: asleep
  rig.sim.run_until(Time::from_milliseconds(1205.0));
  EXPECT_TRUE(rig.radios[0]->is_on());  // next beacon, one period later
}

TEST(Psm, TrafficAnnouncedAndDeliveredInDataWindow) {
  BaselineRig rig{2};
  PsmNode p0{rig.sim, *rig.radios[0], *rig.macs[0], PsmParams{}};
  PsmNode p1{rig.sim, *rig.radios[1], *rig.macs[1], PsmParams{}};
  p0.start(Time::milliseconds(200));
  p1.start(Time::milliseconds(200));
  Time delivered_at = Time::zero();
  rig.macs[0]->set_rx_handler([&](const net::Packet& p) { p0.handle_packet(p); });
  rig.macs[1]->set_rx_handler([&](const net::Packet& p) {
    if (p.type == net::PacketType::kData) {
      delivered_at = rig.sim.now();
    } else {
      p1.handle_packet(p);
    }
  });
  rig.sim.schedule_at(Time::milliseconds(150), [&] {
    net::DataHeader h;
    rig.macs[0]->send(net::make_data_packet(0, 1, h));
  });
  rig.sim.run_until(Time::seconds(1));
  EXPECT_GE(p0.atims_sent(), 1u);
  // Data goes out in the data window following the ATIM announcement.
  EXPECT_GE(delivered_at, Time::milliseconds(225));
  EXPECT_LT(delivered_at, Time::milliseconds(325));
}

TEST(Psm, InvolvedNodesStayAwakeLonger) {
  BaselineRig rig{2};
  PsmNode p0{rig.sim, *rig.radios[0], *rig.macs[0], PsmParams{}};
  PsmNode p1{rig.sim, *rig.radios[1], *rig.macs[1], PsmParams{}};
  p0.start(Time::zero());
  p1.start(Time::zero());
  rig.macs[0]->set_rx_handler([&](const net::Packet& p) { p0.handle_packet(p); });
  rig.macs[1]->set_rx_handler([&](const net::Packet& p) { p1.handle_packet(p); });
  rig.radios[0]->begin_measurement();
  rig.radios[1]->begin_measurement();
  // Persistent traffic 0 -> 1.
  for (int i = 0; i < 50; ++i) {
    rig.sim.schedule_at(Time::milliseconds(i * 200), [&] {
      net::DataHeader h;
      rig.macs[0]->send(net::make_data_packet(0, 1, h));
    });
  }
  rig.sim.run_until(Time::seconds(10));
  // Involved every interval: ATIM (25 ms) + data window (100 ms) of each
  // 200 ms beacon period = 62.5 %.
  EXPECT_NEAR(rig.radios[0]->duty_cycle(), 0.625, 0.05);
  EXPECT_NEAR(rig.radios[1]->duty_cycle(), 0.625, 0.05);
}

TEST(Span, TreeInteriorNodesAreCoordinators) {
  util::Rng rng{5};
  const auto topo = net::Topology::line(5, 100.0, 125.0);
  const auto tree = routing::build_bfs_tree(topo, 0, 10000.0);
  const auto election = elect_coordinators(topo, tree, rng);
  for (net::NodeId n : tree.members()) {
    if (!tree.is_leaf(n)) {
      EXPECT_TRUE(election.coordinator[static_cast<std::size_t>(n)]) << n;
    }
  }
}

TEST(Span, CoverageRuleHoldsAtFixpoint) {
  // After election, every non-coordinator's neighbor pairs are connected
  // directly or via 1-2 coordinators (SPAN's stability condition).
  util::Rng rng{6};
  auto topo = net::Topology::uniform_random(50, 500.0, 125.0, rng);
  const net::NodeId root = topo.nearest({250, 250});
  const auto tree = routing::build_bfs_tree(topo, root, 300.0);
  util::Rng election_rng{7};
  const auto election = elect_coordinators(topo, tree, election_rng);
  for (net::NodeId n = 0; n < 50; ++n) {
    if (election.coordinator[static_cast<std::size_t>(n)]) continue;
    EXPECT_TRUE(neighbors_covered(topo, election.coordinator, n)) << "node " << n;
  }
}

TEST(Span, BackboneIsNontrivialButNotEveryone) {
  util::Rng rng{8};
  auto topo = net::Topology::uniform_random(80, 500.0, 125.0, rng);
  const net::NodeId root = topo.nearest({250, 250});
  const auto tree = routing::build_bfs_tree(topo, root, 300.0);
  util::Rng election_rng{9};
  const auto election = elect_coordinators(topo, tree, election_rng);
  EXPECT_GT(election.coordinator_count, 5);
  EXPECT_LT(election.coordinator_count, 80);
}

TEST(Span, IsolatedPairNeedsNoExtraCoordinators) {
  // Two nodes, root + leaf: the root is interior (coordinator), the leaf
  // has a single neighbor so the pair rule is vacuous.
  const auto topo = net::Topology::line(2, 100.0, 125.0);
  const auto tree = routing::build_bfs_tree(topo, 0, 10000.0);
  util::Rng rng{10};
  const auto election = elect_coordinators(topo, tree, rng);
  EXPECT_TRUE(election.coordinator[0]);
  EXPECT_FALSE(election.coordinator[1]);
  EXPECT_EQ(election.coordinator_count, 1);
}

}  // namespace
}  // namespace essat::baselines
