#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <vector>

#include "src/core/dts.h"
#include "src/core/nts.h"
#include "src/core/safe_sleep.h"
#include "src/net/channel.h"
#include "src/query/query_agent.h"

namespace essat::query {
namespace {

using util::Time;

// Full mini-stack on a 4-node chain 0(root) - 1 - 2 - 3(leaf): real radios,
// MACs, channel; a pluggable shaper per node; no Safe Sleep by default so
// the agent's behavior is observed in isolation.
struct AgentRig {
  enum class Shaper { kNts, kDts };

  explicit AgentRig(Shaper kind = Shaper::kNts, bool with_safe_sleep = false)
      : topo{net::Topology::line(4, 100.0, 125.0)},
        tree{routing::build_bfs_tree(topo, 0, 10000.0)},
        channel{sim, topo} {
    for (std::size_t i = 0; i < 4; ++i) {
      radios.push_back(std::make_unique<energy::Radio>(sim, energy::RadioParams{}));
      macs.push_back(std::make_unique<mac::CsmaMac>(sim, channel, *radios.back(),
                                                    static_cast<net::NodeId>(i),
                                                    mac::MacParams{}, util::Rng{50 + i}));
      if (kind == Shaper::kNts) {
        shapers.push_back(std::make_unique<core::NtsShaper>());
      } else {
        shapers.push_back(std::make_unique<core::DtsShaper>());
      }
      if (with_safe_sleep) {
        sleepers.push_back(std::make_unique<core::SafeSleep>(
            sim, *radios.back(), *macs.back(), core::SafeSleepParams{}));
      } else {
        sleepers.push_back(nullptr);
      }
      shapers.back()->set_context(ShaperContext{
          &tree, static_cast<net::NodeId>(i),
          sleepers.back() ? sleepers.back().get() : nullptr});
      agents.push_back(std::make_unique<QueryAgent>(
          sim, *macs.back(), tree, static_cast<net::NodeId>(i), *shapers.back(),
          QueryAgentParams{.t_comp = Time::milliseconds(2)}));
      macs.back()->set_rx_handler(
          [this, i](const net::Packet& p) { agents[i]->handle_packet(p); });
    }
    agents[0]->set_root_arrival_hook(
        [this](const Query& q, std::int64_t k, Time t, int c) {
          arrivals.push_back({q.id, k, t, c});
        });
  }

  void register_everywhere(const Query& q) {
    for (auto& a : agents) a->register_query(q);
  }

  struct Arrival {
    net::QueryId query;
    std::int64_t epoch;
    Time at;
    int contributions;
  };

  sim::Simulator sim;
  net::Topology topo;
  routing::Tree tree;
  net::Channel channel;
  std::vector<std::unique_ptr<energy::Radio>> radios;
  std::vector<std::unique_ptr<mac::CsmaMac>> macs;
  std::vector<std::unique_ptr<TrafficShaper>> shapers;
  std::vector<std::unique_ptr<core::SafeSleep>> sleepers;
  std::vector<std::unique_ptr<QueryAgent>> agents;
  std::vector<Arrival> arrivals;
};

Query one_second_query(Time phase = Time::seconds(1)) {
  Query q;
  q.id = 0;
  q.period = Time::seconds(1);
  q.phase = phase;
  return q;
}

TEST(QueryAgent, EndToEndAggregationReachesRoot) {
  AgentRig rig;
  rig.register_everywhere(one_second_query());
  rig.sim.run_until(Time::seconds(5));
  ASSERT_GE(rig.arrivals.size(), 3u);
  // Each root arrival is one aggregate covering all three non-root members.
  for (const auto& a : rig.arrivals) {
    EXPECT_EQ(a.contributions, 3);
  }
  // Epochs in order, no gaps at the front.
  EXPECT_EQ(rig.arrivals[0].epoch, 0);
  EXPECT_EQ(rig.arrivals[1].epoch, 1);
}

TEST(QueryAgent, LeafGeneratesEveryPeriod) {
  AgentRig rig;
  rig.register_everywhere(one_second_query());
  rig.sim.run_until(Time::from_seconds(6.5));
  // Leaf (node 3) sent epochs 0..5 -> 6 reports.
  EXPECT_EQ(rig.agents[3]->stats().reports_sent, 6u);
  EXPECT_TRUE(rig.agents[3]->is_leaf());
}

TEST(QueryAgent, AggregateLatencyIsBounded) {
  AgentRig rig;
  rig.register_everywhere(one_second_query());
  rig.sim.run_until(Time::seconds(5));
  // NTS with an idle channel: per-hop cost is ~t_comp + one frame; the
  // 3-hop aggregate must arrive well within 10% of the period.
  for (const auto& a : rig.arrivals) {
    const Time epoch_start = Time::seconds(1) + Time::seconds(1) * a.epoch;
    EXPECT_LT((a.at - epoch_start).to_seconds(), 0.1);
  }
}

TEST(QueryAgent, RootDoesNotTransmit) {
  AgentRig rig;
  rig.register_everywhere(one_second_query());
  rig.sim.run_until(Time::seconds(5));
  EXPECT_EQ(rig.agents[0]->stats().reports_sent, 0u);
}

TEST(QueryAgent, DeadlineProducesPartialAggregate) {
  AgentRig rig;
  rig.register_everywhere(one_second_query());
  // Kill the leaf before its first report.
  rig.radios[3]->fail();
  rig.agents[3]->halt();
  rig.sim.run_until(Time::seconds(5));
  ASSERT_GE(rig.arrivals.size(), 2u);
  // Node 2 times out on its child each epoch and sends partial aggregates.
  for (const auto& a : rig.arrivals) EXPECT_EQ(a.contributions, 2);
  EXPECT_GE(rig.agents[2]->stats().partial_finalizes, 2u);
  EXPECT_GE(rig.agents[2]->stats().child_timeouts, 2u);
}

TEST(QueryAgent, ChildMissHookFires) {
  AgentRig rig;
  std::vector<net::NodeId> missed;
  rig.agents[2]->set_child_miss_hook(
      [&](net::NodeId c, std::int64_t) { missed.push_back(c); });
  rig.radios[3]->fail();
  rig.agents[3]->halt();
  rig.register_everywhere(one_second_query());
  rig.sim.run_until(Time::seconds(4));
  ASSERT_GE(missed.size(), 2u);
  EXPECT_EQ(missed[0], 3);
}

TEST(QueryAgent, SendResultHookSeesFailures) {
  AgentRig rig;
  int failures = 0, successes = 0;
  rig.agents[3]->set_send_result_hook([&](net::NodeId parent, bool ok) {
    EXPECT_EQ(parent, 2);
    ok ? ++successes : ++failures;
  });
  // Parent of the leaf is dead: every send fails.
  rig.radios[2]->fail();
  rig.agents[2]->halt();
  rig.register_everywhere(one_second_query());
  rig.sim.run_until(Time::seconds(4));
  EXPECT_GE(failures, 2);
  EXPECT_EQ(successes, 0);
}

TEST(QueryAgent, MultipleQueriesRunConcurrently) {
  AgentRig rig;
  Query q1 = one_second_query();
  Query q2;
  q2.id = 1;
  q2.period = Time::seconds(2);
  q2.phase = Time::from_seconds(1.5);
  rig.register_everywhere(q1);
  rig.register_everywhere(q2);
  rig.sim.run_until(Time::seconds(6));
  int q1_arrivals = 0, q2_arrivals = 0;
  for (const auto& a : rig.arrivals) (a.query == 0 ? q1_arrivals : q2_arrivals)++;
  EXPECT_GE(q1_arrivals, 4);
  EXPECT_GE(q2_arrivals, 2);
}

TEST(QueryAgent, DuplicateRegistrationIgnored) {
  AgentRig rig;
  const Query q = one_second_query();
  rig.agents[3]->register_query(q);
  rig.agents[3]->register_query(q);
  rig.register_everywhere(q);
  rig.sim.run_until(Time::from_seconds(2.5));
  // Two epochs, one report each despite the double registration.
  EXPECT_EQ(rig.agents[3]->stats().reports_sent, 2u);
}

TEST(QueryAgent, HaltStopsAllActivity) {
  AgentRig rig;
  rig.register_everywhere(one_second_query());
  rig.sim.run_until(Time::from_seconds(2.5));
  const auto sent_before = rig.agents[3]->stats().reports_sent;
  rig.agents[3]->halt();
  rig.sim.run_until(Time::seconds(6));
  EXPECT_EQ(rig.agents[3]->stats().reports_sent, sent_before);
}

// A leaf restarted after its first epoch's start has passed: the report for
// that epoch goes out at once, not at a time already behind the clock (which
// trips the Timer's armed-in-the-past assert in debug builds).
TEST(QueryAgent, RestartedLeafWhoseEpochStartPassedSendsNow) {
  AgentRig rig;
  const Query q = one_second_query();
  for (std::size_t i = 0; i < 3; ++i) rig.agents[i]->register_query(q);
  rig.sim.run_until(Time::from_seconds(2.5));
  ASSERT_LT(q.epoch_start(1), rig.sim.now());
  rig.agents[3]->register_query_from(q, 1);
  rig.sim.run_until(Time::from_seconds(2.6));
  EXPECT_EQ(rig.agents[3]->stats().reports_sent, 1u);  // epoch 1, sent at 2.5 s
  rig.sim.run_until(Time::from_seconds(3.5));
  EXPECT_EQ(rig.agents[3]->stats().reports_sent, 2u);  // epoch 2, on schedule
}

TEST(QueryAgent, ChildRemovedUnblocksPendingEpoch) {
  AgentRig rig;
  rig.radios[3]->fail();
  rig.agents[3]->halt();
  rig.register_everywhere(one_second_query());
  // Before the epoch-0 deadline, the repair layer removes the dead child.
  rig.sim.run_until(Time::from_seconds(1.05));
  rig.tree.remove_node(3);
  rig.tree.recompute_ranks();
  rig.agents[2]->child_removed(3);
  rig.sim.run_until(Time::from_seconds(1.5));
  // Epoch 0 finalized (as complete) without waiting for the deadline.
  ASSERT_GE(rig.arrivals.size(), 1u);
  EXPECT_EQ(rig.arrivals[0].contributions, 2);
  EXPECT_EQ(rig.agents[2]->stats().partial_finalizes, 0u);
}

TEST(QueryAgent, DtsPhaseUpdatesFlowThroughNetwork) {
  AgentRig rig{AgentRig::Shaper::kDts};
  rig.register_everywhere(one_second_query());
  rig.sim.run_until(Time::seconds(6));
  // Interior nodes are initially late (s(0) = φ but aggregation takes
  // T_collect + T_comp), so phase shifts + advertisements must occur.
  auto* dts1 = dynamic_cast<core::DtsShaper*>(rig.shapers[1].get());
  auto* dts2 = dynamic_cast<core::DtsShaper*>(rig.shapers[2].get());
  ASSERT_NE(dts1, nullptr);
  EXPECT_GE(dts1->phase_shifts() + dts2->phase_shifts(), 1u);
  // And the system still delivers complete aggregates after convergence.
  ASSERT_GE(rig.arrivals.size(), 3u);
  EXPECT_EQ(rig.arrivals.back().contributions, 3);
}

TEST(QueryAgent, DtsConvergesToSilence) {
  AgentRig rig{AgentRig::Shaper::kDts};
  rig.register_everywhere(one_second_query());
  rig.sim.run_until(Time::seconds(10));
  auto* dts2 = dynamic_cast<core::DtsShaper*>(rig.shapers[2].get());
  const auto updates_mid = dts2->phase_updates_sent();
  rig.sim.run_until(Time::seconds(20));
  // After convergence no further phase updates are needed: "its
  // communication overhead is small" (§4.2.3).
  EXPECT_LE(dts2->phase_updates_sent() - updates_mid, 2u);
}

TEST(QueryAgent, EndToEndWithSafeSleepStillDelivers) {
  AgentRig rig{AgentRig::Shaper::kDts, /*with_safe_sleep=*/true};
  for (auto& s : rig.sleepers) s->set_setup_end(Time::milliseconds(500));
  rig.register_everywhere(one_second_query());
  rig.sim.run_until(Time::seconds(10));
  // Sleep scheduling must not break delivery (the "safe" in Safe Sleep).
  std::map<std::int64_t, int> contribs;
  for (const auto& a : rig.arrivals) contribs[a.epoch] += a.contributions;
  int complete = 0;
  for (const auto& [k, c] : contribs) complete += (c >= 3);
  EXPECT_GE(complete, 7);
  // And the leaf actually slept between epochs.
  EXPECT_LT(rig.radios[3]->duty_cycle(), 0.9);
}

}  // namespace
}  // namespace essat::query
