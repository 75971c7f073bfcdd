#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <utility>
#include <vector>

#include "src/net/channel.h"
#include "src/net/mobility.h"
#include "src/net/topology.h"
#include "src/sim/simulator.h"

namespace essat::net {
namespace {

using util::Time;

// Brute-force all-pairs reference (the pre-grid neighbor build).
std::vector<std::vector<NodeId>> all_pairs_neighbors(
    const std::vector<Position>& pos, double range) {
  std::vector<std::vector<NodeId>> out(pos.size());
  for (std::size_t i = 0; i < pos.size(); ++i) {
    for (std::size_t j = i + 1; j < pos.size(); ++j) {
      if (distance(pos[i], pos[j]) <= range) {
        out[i].push_back(static_cast<NodeId>(j));
        out[j].push_back(static_cast<NodeId>(i));
      }
    }
  }
  return out;
}

// ------------------------------------------------------ grid spatial index

TEST(TopologyGrid, NeighborListsIdenticalToAllPairsScan) {
  util::Rng rng{11};
  for (int trial = 0; trial < 8; ++trial) {
    const std::size_t n = 20 + static_cast<std::size_t>(trial) * 60;
    const Topology topo = Topology::uniform_random(n, 400.0, 125.0, rng);
    const auto reference = all_pairs_neighbors(topo.positions(), topo.range());
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(topo.neighbors(static_cast<NodeId>(i)), reference[i])
          << "node " << i << " trial " << trial;
    }
  }
}

TEST(TopologyGrid, MatchesAllPairsOnEverySpecKind) {
  util::Rng rng{5};
  for (TopologyKind kind :
       {TopologyKind::kUniform, TopologyKind::kGrid, TopologyKind::kLine,
        TopologyKind::kClustered, TopologyKind::kCorridor}) {
    DeploymentSpec spec;
    spec.kind = kind;
    spec.num_nodes = 60;
    const Topology topo = spec.build(rng);
    const auto reference = all_pairs_neighbors(topo.positions(), topo.range());
    for (std::size_t i = 0; i < topo.num_nodes(); ++i) {
      EXPECT_EQ(topo.neighbors(static_cast<NodeId>(i)), reference[i])
          << topology_kind_name(kind) << " node " << i;
    }
  }
}

TEST(TopologyGrid, DegenerateCases) {
  // Empty and single-node topologies, plus co-located nodes.
  const Topology empty{{}, 100.0};
  EXPECT_EQ(empty.num_nodes(), 0u);
  const Topology one{{Position{3.0, 4.0}}, 100.0};
  EXPECT_TRUE(one.neighbors(0).empty());
  const Topology same{{Position{1.0, 1.0}, Position{1.0, 1.0}}, 100.0};
  EXPECT_EQ(same.neighbors(0), std::vector<NodeId>{1});
  EXPECT_EQ(same.neighbors(1), std::vector<NodeId>{0});
}

TEST(TopologyGrid, SparseHugeExtentStaysExact) {
  // Two clusters separated by an extent vastly larger than the range: the
  // cell-capping fallback must not change results (or blow up memory).
  std::vector<Position> pos;
  for (int i = 0; i < 10; ++i) pos.push_back(Position{i * 10.0, 0.0});
  for (int i = 0; i < 10; ++i) pos.push_back(Position{1e7 + i * 10.0, 5.0});
  const Topology topo{pos, 125.0};
  const auto reference = all_pairs_neighbors(pos, 125.0);
  for (std::size_t i = 0; i < pos.size(); ++i) {
    EXPECT_EQ(topo.neighbors(static_cast<NodeId>(i)), reference[i]);
  }
}

TEST(TopologyGrid, ListsAscendingWithoutSelf) {
  // The routing layer iterates lists in place and relies on this order for
  // its deterministic child order.
  util::Rng rng{17};
  for (TopologyKind kind :
       {TopologyKind::kUniform, TopologyKind::kGrid, TopologyKind::kLine,
        TopologyKind::kClustered, TopologyKind::kCorridor}) {
    DeploymentSpec spec;
    spec.kind = kind;
    spec.num_nodes = 90;
    const Topology topo = spec.build(rng);
    for (std::size_t i = 0; i < topo.num_nodes(); ++i) {
      const NeighborSpan list = topo.neighbors(static_cast<NodeId>(i));
      for (std::size_t k = 0; k < list.size(); ++k) {
        EXPECT_NE(list[k], static_cast<NodeId>(i)) << topology_kind_name(kind);
        if (k > 0) EXPECT_LT(list[k - 1], list[k]) << topology_kind_name(kind);
      }
    }
  }
}

TEST(TopologyGrid, CityScaleMatchesSampledAllPairs) {
  // n = 100k at the paper's density (80 nodes per 500 m square, 125 m
  // range), uniform and clustered, plus two paper-density squares 100 km
  // apart: their extent needs more than max_cells cells at the range, so
  // the grid doubles its cell size. A sample of 1000+ lists must equal an
  // O(n) scan; the whole table must be symmetric, ascending and self-free.
  constexpr std::size_t kNodes = 100000;
  constexpr double kRange = 125.0;
  const double area = 500.0 * std::sqrt(static_cast<double>(kNodes) / 80.0);
  util::Rng rng{41};
  std::vector<std::pair<const char*, Topology>> cases;
  cases.emplace_back("uniform", Topology::uniform_random(kNodes, area, kRange, rng));
  cases.emplace_back("clustered", Topology::clustered(kNodes, area, kRange, 8,
                                                      area / 12.0, rng));
  {
    const double side = area / std::sqrt(2.0);
    std::vector<Position> pos;
    pos.reserve(kNodes);
    for (std::size_t i = 0; i < kNodes; ++i) {
      const double off = i % 2 == 0 ? 0.0 : 1e5;
      pos.push_back(Position{off + rng.uniform(0.0, side), off + rng.uniform(0.0, side)});
    }
    cases.emplace_back("two squares 100 km apart", Topology{std::move(pos), kRange});
  }
  for (const auto& [name, topo] : cases) {
    const std::vector<Position>& pos = topo.positions();
    std::size_t entries = 0;
    for (std::size_t i = 0; i < kNodes; ++i) {
      const auto x = static_cast<NodeId>(i);
      const NeighborSpan list = topo.neighbors(x);
      entries += list.size();
      for (std::size_t k = 0; k < list.size(); ++k) {
        ASSERT_NE(list[k], x) << name << " node " << i;
        if (k > 0) ASSERT_LT(list[k - 1], list[k]) << name << " node " << i;
        const NeighborSpan back = topo.neighbors(list[k]);
        ASSERT_TRUE(std::binary_search(back.begin(), back.end(), x))
            << name << ": " << list[k] << " lacks " << i;
      }
    }
    EXPECT_GT(entries, 10 * kNodes) << name;
    std::size_t sampled = 0;
    for (std::size_t i = 0; i < kNodes; i += 97, ++sampled) {
      std::vector<NodeId> reference;
      for (std::size_t j = 0; j < kNodes; ++j) {
        if (j != i && distance(pos[i], pos[j]) <= kRange) {
          reference.push_back(static_cast<NodeId>(j));
        }
      }
      ASSERT_EQ(topo.neighbors(static_cast<NodeId>(i)), reference) << name << " node " << i;
    }
    EXPECT_GE(sampled, 1000u);
  }
}

// ---------------------------------------------- incremental (Verlet) path

void expect_matches_all_pairs(const Topology& topo, int epoch) {
  const auto reference = all_pairs_neighbors(topo.positions(), topo.range());
  for (std::size_t i = 0; i < topo.num_nodes(); ++i) {
    ASSERT_EQ(topo.neighbors(static_cast<NodeId>(i)), reference[i])
        << "node " << i << " epoch " << epoch;
  }
}

TEST(TopologyVerlet, WaypointMatchesAllPairsEveryEpoch) {
  // Walking speed (candidates reused for many epochs) and >= 50 m/s (a
  // refresh nearly every epoch): both must equal the all-pairs scan.
  for (const double speed : {1.5, 60.0}) {
    util::Rng rng{23};
    Topology topo = Topology::uniform_random(120, 500.0, 125.0, rng);
    RandomWaypointParams params;
    params.speed_min_mps = speed;
    params.speed_max_mps = speed;
    params.pause_s = 0.5;
    const Time epoch = Time::from_milliseconds(200);
    topo.set_mobility_model(
        std::make_shared<RandomWaypointMobility>(topo.positions(), 500.0, 500.0,
                                                 params, util::Rng{31}),
        epoch);
    const int epochs = 400;
    for (int e = 1; e <= epochs; ++e) {
      topo.advance_to(epoch * e);
      expect_matches_all_pairs(topo, e);
    }
    EXPECT_GT(topo.table_publishes(), 0u) << speed;
    if (speed > 50.0) {
      EXPECT_GT(topo.candidate_refreshes(), static_cast<std::uint64_t>(epochs) / 2);
    } else {
      EXPECT_LT(topo.candidate_refreshes(), static_cast<std::uint64_t>(epochs) / 4);
    }
  }
}

TEST(TopologyVerlet, TraceTeleportAcrossAreaMatchesAllPairs) {
  // A 6x6 lattice at 100 m spacing; node 0 jumps from one corner to the
  // opposite one within a single epoch, then back, while node 7 drifts.
  std::vector<Position> initial;
  for (int r = 0; r < 6; ++r) {
    for (int c = 0; c < 6; ++c) initial.push_back(Position{c * 100.0, r * 100.0});
  }
  WaypointTrace jump;
  jump.node = 0;
  jump.points = {{Time::seconds(1), Position{0.0, 0.0}},
                 {Time::seconds(1) + Time::nanoseconds(1), Position{510.0, 505.0}},
                 {Time::seconds(3), Position{510.0, 505.0}},
                 {Time::seconds(3) + Time::nanoseconds(1), Position{5.0, 0.0}}};
  WaypointTrace drift;
  drift.node = 7;
  drift.points = {{Time::seconds(4), Position{160.0, 140.0}}};
  Topology topo{initial, 125.0};
  topo.set_mobility_model(std::make_shared<WaypointTraceMobility>(
                              initial, std::vector<WaypointTrace>{jump, drift}),
                          Time::from_milliseconds(250));
  for (int e = 1; e <= 20; ++e) {
    topo.advance_to(Time::from_milliseconds(250) * e);
    expect_matches_all_pairs(topo, e);
  }
  EXPECT_EQ(topo.neighbors(0), (std::vector<NodeId>{1, 6}));
  EXPECT_GE(topo.candidate_refreshes(), 3u);  // first epoch plus each jump
}

// A frozen topology over `pos`, and a mobile one whose odd nodes start
// 3 * range further out and reach `pos` at t = 1 s: both must match the
// all-pairs scan throughout.
void expect_exact_frozen_and_mobile(const std::vector<Position>& pos, double range) {
  expect_matches_all_pairs(Topology{pos, range}, 0);
  std::vector<Position> start = pos;
  std::vector<WaypointTrace> traces;
  for (std::size_t i = 1; i < pos.size(); i += 2) {
    start[i].x += 3.0 * range;
    WaypointTrace tr;
    tr.node = static_cast<NodeId>(i);
    tr.points = {{Time::seconds(1), pos[i]}};
    traces.push_back(tr);
  }
  Topology mobile{start, range};
  mobile.set_mobility_model(std::make_shared<WaypointTraceMobility>(start, traces),
                            Time::from_milliseconds(250));
  for (int e = 1; e <= 5; ++e) {
    mobile.advance_to(Time::from_milliseconds(250) * e);
    expect_matches_all_pairs(mobile, e);
  }
  ASSERT_EQ(mobile.positions(), pos);
}

TEST(TopologyVerlet, RangeBoundaryExactToTheUlp) {
  util::Rng rng{43};
  // 130 m and 10 m are radii whose sq_cutoff lies one ulp above
  // fl(r * r): a naive d2 <= r * r test drops their pairs at d2 == cutoff.
  for (const double range : {125.0, 130.0, 10.0, 0.1, 77.7, 1.0 / 3.0}) {
    // Pairs on the x axis, 1 km apart in y, so each distance() is exactly
    // the gap: one ulp in, exactly range, one ulp out.
    const std::vector<Position> axis{
        Position{0.0, 0.0}, Position{std::nextafter(range, 0.0), 0.0},
        Position{0.0, 1000.0}, Position{range, 1000.0},
        Position{0.0, 2000.0}, Position{std::nextafter(range, 1e300), 2000.0}};
    ASSERT_EQ(distance(axis[2], axis[3]), range);
    expect_exact_frozen_and_mobile(axis, range);
    const Topology frozen{axis, range};
    EXPECT_EQ(frozen.neighbors(0), std::vector<NodeId>{1}) << range;
    EXPECT_EQ(frozen.neighbors(2), std::vector<NodeId>{3}) << range;
    EXPECT_TRUE(frozen.neighbors(4).empty()) << range;

    // Pairs at range in random directions, one per topology so no
    // translation adds rounding: their squared distances scatter over a
    // few ulps around range^2, onto the cutoff itself too.
    int at_cutoff = 0;
    for (int k = 0; k < 200; ++k) {
      const double theta = rng.uniform(0.0, 6.283185307179586);
      const std::vector<Position> pair{
          Position{0.0, 0.0}, Position{range * std::cos(theta), range * std::sin(theta)}};
      at_cutoff += distance_sq(pair[0], pair[1]) == sq_cutoff(range);
      expect_exact_frozen_and_mobile(pair, range);
    }
    if (sq_cutoff(range) != range * range) EXPECT_GT(at_cutoff, 0) << range;
  }
}

TEST(TopologyVerlet, CoLocatedAndTinyTopologies) {
  for (const std::size_t n : {std::size_t{0}, std::size_t{1}, std::size_t{5}}) {
    // n co-located nodes moving together; with n = 0 and 1 nothing links.
    const std::vector<Position> initial(n, Position{50.0, 50.0});
    std::vector<WaypointTrace> traces;
    for (std::size_t i = 0; i < n; ++i) {
      WaypointTrace tr;
      tr.node = static_cast<NodeId>(i);
      tr.points = {{Time::seconds(2), Position{400.0, 400.0}}};
      traces.push_back(tr);
    }
    Topology topo{initial, 125.0};
    topo.set_mobility_model(std::make_shared<WaypointTraceMobility>(initial, traces),
                            Time::from_milliseconds(500));
    for (int e = 1; e <= 8; ++e) {
      topo.advance_to(Time::from_milliseconds(500) * e);
      expect_matches_all_pairs(topo, e);
      for (std::size_t i = 0; i < n; ++i) {
        EXPECT_EQ(topo.neighbors(static_cast<NodeId>(i)).size(), n - 1);
      }
    }
    EXPECT_EQ(topo.table_publishes(), 0u);  // co-moving: no list ever changes
  }
}

TEST(TopologyVerlet, SqCutoffAgreesWithSqrt) {
  util::Rng rng{41};
  std::vector<double> radii{125.0, 0.1, 1.0, 1.0 / 3.0, 1e-150, 1e150, 3.0e-5};
  for (int i = 0; i < 2000; ++i) {
    radii.push_back(std::exp(rng.uniform(std::log(1e-6), std::log(1e9))));
  }
  for (const double r : radii) {
    const double cutoff = sq_cutoff(r);
    ASSERT_LE(std::sqrt(cutoff), r);
    ASSERT_GT(std::sqrt(std::nextafter(cutoff, 1e308)), r);
    // Walk 40 ulps either side of r * r.
    double d2 = r * r;
    for (int k = 0; k < 40; ++k) d2 = std::nextafter(d2, 0.0);
    for (int k = 0; k < 81; ++k) {
      ASSERT_EQ(d2 <= cutoff, std::sqrt(d2) <= r) << "r=" << r << " d2=" << d2;
      d2 = std::nextafter(d2, 1e308);
    }
  }
  EXPECT_EQ(sq_cutoff(std::numeric_limits<double>::infinity()),
            std::numeric_limits<double>::infinity());
  EXPECT_LT(sq_cutoff(-1.0), 0.0);
}

// ----------------------------------------------------------- static model

TEST(Mobility, StaticModelNeverMoves) {
  util::Rng rng{3};
  Topology topo = Topology::uniform_random(30, 300.0, 125.0, rng);
  const std::vector<Position> before = topo.positions();
  const auto neighbors_before = topo.neighbors(0);

  topo.set_mobility_model(std::make_shared<StaticMobility>(before),
                          Time::seconds(5));
  EXPECT_TRUE(topo.time_varying());
  topo.advance_to(Time::seconds(5));
  topo.advance_to(Time::seconds(123));
  EXPECT_EQ(topo.positions(), before);
  EXPECT_EQ(topo.neighbors(0), neighbors_before);
}

TEST(Mobility, AdvanceRebuildsOncePerEpoch) {
  util::Rng rng{3};
  Topology topo = Topology::uniform_random(10, 300.0, 125.0, rng);
  topo.set_mobility_model(std::make_shared<StaticMobility>(topo.positions()),
                          Time::seconds(5));
  const auto base = topo.neighbor_rebuilds();
  topo.advance_to(Time::seconds(2));           // still epoch 0
  EXPECT_EQ(topo.neighbor_rebuilds(), base);
  topo.advance_to(Time::seconds(5));           // epoch 1
  EXPECT_EQ(topo.neighbor_rebuilds(), base + 1);
  topo.advance_to(Time::seconds(7));           // still epoch 1
  EXPECT_EQ(topo.neighbor_rebuilds(), base + 1);
  topo.advance_to(Time::seconds(15));          // epoch 3 (lazy: one rebuild)
  EXPECT_EQ(topo.neighbor_rebuilds(), base + 2);
}

TEST(Mobility, NoModelAdvanceIsNoOp) {
  util::Rng rng{3};
  Topology topo = Topology::uniform_random(10, 300.0, 125.0, rng);
  EXPECT_FALSE(topo.time_varying());
  const auto base = topo.neighbor_rebuilds();
  topo.advance_to(Time::seconds(100));
  EXPECT_EQ(topo.neighbor_rebuilds(), base);
}

// -------------------------------------------------------- random waypoint

TEST(Mobility, RandomWaypointStaysInBoundsAndMoves) {
  std::vector<Position> initial(20, Position{250.0, 250.0});
  RandomWaypointParams params;
  params.speed_min_mps = 1.0;
  params.speed_max_mps = 2.0;
  params.pause_s = 1.0;
  RandomWaypointMobility model{initial, 500.0, 500.0, params, util::Rng{9}};

  std::vector<Position> pos;
  bool moved = false;
  for (int s = 0; s <= 600; s += 5) {
    model.positions_at(Time::seconds(s), pos);
    ASSERT_EQ(pos.size(), initial.size());
    for (const Position& p : pos) {
      EXPECT_GE(p.x, 0.0);
      EXPECT_LE(p.x, 500.0);
      EXPECT_GE(p.y, 0.0);
      EXPECT_LE(p.y, 500.0);
    }
    if (distance(pos[0], initial[0]) > 1.0) moved = true;
  }
  EXPECT_TRUE(moved);
}

TEST(Mobility, RandomWaypointRespectsSpeedBound) {
  std::vector<Position> initial(8, Position{100.0, 100.0});
  RandomWaypointParams params;
  params.speed_min_mps = 1.0;
  params.speed_max_mps = 2.0;
  params.pause_s = 0.0;
  RandomWaypointMobility model{initial, 200.0, 200.0, params, util::Rng{4}};

  std::vector<Position> prev, cur;
  model.positions_at(Time::zero(), prev);
  for (int s = 1; s <= 200; ++s) {
    model.positions_at(Time::seconds(s), cur);
    for (std::size_t i = 0; i < cur.size(); ++i) {
      // One second at top speed 2 m/s; small slack for a turn mid-interval
      // (the displacement chord is at most the path length).
      EXPECT_LE(distance(prev[i], cur[i]), 2.0 + 1e-9);
    }
    prev = cur;
  }
}

TEST(Mobility, RandomWaypointDeterministicPerSeedAndNode) {
  std::vector<Position> initial;
  for (int i = 0; i < 6; ++i) initial.push_back(Position{i * 10.0, 0.0});
  RandomWaypointParams params;
  auto run = [&](std::uint64_t seed) {
    RandomWaypointMobility m{initial, 300.0, 300.0, params, util::Rng{seed}};
    std::vector<Position> out;
    m.positions_at(Time::seconds(97), out);
    return out;
  };
  EXPECT_EQ(run(5), run(5));
  EXPECT_NE(run(5), run(6));
}

// --------------------------------------------------------- trace playback

TEST(Mobility, TraceInterpolatesAndHolds) {
  std::vector<Position> initial{Position{0.0, 0.0}, Position{50.0, 0.0}};
  WaypointTrace tr;
  tr.node = 0;
  tr.points = {{Time::seconds(10), Position{100.0, 0.0}},
               {Time::seconds(20), Position{100.0, 40.0}}};
  WaypointTraceMobility model{initial, {tr}};

  std::vector<Position> pos;
  model.positions_at(Time::zero(), pos);
  EXPECT_EQ(pos[0], (Position{0.0, 0.0}));
  model.positions_at(Time::seconds(5), pos);  // halfway to the first point
  EXPECT_NEAR(pos[0].x, 50.0, 1e-9);
  model.positions_at(Time::seconds(15), pos);  // halfway between checkpoints
  EXPECT_NEAR(pos[0].x, 100.0, 1e-9);
  EXPECT_NEAR(pos[0].y, 20.0, 1e-9);
  model.positions_at(Time::seconds(60), pos);  // past the last: hold
  EXPECT_EQ(pos[0], (Position{100.0, 40.0}));
  // Node 1 has no trace and never moves.
  EXPECT_EQ(pos[1], (Position{50.0, 0.0}));
}

TEST(Mobility, TraceValidation) {
  std::vector<Position> initial{Position{0.0, 0.0}};
  WaypointTrace unknown;
  unknown.node = 5;
  EXPECT_THROW((WaypointTraceMobility{initial, {unknown}}), std::invalid_argument);
  WaypointTrace unordered;
  unordered.node = 0;
  unordered.points = {{Time::seconds(10), Position{}}, {Time::seconds(10), Position{}}};
  EXPECT_THROW((WaypointTraceMobility{initial, {unordered}}), std::invalid_argument);
}

// ------------------------------------------------------------- neighbors
// track motion through advance_to

TEST(Mobility, AdvanceUpdatesNeighborSets) {
  // Node 1 starts out of range of node 0 and walks into range by t = 10 s.
  std::vector<Position> initial{Position{0.0, 0.0}, Position{200.0, 0.0}};
  Topology topo{initial, 125.0};
  EXPECT_TRUE(topo.neighbors(0).empty());

  WaypointTrace tr;
  tr.node = 1;
  tr.points = {{Time::seconds(10), Position{100.0, 0.0}}};
  topo.set_mobility_model(
      std::make_shared<WaypointTraceMobility>(initial, std::vector<WaypointTrace>{tr}),
      Time::seconds(5));

  topo.advance_to(Time::seconds(5));  // halfway: still 150 m apart
  EXPECT_TRUE(topo.neighbors(0).empty());
  topo.advance_to(Time::seconds(10));
  EXPECT_EQ(topo.neighbors(0), std::vector<NodeId>{1});
  EXPECT_EQ(topo.neighbors(1), std::vector<NodeId>{0});
  EXPECT_TRUE(topo.in_range(0, 1));
}

// A neighbor rebuild landing mid-frame must not corrupt the channel's
// carrier-sense bookkeeping: the receiver set is frozen at transmit time.
TEST(Mobility, ChannelSurvivesEpochTickMidFrame) {
  std::vector<Position> initial{Position{0.0, 0.0}, Position{100.0, 0.0}};
  Topology topo{initial, 125.0};
  WaypointTrace tr;
  tr.node = 1;  // walks out of range while the frame is on the air
  tr.points = {{Time::from_milliseconds(1.0), Position{1000.0, 0.0}}};
  topo.set_mobility_model(
      std::make_shared<WaypointTraceMobility>(initial, std::vector<WaypointTrace>{tr}),
      Time::from_milliseconds(0.5));

  sim::Simulator sim;
  Channel ch{sim, topo};
  struct Counting : ChannelListener {
    int completions = 0;
    void on_rx_complete(const Packet&, bool ok) override {
      ++completions;
      EXPECT_TRUE(ok);
    }
    void on_channel_activity() override {}
  } l1;
  ch.attach(1, &l1);
  ch.set_listening(1, true);
  int& completions = l1.completions;

  DataHeader h;
  ch.start_tx(0, make_data_packet(0, 1, h), Time::from_milliseconds(2.0));
  // Rebuild neighbors mid-frame: node 1 leaves node 0's range.
  sim.schedule_at(Time::from_milliseconds(1.0),
                  [&] { topo.advance_to(Time::from_milliseconds(1.0)); });
  sim.run();

  EXPECT_EQ(completions, 1);
  EXPECT_FALSE(ch.busy(1));  // arriving_count drained cleanly
  EXPECT_TRUE(topo.neighbors(0).empty());
}

// A frame whose airtime spans epochs that change the sender's list keeps
// the receivers frozen at transmit time: a node that walks in mid-frame
// sees neither its begin nor its end, one that walks out still gets both,
// and every carrier-sense count drains back to idle.
TEST(Mobility, FrameKeepsFrozenReceiversAcrossListChanges) {
  std::vector<Position> initial{Position{0.0, 0.0}, Position{100.0, 0.0},
                                Position{400.0, 0.0}};
  Topology topo{initial, 125.0};
  WaypointTrace leaves;
  leaves.node = 1;
  leaves.points = {{Time::from_milliseconds(1.0), Position{1000.0, 0.0}}};
  WaypointTrace arrives;
  arrives.node = 2;
  arrives.points = {{Time::from_milliseconds(1.0), Position{50.0, 0.0}},
                    {Time::from_milliseconds(2.0), Position{50.0, 0.0}},
                    {Time::from_milliseconds(3.0), Position{400.0, 0.0}}};
  topo.set_mobility_model(
      std::make_shared<WaypointTraceMobility>(
          initial, std::vector<WaypointTrace>{leaves, arrives}),
      Time::from_milliseconds(0.5));

  sim::Simulator sim;
  Channel ch{sim, topo};
  struct Counting : ChannelListener {
    int ok = 0;
    int bad = 0;
    void on_rx_complete(const Packet&, bool good) override { ++(good ? ok : bad); }
    void on_channel_activity() override {}
  } l1, l2;
  ch.attach(1, &l1);
  ch.attach(2, &l2);
  ch.set_listening(1, true);
  ch.set_listening(2, true);

  const auto frozen = topo.neighbors_handle();
  DataHeader h;
  ch.start_tx(0, make_data_packet(0, kNoNode, h), Time::from_milliseconds(4.0));
  for (int e = 1; e <= 9; ++e) {
    const Time t = Time::from_milliseconds(0.5) * e;
    sim.schedule_at(t, [&topo, t] { topo.advance_to(t); });
  }
  bool was_busy_2 = false;
  sim.schedule_at(Time::from_milliseconds(2.0), [&] { was_busy_2 = ch.busy(2); });
  sim.run();

  EXPECT_GE(topo.table_publishes(), 2u);  // lists changed under the frame
  EXPECT_EQ(frozen->neighbors(0), std::vector<NodeId>{1});  // never rewritten
  EXPECT_EQ(l1.ok, 1);
  EXPECT_EQ(l1.bad, 0);
  EXPECT_EQ(l2.ok + l2.bad, 0);
  EXPECT_FALSE(was_busy_2);
  for (NodeId n = 0; n < 3; ++n) EXPECT_FALSE(ch.busy(n)) << n;
}

// ------------------------------------------------------------------ spec

TEST(MobilitySpec, KindNamesRoundTrip) {
  for (MobilityKind k : {MobilityKind::kStatic, MobilityKind::kRandomWaypoint,
                         MobilityKind::kWaypoints}) {
    EXPECT_EQ(mobility_kind_from_name(mobility_kind_name(k)), k);
  }
  EXPECT_THROW(mobility_kind_from_name("brownian"), std::invalid_argument);
}

TEST(MobilitySpec, StaticBuildsNothingOthersBuild) {
  std::vector<Position> initial{Position{0.0, 0.0}};
  MobilitySpec spec;
  EXPECT_EQ(spec.build(initial, 100.0, 100.0, util::Rng{1}), nullptr);
  EXPECT_EQ(spec.label(), "static");

  spec.kind = MobilityKind::kRandomWaypoint;
  auto waypoint = spec.build(initial, 100.0, 100.0, util::Rng{1});
  ASSERT_NE(waypoint, nullptr);
  EXPECT_STREQ(waypoint->name(), "waypoint");
  EXPECT_EQ(spec.label(), "waypoint@1.5mps");

  spec.kind = MobilityKind::kWaypoints;
  auto trace = spec.build(initial, 100.0, 100.0, util::Rng{1});
  ASSERT_NE(trace, nullptr);
  EXPECT_STREQ(trace->name(), "trace");
  EXPECT_EQ(spec.label(), "trace");
}

TEST(MobilitySpec, DeploymentExtentIsShapeAware) {
  DeploymentSpec d;
  d.area_m = 400.0;
  EXPECT_EQ(d.extent(), (Position{400.0, 400.0}));
  d.kind = TopologyKind::kLine;
  EXPECT_EQ(d.extent(), (Position{400.0, 0.0}));
  d.kind = TopologyKind::kCorridor;
  d.corridor_width_m = 60.0;
  EXPECT_EQ(d.extent(), (Position{400.0, 60.0}));
}

}  // namespace
}  // namespace essat::net
