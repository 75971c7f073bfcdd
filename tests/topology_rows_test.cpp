// Demand-filled static neighbor rows: every row equals the all-pairs scan
// whatever order rows are read in, spans stay valid as other rows fill, and
// a trial that reads only its routing tree fills only those rows.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "src/net/topology.h"
#include "src/routing/parent_policy.h"
#include "src/routing/tree.h"
#include "src/snap/serializer.h"
#include "src/util/rng.h"

namespace essat::net {
namespace {

std::vector<std::vector<NodeId>> all_pairs_neighbors(const Topology& topo) {
  const std::vector<Position>& pos = topo.positions();
  std::vector<std::vector<NodeId>> out(pos.size());
  for (std::size_t i = 0; i < pos.size(); ++i) {
    for (std::size_t j = i + 1; j < pos.size(); ++j) {
      if (distance(pos[i], pos[j]) <= topo.range()) {
        out[i].push_back(static_cast<NodeId>(j));
        out[j].push_back(static_cast<NodeId>(i));
      }
    }
  }
  return out;
}

// Two paper-density squares 100 km apart: the extent needs more cells than
// the index allows at the range, so it doubles its cell size.
Topology two_squares(std::size_t n, util::Rng& rng) {
  const double side = 500.0 * std::sqrt(static_cast<double>(n) / 160.0);
  std::vector<Position> pos;
  pos.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double off = i % 2 == 0 ? 0.0 : 1e5;
    pos.push_back(Position{off + rng.uniform(0.0, side), off + rng.uniform(0.0, side)});
  }
  return Topology{std::move(pos), 125.0};
}

std::vector<std::pair<std::string, Topology>> every_generator(std::size_t n,
                                                              util::Rng& rng) {
  std::vector<std::pair<std::string, Topology>> out;
  for (TopologyKind kind :
       {TopologyKind::kUniform, TopologyKind::kGrid, TopologyKind::kLine,
        TopologyKind::kClustered, TopologyKind::kCorridor}) {
    DeploymentSpec spec;
    spec.kind = kind;
    spec.num_nodes = static_cast<int>(n);
    // Paper density at every size.
    spec.area_m = 500.0 * std::sqrt(std::max(1.0, static_cast<double>(n) / 80.0));
    out.emplace_back(topology_kind_name(kind), spec.build(rng));
  }
  out.emplace_back("two squares", two_squares(n, rng));
  return out;
}

std::vector<std::uint8_t> topo_bytes(const Topology& topo) {
  snap::Serializer out;
  topo.save_state(out);
  return out.take();
}

TEST(TopologyRows, EveryGeneratorMatchesAllPairsAtEverySize) {
  util::Rng rng{23};
  for (std::size_t n : {0, 1, 2, 80, 160, 1000}) {
    for (const auto& [name, topo] : every_generator(n, rng)) {
      const auto reference = all_pairs_neighbors(topo);
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(topo.neighbors(static_cast<NodeId>(i)), reference[i])
            << name << " n=" << n << " node " << i;
      }
      EXPECT_EQ(topo.rows_filled(), n) << name;
      // The table neighbors_handle() builds from the rows is the same.
      const auto table = topo.neighbors_handle();
      ASSERT_EQ(table->num_lists(), n) << name;
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(table->neighbors(static_cast<NodeId>(i)), reference[i]) << name;
      }
    }
  }
}

TEST(TopologyRows, FillOrderDoesNotChangeSnapshotBytes) {
  util::Rng rng{29};
  for (std::size_t n : {80, 1000}) {
    for (const auto& [name, built] : every_generator(n, rng)) {
      const std::vector<std::uint8_t> saved_first = topo_bytes(Topology{built});
      std::vector<NodeId> order(n);
      std::iota(order.begin(), order.end(), NodeId{0});
      const auto bytes_after = [&](const std::vector<NodeId>& ids) {
        const Topology topo{built};
        for (NodeId x : ids) topo.neighbors(x);
        EXPECT_EQ(topo.rows_filled(), n) << name;
        return topo_bytes(topo);
      };
      EXPECT_EQ(bytes_after(order), saved_first) << name << " ascending";
      std::reverse(order.begin(), order.end());
      EXPECT_EQ(bytes_after(order), saved_first) << name << " descending";
      util::Rng shuffle{n};
      for (std::size_t i = n; i > 1; --i) {
        const auto j = static_cast<std::size_t>(
            shuffle.uniform_int(0, static_cast<std::int64_t>(i) - 1));
        std::swap(order[i - 1], order[j]);
      }
      EXPECT_EQ(bytes_after(order), saved_first) << name << " shuffled";
    }
  }
}

TEST(TopologyRows, SpanTakenFirstReadsTheSameAfterEveryRowFills) {
  util::Rng rng{31};
  const Topology topo = Topology::uniform_random(1000, 1750.0, 125.0, rng);
  const NeighborSpan first = topo.neighbors(500);
  const std::vector<NodeId> expected(first.begin(), first.end());
  ASSERT_FALSE(expected.empty());
  for (std::size_t i = 0; i < topo.num_nodes(); ++i) {
    topo.neighbors(static_cast<NodeId>(i));
  }
  EXPECT_EQ(topo.neighbors_handle()->num_lists(), topo.num_nodes());
  EXPECT_EQ(first, expected);
  EXPECT_EQ(topo.neighbors(500), expected);
}

TEST(TopologyRows, CopiedOrMovedTopologyAnswersTheSame) {
  util::Rng rng{37};
  Topology topo = Topology::clustered(600, 1000.0, 125.0, 6, 90.0, rng);
  const auto reference = all_pairs_neighbors(topo);
  for (NodeId x = 0; x < 600; x += 3) topo.neighbors(x);
  const NeighborSpan held = topo.neighbors(42);

  const Topology copy{topo};  // filled rows are derived state: none copied
  EXPECT_EQ(copy.rows_filled(), 0u);
  Topology assigned = Topology::line(3, 10.0, 125.0);
  assigned = topo;
  EXPECT_EQ(assigned.rows_filled(), 0u);
  const Topology moved{std::move(topo)};
  EXPECT_EQ(held, reference[42]);  // the rows moved with their storage
  for (std::size_t i = 0; i < reference.size(); ++i) {
    const auto x = static_cast<NodeId>(i);
    ASSERT_EQ(copy.neighbors(x), reference[i]) << i;
    ASSERT_EQ(assigned.neighbors(x), reference[i]) << i;
    ASSERT_EQ(moved.neighbors(x), reference[i]) << i;
  }
  EXPECT_EQ(topo_bytes(copy), topo_bytes(moved));
}

TEST(TopologyRows, OutOfRangeIdThrows) {
  const Topology empty{{}, 125.0};
  EXPECT_THROW(empty.neighbors(0), std::out_of_range);
  const Topology topo = Topology::line(4, 100.0, 125.0);
  EXPECT_THROW(topo.neighbors(-1), std::out_of_range);
  EXPECT_THROW(topo.neighbors(4), std::out_of_range);
  EXPECT_EQ(topo.rows_filled(), 0u);
  EXPECT_THROW(topo.neighbors_handle()->neighbors(4), std::out_of_range);
}

// The city-scale shape: 100k nodes at the paper's density, the tree capped
// 300 m from the centre as on the paper's 500 m field. Building it reads the
// rows of its members, so it fills those and no others.
TEST(TopologyRows, CityScaleTreeFillsOnlyItsMembersRows) {
  constexpr std::size_t kNodes = 100000;
  const double area = 500.0 * std::sqrt(static_cast<double>(kNodes) / 80.0);
  for (std::uint64_t seed : {1, 2, 3}) {
    util::Rng rng{seed};
    const Topology topo = Topology::uniform_random(kNodes, area, 125.0, rng);
    const NodeId root = topo.nearest(Position{area / 2.0, area / 2.0});
    EXPECT_EQ(topo.rows_filled(), 0u);
    const routing::Tree tree =
        routing::build_policy_tree(topo, root, 300.0, &routing::min_hop_policy());
    std::size_t members = 0;
    for (std::size_t i = 0; i < kNodes; ++i) {
      members += tree.is_member(static_cast<NodeId>(i)) ? 1 : 0;
    }
    EXPECT_GT(members, 40u) << seed;
    EXPECT_LE(topo.rows_filled(), members + 2) << seed;
    EXPECT_LT(topo.rows_filled(), kNodes / 500) << seed;  // under 0.2% of n
  }
}

}  // namespace
}  // namespace essat::net
