// Network topology: node positions and unit-disc connectivity, plus the
// declarative DeploymentSpec the harness sweeps over.
//
// The paper's setup: 80 nodes uniformly random in a 500x500 m^2 area with a
// 125 m communication range. The extra generators (grid, line, clustered,
// corridor) open the deployment axis the paper left fixed.
//
// neighbors(n) is node n's list: ascending ids, no self, exactly the nodes
// an all-pairs scan with distance() <= range would give.
//
// Without a mobility model the topology is frozen and its lists are filled
// on demand. Construction builds only a uniform-grid index (nodes counted
// into range-sized cells, expected O(n)); the first neighbors(n) call fills
// n's row from the 3x3 block of cells around it. Each cell's block
// candidates are sorted by id once, the first time any node of the cell
// asks, so every row comes out ascending without a per-row sort. Rows are
// written once into append-only chunks that never move: a span from
// neighbors() stays valid for the topology's whole life, and a trial that
// reads the ~90 rows of its routing tree builds just those, whatever n is.
// neighbors_handle() fills every row and freezes them into one CSR
// NeighborTable (offsets plus flat ids), held by shared_ptr.
//
// With a model (net/mobility.h) the lists live in one immutable CSR table
// per epoch: set_mobility_model fills every row into the first table, and
// advance_to(t) re-samples positions once per epoch and maintains the lists
// incrementally with Verlet candidate lists: the grid index collects every
// pair within range + skin of the nodes' anchor positions, and each epoch
// only filters those candidates with the exact range test. The candidates
// are rebuilt (and the anchors reset) only once some node's observed
// displacement from its anchor exceeds skin/2; until then every in-range
// pair is provably a candidate, whatever the model — teleporting traces
// included. A new table is published only when a list changed, written into
// the previous-but-one table when no frame still holds it, so steady-state
// epochs allocate nothing. neighbors_handle() hands out the current table,
// so a consumer that must keep one frame's receiver set across an epoch tick
// (the channel, for in-flight transmissions) freezes it with one refcount
// bump.
//
// Single-thread contract: the const accessors neighbors(),
// neighbors_handle(), connected() and save_state() fill rows, so a topology
// is read by one thread at a time — one topology per trial and thread, as
// run_scenario and the sweep engine use it. Filled rows are derived state: a
// copy starts with none filled and answers the same.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/net/mobility.h"
#include "src/net/position.h"
#include "src/net/types.h"
#include "src/util/rng.h"
#include "src/util/time.h"

namespace essat::snap {
class Serializer;
}  // namespace essat::snap

namespace essat::net {

// Read-only view of one node's neighbor list (ascending node ids). Valid
// while the storage it points into is alive: for Topology::neighbors(n) on
// a static topology, the topology's whole life; on a mobile one, at least
// until the next epoch that changes a list.
class NeighborSpan {
 public:
  using value_type = NodeId;
  using iterator = const NodeId*;
  using const_iterator = const NodeId*;

  NeighborSpan(const NodeId* first, const NodeId* last)
      : first_{first}, last_{last} {}

  const NodeId* begin() const { return first_; }
  const NodeId* end() const { return last_; }
  std::size_t size() const { return static_cast<std::size_t>(last_ - first_); }
  bool empty() const { return first_ == last_; }
  NodeId operator[](std::size_t i) const { return first_[i]; }

  friend bool operator==(NeighborSpan a, NeighborSpan b) {
    return std::equal(a.begin(), a.end(), b.begin(), b.end());
  }
  friend bool operator==(NeighborSpan a, const std::vector<NodeId>& b) {
    return std::equal(a.begin(), a.end(), b.begin(), b.end());
  }
  friend bool operator==(const std::vector<NodeId>& a, NeighborSpan b) {
    return b == a;
  }

 private:
  const NodeId* first_;
  const NodeId* last_;
};

// Every node's neighbor list for one epoch in compressed sparse rows: node
// n's list is ids[offsets[n], offsets[n + 1]), ascending.
struct NeighborTable {
  std::vector<std::size_t> offsets{0};
  std::vector<NodeId> ids;

  std::size_t num_lists() const { return offsets.size() - 1; }
  NeighborSpan neighbors(NodeId n) const {
    const auto i = static_cast<std::size_t>(n);
    if (n < 0 || i >= num_lists()) {
      throw std::out_of_range{"NeighborTable: node out of range"};
    }
    return NeighborSpan{ids.data() + offsets[i], ids.data() + offsets[i + 1]};
  }
  bool operator==(const NeighborTable& o) const {
    return offsets == o.offsets && ids == o.ids;
  }
  bool operator!=(const NeighborTable& o) const { return !(*this == o); }
};

class Topology {
 public:
  // Explicit placement (tests and small examples).
  Topology(std::vector<Position> positions, double range_m);

  // Uniform random placement in [0, area_m)^2 (the paper's deployment).
  static Topology uniform_random(std::size_t num_nodes, double area_m,
                                 double range_m, util::Rng& rng);
  // Regular chain: node i at (i * spacing_m, 0). Handy for rank-specific
  // unit tests where the tree shape must be exact.
  static Topology line(std::size_t num_nodes, double spacing_m, double range_m);
  // Regular sqrt(n) x sqrt(n) grid with the given spacing.
  static Topology grid(std::size_t side, double spacing_m, double range_m);
  // Near-square grid of exactly num_nodes spanning [0, area_m]^2 (the last
  // row may be partial). Deterministic: no RNG is consumed.
  static Topology grid_area(std::size_t num_nodes, double area_m, double range_m);
  // Gaussian clusters: `clusters` centres evenly spaced on a circle of
  // radius area_m/4 around the area centre (plus one central cluster when
  // clusters > 4); nodes assigned round-robin with N(0, sigma_m) offsets,
  // clamped to the area. Models dense sensor patches with sparse bridges.
  static Topology clustered(std::size_t num_nodes, double area_m, double range_m,
                            std::size_t clusters, double sigma_m, util::Rng& rng);
  // Sparse corridor: uniform placement in [0, length_m) x [0, width_m) —
  // an elongated deployment (road / pipeline / perimeter) that produces
  // deep routing trees.
  static Topology corridor(std::size_t num_nodes, double length_m,
                           double width_m, double range_m, util::Rng& rng);

  std::size_t num_nodes() const { return positions_.size(); }
  const Position& position(NodeId n) const { return positions_.at(static_cast<std::size_t>(n)); }
  const std::vector<Position>& positions() const { return positions_; }
  double range() const { return range_m_; }

  bool in_range(NodeId a, NodeId b) const;
  // Throws std::out_of_range for an id outside [0, num_nodes()).
  NeighborSpan neighbors(NodeId n) const {
    return table_ ? table_->neighbors(n) : rows_.row(n, positions_);
  }
  // Refcounted handle on the current epoch's table (a static topology fills
  // every row into it on the first call). A published table is never
  // written while anyone but the topology holds it, so a handle keeps every
  // list exactly as it was when taken, across any number of epochs.
  std::shared_ptr<const NeighborTable> neighbors_handle() const;

  // Node closest to the given point (the paper roots the tree at the node
  // nearest the centre of the area).
  NodeId nearest(const Position& p) const;

  // True if every node can reach every other node over in-range hops.
  bool connected() const;

  // --- Time-varying backing (mobility) ----------------------------------
  // Installs a position source; accessors keep returning the most recent
  // epoch snapshot, advance_to() refreshes it. Shared so Topology stays
  // copyable (copies share the model; in practice one topology per trial).
  void set_mobility_model(std::shared_ptr<MobilityModel> model,
                          util::Time epoch);
  bool time_varying() const { return mobility_ != nullptr; }
  util::Time mobility_epoch() const { return epoch_; }
  // Re-samples positions from the mobility model and brings the neighbor
  // lists up to date when `t` has entered a new epoch since the last call.
  // No-op for a static topology. `t` must be non-decreasing across calls.
  void advance_to(util::Time t);
  // Introspection for the epoch-tick tests: neighbor-list epochs so far (1
  // after construction, +1 per epoch advance_to entered), Verlet candidate
  // rebuilds, and tables published because a list changed.
  std::uint64_t neighbor_rebuilds() const { return rebuilds_; }
  std::uint64_t candidate_refreshes() const { return refreshes_; }
  std::uint64_t table_publishes() const { return publishes_; }
  // Static rows filled on demand so far (at most num_nodes()).
  std::uint64_t rows_filled() const { return rows_.filled(); }

  // Snapshot hook: positions, neighbor lists (every row, through
  // neighbors()), and the mobility epoch cursor, plus the installed model's
  // state. The Verlet candidates are derived state and are not written.
  void save_state(snap::Serializer& out) const;

 private:
  // Uniform-grid spatial index: nodes counted into cells at least `radius`
  // wide, so every pair within it lies in a node's 3x3 block of cells. The
  // buffers are reused, so a Verlet refresh allocates nothing once they
  // reached their high-water mark.
  struct GridIndex {
    std::size_t cols = 0, rows = 0;
    std::vector<std::uint32_t> cell_start;  // CSR over cells, in slots
    std::vector<NodeId> cell_nodes;         // node id per slot, ascending per cell
    std::vector<std::uint32_t> node_cell;   // cell per node id

    // `pos` must not be empty.
    void build(const std::vector<Position>& pos, double radius);
  };
  // The Verlet candidate build's buffers, reused across refreshes.
  struct PairBuffers {
    GridIndex index;
    std::vector<Position> cell_pos;        // position per slot
    std::vector<std::size_t> slot_degree;  // neighbors per slot
  };

  // A static topology's rows, filled on demand over its grid index. Row x
  // is a length word followed by the ids, written once into append-only
  // chunks; row_[x] points at it, or is null until the row is filled.
  class StaticRows {
   public:
    StaticRows() = default;
    StaticRows(const std::vector<Position>& pos, double range_m);
    // A copy shares nothing and starts with no row filled.
    StaticRows(const StaticRows& o);
    StaticRows& operator=(const StaticRows& o);
    StaticRows(StaticRows&&) noexcept = default;
    StaticRows& operator=(StaticRows&&) noexcept = default;

    NeighborSpan row(NodeId n, const std::vector<Position>& pos) {
      const auto x = static_cast<std::size_t>(n);  // a negative id wraps past n
      const NodeId* r = x < row_.size() && row_[x] != nullptr ? row_[x] : fill_(n, pos);
      return NeighborSpan{r + 1, r + 1 + r[0]};
    }
    // Fills every row and copies them into one CSR table.
    std::shared_ptr<NeighborTable> table(const std::vector<Position>& pos);
    std::uint64_t filled() const { return filled_; }

   private:
    // Fills row n, or throws std::out_of_range for an id outside the
    // topology.
    const NodeId* fill_(NodeId n, const std::vector<Position>& pos);
    void sort_block_(std::size_t c);
    NodeId* reserve_(std::size_t words);

    static constexpr std::uint32_t kUnsorted = ~std::uint32_t{0};
    GridIndex grid_;
    double range_sq_ = 0.0;
    std::vector<const NodeId*> row_;
    // Per cell, where its block's ids start in sorted_ (ascending), or
    // kUnsorted before any node of the cell asked.
    std::vector<std::uint32_t> sorted_at_;
    std::vector<NodeId> sorted_;
    std::vector<std::unique_ptr<NodeId[]>> chunks_;
    NodeId* cursor_ = nullptr;
    NodeId* chunk_end_ = nullptr;
    std::uint64_t filled_ = 0;
  };

  // Writes into `out` every node's ascending list of the other nodes within
  // `radius` (distance() <= radius, exactly), found through the grid index:
  // the Verlet candidate build. `lists` is scratch (its contents are
  // overwritten). Each output vector is resized once, to its exact length;
  // a fresh one allocates just that.
  static void build_pairs_(const std::vector<Position>& pos, double radius,
                           PairBuffers& buf, std::vector<NodeId>& lists,
                           NeighborTable& out);
  bool drifted_past_skin_() const;
  void refresh_candidates_();
  void filter_candidates_();
  void publish_();

  std::vector<Position> positions_;
  double range_m_;
  double range_sq_;  // sq_cutoff(range_m_): the exact in-range test
  // Static lists. `mutable`: neighbors() fills a row on its first read.
  mutable StaticRows rows_;
  // The published table and the previous one, recycled for the next
  // publish when no frame holds it any more. Null on a static topology
  // until neighbors_handle() or set_mobility_model() fills every row into
  // it; from then on neighbors() reads it.
  mutable std::shared_ptr<NeighborTable> table_;
  std::shared_ptr<NeighborTable> spare_;
  std::shared_ptr<MobilityModel> mobility_;
  util::Time epoch_ = util::Time::seconds(5);
  std::int64_t epoch_index_ = 0;
  std::uint64_t rebuilds_ = 0;
  std::uint64_t refreshes_ = 0;
  std::uint64_t publishes_ = 0;
  // Verlet state (mobile topologies only): the candidate pairs within
  // range + skin of the anchors, this epoch's filtered lists before they
  // are compared against the published table, and the build's buffers.
  std::vector<Position> anchors_;
  NeighborTable candidates_;
  NeighborTable next_;
  PairBuffers pair_buffers_;
};

// ---------------------------------------------------------------------------
// Declarative deployment description: which generator, how many nodes, and
// the geometry knobs — everything run_scenario needs to materialize a
// Topology. Sweepable as a unit (exp::SweepSpec::axis_topology).

enum class TopologyKind { kUniform, kGrid, kLine, kClustered, kCorridor };

// Stable lower-case names ("uniform", "grid", ...). Throws
// std::invalid_argument on an out-of-range kind / unknown name.
const char* topology_kind_name(TopologyKind k);
TopologyKind topology_kind_from_name(const std::string& name);

struct DeploymentSpec {
  TopologyKind kind = TopologyKind::kUniform;
  int num_nodes = 80;
  // Square side for uniform/grid/clustered; total extent for line/corridor.
  double area_m = 500.0;
  double range_m = 125.0;
  // Tree construction: only nodes within this distance of the root join
  // (the paper's 300 m cap on its 500 m area). Scaled by build callers when
  // the area changes.
  double max_tree_dist_m = 300.0;

  // kClustered knobs.
  int clusters = 4;
  double cluster_sigma_m = 40.0;

  // kCorridor knob.
  double corridor_width_m = 60.0;

  // Materializes the deployment. `rng` is consumed only by the random
  // kinds; regular shapes (grid, line) are purely deterministic.
  Topology build(util::Rng& rng) const;

  // Geometric centre of the deployed region (the paper roots the routing
  // tree at the node nearest the centre). Shape-aware: a corridor's centre
  // sits on its spine, a line's on the chain.
  Position centre() const;

  // Width/height of the deployed rectangle — the bounds mobility models
  // roam in (a line's height is 0: waypoints stay on the chain).
  Position extent() const;
};

}  // namespace essat::net
