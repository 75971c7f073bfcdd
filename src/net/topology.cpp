#include "src/net/topology.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <queue>
#include <stdexcept>

#include "src/snap/serializer.h"

namespace essat::net {

namespace {

// Verlet skin as a fraction of the range. Candidates cover range + skin; a
// refresh is due once any node drifted skin/2 from its anchor. A twentieth
// of the range keeps candidate lists ~10% longer than the exact ones, while
// a walking-speed node (1.5 m/s) forces a refresh only every ~200 epochs of
// 10 ms.
constexpr double kSkinFraction = 0.05;
// Relative slack that absorbs floating-point rounding where a bound must
// hold exactly: on the candidate radius (the triangle-inequality argument)
// and on the grid cell size (the 3x3-block coverage). It only ever adds
// candidates or widens cells; membership is always the exact range test.
constexpr double kRoundingSlack = 1e-6;

// Resizes `v` to `n`. A fresh buffer gets exactly n; a reused one at least
// doubles its capacity when it must grow, so a slowly rising high-water
// mark across Verlet refreshes reallocates only O(log) times.
template <typename T>
void grow_to(std::vector<T>& v, std::size_t n) {
  if (n > v.capacity()) v.reserve(std::max(n, 2 * v.capacity()));
  v.resize(n);
}

}  // namespace

Topology::Topology(std::vector<Position> positions, double range_m)
    : positions_{std::move(positions)},
      range_m_{range_m},
      range_sq_{sq_cutoff(range_m)} {
  if (range_m_ <= 0.0) throw std::invalid_argument{"Topology: range must be positive"};
  rows_ = StaticRows{positions_, range_m_};
  rebuilds_ = 1;
}

std::shared_ptr<const NeighborTable> Topology::neighbors_handle() const {
  if (!table_) table_ = rows_.table(positions_);
  return table_;
}

Topology Topology::uniform_random(std::size_t num_nodes, double area_m,
                                  double range_m, util::Rng& rng) {
  std::vector<Position> pos;
  pos.reserve(num_nodes);
  for (std::size_t i = 0; i < num_nodes; ++i) {
    pos.push_back(Position{rng.uniform(0.0, area_m), rng.uniform(0.0, area_m)});
  }
  return Topology{std::move(pos), range_m};
}

Topology Topology::line(std::size_t num_nodes, double spacing_m, double range_m) {
  std::vector<Position> pos;
  pos.reserve(num_nodes);
  for (std::size_t i = 0; i < num_nodes; ++i) {
    pos.push_back(Position{static_cast<double>(i) * spacing_m, 0.0});
  }
  return Topology{std::move(pos), range_m};
}

Topology Topology::grid(std::size_t side, double spacing_m, double range_m) {
  std::vector<Position> pos;
  pos.reserve(side * side);
  for (std::size_t r = 0; r < side; ++r) {
    for (std::size_t c = 0; c < side; ++c) {
      pos.push_back(Position{static_cast<double>(c) * spacing_m,
                             static_cast<double>(r) * spacing_m});
    }
  }
  return Topology{std::move(pos), range_m};
}

Topology Topology::grid_area(std::size_t num_nodes, double area_m,
                             double range_m) {
  std::vector<Position> pos;
  pos.reserve(num_nodes);
  if (num_nodes > 0) {
    const auto cols = static_cast<std::size_t>(
        std::ceil(std::sqrt(static_cast<double>(num_nodes))));
    const std::size_t rows = (num_nodes + cols - 1) / cols;
    const double dx = cols > 1 ? area_m / static_cast<double>(cols - 1) : 0.0;
    const double dy = rows > 1 ? area_m / static_cast<double>(rows - 1) : 0.0;
    for (std::size_t i = 0; i < num_nodes; ++i) {
      pos.push_back(Position{static_cast<double>(i % cols) * dx,
                             static_cast<double>(i / cols) * dy});
    }
  }
  return Topology{std::move(pos), range_m};
}

Topology Topology::clustered(std::size_t num_nodes, double area_m,
                             double range_m, std::size_t clusters,
                             double sigma_m, util::Rng& rng) {
  if (clusters == 0) clusters = 1;
  // Centres on a circle of radius area/4 around the middle; a central
  // cluster is added past four so large counts keep the hub bridged.
  const double cx = area_m / 2.0, cy = area_m / 2.0, r = area_m / 4.0;
  std::vector<Position> centres;
  centres.reserve(clusters);
  const std::size_t ring = clusters > 4 ? clusters - 1 : clusters;
  for (std::size_t c = 0; c < ring; ++c) {
    const double theta =
        2.0 * 3.14159265358979323846 * static_cast<double>(c) /
        static_cast<double>(ring);
    centres.push_back(Position{cx + r * std::cos(theta), cy + r * std::sin(theta)});
  }
  if (clusters > 4) centres.push_back(Position{cx, cy});

  auto clamp = [area_m](double v) {
    return v < 0.0 ? 0.0 : (v > area_m ? area_m : v);
  };
  std::vector<Position> pos;
  pos.reserve(num_nodes);
  for (std::size_t i = 0; i < num_nodes; ++i) {
    const Position& c = centres[i % centres.size()];
    pos.push_back(Position{clamp(c.x + rng.normal(0.0, sigma_m)),
                           clamp(c.y + rng.normal(0.0, sigma_m))});
  }
  return Topology{std::move(pos), range_m};
}

Topology Topology::corridor(std::size_t num_nodes, double length_m,
                            double width_m, double range_m, util::Rng& rng) {
  std::vector<Position> pos;
  pos.reserve(num_nodes);
  for (std::size_t i = 0; i < num_nodes; ++i) {
    pos.push_back(Position{rng.uniform(0.0, length_m), rng.uniform(0.0, width_m)});
  }
  return Topology{std::move(pos), range_m};
}

void Topology::set_mobility_model(std::shared_ptr<MobilityModel> model,
                                  util::Time epoch) {
  if (model && epoch <= util::Time::zero()) {
    throw std::invalid_argument{"Topology: mobility epoch must be positive"};
  }
  if (model && !table_) table_ = rows_.table(positions_);
  mobility_ = std::move(model);
  epoch_ = epoch;
  epoch_index_ = 0;  // positions_ already hold the t = 0 snapshot
  anchors_.clear();  // the first advance builds the candidates
}

void Topology::advance_to(util::Time t) {
  if (!mobility_) return;
  const std::int64_t e = t.ns() / epoch_.ns();
  if (e == epoch_index_) return;
  epoch_index_ = e;
  const std::size_t n = positions_.size();
  mobility_->positions_at(t, positions_);
  if (positions_.size() != n) {
    // Consumers (channel, trees) size per-node state at construction; a
    // model for a different node count must not silently resize the world.
    throw std::logic_error{"Topology::advance_to: mobility model node count mismatch"};
  }
  ++rebuilds_;
  if (anchors_.size() != n || drifted_past_skin_()) refresh_candidates_();
  filter_candidates_();
  if (next_ != *table_) publish_();
}

// Superset guarantee: a pair now within range was within range + skin at
// the anchors, since neither end has moved more than skin/2 since.
bool Topology::drifted_past_skin_() const {
  const double half_skin = 0.5 * kSkinFraction * range_m_;
  const double limit_sq = half_skin * half_skin;
  for (std::size_t i = 0; i < positions_.size(); ++i) {
    if (distance_sq(positions_[i], anchors_[i]) > limit_sq) return true;
  }
  return false;
}

void Topology::refresh_candidates_() {
  ++refreshes_;
  anchors_ = positions_;
  // next_ holds nothing live until filter_candidates_ refills it, so its
  // ids buffer serves as the build's scratch.
  build_pairs_(anchors_, range_m_ * (1.0 + kSkinFraction + kRoundingSlack),
               pair_buffers_, next_.ids, candidates_);
}

void Topology::filter_candidates_() {
  const std::size_t n = positions_.size();
  next_.offsets.assign(n + 1, 0);
  // Branch-free compaction: every candidate is written, and the cursor only
  // advances past the ones in range.
  next_.ids.resize(candidates_.ids.size());
  NodeId* const out = next_.ids.data();
  std::size_t w = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const Position p = positions_[i];
    for (std::size_t k = candidates_.offsets[i]; k < candidates_.offsets[i + 1]; ++k) {
      const NodeId j = candidates_.ids[k];
      out[w] = j;
      w += distance_sq(p, positions_[static_cast<std::size_t>(j)]) <= range_sq_ ? 1 : 0;
    }
    next_.offsets[i + 1] = w;
  }
  next_.ids.resize(w);
}

// Swaps next_ into the published slot. The outgoing table becomes the spare;
// the spare's buffers go back to next_ when no frame holds them, so a
// steady-state publish only moves vectors.
void Topology::publish_() {
  ++publishes_;
  if (!spare_ || spare_.use_count() != 1) spare_ = std::make_shared<NeighborTable>();
  spare_->offsets.swap(next_.offsets);
  spare_->ids.swap(next_.ids);
  table_.swap(spare_);
}

void Topology::GridIndex::build(const std::vector<Position>& pos, double radius) {
  const std::size_t n = pos.size();
  // Bucketing nodes into radius-sized cells and testing only the 3x3 block
  // around each node's cell is expected O(n) at bounded density, against an
  // O(n^2) all-pairs scan; the exact distance test keeps every list
  // identical to the all-pairs one.
  double min_x = pos[0].x, max_x = min_x;
  double min_y = pos[0].y, max_y = min_y;
  for (const Position& p : pos) {
    min_x = std::min(min_x, p.x);
    max_x = std::max(max_x, p.x);
    min_y = std::min(min_y, p.y);
    max_y = std::max(max_y, p.y);
  }
  // Cell size starts at the radius (3x3 block then provably covers every
  // pair within it) and doubles until the grid holds O(n) cells, so a
  // sparse deployment over a huge extent cannot blow up memory — larger
  // cells only widen buckets, never miss a neighbor.
  const std::size_t max_cells = std::max<std::size_t>(64, 4 * n);
  double cell = radius * (1.0 + kRoundingSlack);
  const auto dim = [max_cells](double extent, double c) {
    const double f = extent / c;  // compare as double: the cast is UB out of range
    return f >= static_cast<double>(max_cells) ? max_cells + 1
                                               : static_cast<std::size_t>(f) + 1;
  };
  for (;;) {
    cols = dim(max_x - min_x, cell);
    rows = dim(max_y - min_y, cell);
    if (cols <= max_cells && rows <= max_cells && cols * rows <= max_cells) break;
    cell *= 2.0;
  }
  const auto cell_of = [&](const Position& p) {
    auto cx = static_cast<std::size_t>((p.x - min_x) / cell);
    auto cy = static_cast<std::size_t>((p.y - min_y) / cell);
    if (cx >= cols) cx = cols - 1;  // FP guard at the max edge
    if (cy >= rows) cy = rows - 1;
    return static_cast<std::uint32_t>(cy * cols + cx);
  };

  // Counting sort of the nodes by cell into slots. Filling back to front
  // leaves each cell's ids ascending and cell_start[c] at the cell's first
  // slot.
  const std::size_t cells = cols * rows;
  cell_start.assign(cells + 1, 0);
  node_cell.resize(n);
  cell_nodes.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    node_cell[i] = cell_of(pos[i]);
    ++cell_start[node_cell[i]];
  }
  for (std::size_t c = 1; c <= cells; ++c) cell_start[c] += cell_start[c - 1];
  for (std::size_t i = n; i-- > 0;) {
    cell_nodes[--cell_start[node_cell[i]]] = static_cast<NodeId>(i);
  }
}

Topology::StaticRows::StaticRows(const std::vector<Position>& pos, double range_m)
    : range_sq_{sq_cutoff(range_m)} {
  if (!pos.empty()) grid_.build(pos, range_m);
  row_.assign(pos.size(), nullptr);
  sorted_at_.assign(grid_.cols * grid_.rows, kUnsorted);
}

Topology::StaticRows::StaticRows(const StaticRows& o)
    : grid_{o.grid_},
      range_sq_{o.range_sq_},
      row_(o.row_.size(), nullptr),
      sorted_at_(o.sorted_at_.size(), kUnsorted) {}

Topology::StaticRows& Topology::StaticRows::operator=(const StaticRows& o) {
  if (this != &o) *this = StaticRows{o};
  return *this;
}

// Gathers the ids of cell c's 3x3 block and sorts them, once per cell:
// every row of the cell then filters this run and comes out ascending. Each
// cell's ids are already ascending, so the block is at most nine ascending
// runs, merged at once by taking the least head (a branch-free scan) until
// every run is spent. The result is stored behind a word holding its
// length.
void Topology::StaticRows::sort_block_(std::size_t c) {
  constexpr NodeId kSpent = std::numeric_limits<NodeId>::max();
  const std::size_t cx = c % grid_.cols, cy = c / grid_.cols;
  const std::size_t x0 = cx > 0 ? cx - 1 : 0, x1 = std::min(cx + 1, grid_.cols - 1);
  const std::size_t y0 = cy > 0 ? cy - 1 : 0, y1 = std::min(cy + 1, grid_.rows - 1);
  const std::uint32_t* const start = grid_.cell_start.data();
  const NodeId* const ids = grid_.cell_nodes.data();
  // Nine runs always: an absent or spent run shows kSpent and is never
  // taken, so the scan has a fixed length.
  constexpr std::size_t kRuns = 9;
  const NodeId* cur[kRuns];
  const NodeId* end[kRuns];
  NodeId head[kRuns];
  std::size_t runs = 0, k = 0;
  for (std::size_t by = y0; by <= y1; ++by) {
    for (std::size_t bx = x0; bx <= x1; ++bx) {
      const std::size_t b = by * grid_.cols + bx;
      if (start[b] == start[b + 1]) continue;
      cur[runs] = ids + start[b];
      end[runs] = ids + start[b + 1];
      head[runs] = *cur[runs];
      k += start[b + 1] - start[b];
      ++runs;
    }
  }
  for (std::size_t r = runs; r < kRuns; ++r) {
    cur[r] = end[r] = nullptr;
    head[r] = kSpent;
  }
  sorted_at_[c] = static_cast<std::uint32_t>(sorted_.size());
  sorted_.resize(sorted_.size() + 1 + k);
  NodeId* out = sorted_.data() + sorted_at_[c];
  *out++ = static_cast<NodeId>(k);
  for (std::size_t i = 0; i < k; ++i) {
    std::size_t least = 0;
    for (std::size_t r = 1; r < kRuns; ++r) least = head[r] < head[least] ? r : least;
    out[i] = head[least];
    head[least] = ++cur[least] != end[least] ? *cur[least] : kSpent;
  }
}

// Room for `words` more words at the cursor. A new chunk doubles the last
// one (from 4 Ki words, up to 1 Mi words) or fits the request, so filling
// every row allocates O(log n) times, never once per row; the old chunks
// stay where they are.
NodeId* Topology::StaticRows::reserve_(std::size_t words) {
  if (static_cast<std::size_t>(chunk_end_ - cursor_) < words) {
    constexpr std::size_t kFirstChunk = std::size_t{1} << 12;
    constexpr std::size_t kMaxChunk = std::size_t{1} << 20;
    const std::size_t grown =
        chunks_.empty() ? kFirstChunk
                        : std::min(kMaxChunk, 2 * static_cast<std::size_t>(
                                                      chunk_end_ - chunks_.back().get()));
    const std::size_t size = std::max(words, grown);
    chunks_.emplace_back(new NodeId[size]);
    cursor_ = chunks_.back().get();
    chunk_end_ = cursor_ + size;
  }
  return cursor_;
}

const NodeId* Topology::StaticRows::fill_(NodeId n, const std::vector<Position>& pos) {
  const auto x = static_cast<std::size_t>(n);
  if (n < 0 || x >= row_.size()) throw std::out_of_range{"Topology: node out of range"};
  const Position p = pos[x];
  const std::size_t c = grid_.node_cell[x];
  if (sorted_at_[c] == kUnsorted) sort_block_(c);
  const NodeId* const block = sorted_.data() + sorted_at_[c] + 1;
  const auto k = static_cast<std::size_t>(block[-1]);
  // Branch-free: every candidate is written after the length word, and the
  // cursor only advances past the ones in range.
  NodeId* const r = reserve_(k + 1);
  std::size_t w = 1;
  for (std::size_t i = 0; i < k; ++i) {
    const NodeId y = block[i];
    r[w] = y;
    w += ((distance_sq(p, pos[static_cast<std::size_t>(y)]) <= range_sq_) & (y != n))
             ? 1
             : 0;
  }
  r[0] = static_cast<NodeId>(w - 1);
  cursor_ += w;
  row_[x] = r;
  ++filled_;
  return r;
}

std::shared_ptr<NeighborTable> Topology::StaticRows::table(
    const std::vector<Position>& pos) {
  // Cell order keeps each cell's sorted block hot while its rows fill.
  for (std::size_t s = 0; s < grid_.cell_nodes.size(); ++s) {
    const auto x = static_cast<std::size_t>(grid_.cell_nodes[s]);
    if (row_[x] == nullptr) fill_(static_cast<NodeId>(x), pos);
  }
  auto t = std::make_shared<NeighborTable>();
  const std::size_t n = row_.size();
  t->offsets.resize(n + 1);
  for (std::size_t x = 0; x < n; ++x) {
    t->offsets[x + 1] = t->offsets[x] + static_cast<std::size_t>(row_[x][0]);
  }
  t->ids.resize(t->offsets[n]);
  for (std::size_t x = 0; x < n; ++x) {
    std::copy_n(row_[x] + 1, row_[x][0], t->ids.begin() + static_cast<std::ptrdiff_t>(t->offsets[x]));
  }
  return t;
}

void Topology::build_pairs_(const std::vector<Position>& pos, double radius,
                            PairBuffers& buf, std::vector<NodeId>& lists,
                            NeighborTable& out) {
  const std::size_t n = pos.size();
  out.offsets.assign(n + 1, 0);
  out.ids.clear();
  if (n == 0) return;
  GridIndex& grid = buf.index;
  grid.build(pos, radius);
  // Each slot carries its node's position, so the positions of a row of a
  // 3x3 block are one contiguous run.
  buf.cell_pos.resize(n);
  for (std::size_t s = 0; s < n; ++s) {
    buf.cell_pos[s] = pos[static_cast<std::size_t>(grid.cell_nodes[s])];
  }
  const std::size_t cols = grid.cols, rows = grid.rows;
  const std::uint32_t* const start = grid.cell_start.data();
  const Position* const cpos = buf.cell_pos.data();
  const NodeId* const cnodes = grid.cell_nodes.data();
  const double cutoff_sq = sq_cutoff(radius);
  // Visits every non-empty cell in slot order with the slot runs of its
  // 3x3 block: visit(first, last, x0, x1, cy), where the block's row `by`
  // spans slots [start[by * cols + x0], start[by * cols + x1 + 1]).
  const auto for_each_cell = [&](auto&& visit) {
    for (std::size_t cy = 0; cy < rows; ++cy) {
      for (std::size_t cx = 0; cx < cols; ++cx) {
        const std::size_t c = cy * cols + cx;
        if (start[c] == start[c + 1]) continue;
        visit(start[c], start[c + 1], cx > 0 ? cx - 1 : 0,
              std::min(cx + 1, cols - 1), cy);
      }
    }
  };

  // Degrees, each pair tested once: a slot tests the half block after it
  // (the rest of its row's run and the run of the row above) and counts a
  // pair within radius for both ends.
  buf.slot_degree.assign(n, 0);
  std::size_t* const degree = buf.slot_degree.data();
  for_each_cell([&](std::size_t first, std::size_t last, std::size_t x0,
                    std::size_t x1, std::size_t cy) {
    const std::size_t row_end = start[cy * cols + x1 + 1];
    const std::size_t up_lo = cy + 1 < rows ? start[(cy + 1) * cols + x0] : 0;
    const std::size_t up_hi = cy + 1 < rows ? start[(cy + 1) * cols + x1 + 1] : 0;
    for (std::size_t s = first; s < last; ++s) {
      const Position p = cpos[s];
      std::size_t d = 0;
      const auto count = [&](std::size_t lo, std::size_t hi) {
        for (std::size_t t = lo; t < hi; ++t) {
          const std::size_t in = distance_sq(p, cpos[t]) <= cutoff_sq ? 1 : 0;
          d += in;
          degree[t] += in;
        }
      };
      count(s + 1, row_end);
      count(up_lo, up_hi);
      degree[s] += d;
    }
  });
  // offsets[x] = the end of node x's list (inclusive prefix sum of degrees).
  std::size_t* const offsets = out.offsets.data();
  for (std::size_t s = 0; s < n; ++s) {
    offsets[static_cast<std::size_t>(cnodes[s])] = degree[s];
  }
  for (std::size_t x = 1; x < n; ++x) offsets[x] += offsets[x - 1];
  const std::size_t total = offsets[n - 1];
  offsets[n] = total;

  // Scan: each slot tests its whole block, cache-hot in slot order, and
  // appends branch-free into its node's region of `lists` — every candidate
  // is written, the cursor only advances past the ones within radius. Node
  // x's region is [offsets[x] - degree + x, offsets[x] + x]: its unsorted
  // list plus one word that takes the writes past its last neighbor and
  // then holds the list's length.
  grow_to(lists, total + n);
  NodeId* const region = lists.data();
  for_each_cell([&](std::size_t first, std::size_t last, std::size_t x0,
                    std::size_t x1, std::size_t cy) {
    const std::size_t by_lo = cy > 0 ? cy - 1 : 0;
    const std::size_t by_hi = std::min(cy + 1, rows - 1);
    for (std::size_t s = first; s < last; ++s) {
      const Position p = cpos[s];
      const auto x = static_cast<std::size_t>(cnodes[s]);
      std::size_t w = offsets[x] - degree[s] + x;
      for (std::size_t by = by_lo; by <= by_hi; ++by) {
        for (std::size_t t = start[by * cols + x0]; t < start[by * cols + x1 + 1]; ++t) {
          region[w] = cnodes[t];
          w += ((distance_sq(p, cpos[t]) <= cutoff_sq) & (t != s)) ? 1 : 0;
        }
      }
      region[w] = static_cast<NodeId>(degree[s]);
    }
  });

  // Transpose: walking the nodes in descending id order and prepending each
  // to its neighbors' lists leaves every list ascending, with no sort, and
  // each offsets[y] back at the start of y's list. It is exact because
  // distance_sq is bit-symmetric ((a - b)^2 == (b - a)^2 in IEEE
  // arithmetic), so y lists x exactly when x lists y.
  grow_to(out.ids, total);
  NodeId* const ids = out.ids.data();
  std::size_t r = total + n;  // one past the end of node x's region
  for (std::size_t x = n; x-- > 0;) {
    const std::size_t len = static_cast<std::size_t>(region[r - 1]);
    const std::size_t first = r - 1 - len;
    for (std::size_t k = first; k < r - 1; ++k) {
      ids[--offsets[static_cast<std::size_t>(region[k])]] = static_cast<NodeId>(x);
    }
    r = first;
  }
}

bool Topology::in_range(NodeId a, NodeId b) const {
  if (a == b) return false;
  return distance(position(a), position(b)) <= range_m_;
}

NodeId Topology::nearest(const Position& p) const {
  NodeId best = kNoNode;
  double best_d = std::numeric_limits<double>::max();
  for (std::size_t i = 0; i < positions_.size(); ++i) {
    const double d = distance(positions_[i], p);
    if (d < best_d) {
      best_d = d;
      best = static_cast<NodeId>(i);
    }
  }
  return best;
}

bool Topology::connected() const {
  if (positions_.empty()) return true;
  std::vector<bool> seen(positions_.size(), false);
  std::queue<NodeId> frontier;
  frontier.push(0);
  seen[0] = true;
  std::size_t reached = 1;
  while (!frontier.empty()) {
    const NodeId u = frontier.front();
    frontier.pop();
    for (NodeId v : neighbors(u)) {
      if (!seen[static_cast<std::size_t>(v)]) {
        seen[static_cast<std::size_t>(v)] = true;
        ++reached;
        frontier.push(v);
      }
    }
  }
  return reached == positions_.size();
}

const char* topology_kind_name(TopologyKind k) {
  switch (k) {
    case TopologyKind::kUniform: return "uniform";
    case TopologyKind::kGrid: return "grid";
    case TopologyKind::kLine: return "line";
    case TopologyKind::kClustered: return "clustered";
    case TopologyKind::kCorridor: return "corridor";
  }
  throw std::invalid_argument{"topology_kind_name: unknown TopologyKind"};
}

TopologyKind topology_kind_from_name(const std::string& name) {
  for (TopologyKind k : {TopologyKind::kUniform, TopologyKind::kGrid,
                         TopologyKind::kLine, TopologyKind::kClustered,
                         TopologyKind::kCorridor}) {
    if (name == topology_kind_name(k)) return k;
  }
  throw std::invalid_argument{"topology_kind_from_name: unknown kind \"" +
                              name + "\""};
}

Topology DeploymentSpec::build(util::Rng& rng) const {
  const auto n = static_cast<std::size_t>(num_nodes < 0 ? 0 : num_nodes);
  switch (kind) {
    case TopologyKind::kUniform:
      return Topology::uniform_random(n, area_m, range_m, rng);
    case TopologyKind::kGrid:
      return Topology::grid_area(n, area_m, range_m);
    case TopologyKind::kLine:
      // The chain spans the area; spacing shrinks with node count.
      return Topology::line(n, n > 1 ? area_m / static_cast<double>(n - 1) : 0.0,
                            range_m);
    case TopologyKind::kClustered:
      return Topology::clustered(n, area_m, range_m,
                                 static_cast<std::size_t>(clusters < 1 ? 1 : clusters),
                                 cluster_sigma_m, rng);
    case TopologyKind::kCorridor:
      return Topology::corridor(n, area_m, corridor_width_m, range_m, rng);
  }
  throw std::invalid_argument{"DeploymentSpec::build: unknown TopologyKind"};
}

Position DeploymentSpec::centre() const {
  switch (kind) {
    case TopologyKind::kLine: return Position{area_m / 2.0, 0.0};
    case TopologyKind::kCorridor:
      return Position{area_m / 2.0, corridor_width_m / 2.0};
    default: return Position{area_m / 2.0, area_m / 2.0};
  }
}

Position DeploymentSpec::extent() const {
  switch (kind) {
    case TopologyKind::kLine: return Position{area_m, 0.0};
    case TopologyKind::kCorridor: return Position{area_m, corridor_width_m};
    default: return Position{area_m, area_m};
  }
}

void Topology::save_state(snap::Serializer& out) const {
  out.begin("TOPO");
  out.f64(range_m_);
  out.u64(positions_.size());
  for (const Position& p : positions_) {
    out.f64(p.x);
    out.f64(p.y);
  }
  out.u64(positions_.size());
  for (std::size_t i = 0; i < positions_.size(); ++i) {
    const NeighborSpan list = neighbors(static_cast<NodeId>(i));
    out.u64(list.size());
    for (NodeId n : list) out.i32(n);
  }
  out.boolean(mobility_ != nullptr);
  out.time(epoch_);
  out.i64(epoch_index_);
  out.u64(rebuilds_);
  if (mobility_ != nullptr) mobility_->save_state(out);
  out.end();
}

}  // namespace essat::net
