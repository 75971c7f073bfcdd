// Steady-state allocation tests for the simulation hot path: after
// warm-up, event push/pop, timer re-arms, and broadcast delivery must not
// touch the heap at all. A counting global operator new/delete is the
// tracking hook; counting is scoped so gtest's own bookkeeping stays out
// of the numbers.
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <random>
#include <vector>

#include "bench/alloc_hook.h"
#include "src/essat.h"
#include "src/snap/hook.h"
#include "src/snap/trial.h"

namespace essat {
namespace {

using CountScope = bench_alloc::AllocationCounter;
using util::Time;

// A capture the size the simulator actually schedules (five words — wider
// than libstdc++'s std::function SBO, the case that used to allocate).
struct WideCapture {
  void* a = nullptr;
  void* b = nullptr;
  void* c = nullptr;
  std::uint64_t k = 0;
  std::uint64_t j = 0;
};

TEST(SteadyStateAlloc, EventPushPopIsAllocationFree) {
  sim::EventQueue q;
  q.reserve(256);
  WideCapture w;
  std::uint64_t sink = 0;
  // Warm-up: populate slots, bucket capacity, and the overflow list.
  for (int round = 0; round < 3; ++round) {
    for (int i = 0; i < 128; ++i) {
      w.k = static_cast<std::uint64_t>(i);
      q.push(Time::microseconds(137 * i), [w, &sink] { sink += w.k; });
    }
    while (!q.empty()) q.pop().second();
  }
  {
    CountScope scope;
    for (int i = 0; i < 128; ++i) {
      w.k = static_cast<std::uint64_t>(i);
      q.push(Time::microseconds(137 * i), [w, &sink] { sink += w.k; });
    }
    while (!q.empty()) q.pop().second();
    EXPECT_EQ(scope.count(), 0u) << "event push/pop allocated after warm-up";
  }
  EXPECT_GT(sink, 0u);
}

// The MAC's queue shape: most scheduled backoffs are cancelled or re-armed
// before they fire, while protocol timers a full wheel span or more ahead
// wait in the overflow list and migrate into the wheel as it slides. After
// warm-up, none of it — cancels, rearms, overflow pushes, migrations — may
// allocate.
TEST(SteadyStateAlloc, CancelHeavyQueueWithOverflowMigrationsIsAllocationFree) {
  sim::Simulator sim;
  sim.reserve_events(256);
  // The tick is a whole number of wheel buckets (2^14 ns), so each tick's
  // pushes land on the same bucket pattern and warm-up grows every bucket
  // the steady state will use.
  const Time tick = Time::nanoseconds(std::int64_t{64} << 14);
  struct MacPattern {
    sim::Simulator& sim;
    Time tick;
    std::array<sim::EventId, 16> backoff{};
    std::array<sim::EventId, 16> timer{};
    std::uint64_t ticks = 0;
    std::uint64_t fired = 0;

    void on_tick() {
      ++ticks;
      for (std::size_t i = 0; i < backoff.size(); ++i) {
        // Odd nodes back off past the next tick and are cancelled there;
        // even nodes' backoffs fire.
        const auto k = static_cast<std::int64_t>(i);
        sim.cancel(backoff[i]);
        const std::int64_t delay_us = (i % 2 == 1 ? 1500 : 200) + 10 * k;
        backoff[i] =
            sim.schedule_in(Time::microseconds(delay_us), [this] { ++fired; });
        if ((ticks + i) % 3 != 0) continue;
        // Overflow timers (40-55 ms ahead): a quarter fire, a quarter are
        // re-armed, the rest are cancelled and pushed again.
        const Time at = sim.now() + Time::milliseconds(40 + k);
        if (i % 4 == 1 && sim.rearm(timer[i], at)) continue;
        if (i % 4 != 0) sim.cancel(timer[i]);
        timer[i] = sim.schedule_at(at, [this] { ++fired; });
      }
      sim.schedule_in(tick, [this] { on_tick(); });
    }
  };
  MacPattern d{sim, tick};
  sim.schedule_in(tick, [&d] { d.on_tick(); });
  sim.run_until(Time::seconds(1));  // warm-up
  const std::uint64_t fired_before = d.fired;
  {
    CountScope scope;
    sim.run_until(Time::seconds(3));
    EXPECT_EQ(scope.count(), 0u)
        << "cancel-heavy queue with overflow migrations allocated";
  }
  EXPECT_GT(d.fired - fired_before, 10000u);  // the window really ran
}

TEST(SteadyStateAlloc, TimerRearmIsAllocationFree) {
  sim::Simulator sim;
  sim.reserve_events(16);
  sim::Timer t{sim};
  int fired = 0;
  // Warm-up one arm/fire cycle plus re-arms.
  t.arm_in(Time::microseconds(5), [&fired] { ++fired; });
  t.arm_in(Time::microseconds(7), [&fired] { ++fired; });
  sim.run();
  {
    CountScope scope;
    t.arm_in(Time::microseconds(5), [&fired] { ++fired; });
    t.arm_in(Time::microseconds(9), [&fired] { ++fired; });  // rearm fast path
    t.arm_in(Time::microseconds(3), [&fired] { ++fired; });  // rearm earlier
    sim.run();
    EXPECT_EQ(scope.count(), 0u) << "timer re-arm allocated after warm-up";
  }
  EXPECT_EQ(fired, 2);
}

TEST(SteadyStateAlloc, BroadcastDeliveryIsAllocationFree) {
  sim::Simulator sim;
  sim.reserve_events(64);
  const net::Topology topo = net::Topology::line(3, 100.0, 125.0);
  net::Channel ch{sim, topo};
  struct Counting : net::ChannelListener {
    int delivered = 0;
    void on_rx_complete(const net::Packet&, bool ok) override {
      if (ok) ++delivered;
    }
    void on_channel_activity() override {}
  } listener;
  int& delivered = listener.delivered;
  for (net::NodeId n = 0; n < 3; ++n) {
    ch.attach(n, &listener);
    ch.set_listening(n, true);
  }
  net::AtimDestinations dests{1, 2};
  auto broadcast = [&](int rounds) {
    for (int i = 0; i < rounds; ++i) {
      sim.schedule_in(Time::microseconds(1 + 700 * i), [&ch, &dests] {
        ch.start_tx(0, net::make_atim_packet(0, dests),
                    Time::microseconds(400));
      });
    }
    sim.run();
  };
  broadcast(8);  // warm-up: packet pool, event slots, bucket capacity
  const int before = delivered;
  {
    CountScope scope;
    broadcast(8);
    EXPECT_EQ(scope.count(), 0u) << "broadcast delivery allocated after warm-up";
  }
  EXPECT_GT(delivered, before);
}

// Epoch rollover across a full 4-node aggregation chain: after the first
// few epochs populate the pools (epoch records, MAC rings, packet blocks,
// event slots), each further epoch — generate, aggregate hop by hop,
// deliver at the root, open the next — must be allocation-free. This is
// the query agent's steady state; the legacy per-epoch std::map/std::set
// records paid four-plus allocations per epoch here.
TEST(SteadyStateAlloc, EpochRolloverIsAllocationFree) {
  sim::Simulator sim;
  sim.reserve_events(256);
  const net::Topology topo = net::Topology::line(4, 100.0, 125.0);
  const routing::Tree tree = routing::build_bfs_tree(topo, 0, 10000.0);
  net::Channel ch{sim, topo};
  // Zero contention window: the chain's transmissions are staggered by the
  // shaper, so backoff only adds rng jitter that would smear the per-epoch
  // event cluster across different wheel buckets each epoch and defeat the
  // bucket-capacity warm-up.
  mac::MacParams mp;
  mp.cw_min = 0;
  mp.cw_max = 0;
  mp.initial_data_cw = 0;
  std::vector<std::unique_ptr<energy::Radio>> radios;
  std::vector<std::unique_ptr<mac::CsmaMac>> macs;
  std::vector<std::unique_ptr<core::NtsShaper>> shapers;
  std::vector<std::unique_ptr<query::QueryAgent>> agents;
  for (std::size_t i = 0; i < 4; ++i) {
    const auto id = static_cast<net::NodeId>(i);
    radios.push_back(std::make_unique<energy::Radio>(sim, energy::RadioParams{}));
    macs.push_back(std::make_unique<mac::CsmaMac>(
        sim, ch, *radios.back(), id, mp, util::Rng{50 + i}));
    shapers.push_back(std::make_unique<core::NtsShaper>());
    shapers.back()->set_context(query::ShaperContext{&tree, id, nullptr});
    agents.push_back(std::make_unique<query::QueryAgent>(
        sim, *macs.back(), tree, id, *shapers.back(),
        query::QueryAgentParams{.t_comp = Time::milliseconds(2)}));
    macs.back()->set_rx_handler(
        [&agents, i](const net::Packet& p) { agents[i]->handle_packet(p); });
  }
  int root_arrivals = 0;
  agents[0]->set_root_arrival_hook(
      [&root_arrivals](const query::Query&, std::int64_t, Time, int) {
        ++root_arrivals;
      });
  // Period a multiple of the calendar wheel's span (1024 buckets of
  // 2^14 ns): every epoch's deterministic timer cluster (sends, deadlines)
  // then lands in the same wheel buckets the warm-up epochs already grew,
  // so the assertion checks the true steady state instead of racing bucket
  // capacities against slot drift.
  const Time period = Time::nanoseconds((std::int64_t{1} << 24) * 60);
  query::Query q;
  q.id = 0;
  q.period = period;
  q.phase = period;
  for (auto& a : agents) a->register_query(q);

  sim.run_until(period * 5);  // warm-up: several full epochs
  const int before = root_arrivals;
  {
    CountScope scope;
    sim.run_until(period * 10);
    EXPECT_EQ(scope.count(), 0u) << "epoch rollover allocated after warm-up";
  }
  EXPECT_GE(root_arrivals - before, 4);  // epochs really rolled in the window
}

// MAC queue churn: bursts that stack frames behind a busy medium and then
// drain to empty, repeated. The legacy std::deque returned its chunk on
// every drain and re-bought it on the next burst; the ring must keep its
// high-water storage, making fill/drain cycles allocation-free.
TEST(SteadyStateAlloc, MacQueueChurnIsAllocationFree) {
  sim::Simulator sim;
  sim.reserve_events(256);
  const net::Topology topo = net::Topology::line(2, 100.0, 125.0);
  net::Channel ch{sim, topo};
  energy::Radio r0{sim, energy::RadioParams{}};
  energy::Radio r1{sim, energy::RadioParams{}};
  // Single sender, so backoff never resolves contention here — zero the
  // contention window to keep each burst's event times identical modulo
  // the wheel epoch (see the spacing note below).
  mac::MacParams mp;
  mp.cw_min = 0;
  mp.cw_max = 0;
  mp.initial_data_cw = 0;
  mac::CsmaMac m0{sim, ch, r0, 0, mp, util::Rng{7}};
  mac::CsmaMac m1{sim, ch, r1, 1, mp, util::Rng{8}};
  int received = 0;
  m1.set_rx_handler([&received](const net::Packet&) { ++received; });

  // Burst spacing = one full wheel epoch (1024 buckets of 2^14 ns), so
  // every burst's event cluster reuses the wheel buckets the warm-up
  // bursts grew; see EpochRolloverIsAllocationFree.
  const Time spacing = Time::nanoseconds(std::int64_t{1} << 24);
  int round = 0;  // bursts at absolute times round*spacing: always aligned
  auto burst = [&](int rounds) {
    for (int i = 0; i < rounds; ++i) {
      sim.schedule_at(spacing * round++, [&m0] {
        // Six frames at once: the queue stacks up behind the in-flight
        // head, then drains to empty before the next burst.
        for (int j = 0; j < 6; ++j) {
          net::DataHeader h;
          h.query = 1;
          m0.send(net::make_data_packet(0, 1, h));
        }
      });
    }
    sim.run();
  };
  burst(4);  // warm-up: ring high water, ACK/backoff timers, packet pool
  const int before = received;
  {
    CountScope scope;
    burst(4);
    EXPECT_EQ(scope.count(), 0u) << "queue fill/drain allocated after warm-up";
  }
  EXPECT_GT(received, before);
}

// Mobility epochs: after warm-up, a 120-node random-waypoint topology
// advances through epochs that refresh the Verlet candidates, change lists
// (publishing into the recycled table) and run while the channel's frozen
// handle holds a table — all without touching the heap.
TEST(SteadyStateAlloc, MobilityEpochAdvanceIsAllocationFree) {
  util::Rng rng{21};
  net::Topology topo = net::Topology::uniform_random(120, 500.0, 125.0, rng);
  net::RandomWaypointParams params;
  params.speed_min_mps = 5.0;
  params.speed_max_mps = 10.0;
  params.pause_s = 1.0;
  topo.set_mobility_model(
      std::make_shared<net::RandomWaypointMobility>(topo.positions(), 500.0,
                                                    500.0, params, util::Rng{3}),
      Time::milliseconds(10));
  int epoch = 0;
  const auto advance = [&](int epochs) {
    for (int i = 0; i < epochs; ++i) {
      topo.advance_to(Time::milliseconds(10) * ++epoch);
    }
  };
  advance(3000);  // warm-up: buffer high-water marks
  const auto refreshes = topo.candidate_refreshes();
  const auto publishes = topo.table_publishes();
  {
    CountScope scope;
    advance(1500);
    {
      // Held across one list change, released before the next: the table
      // comes back to the recycler unheld.
      const auto frozen = topo.neighbors_handle();
      const auto held_at = topo.table_publishes();
      while (topo.table_publishes() == held_at) advance(1);
    }
    advance(1500);
    EXPECT_EQ(scope.count(), 0u) << "mobility epoch allocated after warm-up";
  }
  EXPECT_GE(topo.candidate_refreshes() - refreshes, 3u);
  EXPECT_GE(topo.table_publishes() - publishes, 100u);
}

// A static topology's construction builds only its grid index, sizing each
// buffer once: the same few allocations at any n. Filling every row writes
// into append-only chunks that double in size, so it allocates O(log n)
// times, never once per row.
TEST(SteadyStateAlloc, StaticTopologyBuildAllocationsDoNotGrowWithN) {
  struct Counts {
    std::uint64_t build = 0;
    std::uint64_t fill = 0;
  };
  const auto allocations = [](std::size_t n) {
    util::Rng rng{9};
    const double area = 500.0 * std::sqrt(static_cast<double>(n) / 80.0);
    std::vector<net::Position> pos;
    pos.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      pos.push_back(net::Position{rng.uniform(0.0, area), rng.uniform(0.0, area)});
    }
    Counts counts;
    CountScope build_scope;
    const net::Topology topo{std::move(pos), 125.0};
    counts.build = build_scope.count();
    std::size_t entries = 0;
    {
      CountScope fill_scope;
      for (std::size_t i = 0; i < n; ++i) {
        entries += topo.neighbors(static_cast<net::NodeId>(i)).size();
      }
      counts.fill = fill_scope.count();
    }
    EXPECT_GT(entries, 10 * n);  // a real table
    EXPECT_EQ(topo.rows_filled(), n);
    return counts;
  };
  const Counts small = allocations(1000);
  const Counts large = allocations(10000);
  EXPECT_EQ(large.build, small.build);
  EXPECT_LE(small.build, 12u);
  EXPECT_LE(large.fill, 40u) << "filling 10,000 rows must not allocate per row";
}

// A city-scale trial builds a radio/MAC stack only for its tree members and
// the nodes their frames reach, and sizes its event queue by the same, so
// set-up costs an idle node only its O(1) slots: grid index, channel entry
// and an empty stack slot. Differencing two sizes cancels the fixed cost.
// (With every stack built up front it was ~2300 B/node.)
TEST(SteadyStateAlloc, CitySetUpCostsAnIdleNodeUnder512Bytes) {
  const auto setup_bytes = [](int n) {
    harness::ScenarioConfig c;
    c.protocol = harness::Protocol::kDtsSs;
    c.deployment.num_nodes = n;
    c.deployment.area_m = 500.0 * std::sqrt(n / 80.0);  // paper density
    c.deployment.range_m = 125.0;
    c.deployment.max_tree_dist_m = 300.0;
    c.workload.base_rate_hz = 1.0;
    c.seed = 1;
    std::uint64_t bytes = 0;
    CountScope scope;
    snap::TrialHookSpec hook;
    hook.enabled = true;
    hook.at = snap::capture_barrier(c);
    hook.hook = [&](snap::TrialCheckpoint& cp) {
      bytes = scope.bytes();
      cp.stop = true;
    };
    harness::run_scenario(c, hook);
    EXPECT_GT(bytes, 0u);
    return static_cast<double>(bytes);
  };
  const double small = setup_bytes(10000);
  const double large = setup_bytes(20000);
  EXPECT_LE((large - small) / 10000.0, 512.0);
}

// Per-link streams: the shadowing gain and the Gilbert-Elliott initial
// state each fork a stream per fresh link and draw from it once. A fork and
// its one-shot draw must not touch the heap — a stream serves its first 156
// outputs from two seeded words and builds an engine only at the 157th.
TEST(SteadyStateAlloc, ForkAndOneShotDrawIsAllocationFree) {
  const util::Rng model_stream{11};
  const util::Rng gain_rng = model_stream.fork(1);  // the models' fork(1)
  double sum = 0.0;
  {
    CountScope scope;
    for (net::NodeId src = 0; src < 100; ++src) {
      for (net::NodeId dst = 0; dst < 100; ++dst) {
        const std::uint64_t key = net::link_key(src, dst);
        util::Rng gain = gain_rng.fork(key);  // LogNormalShadowingModel
        sum += gain.normal(0.0, 4.0);
        util::Rng init = gain_rng.fork(key);  // GilbertElliottModel
        sum += init.bernoulli(1.0 / 6.0) ? 1.0 : 0.0;
      }
    }
    EXPECT_EQ(scope.count(), 0u) << "fork + one-shot draw allocated";
  }
  EXPECT_NE(sum, 0.0);
}

// The same paths through the models: a fresh link costs its map entry (node
// plus amortized bucket growth), never a per-link engine (2.5 KB).
TEST(SteadyStateAlloc, FreshLinksCostTheirMapEntryOnly) {
  constexpr std::uint64_t kLinks = 100 * 100;
  constexpr std::uint64_t kEngineBytes = sizeof(std::mt19937_64);
  net::LogNormalShadowingModel shadowing{net::ShadowingParams{}, 125.0,
                                         util::Rng{11}};
  // The frame stream is long-lived: build its engine before counting.
  for (int i = 0; i < 200; ++i) shadowing.deliver(0, 1, 50.0);
  net::GilbertElliottModel bursty{net::GilbertElliottParams{}, nullptr,
                                  util::Rng{12}};
  for (int i = 0; i < 200; ++i) bursty.deliver(0, 1, 50.0);
  double prr = 0.0;
  int passed = 0;
  {
    CountScope scope;
    for (net::NodeId src = 0; src < 100; ++src) {
      for (net::NodeId dst = 0; dst < 100; ++dst) {
        prr += shadowing.link_prr(src + 2, dst, 60.0);
      }
    }
    EXPECT_LT(scope.bytes() / kLinks, kEngineBytes / 8)
        << "fresh shadowing links allocated per-link engines";
  }
  {
    CountScope scope;
    for (net::NodeId src = 0; src < 100; ++src) {
      for (net::NodeId dst = 0; dst < 100; ++dst) {
        passed += bursty.deliver(src + 2, dst, 60.0) ? 1 : 0;
      }
    }
    EXPECT_LT(scope.bytes() / kLinks, kEngineBytes / 8)
        << "fresh Gilbert-Elliott links allocated per-link engines";
  }
  EXPECT_GT(prr, 0.0);
  EXPECT_GT(passed, 0);
}

// A long-lived stream allocates exactly once, at its 157th output (the
// engine it draws from from then on), and never again.
TEST(SteadyStateAlloc, LongLivedStreamBuildsItsEngineOnce) {
  util::Rng r{5};
  CountScope scope;
  for (int i = 0; i < 156; ++i) r.uniform(0.0, 1.0);
  EXPECT_EQ(scope.count(), 0u) << "the first 156 outputs allocated";
  r.uniform(0.0, 1.0);
  EXPECT_EQ(scope.count(), 1u) << "the 157th output did not build the engine";
  EXPECT_EQ(scope.bytes(), sizeof(std::mt19937_64));
  for (int i = 0; i < 100000; ++i) {
    r.uniform_int(0, 1000);
    r.normal(0.0, 1.0);
  }
  EXPECT_EQ(scope.count(), 1u) << "a stream allocated after its engine build";
}

// The packet pool recycles its control blocks: a long tx sequence keeps a
// bounded pool instead of allocating per frame.
TEST(SteadyStateAlloc, PacketPoolRecyclesBlocks) {
  net::PacketPool pool;
  {
    net::PacketRef a = pool.acquire(net::Packet{});
    net::PacketRef b = pool.acquire(net::Packet{});
  }
  EXPECT_EQ(pool.recycled_blocks(), 2u);
  {
    CountScope scope;
    for (int i = 0; i < 100; ++i) {
      net::PacketRef r = pool.acquire(net::Packet{});
    }
    EXPECT_EQ(scope.count(), 0u) << "pool acquire allocated with free blocks";
  }
  EXPECT_EQ(pool.recycled_blocks(), 2u);
}

}  // namespace
}  // namespace essat
