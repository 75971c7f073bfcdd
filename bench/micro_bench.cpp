// Microbenchmarks of the hot paths: event queue operations (A/B against
// both pre-refactor generations: the PR-1 hash-set queue and the PR-2..4
// std::function slot queue), broadcast packet delivery (zero-copy shared
// frames vs the legacy per-receiver Packet copies), channel broadcast
// scheduling (batched vs legacy per-neighbor events), topology neighbor
// lists (full grid-index build and the per-epoch incremental advance), Safe
// Sleep bookkeeping, shaper updates, and a full small-scenario run.
#include <benchmark/benchmark.h>

#include <functional>
#include <queue>
#include <unordered_set>

#include "src/essat.h"

namespace {

using namespace essat;
using util::Time;

// The pre-refactor EventQueue, verbatim: lazy cancellation through a
// live_/cancelled_ unordered_set pair, kept here as the baseline the
// slot-indexed rewrite is measured against.
class LegacyEventQueue {
 public:
  using Callback = std::function<void()>;

  sim::EventId push(Time t, Callback cb) {
    const sim::EventId id = next_id_++;
    heap_.push(Entry{t, next_seq_++, id, std::move(cb)});
    live_.insert(id);
    return id;
  }
  void cancel(sim::EventId id) {
    if (id == sim::kInvalidEventId) return;
    if (live_.erase(id) != 0) cancelled_.insert(id);
  }
  bool empty() const {
    drop_cancelled_();
    return heap_.empty();
  }
  std::pair<Time, Callback> pop() {
    drop_cancelled_();
    auto& top = const_cast<Entry&>(heap_.top());
    std::pair<Time, Callback> out{top.time, std::move(top.cb)};
    live_.erase(top.id);
    heap_.pop();
    return out;
  }

 private:
  struct Entry {
    Time time;
    std::uint64_t seq = 0;
    sim::EventId id = sim::kInvalidEventId;
    Callback cb;
    bool operator<(const Entry& other) const {
      if (time != other.time) return time > other.time;
      return seq > other.seq;
    }
  };
  void drop_cancelled_() const {
    while (!heap_.empty()) {
      const auto it = cancelled_.find(heap_.top().id);
      if (it == cancelled_.end()) return;
      cancelled_.erase(it);
      heap_.pop();
    }
  }
  mutable std::priority_queue<Entry> heap_;
  mutable std::unordered_set<sim::EventId> cancelled_;
  std::unordered_set<sim::EventId> live_;
  std::uint64_t next_seq_ = 0;
  sim::EventId next_id_ = 1;
};

// The PR-2..4 EventQueue, verbatim: slot-indexed with O(1) cancel, but the
// callback is a std::function (heap-allocated past 16 captured bytes) and
// the heap is a binary std::priority_queue. This is the immediate pre-PR-5
// baseline for the inline-callback/calendar-wheel core.
class StdFunctionSlotQueue {
 public:
  using Callback = std::function<void()>;

  sim::EventId push(Time t, Callback cb) {
    std::uint32_t slot;
    if (free_slots_.empty()) {
      slot = static_cast<std::uint32_t>(slots_.size());
      slots_.emplace_back();
    } else {
      slot = free_slots_.back();
      free_slots_.pop_back();
    }
    Slot& s = slots_[slot];
    s.cb = std::move(cb);
    s.pending = true;
    heap_.push(Entry{t, next_seq_++, slot});
    return (static_cast<sim::EventId>(slot) + 1) << 32 | s.generation;
  }
  void cancel(sim::EventId id) {
    if (id == sim::kInvalidEventId) return;
    const std::uint64_t slot_plus_1 = id >> 32;
    if (slot_plus_1 == 0 || slot_plus_1 > slots_.size()) return;
    Slot& s = slots_[static_cast<std::uint32_t>(slot_plus_1 - 1)];
    if (!s.pending || s.generation != static_cast<std::uint32_t>(id)) return;
    s.pending = false;
    s.cb = nullptr;
  }
  bool empty() const {
    drop_cancelled_();
    return heap_.empty();
  }
  std::pair<Time, Callback> pop() {
    drop_cancelled_();
    const Entry top = heap_.top();
    Slot& s = slots_[top.slot];
    std::pair<Time, Callback> out{top.time, std::move(s.cb)};
    s.cb = nullptr;
    s.pending = false;
    release_slot_(top.slot);
    heap_.pop();
    return out;
  }

 private:
  struct Entry {
    Time time;
    std::uint64_t seq = 0;
    std::uint32_t slot = 0;
    bool operator<(const Entry& other) const {
      if (time != other.time) return time > other.time;
      return seq > other.seq;
    }
  };
  struct Slot {
    Callback cb;
    std::uint32_t generation = 0;
    bool pending = false;
  };
  void release_slot_(std::uint32_t slot) const {
    ++slots_[slot].generation;
    free_slots_.push_back(slot);
  }
  void drop_cancelled_() const {
    while (!heap_.empty() && !slots_[heap_.top().slot].pending) {
      release_slot_(heap_.top().slot);
      heap_.pop();
    }
  }
  mutable std::priority_queue<Entry> heap_;
  mutable std::vector<Slot> slots_;
  mutable std::vector<std::uint32_t> free_slots_;
  std::uint64_t next_seq_ = 0;
};

template <typename Queue>
void queue_push_pop(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  util::Rng rng{1};
  for (auto _ : state) {
    Queue q;
    for (int i = 0; i < n; ++i) {
      q.push(Time::nanoseconds(rng.uniform_int(0, 1'000'000)), [] {});
    }
    while (!q.empty()) benchmark::DoNotOptimize(q.pop());
  }
  state.SetItemsProcessed(state.iterations() * n);
}

void BM_EventQueuePushPop(benchmark::State& state) {
  queue_push_pop<sim::EventQueue>(state);
}
BENCHMARK(BM_EventQueuePushPop)->Arg(256)->Arg(4096);

void BM_LegacyEventQueuePushPop(benchmark::State& state) {
  queue_push_pop<LegacyEventQueue>(state);
}
BENCHMARK(BM_LegacyEventQueuePushPop)->Arg(256)->Arg(4096);

// The MAC/timer pattern the simulator hammers: every armed timer is
// re-armed (push + cancel) many times before it finally fires.
template <typename Queue>
void queue_cancel_churn(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  util::Rng rng{2};
  for (auto _ : state) {
    Queue q;
    std::vector<sim::EventId> ids;
    ids.reserve(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) {
      ids.push_back(q.push(Time::nanoseconds(rng.uniform_int(0, 1'000'000)), [] {}));
    }
    // Rearm every event three times: cancel + fresh push.
    for (int round = 0; round < 3; ++round) {
      for (int i = 0; i < n; ++i) {
        q.cancel(ids[static_cast<std::size_t>(i)]);
        ids[static_cast<std::size_t>(i)] =
            q.push(Time::nanoseconds(rng.uniform_int(0, 1'000'000)), [] {});
      }
    }
    while (!q.empty()) benchmark::DoNotOptimize(q.pop());
  }
  state.SetItemsProcessed(state.iterations() * n * 4);
}

void BM_EventQueueCancelChurn(benchmark::State& state) {
  queue_cancel_churn<sim::EventQueue>(state);
}
BENCHMARK(BM_EventQueueCancelChurn)->Arg(256)->Arg(4096);

void BM_LegacyEventQueueCancelChurn(benchmark::State& state) {
  queue_cancel_churn<LegacyEventQueue>(state);
}
BENCHMARK(BM_LegacyEventQueueCancelChurn)->Arg(256)->Arg(4096);

// The PR-5 satellite A/B: push/pop with the capture size the simulator
// actually carries on the hot path (a Timer's thunk plus its stored
// callback state is ~40 bytes). The std::function baselines pay a heap
// allocation per push for any capture past libstdc++'s 16 inline bytes;
// the InlineCallback queue stores it in the slot.
struct RealisticCapture {
  void* a = nullptr;
  void* b = nullptr;
  void* c = nullptr;
  std::uint64_t k = 0;
  std::uint64_t j = 0;
};

template <typename Queue>
void event_push_pop(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  util::Rng rng{1};
  RealisticCapture payload;
  std::uint64_t sink = 0;
  for (auto _ : state) {
    Queue q;
    for (int i = 0; i < n; ++i) {
      payload.k = static_cast<std::uint64_t>(i);
      q.push(Time::nanoseconds(rng.uniform_int(0, 1'000'000)),
             [payload, &sink] { sink += payload.k; });
    }
    while (!q.empty()) q.pop().second();
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(state.iterations() * n);
}

void BM_EventPushPop(benchmark::State& state) {
  event_push_pop<sim::EventQueue>(state);
}
BENCHMARK(BM_EventPushPop)->Arg(256)->Arg(4096);

// Immediate pre-PR-5 core (std::function slot queue, binary heap).
void BM_EventPushPopStdFunction(benchmark::State& state) {
  event_push_pop<StdFunctionSlotQueue>(state);
}
BENCHMARK(BM_EventPushPopStdFunction)->Arg(256)->Arg(4096);

// The PR-5 satellite A/B: broadcast packet delivery end-to-end through
// the event core, at realistic MAC timing (one frame every 120 us). Both
// sides schedule one begin and one end event per transmission and fan the
// frame out to `receivers` nodes. Legacy (pre-PR-5): the events capture
// the frame by value inside a std::function (heap allocation per event),
// the ATIM destination list is a std::vector (heap allocation per copy),
// and every receiver copies the frame into its reception state and again
// out of it on delivery — exactly the old Channel's shape. Zero-copy: the
// events hold a 16-byte PacketRef from the recycling pool, the
// destinations live inline in the header, and receivers bump a refcount.
constexpr int kDeliveryTxs = 64;
constexpr int kAtimDests = 6;

void BM_BroadcastDelivery(benchmark::State& state) {
  const int receivers = static_cast<int>(state.range(0));
  std::uint64_t sink = 0;
  net::AtimDestinations dests;
  for (net::NodeId d = 1; d <= kAtimDests; ++d) dests.push_back(d);
  for (auto _ : state) {
    sim::EventQueue q;
    net::PacketPool pool;
    std::vector<net::PacketRef> rx_state(static_cast<std::size_t>(receivers));
    for (int i = 0; i < kDeliveryTxs; ++i) {
      net::Packet p = net::make_atim_packet(0, dests);
      p.channel_tx_id = static_cast<std::uint64_t>(i) + 1;
      net::PacketRef frame = pool.acquire(std::move(p));
      q.push(Time::microseconds(i * 120), [&rx_state, frame] {
        for (auto& rx : rx_state) rx = frame;  // refcount bump per receiver
      });
      q.push(Time::microseconds(i * 120 + 100), [&rx_state, &sink, frame] {
        for (auto& rx : rx_state) {
          const net::PacketRef delivered = std::move(rx);
          sink += static_cast<std::uint64_t>(delivered->atim().destinations.size());
        }
      });
    }
    while (!q.empty()) q.pop().second();
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(state.iterations() * kDeliveryTxs *
                          static_cast<std::int64_t>(state.range(0)));
}
BENCHMARK(BM_BroadcastDelivery)->Arg(12)->Arg(32)->ArgNames({"receivers"});

// The pre-PR frame, verbatim shape: ATIM destinations in a std::vector, so
// every copy heap-allocates.
struct LegacyAtimFrame {
  net::NodeId link_src = 0;
  net::NodeId link_dst = net::kBroadcastAddr;
  int size_bytes = net::Packet::kControlBytes;
  std::uint64_t channel_tx_id = 0;
  std::vector<net::NodeId> destinations;
};

void BM_BroadcastDeliveryLegacyCopy(benchmark::State& state) {
  const int receivers = static_cast<int>(state.range(0));
  std::uint64_t sink = 0;
  std::vector<net::NodeId> dests;
  for (net::NodeId d = 1; d <= kAtimDests; ++d) dests.push_back(d);
  for (auto _ : state) {
    StdFunctionSlotQueue q;
    std::vector<LegacyAtimFrame> rx_state(static_cast<std::size_t>(receivers));
    for (int i = 0; i < kDeliveryTxs; ++i) {
      LegacyAtimFrame p;
      p.channel_tx_id = static_cast<std::uint64_t>(i) + 1;
      p.destinations = dests;
      q.push(Time::microseconds(i * 120), [&rx_state, p] {
        for (auto& rx : rx_state) rx = p;  // full frame copy per receiver
      });
      q.push(Time::microseconds(i * 120 + 100), [&rx_state, &sink, p] {
        for (auto& rx : rx_state) {
          const LegacyAtimFrame delivered = rx;  // copy out, as end_arrival_ did
          sink += delivered.destinations.size();
        }
      });
    }
    while (!q.empty()) q.pop().second();
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(state.iterations() * kDeliveryTxs *
                          static_cast<std::int64_t>(state.range(0)));
}
BENCHMARK(BM_BroadcastDeliveryLegacyCopy)
    ->Arg(12)
    ->Arg(32)
    ->ArgNames({"receivers"});

// Timer re-arm fast path: the nav/wake-timer pattern (re-arm while armed)
// against the cancel+push it replaces, on the same queue.
void BM_TimerRearm(benchmark::State& state) {
  const bool fast_path = state.range(0) == 1;
  for (auto _ : state) {
    sim::EventQueue q;
    const Time far = Time::seconds(1000);
    sim::EventId id = q.push(far, [] {});
    for (int i = 0; i < 1024; ++i) {
      const Time t = far + Time::microseconds(i);
      if (fast_path) {
        q.rearm(id, t);
      } else {
        q.cancel(id);
        id = q.push(t, [] {});
      }
    }
    while (!q.empty()) q.pop().second();
  }
  state.SetItemsProcessed(state.iterations() * 1024);
}
BENCHMARK(BM_TimerRearm)->Arg(0)->Arg(1)->ArgNames({"fast"});

// Channel broadcast scheduling: a dense clique (every node hears every
// transmission) is the worst case for the legacy two-events-per-neighbor
// path. range(0) selects batched (1) vs legacy (0) scheduling.
void BM_ChannelBroadcast(benchmark::State& state) {
  const bool batched = state.range(0) == 1;
  const int num_nodes = static_cast<int>(state.range(1));
  util::Rng rng{3};
  const net::Topology topo = net::Topology::uniform_random(
      static_cast<std::size_t>(num_nodes), 80.0, 125.0, rng);  // clique
  for (auto _ : state) {
    sim::Simulator sim;
    net::ChannelParams params;
    params.batch_arrivals = batched;
    net::Channel ch{sim, topo, params};
    for (int i = 0; i < 64; ++i) {
      const auto src = static_cast<net::NodeId>(i % num_nodes);
      sim.schedule_at(Time::microseconds(i * 500), [&ch, src] {
        net::DataHeader h;
        ch.start_tx(src, net::make_data_packet(src, net::kNoNode, h),
                    Time::microseconds(400));
      });
    }
    sim.run();
    benchmark::DoNotOptimize(sim.executed_events());
  }
  state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_ChannelBroadcast)
    ->ArgsProduct({{0, 1}, {16, 64}})
    ->ArgNames({"batched", "nodes"});

// Neighbor lists at constant density (~12 neighbors/node) as n grows, the
// regime where the grid index is expected O(n): a full build (what a static
// topology pays once, and a mobile one on each Verlet candidate refresh) and
// the per-epoch incremental advance under walking-speed random waypoint
// (what a mobile topology pays every 10 ms epoch).
std::vector<net::Position> scaled_positions(std::size_t n) {
  util::Rng rng{7};
  // Area grows with n so density stays fixed: ~n * pi * 125^2 / area = const.
  const double area = 500.0 * std::sqrt(static_cast<double>(n) / 80.0);
  std::vector<net::Position> pos;
  pos.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    pos.push_back(net::Position{rng.uniform(0.0, area), rng.uniform(0.0, area)});
  }
  return pos;
}

void BM_NeighborRebuildGrid(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const std::vector<net::Position> pos = scaled_positions(n);
  for (auto _ : state) {
    net::Topology topo{pos, 125.0};
    benchmark::DoNotOptimize(topo.neighbors(0).size());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_NeighborRebuildGrid)->Arg(80)->Arg(1000)->Arg(4000);

void BM_NeighborAdvance(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const std::vector<net::Position> pos = scaled_positions(n);
  const double area = 500.0 * std::sqrt(static_cast<double>(n) / 80.0);
  net::Topology topo{pos, 125.0};
  const Time epoch = Time::milliseconds(10);
  topo.set_mobility_model(std::make_shared<net::RandomWaypointMobility>(
                              pos, area, area, net::RandomWaypointParams{},
                              util::Rng{7}),
                          epoch);
  std::int64_t e = 0;
  for (; e < 100; ++e) topo.advance_to(epoch * (e + 1));  // warm the buffers
  for (auto _ : state) {
    topo.advance_to(epoch * ++e);
    benchmark::DoNotOptimize(topo.neighbors(0).size());
  }
  state.SetItemsProcessed(state.iterations() * n);
  state.counters["refresh_per_epoch"] =
      static_cast<double>(topo.candidate_refreshes()) / static_cast<double>(e);
  state.counters["publish_per_epoch"] =
      static_cast<double>(topo.table_publishes()) / static_cast<double>(e);
}
BENCHMARK(BM_NeighborAdvance)->Arg(120)->Arg(1000)->Arg(4000);

// The PR-7 attachment A/B: per-arrival listener dispatch. Legacy
// (pre-PR-7) attachments held three std::functions per node — 96 bytes of
// per-node state, and every arrival paid an indirect std::function call
// just to ask "are you listening?" before the delivery dispatch. The
// ChannelListener interface replaces the query with a channel-side cached
// bool (no call at all) and the delivery with one virtual call through a
// single pointer. The loop below replays the channel's per-arrival
// sequence (activity notification + listening check + delivery) over a
// neighborhood of nodes.
struct LegacyAttachment {
  std::function<bool()> is_listening;
  std::function<void(const net::Packet&, bool)> on_rx_complete;
  std::function<void()> on_channel_activity;
};

struct DevirtListener final : net::ChannelListener {
  std::uint64_t delivered = 0;
  std::uint64_t activity = 0;
  bool on = true;
  void on_rx_complete(const net::Packet&, bool ok) override {
    delivered += ok ? 1 : 0;
  }
  void on_channel_activity() override { ++activity; }
};

constexpr int kDispatchArrivals = 1024;

void BM_ListenerDispatchLegacyStdFunction(benchmark::State& state) {
  const int neighbors = static_cast<int>(state.range(0));
  std::uint64_t delivered = 0, activity = 0;
  bool on = true;
  std::vector<LegacyAttachment> atts(static_cast<std::size_t>(neighbors));
  for (auto& a : atts) {
    a.is_listening = [&on] { return on; };
    a.on_rx_complete = [&delivered](const net::Packet&, bool ok) {
      delivered += ok ? 1 : 0;
    };
    a.on_channel_activity = [&activity] { ++activity; };
  }
  net::DataHeader h;
  const net::Packet p = net::make_data_packet(0, net::kNoNode, h);
  for (auto _ : state) {
    for (int i = 0; i < kDispatchArrivals; ++i) {
      for (auto& a : atts) {
        if (a.on_channel_activity) a.on_channel_activity();
        if (a.is_listening && a.is_listening()) a.on_rx_complete(p, true);
      }
    }
  }
  benchmark::DoNotOptimize(delivered);
  benchmark::DoNotOptimize(activity);
  state.SetItemsProcessed(state.iterations() * kDispatchArrivals * neighbors);
}
BENCHMARK(BM_ListenerDispatchLegacyStdFunction)
    ->Arg(12)
    ->ArgNames({"neighbors"});

void BM_ListenerDispatchDevirtualized(benchmark::State& state) {
  const int neighbors = static_cast<int>(state.range(0));
  DevirtListener listener;
  // The channel's per-node record: one pointer + the cached flag.
  struct PerNode {
    net::ChannelListener* listener = nullptr;
    bool listening = false;
  };
  std::vector<PerNode> nodes(static_cast<std::size_t>(neighbors));
  for (auto& n : nodes) n = PerNode{&listener, true};
  net::DataHeader h;
  const net::Packet p = net::make_data_packet(0, net::kNoNode, h);
  for (auto _ : state) {
    for (int i = 0; i < kDispatchArrivals; ++i) {
      for (auto& n : nodes) {
        if (n.listener != nullptr) n.listener->on_channel_activity();
        if (n.listening) n.listener->on_rx_complete(p, true);
      }
    }
  }
  benchmark::DoNotOptimize(listener.delivered);
  benchmark::DoNotOptimize(listener.activity);
  state.SetItemsProcessed(state.iterations() * kDispatchArrivals * neighbors);
}
BENCHMARK(BM_ListenerDispatchDevirtualized)->Arg(12)->ArgNames({"neighbors"});

void BM_SimulatorTimerChurn(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulator sim;
    sim::Timer t{sim};
    int fired = 0;
    std::function<void()> rearm = [&] {
      if (++fired < 1000) t.arm_in(Time::microseconds(10), rearm);
    };
    t.arm_in(Time::microseconds(10), rearm);
    sim.run();
    benchmark::DoNotOptimize(fired);
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_SimulatorTimerChurn);

void BM_SafeSleepCheckState(benchmark::State& state) {
  sim::Simulator sim;
  net::Topology topo = net::Topology::line(2, 100.0, 125.0);
  net::Channel channel{sim, topo};
  energy::Radio radio{sim, energy::RadioParams{}};
  mac::CsmaMac mac{sim, channel, radio, 0, mac::MacParams{}, util::Rng{1}};
  core::SafeSleep ss{sim, radio, mac, core::SafeSleepParams{}};
  // Ten queries with three children each: realistic bookkeeping size.
  for (net::QueryId q = 0; q < 10; ++q) {
    ss.update_next_send(q, Time::seconds(1000 + q));
    for (net::NodeId c = 1; c <= 3; ++c) {
      ss.update_next_receive(q, c, Time::seconds(1000 + q + c));
    }
  }
  for (auto _ : state) {
    ss.check_state();
    benchmark::DoNotOptimize(ss.next_wakeup());
  }
}
BENCHMARK(BM_SafeSleepCheckState);

void BM_DtsShaperUpdate(benchmark::State& state) {
  net::Topology topo = net::Topology::line(3, 100.0, 125.0);
  routing::Tree tree = routing::build_bfs_tree(topo, 0, 10000.0);
  core::DtsShaper shaper;
  shaper.set_context(query::ShaperContext{&tree, 1, nullptr});
  query::Query q;
  q.id = 0;
  q.period = Time::seconds(1);
  q.phase = Time::zero();
  shaper.register_query(q);
  std::int64_t k = 0;
  for (auto _ : state) {
    shaper.on_report_received(q, k, 2, std::nullopt);
    const auto plan = shaper.plan_send(q, k, q.epoch_start(k));
    shaper.on_report_sent(q, k, plan.send_at);
    ++k;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DtsShaperUpdate);

void BM_SmallScenario(benchmark::State& state) {
  for (auto _ : state) {
    harness::ScenarioConfig c;
    c.protocol = harness::Protocol::kDtsSs;
    c.deployment.num_nodes = 30;
    c.workload.base_rate_hz = 1.0;
    c.measure_duration = Time::seconds(10);
    c.seed = 3;
    benchmark::DoNotOptimize(harness::run_scenario(c));
  }
}
BENCHMARK(BM_SmallScenario)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
