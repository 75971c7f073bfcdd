// The traced run: per-layer counts from the obs::TraceSpec sink over the
// workload's layer trials (two passes split by trace-type mask, so each
// ring holds its pass without overwriting), an event-queue replay of the
// traced queue operations, and standalone timed calls into single layers.
#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "perfbench/host_speed.h"
#include "perfbench/runs.h"
#include "perfbench/trials.h"
#include "src/net/channel.h"
#include "src/net/topology.h"
#include "src/routing/link_estimator.h"
#include "src/routing/parent_policy.h"
#include "src/routing/tree.h"
#include "src/sim/event_queue.h"
#include "src/sim/simulator.h"
#include "src/snap/hook.h"
#include "src/snap/metrics_codec.h"
#include "src/snap/trial.h"
#include "src/util/rng.h"

namespace perfbench {

namespace {

namespace net = essat::net;
namespace routing = essat::routing;
namespace sim = essat::sim;
namespace snap = essat::snap;
namespace util = essat::util;
using obs::TraceType;

constexpr int kMinReps = 3;

// ---------------------------------------------------------------- replay

enum class QueueOpKind : std::uint64_t { kPush = 0, kPop = 1, kCancel = 2, kRearm = 3 };

// One traced queue operation: the kind in the top two bits of `word`, the
// record's timestamp (fire time for push/rearm, pop time for pop) below.
struct QueueOp {
  std::uint64_t word = 0;
  sim::EventId id = sim::kInvalidEventId;

  QueueOpKind kind() const { return static_cast<QueueOpKind>(word >> 62); }
  util::Time time() const {
    return util::Time::nanoseconds(static_cast<std::int64_t>(word & ~(3ull << 62)));
  }
};

std::vector<QueueOp> queue_ops(const std::vector<obs::TraceRecord>& records) {
  std::vector<QueueOp> ops;
  ops.reserve(records.size());
  for (const obs::TraceRecord& r : records) {
    QueueOpKind kind;
    std::int64_t t = r.t_ns;
    switch (r.trace_type()) {
      case TraceType::kEvPush: kind = QueueOpKind::kPush; t = static_cast<std::int64_t>(r.b); break;
      case TraceType::kEvPop: kind = QueueOpKind::kPop; break;
      case TraceType::kEvCancel: kind = QueueOpKind::kCancel; break;
      case TraceType::kEvRearm: kind = QueueOpKind::kRearm; t = static_cast<std::int64_t>(r.b); break;
      default: continue;
    }
    ops.push_back(QueueOp{static_cast<std::uint64_t>(kind) << 62 |
                              static_cast<std::uint64_t>(t),
                          r.a});
  }
  return ops;
}

// Feeds the traced stream into a standalone sim::EventQueue, checking that
// every pop returns the event (and time) the trace popped, and rewrites the
// ids to the replay queue's own so the timed replay needs no id map. The
// trace's ids can differ from a replay's: the simulator's run_until also
// skims dead entries at phase boundaries, which recycles slots earlier.
// Returns "" on success, else the first divergence.
std::string verify_and_translate(std::vector<QueueOp>& ops, std::size_t reserve) {
  sim::EventQueue q;
  q.reserve(reserve);
  std::unordered_map<sim::EventId, sim::EventId> live;
  live.reserve(reserve * 2);
  for (std::size_t i = 0; i < ops.size(); ++i) {
    QueueOp& op = ops[i];
    const auto it = live.find(op.id);
    switch (op.kind()) {
      case QueueOpKind::kPush: {
        const sim::EventId rid = q.push(op.time(), [] {});
        live[op.id] = rid;
        op.id = rid;
        break;
      }
      case QueueOpKind::kPop: {
        util::Time t;
        sim::EventQueue::Callback cb;
        sim::EventId rid = sim::kInvalidEventId;
        if (!q.pop_until(util::Time::max(), t, cb, rid) || it == live.end() ||
            it->second != rid || t != op.time()) {
          return "queue replay diverged from the trace at op " + std::to_string(i);
        }
        live.erase(it);
        op.id = rid;
        break;
      }
      case QueueOpKind::kCancel:
        // A cancel of an id that already fired or was cancelled is a no-op
        // in the traced queue; kInvalidEventId keeps it one here.
        op.id = it == live.end() ? sim::kInvalidEventId : it->second;
        if (it != live.end()) live.erase(it);
        q.cancel(op.id);
        break;
      case QueueOpKind::kRearm:
        if (it == live.end() || !q.rearm(it->second, op.time())) {
          return "queue replay could not re-arm at op " + std::to_string(i);
        }
        op.id = it->second;
        break;
    }
  }
  return "";
}

// Replays a translated stream on a fresh queue; returns the host seconds
// of the operations alone and counts pops that returned another id.
double timed_replay(const std::vector<QueueOp>& ops, std::size_t reserve,
                    std::uint64_t& mismatches) {
  sim::EventQueue q;
  q.reserve(reserve);
  util::Time t;
  sim::EventQueue::Callback cb;
  sim::EventId rid = sim::kInvalidEventId;
  const double t0 = thread_cpu_s();
  for (const QueueOp& op : ops) {
    switch (op.kind()) {
      case QueueOpKind::kPush:
        mismatches += q.push(op.time(), [] {}) != op.id;
        break;
      case QueueOpKind::kPop:
        mismatches += !q.pop_until(util::Time::max(), t, cb, rid) || rid != op.id;
        break;
      case QueueOpKind::kCancel:
        q.cancel(op.id);
        break;
      case QueueOpKind::kRearm:
        mismatches += !q.rearm(op.id, op.time());
        break;
    }
  }
  return thread_cpu_s() - t0;
}

// ---------------------------------------------------------- layer counts

struct Counts {
  std::array<std::uint64_t, static_cast<std::size_t>(TraceType::kCount)> by_type{};
  std::array<std::uint64_t, 8> drops{};  // by obs::DropReason
  std::uint64_t fanout = 0;              // sum of kChanTxBegin receivers

  std::uint64_t operator[](TraceType t) const {
    return by_type[static_cast<std::size_t>(t)];
  }
  void add(const std::vector<obs::TraceRecord>& records) {
    for (const obs::TraceRecord& r : records) {
      if (r.type >= by_type.size()) continue;
      ++by_type[r.type];
      if (r.trace_type() == TraceType::kChanTxBegin) fanout += r.arg16;
      if (r.trace_type() == TraceType::kChanDrop) {
        const auto reason = static_cast<std::size_t>(r.drop_reason());
        if (reason < drops.size()) ++drops[reason];
      }
    }
  }
};

// ------------------------------------------------- standalone layer calls

// The trial's placement, rebuilt the way run_scenario builds it: the
// placement stream is fork 1 of the trial seed, the mobility stream fork 6,
// the link model's fork 5.
net::Topology build_topology(const harness::ScenarioConfig& c) {
  const util::Rng master{c.seed};
  util::Rng placement = master.fork(1);
  return c.deployment.build(placement);
}

// Central tree construction over the trial's topology with its parent
// policy (an ETX policy reads link statistics through a live channel).
struct TreeBench {
  net::Topology topo;
  sim::Simulator sim;
  std::unique_ptr<net::Channel> channel;
  std::unique_ptr<routing::LinkEstimator> estimator;
  std::unique_ptr<routing::ParentPolicy> policy;
  net::NodeId root = net::kNoNode;
  double max_dist = 0.0;

  explicit TreeBench(const harness::ScenarioConfig& c)
      : topo{build_topology(c)}, max_dist{c.deployment.max_tree_dist_m} {
    const util::Rng master{c.seed};
    channel = std::make_unique<net::Channel>(sim, topo, c.channel_params);
    channel->set_link_model(c.channel_model.build(topo.range(), master.fork(5)));
    estimator = std::make_unique<routing::LinkEstimator>(*channel, topo, c.routing.etx);
    policy = c.routing.build(routing::PolicyContext{&topo, estimator.get(), c.routing.etx});
    root = topo.nearest(c.deployment.centre());
  }
  TreeBench(const TreeBench&) = delete;
  TreeBench& operator=(const TreeBench&) = delete;

  double timed_build() const {
    const double t0 = thread_cpu_s();
    const routing::Tree tree =
        routing::build_policy_tree(topo, root, max_dist, policy.get());
    const double s = thread_cpu_s() - t0;
    return tree.member_count() > 0 ? s : 0.0;
  }
};

// Host microseconds per neighbour-list rebuild of a standalone Topology
// driven by the trial's MobilitySpec over the trial's horizon; 0 (and no
// rebuilds) for a static trial.
double timed_rebuilds(const harness::ScenarioConfig& c, std::uint64_t& rebuilds) {
  net::Topology topo = build_topology(c);
  const util::Rng master{c.seed};
  std::unique_ptr<net::MobilityModel> model = c.mobility.build(
      topo.positions(), c.deployment.extent().x, c.deployment.extent().y,
      master.fork(6));
  rebuilds = 0;
  if (!model) return 0.0;
  topo.set_mobility_model(std::move(model), c.mobility.epoch());
  const util::Time horizon = trial_horizon(c);
  const double t0 = thread_cpu_s();
  for (util::Time t = c.mobility.epoch(); t <= horizon; t += c.mobility.epoch()) {
    topo.advance_to(t);
  }
  const double s = thread_cpu_s() - t0;
  rebuilds = topo.neighbor_rebuilds() - 1;
  return ratio(s * 1e6, static_cast<double>(rebuilds));
}

}  // namespace

Report run_per_layer(const Workload& w, double seconds) {
  Report rep;
  const Clock::time_point start = Clock::now();
  std::vector<double> reference_samples = {reference_s()};

  Counts counts;
  std::vector<std::vector<QueueOp>> streams;
  std::vector<std::size_t> stream_reserve;
  std::uint64_t queue_records = 0;
  std::uint64_t records = 0;
  std::uint64_t overwritten = 0;
  std::uint64_t peak_pending = 0;
  std::uint64_t repair_attempts = 0;
  std::uint64_t node_deaths = 0;
  double duty = 0.0;
  double latency_s = 0.0;
  double delivery = 0.0;
  double extra_allocs = 0.0;
  double extra_events = 0.0;
  double measure_s = 0.0;
  double untraced_s = 0.0;
  double traced_queue_s = 0.0;
  double traced_layer_s = 0.0;
  const Batch batch = w.batch(0);
  const harness::ScenarioConfig& first = batch.trials[w.layer_trials.front()];
  TrialRun first_run;

  for (std::size_t li : w.layer_trials) {
    const harness::ScenarioConfig& c = batch.trials[li];
    const std::string tag = w.name + " trial " + std::to_string(li);
    // Untraced twice: the timing base of the trace overhead and the
    // same-seed determinism check.
    TrialRun u1 = timed_trial(c);
    const TrialRun u2 = timed_trial(c);
    rep.trial();
    rep.trial(u2.bytes == u1.bytes, tag + ": repeated run differs");
    const double base_s = 0.5 * (u1.total_s() + u2.total_s());
    untraced_s += base_s;
    measure_s += 0.5 * (u1.run_s + u2.run_s);
    peak_pending = std::max<std::uint64_t>(peak_pending, u1.metrics.peak_pending_events);
    for (const harness::RunMetrics::NodeDiag& d : u1.metrics.per_node) {
      repair_attempts += d.repair_attempts;
    }
    node_deaths += u1.metrics.node_deaths;
    duty += u1.metrics.avg_duty_cycle;
    latency_s += u1.metrics.avg_latency_s;
    delivery += u1.metrics.delivery_ratio;
    // Steady-state allocations: the same trial at 2T, differenced against
    // u1 (set-up and teardown cancel).
    harness::ScenarioConfig c2 = c;
    c2.measure_duration = c.measure_duration * 2;
    const TrialRun u3 = timed_trial(c2);
    rep.trial();
    extra_allocs += static_cast<double>(u3.allocs) - static_cast<double>(u1.allocs);
    extra_events += static_cast<double>(u3.metrics.sim_events) -
                    static_cast<double>(u1.metrics.sim_events);
    const std::uint64_t expected = 4 * u1.metrics.sim_events + (1 << 16);
    const std::size_t reserve =
        static_cast<std::size_t>(c.deployment.num_nodes) * 8 + 64;

    // The non-queue pass first: its ring and copy are the largest
    // allocations, so they should not coexist with the kept queue streams.
    {
      const TracedRun l = traced_trial(c, kLayerTypes, expected);
      for (int i = 1; i < l.attempts; ++i) rep.trial();
      const std::string problem = traced_run_problem(l, u1.bytes, true);
      rep.trial(problem.empty(), tag + ": " + problem);
      records += l.emitted;
      overwritten += l.overwritten;
      traced_layer_s += l.run.total_s();
      counts.add(l.records);
    }
    {
      TracedRun q = traced_trial(c, kQueueOpTypes, expected);
      for (int i = 1; i < q.attempts; ++i) rep.trial();
      std::string problem = traced_run_problem(q, u1.bytes, false);
      records += q.emitted;
      queue_records += q.emitted;
      overwritten += q.overwritten;
      traced_queue_s += q.run.total_s();
      counts.add(q.records);
      std::vector<QueueOp> ops = queue_ops(q.records);
      q.records = {};
      if (problem.empty()) problem = verify_and_translate(ops, reserve);
      rep.trial(problem.empty(), tag + ": " + problem);
      streams.push_back(std::move(ops));
      stream_reserve.push_back(reserve);
    }
    if (li == w.layer_trials.front()) first_run = std::move(u1);
    log_phase(tag + ": traced");
  }

  // snap: the serialization at the barrier (capture cost), the framed
  // snapshot's size, and a full resume.
  std::vector<double> serialize_samples;
  double snap_bytes = 0.0;
  double resume_s = 0.0;
  if (w.snapshots) {
    snap::TrialHookSpec hook;
    hook.enabled = true;
    hook.at = snap::capture_barrier(first);
    hook.hook = [&](snap::TrialCheckpoint& cp) {
      for (int i = 0; i < kMinReps; ++i) {
        const double t0 = thread_cpu_s();
        const std::vector<std::uint8_t> state = cp.serialize();
        serialize_samples.push_back(state.empty() ? 0.0 : thread_cpu_s() - t0);
      }
      cp.stop = true;
    };
    harness::run_scenario(first, hook);
    const SnapshotRoundTrip snapshot = snapshot_round_trip(first, first_run.bytes);
    rep.trial(snapshot.capture_ok, w.name + ": capturing run differs from the straight run");
    rep.trial(snapshot.resume_ok, w.name + ": resumed run differs from the straight run");
    snap_bytes = snapshot.bytes;
    resume_s = snapshot.resume_s;
  }
  log_phase(w.name + ": snapshot timed");
  // exp: worker occupancy of one SweepRunner pass; fork speedup of one
  // from-scratch pass against the fork path.
  double busy_frac = 0.0;
  double tail_idle_s = 0.0;
  double fork_speedup = 0.0;
  if (w.driver == Driver::kSweepRunner) {
    double wall_s = 0.0;
    std::vector<std::thread::id> workers;
    const Clock::time_point t0 = Clock::now();
    const std::vector<TrialRun> runs = run_batch(w, batch, wall_s, &workers);
    const Clock::time_point t1 = Clock::now();
    double busy_s = 0.0;
    std::map<std::thread::id, Clock::time_point> last_end;
    for (std::size_t i = 0; i < runs.size(); ++i) {
      rep.trial();
      busy_s += seconds_between(runs[i].begin, runs[i].end);
      auto [it, fresh] = last_end.emplace(workers[i], runs[i].end);
      if (!fresh && runs[i].end > it->second) it->second = runs[i].end;
    }
    busy_frac = ratio(busy_s, w.jobs * seconds_between(t0, t1));
    for (const auto& [worker, end] : last_end) tail_idle_s += seconds_between(end, t1);
    tail_idle_s += static_cast<double>(w.jobs - static_cast<int>(last_end.size())) *
                   seconds_between(t0, t1);
  } else if (w.driver == Driver::kForkVariants) {
    // CPU time of the same variants from scratch and through the fork path.
    double wall_s = 0.0;
    const std::vector<TrialRun> runs = run_batch(w, batch, wall_s);
    double scratch_s = 0.0;
    for (std::size_t i : w.fork_trials) scratch_s += runs[i].total_s();
    double fork_s = 0.0;
    const std::vector<harness::RunMetrics> forked = run_forked(batch, w.fork_trials, fork_s);
    fork_speedup = ratio(scratch_s, fork_s);
    for (std::size_t k = 0; k < w.fork_trials.size(); ++k) {
      rep.trial();
      rep.trial(k < forked.size() && snap::run_metrics_to_bytes(forked[k]) ==
                                         runs[w.fork_trials[k]].bytes,
                w.name + ": fork variant " + std::to_string(k) +
                    " differs from its from-scratch run");
    }
  }

  log_phase(w.name + ": sweep paths timed");
  // Standalone layer calls, round-robin until the time is used.
  const TreeBench tree_bench{first};
  std::vector<double> replay_samples, tree_samples, topo_samples, rebuild_samples;
  std::uint64_t rebuilds = 0;
  std::uint64_t replay_mismatches = 0;
  for (int rep_i = 0;
       rep_i < kMinReps || seconds_between(start, Clock::now()) < seconds; ++rep_i) {
    double replay_s = 0.0;
    for (std::size_t i = 0; i < streams.size(); ++i) {
      replay_s += timed_replay(streams[i], stream_reserve[i], replay_mismatches);
    }
    replay_samples.push_back(replay_s);
    tree_samples.push_back(tree_bench.timed_build());
    const double t0 = thread_cpu_s();
    const net::Topology topo = build_topology(first);
    topo_samples.push_back(topo.num_nodes() > 0 ? thread_cpu_s() - t0 : 0.0);
    rebuild_samples.push_back(timed_rebuilds(first, rebuilds));
    reference_samples.push_back(reference_s());
  }
  log_phase(w.name + ": standalone layers timed (" +
            std::to_string(replay_samples.size()) + " rounds)");
  if (replay_mismatches != 0) {
    rep.fail(w.name + ": timed queue replay diverged from its verified replay");
  }

  // Host times, scaled to nominal host speed like the end-to-end ones.
  const double scale = kNominalReferenceS / median(reference_samples);
  const double replay_s = scale * median(replay_samples);
  const double queue_ops = static_cast<double>(queue_records);
  const auto n = [&](TraceType t) { return static_cast<double>(counts[t]); };
  const auto drop = [&](obs::DropReason r) {
    return static_cast<double>(counts.drops[static_cast<std::size_t>(r)]);
  };
  const double delivered = n(TraceType::kChanDeliver);
  const double dropped = n(TraceType::kChanDrop);
  const double first_nodes = first.deployment.num_nodes;

  // The simulated results themselves: exact for a seed, so any change in
  // them marks a change in behaviour, not in speed.
  const double traced_trials = static_cast<double>(w.layer_trials.size());
  rep.add("out.duty_pct", 100.0 * duty / traced_trials, "%");
  rep.add("out.latency_s", latency_s / traced_trials, "s");
  rep.add("out.delivery", delivery / traced_trials, "fraction");
  rep.add("sim.push", n(TraceType::kEvPush), "count");
  rep.add("sim.pop", n(TraceType::kEvPop), "count");
  rep.add("sim.cancel", n(TraceType::kEvCancel), "count");
  rep.add("sim.rearm", n(TraceType::kEvRearm), "count");
  rep.add("sim.cancel_per_push", ratio(n(TraceType::kEvCancel), n(TraceType::kEvPush)), "ratio");
  rep.add("sim.peak_pending", static_cast<double>(peak_pending), "count");
  rep.add("sim.replay_s", replay_s, "s");
  rep.add("sim.replay_ns_per_op", ratio(replay_s * 1e9, queue_ops), "ns");
  rep.add("sim.replay_share", ratio(median(replay_samples), untraced_s), "ratio");
  rep.add("chan.tx", n(TraceType::kChanTxBegin), "count");
  rep.add("chan.deliver", delivered, "count");
  rep.add("chan.drop.collision", drop(obs::DropReason::kCollision), "count");
  rep.add("chan.drop.busy", drop(obs::DropReason::kBusy), "count");
  rep.add("chan.drop.radio_off", drop(obs::DropReason::kRadioOff), "count");
  rep.add("chan.drop.self_tx", drop(obs::DropReason::kSelfTx), "count");
  rep.add("chan.drop.model", drop(obs::DropReason::kModel), "count");
  rep.add("chan.drop.captured", drop(obs::DropReason::kCaptured), "count");
  rep.add("chan.drop.abandoned", drop(obs::DropReason::kAbandoned), "count");
  rep.add("chan.fanout", ratio(static_cast<double>(counts.fanout), n(TraceType::kChanTxBegin)),
          "ratio");
  rep.add("chan.deliver_ratio", ratio(delivered, delivered + dropped), "ratio");
  rep.add("chan.listen_flips", n(TraceType::kChanListen), "count");
  rep.add("mac.backoff", n(TraceType::kMacBackoffStart), "count");
  rep.add("mac.cca_defer", n(TraceType::kMacCcaDefer), "count");
  rep.add("mac.tx_attempt", n(TraceType::kMacTxAttempt), "count");
  rep.add("mac.retry", n(TraceType::kMacRetry), "count");
  rep.add("mac.send_ok", n(TraceType::kMacSendOk), "count");
  rep.add("mac.send_fail", n(TraceType::kMacSendFail), "count");
  rep.add("mac.ok_per_attempt", ratio(n(TraceType::kMacSendOk), n(TraceType::kMacTxAttempt)),
          "ratio");
  rep.add("radio.transitions", n(TraceType::kRadioState), "count");
  rep.add("sleep.start", n(TraceType::kSleepStart), "count");
  rep.add("sleep.skip", n(TraceType::kSleepSkip), "count");
  rep.add("sleep.skip_ratio",
          ratio(n(TraceType::kSleepSkip), n(TraceType::kSleepStart) + n(TraceType::kSleepSkip)),
          "ratio");
  rep.add("query.epochs", n(TraceType::kEpochStart), "count");
  rep.add("query.submit", n(TraceType::kReportSubmit), "count");
  rep.add("query.fold", n(TraceType::kReportFold), "count");
  rep.add("query.root_deliver", n(TraceType::kRootDeliver), "count");
  rep.add("routing.parent_change", n(TraceType::kParentChange), "count");
  rep.add("routing.repair_attempts", static_cast<double>(repair_attempts), "count");
  rep.add("routing.tree_build_s", scale * median(tree_samples), "s");
  rep.add("topo.build_s", scale * median(topo_samples), "s");
  rep.add("topo.rebuilds", static_cast<double>(rebuilds), "count");
  rep.add("topo.rebuild_us", scale * median(rebuild_samples), "us");
  rep.add("fault.down", n(TraceType::kFaultDown), "count");
  rep.add("fault.up", n(TraceType::kFaultUp), "count");
  rep.add("fault.node_deaths", static_cast<double>(node_deaths), "count");
  rep.add("harness.measure_s", scale * measure_s, "s");
  rep.add("alloc.setup_bytes_per_node",
          ratio(static_cast<double>(first_run.setup_bytes), first_nodes), "B");
  rep.add("alloc.steady_per_event", ratio(extra_allocs, extra_events), "1/event");
  rep.add("snap.bytes", snap_bytes, "B");
  rep.add("snap.capture_s", scale * median(serialize_samples), "s");
  rep.add("snap.resume_s", scale * resume_s, "s");
  rep.add("exp.busy_frac", busy_frac, "ratio");
  rep.add("exp.tail_idle_s", scale * tail_idle_s, "s");
  rep.add("fork.speedup", fork_speedup, "ratio");
  rep.add("host.reference_ms", 1e3 * median(reference_samples), "ms");
  rep.add("obs.trace_overhead", ratio(traced_layer_s, untraced_s), "ratio");
  rep.add("obs.trace_overhead_queue", ratio(traced_queue_s, untraced_s), "ratio");
  rep.add("obs.records", static_cast<double>(records), "count");
  rep.add("obs.overwritten", static_cast<double>(overwritten), "count");
  return rep;
}

}  // namespace perfbench
