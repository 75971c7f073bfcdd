// Tests for the observability layer (src/obs): record layout, ring
// accounting, TraceSpec filters, the zero-overhead discipline of the
// disabled path, packet-lifecycle reconstruction, the conservation oracle
// across a protocol x topology x rate grid, determinism of traced runs,
// byte-identical traces across sweep thread counts, and bounded-memory
// time-series sampling.
#include <gtest/gtest.h>

#include <chrono>
#include <cstring>
#include <fstream>
#include <mutex>
#include <sstream>
#include <string>
#include <vector>

#include "bench/alloc_hook.h"
#include "src/essat.h"

namespace essat {
namespace {

using obs::DropReason;
using obs::TraceRecord;
using obs::Tracer;
using obs::TraceSpec;
using obs::TraceType;
using util::Time;

TraceSpec basic_spec() {
  TraceSpec spec;
  spec.enabled = true;
  return spec;
}

harness::ScenarioConfig small_config() {
  harness::ScenarioConfig c;
  c.protocol = harness::Protocol::kDtsSs;
  c.deployment.num_nodes = 30;
  c.deployment.area_m = 300.0;
  c.deployment.max_tree_dist_m = 300.0;
  c.workload.base_rate_hz = 2.0;
  c.measure_duration = Time::seconds(10);
  c.seed = 7;
  return c;
}

// ------------------------------------------------------------ records

TEST(TraceRecord, LayoutAndAccessors) {
  static_assert(sizeof(TraceRecord) == 32, "ring stride");
  const auto arg16 = static_cast<std::uint16_t>(
      static_cast<unsigned>(DropReason::kCaptured) << 8 | 3u);
  const TraceRecord r = TraceRecord::make(TraceType::kChanDrop,
                                          Time::seconds(2), 5, arg16, 77, 88);
  EXPECT_EQ(r.t_ns, 2'000'000'000);
  EXPECT_EQ(r.trace_type(), TraceType::kChanDrop);
  EXPECT_EQ(r.drop_reason(), DropReason::kCaptured);
  EXPECT_EQ(r.packet_type(), 3);
  EXPECT_EQ(r.a, 77u);
  EXPECT_EQ(r.b, 88u);
}

TEST(Tracer, RingOverwritesOldestAndCountsIt) {
  TraceSpec spec = basic_spec();
  spec.buffer_cap = 64;
  Tracer tracer(spec);
  for (int i = 0; i < 100; ++i) {
    tracer.emit(TraceType::kMacEnqueue, Time::microseconds(i), 1, 0,
                static_cast<std::uint64_t>(i), 0);
  }
  EXPECT_EQ(tracer.capacity(), 64u);
  EXPECT_EQ(tracer.size(), 64u);
  EXPECT_EQ(tracer.emitted(), 100u);
  EXPECT_EQ(tracer.overwritten(), 36u);
  const auto records = tracer.snapshot();
  ASSERT_EQ(records.size(), 64u);
  // Oldest-first, and the oldest surviving record is #36.
  for (std::size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(records[i].a, 36 + i);
  }
}

TEST(Tracer, FiltersTypeNodeAndTimeWindow) {
  TraceSpec spec = basic_spec();
  spec.type_mask = obs::trace_bit(TraceType::kMacEnqueue);
  spec.nodes = {2, 4};
  spec.begin = Time::seconds(1);
  spec.end = Time::seconds(2);
  Tracer tracer(spec);

  auto emit = [&](TraceType t, double sec, std::int32_t node) {
    tracer.emit(t, Time::seconds(sec), node, 0, 0, 0);
  };
  emit(TraceType::kMacSendOk, 1.5, 2);   // wrong type
  emit(TraceType::kMacEnqueue, 0.5, 2);  // before window
  emit(TraceType::kMacEnqueue, 2.0, 2);  // at end (exclusive)
  emit(TraceType::kMacEnqueue, 1.5, 3);  // node filtered out
  emit(TraceType::kMacEnqueue, 1.5, 4);  // passes
  emit(TraceType::kMacEnqueue, 1.5, -1); // global records always pass nodes
  EXPECT_EQ(tracer.emitted(), 2u);
  const auto records = tracer.snapshot();
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].node, 4);
  EXPECT_EQ(records[1].node, -1);
}

// ------------------------------------------------------------ zero overhead

TEST(TracingOverhead, ArgumentsNotEvaluatedWithoutTracer) {
  sim::Simulator sim;  // no tracer installed
  int evaluations = 0;
  ESSAT_TRACE(sim, TraceType::kMacEnqueue, 1, 0,
              static_cast<std::uint64_t>(++evaluations), 0);
  EXPECT_EQ(evaluations, 0) << "disabled tracing must not evaluate arguments";
}

TEST(TracingOverhead, EmitNeverAllocates) {
  TraceSpec spec = basic_spec();
  spec.buffer_cap = 1024;
  Tracer tracer(spec);
  tracer.emit(TraceType::kMacEnqueue, Time::zero(), 0, 0, 0, 0);  // warm
  bench_alloc::AllocationCounter scope;
  for (int i = 0; i < 100'000; ++i) {
    tracer.emit(TraceType::kMacEnqueue, Time::microseconds(i), i & 7, 0,
                static_cast<std::uint64_t>(i), 0);
  }
  EXPECT_EQ(scope.count(), 0u) << "emit() allocated on the hot path";
}

TEST(TracingOverhead, DisabledPathIsAPredictableBranch) {
  sim::Simulator sim;  // no tracer: every site costs one null test
  const int n = 10'000'000;
  std::uint64_t sink = 0;
  const auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < n; ++i) {
    ESSAT_TRACE(sim, TraceType::kMacEnqueue, 1, 0,
                static_cast<std::uint64_t>(++sink), 0);
  }
  const double ns_per =
      std::chrono::duration<double, std::nano>(std::chrono::steady_clock::now() -
                                               t0)
          .count() /
      n;
  EXPECT_EQ(sink, 0u);
  // Generous bound (a real branch costs well under 1 ns; sanitizer builds
  // inflate it): the point is that the disabled site is nanoseconds, not a
  // call into formatting or I/O.
  EXPECT_LT(ns_per, 100.0);
}

// ------------------------------------------------------------ lifecycle

TEST(TracedRun, ReconstructsReportLifecycles) {
  harness::ScenarioConfig config = small_config();
  config.trace = basic_spec();
  std::vector<TraceRecord> records;
  config.trace.sink = [&](const Tracer& tracer) {
    EXPECT_EQ(tracer.overwritten(), 0u);
    records = tracer.snapshot();
  };
  harness::run_scenario(config);
  ASSERT_FALSE(records.empty());

  // Pick a root delivery and walk its story backwards.
  std::uint64_t prov = 0;
  for (const TraceRecord& r : records) {
    if (r.trace_type() == TraceType::kRootDeliver && r.a != 0) {
      prov = r.a;
      break;
    }
  }
  ASSERT_NE(prov, 0u) << "no report reached the root";

  const auto story = obs::packet_lifecycle(records, prov);
  ASSERT_FALSE(story.empty());
  // A report's first trace is its submission at the originating node...
  EXPECT_EQ(story.front().trace_type(), TraceType::kReportSubmit);
  // ...and the hop-by-hop story is time-ordered and reaches the root. (The
  // root delivery need not be the last record: the final hop's kMacSendOk
  // fires on the sender only after the root's ACK comes back.)
  for (std::size_t i = 1; i < story.size(); ++i) {
    EXPECT_GE(story[i].t_ns, story[i - 1].t_ns);
  }
  bool reached_root = false;
  for (const TraceRecord& r : story) {
    reached_root = reached_root || r.trace_type() == TraceType::kRootDeliver;
  }
  EXPECT_TRUE(reached_root);

  const auto chain = obs::provenance_chain(records, prov);
  ASSERT_FALSE(chain.empty());
  EXPECT_EQ(chain.back(), prov);
}

TEST(TracedRun, ConservationHoldsAcrossProtocolTopologyRateGrid) {
  const harness::Protocol protocols[] = {harness::Protocol::kDtsSs,
                                         harness::Protocol::kNtsSs};
  const net::TopologyKind topologies[] = {net::TopologyKind::kUniform,
                                          net::TopologyKind::kGrid};
  const double rates[] = {1.0, 4.0};
  for (auto protocol : protocols) {
    for (auto kind : topologies) {
      for (double rate : rates) {
        harness::ScenarioConfig config = small_config();
        config.protocol = protocol;
        config.deployment.kind = kind;
        config.workload.base_rate_hz = rate;
        config.measure_duration = Time::seconds(5);
        config.trace = basic_spec();
        bool checked = false;
        config.trace.sink = [&](const Tracer& tracer) {
          ASSERT_EQ(tracer.overwritten(), 0u);
          const auto report = obs::check_conservation(tracer.snapshot());
          EXPECT_TRUE(report.ok)
              << protocol_name(protocol) << " x " << topology_kind_name(kind)
              << " x " << rate << " Hz: " << report.detail;
          EXPECT_GT(report.transmissions, 0u);
          checked = true;
        };
        harness::run_scenario(config);
        EXPECT_TRUE(checked);
      }
    }
  }
}

// ------------------------------------------------------------ determinism

TEST(TracedRun, MetricsBitIdenticalToUntracedRun) {
  const harness::ScenarioConfig base = small_config();
  const harness::RunMetrics untraced = harness::run_scenario(base);

  harness::ScenarioConfig traced_cfg = base;
  traced_cfg.trace = basic_spec();  // no sampling: zero scheduled events added
  const harness::RunMetrics traced = harness::run_scenario(traced_cfg);

  // Tracing emission must not perturb the simulation at all — exact
  // floating-point equality, not tolerance.
  EXPECT_EQ(traced.sim_events, untraced.sim_events);
  EXPECT_EQ(traced.peak_pending_events, untraced.peak_pending_events);
  EXPECT_EQ(traced.epochs_measured, untraced.epochs_measured);
  EXPECT_EQ(traced.reports_sent, untraced.reports_sent);
  EXPECT_EQ(traced.mac_transmissions, untraced.mac_transmissions);
  EXPECT_EQ(traced.channel_delivered, untraced.channel_delivered);
  EXPECT_EQ(traced.avg_duty_cycle, untraced.avg_duty_cycle);
  EXPECT_EQ(traced.avg_latency_s, untraced.avg_latency_s);
  EXPECT_EQ(traced.p95_latency_s, untraced.p95_latency_s);
  EXPECT_EQ(traced.delivery_ratio, untraced.delivery_ratio);
}

TEST(TracedSweep, TraceByteIdenticalAcrossJobCounts) {
  harness::ScenarioConfig base = small_config();
  base.measure_duration = Time::seconds(5);
  base.trace = basic_spec();
  base.trace.only_seed = base.seed + 2;  // trace exactly one repetition

  std::mutex mu;
  std::vector<TraceRecord> captured;
  int sink_calls = 0;
  base.trace.sink = [&](const Tracer& tracer) {
    std::lock_guard<std::mutex> lock(mu);
    captured = tracer.snapshot();
    ++sink_calls;
  };

  auto run_with_jobs = [&](int jobs) {
    {
      std::lock_guard<std::mutex> lock(mu);
      captured.clear();
      sink_calls = 0;
    }
    exp::SweepRunner::Options options;
    options.jobs = jobs;
    exp::SweepSpec spec(base);
    spec.runs(4);
    exp::SweepRunner(options).run(spec);
    std::lock_guard<std::mutex> lock(mu);
    EXPECT_EQ(sink_calls, 1) << "only_seed must gate tracing to one trial";
    return captured;
  };

  const auto serial = run_with_jobs(1);
  const auto parallel = run_with_jobs(8);
  ASSERT_FALSE(serial.empty());
  ASSERT_EQ(serial.size(), parallel.size());
  EXPECT_EQ(std::memcmp(serial.data(), parallel.data(),
                        serial.size() * sizeof(TraceRecord)),
            0)
      << "trace differs between jobs=1 and jobs=8";
}

// ------------------------------------------------------------ sampling

TEST(TimeSeries, DecimationBoundsMemoryAndKeepsCoverage) {
  obs::TimeSeries series(16);
  for (int i = 0; i < 100'000; ++i) {
    series.add(Time::microseconds(i), static_cast<double>(i));
  }
  EXPECT_EQ(series.offered(), 100'000u);
  EXPECT_LE(series.points().size(), 16u);
  EXPECT_GT(series.stride(), 1u);
  const auto& pts = series.points();
  ASSERT_GE(pts.size(), 2u);
  for (std::size_t i = 1; i < pts.size(); ++i) {
    EXPECT_GT(pts[i].t_ns, pts[i - 1].t_ns);
  }
  // Downsampling covers the whole window, not just its head.
  EXPECT_GT(pts.back().t_ns, 50'000'000);
}

TEST(TracedRun, SamplerAndExportersProduceOutput) {
  harness::ScenarioConfig config = small_config();
  config.measure_duration = Time::seconds(5);
  config.trace = basic_spec();
  config.trace.sample_period = Time::from_milliseconds(100.0);
  const std::string dir = ::testing::TempDir();
  config.trace.perfetto_path = dir + "/obs_trace_{seed}.perfetto.json";
  config.trace.jsonl_path = dir + "/obs_trace_{seed}.jsonl";
  harness::run_scenario(config);

  std::ifstream perfetto(dir + "/obs_trace_7.perfetto.json");
  ASSERT_TRUE(perfetto.good()) << "perfetto export ({seed} substituted) missing";
  std::stringstream buf;
  buf << perfetto.rdbuf();
  const std::string json = buf.str();
  EXPECT_EQ(json.rfind("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[", 0), 0u);
  EXPECT_NE(json.find("\"thread_name\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"C\""), std::string::npos) << "no counter rows";
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos) << "no radio slices";

  std::ifstream jsonl(dir + "/obs_trace_7.jsonl");
  ASSERT_TRUE(jsonl.good());
  std::string line;
  ASSERT_TRUE(std::getline(jsonl, line));
  EXPECT_EQ(line.rfind("{\"t_ns\":", 0), 0u);
}

// Every record type has an export category: a churn run's fault records
// must come out as "fault", and nothing as the "?" fallback.
TEST(TracedRun, ChurnRunExportsNoUnknownCategory) {
  harness::ScenarioConfig config = small_config();
  config.faults.churn.node_fraction = 0.3;
  config.faults.churn.mean_downtime_s = 1.0;
  config.trace = basic_spec();
  const std::string dir = ::testing::TempDir();
  config.trace.perfetto_path = dir + "/obs_churn_{seed}.perfetto.json";
  harness::run_scenario(config);

  std::ifstream perfetto(dir + "/obs_churn_7.perfetto.json");
  ASSERT_TRUE(perfetto.good());
  std::stringstream buf;
  buf << perfetto.rdbuf();
  const std::string json = buf.str();
  EXPECT_NE(json.find("\"cat\":\"fault\""), std::string::npos)
      << "churn run exported no fault records";
  EXPECT_EQ(json.find("\"cat\":\"?\""), std::string::npos);
}

TEST(TracedRun, OnlySeedGatesSweepTracing) {
  harness::ScenarioConfig config = small_config();
  config.trace = basic_spec();
  config.trace.only_seed = 999;  // never matches config.seed = 7
  bool sank = false;
  config.trace.sink = [&](const Tracer&) { sank = true; };
  harness::run_scenario(config);
  EXPECT_FALSE(sank);
}

}  // namespace
}  // namespace essat
