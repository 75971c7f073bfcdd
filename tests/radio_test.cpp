#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "src/energy/duty_cycle.h"
#include "src/energy/radio.h"
#include "src/sim/simulator.h"
#include "src/snap/serializer.h"

namespace essat::energy {
namespace {

using util::Time;

RadioParams fast_params() {
  RadioParams p;
  p.t_off_on = Time::from_milliseconds(1.25);
  p.t_on_off = Time::from_milliseconds(1.25);
  return p;
}

TEST(Radio, StartsOn) {
  sim::Simulator sim;
  Radio r{sim, fast_params()};
  EXPECT_EQ(r.state(), RadioState::kOn);
  EXPECT_TRUE(r.is_on());
}

TEST(Radio, TurnOffTakesTransitionTime) {
  sim::Simulator sim;
  Radio r{sim, fast_params()};
  r.turn_off();
  EXPECT_EQ(r.state(), RadioState::kTurningOff);
  sim.run_until(Time::from_milliseconds(1.0));
  EXPECT_EQ(r.state(), RadioState::kTurningOff);
  sim.run_until(Time::from_milliseconds(1.25));
  EXPECT_EQ(r.state(), RadioState::kOff);
}

TEST(Radio, TurnOnTakesTransitionTime) {
  sim::Simulator sim;
  Radio r{sim, fast_params()};
  r.turn_off();
  sim.run_until(Time::from_milliseconds(2.0));
  r.turn_on();
  EXPECT_EQ(r.state(), RadioState::kTurningOn);
  sim.run_until(Time::from_milliseconds(3.25));
  EXPECT_EQ(r.state(), RadioState::kOn);
}

TEST(Radio, TurnOnWhileTurningOffQueues) {
  sim::Simulator sim;
  Radio r{sim, fast_params()};
  r.turn_off();
  r.turn_on();  // queued behind the OFF transition
  EXPECT_EQ(r.state(), RadioState::kTurningOff);
  sim.run_until(Time::from_milliseconds(1.25));
  EXPECT_EQ(r.state(), RadioState::kTurningOn);
  sim.run_until(Time::from_milliseconds(2.5));
  EXPECT_EQ(r.state(), RadioState::kOn);
}

TEST(Radio, TurnOffIgnoredUnlessOn) {
  sim::Simulator sim;
  Radio r{sim, fast_params()};
  r.turn_off();
  sim.run_until(Time::from_milliseconds(2.0));
  ASSERT_EQ(r.state(), RadioState::kOff);
  r.turn_off();  // no-op
  EXPECT_EQ(r.state(), RadioState::kOff);
}

// Regression: turn_off() during kTurningOn used to be silently dropped,
// leaving the radio stuck ON forever when a power manager decided to sleep
// mid-turn-on (and inflating the measured duty cycle).
TEST(Radio, TurnOffWhileTurningOnQueues) {
  sim::Simulator sim;
  Radio r{sim, fast_params()};
  r.turn_off();
  sim.run_until(Time::from_milliseconds(2.0));
  ASSERT_EQ(r.state(), RadioState::kOff);
  r.turn_on();
  r.turn_off();  // queued behind the ON transition
  EXPECT_EQ(r.state(), RadioState::kTurningOn);
  // The in-flight transition completes at 3.25 ms, then the latched
  // turn-off starts immediately and completes one t_on_off later.
  sim.run_until(Time::from_milliseconds(3.25));
  EXPECT_EQ(r.state(), RadioState::kTurningOff);
  sim.run_until(Time::from_milliseconds(4.5));
  EXPECT_EQ(r.state(), RadioState::kOff);
}

TEST(Radio, TurnOnWhileTurningOnCancelsQueuedTurnOff) {
  sim::Simulator sim;
  Radio r{sim, fast_params()};
  r.turn_off();
  sim.run_until(Time::from_milliseconds(2.0));
  r.turn_on();
  r.turn_off();  // latched...
  r.turn_on();   // ...then cancelled: the latest intent wins
  sim.run_until(Time::from_milliseconds(10.0));
  EXPECT_EQ(r.state(), RadioState::kOn);
}

TEST(Radio, TurnOffWhileTurningOffCancelsQueuedTurnOn) {
  sim::Simulator sim;
  Radio r{sim, fast_params()};
  r.turn_off();
  r.turn_on();   // latched...
  r.turn_off();  // ...then cancelled: the latest intent wins
  sim.run_until(Time::from_milliseconds(10.0));
  EXPECT_EQ(r.state(), RadioState::kOff);
}

TEST(Radio, FailDuringTurnOnTransitionKillsPendingIntents) {
  sim::Simulator sim;
  Radio r{sim, fast_params()};
  r.turn_off();
  sim.run_until(Time::from_milliseconds(2.0));
  r.turn_on();
  r.turn_off();  // pending_off_ latched
  sim.schedule_at(Time::from_milliseconds(2.5), [&] { r.fail(); });
  sim.run_until(Time::from_milliseconds(10.0));
  EXPECT_TRUE(r.failed());
  EXPECT_EQ(r.state(), RadioState::kOff);
  r.turn_on();
  sim.run_until(Time::from_milliseconds(20.0));
  EXPECT_EQ(r.state(), RadioState::kOff);
}

TEST(Radio, FailDuringTurnOffTransitionKillsPendingIntents) {
  sim::Simulator sim;
  Radio r{sim, fast_params()};
  r.turn_off();
  r.turn_on();  // pending_on_ latched
  sim.schedule_at(Time::from_milliseconds(0.5), [&] { r.fail(); });
  sim.run_until(Time::from_milliseconds(10.0));
  EXPECT_TRUE(r.failed());
  EXPECT_EQ(r.state(), RadioState::kOff);
  // The cancelled transition timer must not fire, and the latched turn-on
  // must not resurrect a dead radio.
  r.turn_on();
  sim.run_until(Time::from_milliseconds(20.0));
  EXPECT_EQ(r.state(), RadioState::kOff);
}

TEST(Radio, RedundantTurnOnIsNoop) {
  sim::Simulator sim;
  Radio r{sim, fast_params()};
  r.turn_on();
  EXPECT_EQ(r.state(), RadioState::kOn);
}

// Appends every state it is told about, tagged with its own label, to a log
// shared by all recorders.
struct Recorder final : RadioObserver {
  Recorder(int label, std::vector<std::pair<int, RadioState>>& log)
      : label{label}, log{log} {}
  void on_radio_state(RadioState s) override { log.emplace_back(label, s); }
  int label;
  std::vector<std::pair<int, RadioState>>& log;
};

TEST(Radio, ObserversSeeStateChanges) {
  sim::Simulator sim;
  Radio r{sim, fast_params()};
  std::vector<std::pair<int, RadioState>> seen;
  Recorder rec{0, seen};
  r.add_state_observer(&rec);
  r.turn_off();
  sim.run_until(Time::from_milliseconds(2.0));
  r.turn_on();
  sim.run();
  ASSERT_EQ(seen.size(), 4u);
  EXPECT_EQ(seen[0].second, RadioState::kTurningOff);
  EXPECT_EQ(seen[1].second, RadioState::kOff);
  EXPECT_EQ(seen[2].second, RadioState::kTurningOn);
  EXPECT_EQ(seen[3].second, RadioState::kOn);
}

TEST(Radio, ObserversRunInRegistrationOrder) {
  // Past the two inline slots too: a churn restart registers a fresh MAC
  // and SafeSleep on the same radio.
  sim::Simulator sim;
  Radio r{sim, fast_params()};
  std::vector<std::pair<int, RadioState>> seen;
  Recorder a{0, seen}, b{1, seen}, c{2, seen};
  r.add_state_observer(&a);
  r.add_state_observer(&b);
  r.add_state_observer(&c);
  r.turn_off();
  ASSERT_EQ(seen.size(), 3u);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(seen[static_cast<std::size_t>(i)],
              std::make_pair(i, RadioState::kTurningOff));
  }
}

TEST(Radio, DutyCycleCountsTransitionsAsActive) {
  sim::Simulator sim;
  Radio r{sim, fast_params()};
  r.begin_measurement();
  // ON for 10 ms, then off; OFF period lasts until wake at 50 ms.
  sim.schedule_at(Time::milliseconds(10), [&] { r.turn_off(); });
  sim.schedule_at(Time::milliseconds(50), [&] { r.turn_on(); });
  sim.run_until(Time::milliseconds(100));
  // Active: [0,10) ON + [10,11.25) turning off + [50,51.25) turning on +
  // [51.25,100) ON = 10 + 1.25 + 1.25 + 48.75 = 61.25 ms of 100 ms.
  EXPECT_NEAR(r.duty_cycle(), 0.6125, 1e-9);
  EXPECT_NEAR(r.active_time().to_seconds(), 0.06125, 1e-12);
  EXPECT_NEAR(r.off_time().to_seconds(), 0.03875, 1e-12);
}

TEST(Radio, SleepIntervalsRecorded) {
  sim::Simulator sim;
  Radio r{sim, fast_params()};
  r.begin_measurement();
  sim.schedule_at(Time::milliseconds(10), [&] { r.turn_off(); });
  sim.schedule_at(Time::milliseconds(50), [&] { r.turn_on(); });
  sim.schedule_at(Time::milliseconds(80), [&] { r.turn_off(); });
  sim.schedule_at(Time::milliseconds(95), [&] { r.turn_on(); });
  sim.run_until(Time::milliseconds(200));
  // OFF intervals: [11.25, 50) = 38.75 ms and [81.25, 95) = 13.75 ms.
  ASSERT_EQ(r.sleep_intervals_s().size(), 2u);
  EXPECT_NEAR(r.sleep_intervals_s()[0], 0.03875, 1e-12);
  EXPECT_NEAR(r.sleep_intervals_s()[1], 0.01375, 1e-12);
}

TEST(Radio, MeasurementWindowResetsAccounting) {
  sim::Simulator sim;
  Radio r{sim, fast_params()};
  sim.schedule_at(Time::milliseconds(10), [&] { r.turn_off(); });
  sim.schedule_at(Time::milliseconds(100), [&] { r.begin_measurement(); });
  sim.run_until(Time::milliseconds(150));
  // Whole window spent OFF.
  EXPECT_NEAR(r.duty_cycle(), 0.0, 1e-9);
  EXPECT_TRUE(r.sleep_intervals_s().empty());  // interval began pre-window
  sim.schedule_at(Time::milliseconds(160), [&] { r.turn_on(); });
  sim.run_until(Time::milliseconds(200));
  // The straddling OFF interval counts from the window start (100 ms).
  ASSERT_EQ(r.sleep_intervals_s().size(), 1u);
  EXPECT_NEAR(r.sleep_intervals_s()[0], 0.060, 1e-9);
}

std::vector<std::uint8_t> radio_bytes(const Radio& r) {
  snap::Serializer out;
  r.save_state(out);
  return out.take();
}

// A radio built late for a node nothing has touched (since = 0, and its
// measurement window opened at the window start if that has passed) holds
// the state of one built at t = 0 and left alone, then stays in step.
TEST(Radio, LateBuildFromTimeZeroMatchesUntouchedRadio) {
  for (const bool window_passed : {false, true}) {
    SCOPED_TRACE(window_passed ? "window opened before the build"
                               : "window opens after the build");
    sim::Simulator sim;
    const Time window = Time::milliseconds(40);
    Radio early{sim, fast_params()};
    std::unique_ptr<Radio> late;
    const Time build_at = window_passed ? Time::milliseconds(70)
                                        : Time::milliseconds(25);
    sim.schedule_at(build_at, [&] {
      late = std::make_unique<Radio>(sim, fast_params(), Time::zero());
      if (window_passed) late->begin_measurement_at(window);
      EXPECT_EQ(radio_bytes(*late), radio_bytes(early));
    });
    sim.schedule_at(window, [&] {
      early.begin_measurement();
      if (late) late->begin_measurement();
    });
    sim.schedule_at(Time::milliseconds(90), [&] {
      early.note_rx(true);
      late->note_rx(true);
    });
    sim.schedule_at(Time::milliseconds(95), [&] {
      early.note_rx(false);
      late->note_rx(false);
      early.turn_off();
      late->turn_off();
    });
    sim.schedule_at(Time::milliseconds(130), [&] {
      early.turn_on();
      late->turn_on();
    });
    sim.run_until(Time::milliseconds(200));
    ASSERT_NE(late, nullptr);
    EXPECT_EQ(radio_bytes(*late), radio_bytes(early));
    EXPECT_EQ(late->lifetime_energy_mj(), early.lifetime_energy_mj());
    EXPECT_EQ(late->duty_cycle(), early.duty_cycle());
    EXPECT_EQ(late->sleep_intervals_s(), early.sleep_intervals_s());
  }
}

TEST(Radio, ZeroTransitionTimes) {
  sim::Simulator sim;
  RadioParams p;
  p.t_off_on = Time::zero();
  p.t_on_off = Time::zero();
  Radio r{sim, p};
  EXPECT_EQ(p.break_even(), Time::zero());
  r.begin_measurement();
  r.turn_off();
  sim.run_until(Time::milliseconds(1));  // zero-delay transition event fires
  EXPECT_EQ(r.state(), RadioState::kOff);
  r.turn_on();
  sim.run_until(Time::milliseconds(2));
  EXPECT_EQ(r.state(), RadioState::kOn);
  ASSERT_EQ(r.sleep_intervals_s().size(), 1u);
  EXPECT_NEAR(r.sleep_intervals_s()[0], 1e-3, 1e-9);
}

TEST(Radio, FailForcesOffPermanently) {
  sim::Simulator sim;
  Radio r{sim, fast_params()};
  r.fail();
  EXPECT_TRUE(r.failed());
  EXPECT_EQ(r.state(), RadioState::kOff);
  r.turn_on();
  sim.run_until(Time::seconds(1));
  EXPECT_EQ(r.state(), RadioState::kOff);
}

TEST(Radio, EnergyAccumulatesByState) {
  sim::Simulator sim;
  RadioParams p = fast_params();
  p.p_idle_mw = 10.0;
  p.p_off_mw = 0.0;
  p.p_transition_mw = 10.0;
  sim::Simulator s2;
  Radio r{s2, p};
  r.begin_measurement();
  s2.schedule_at(Time::seconds(1), [&] { r.turn_off(); });
  s2.run_until(Time::seconds(2));
  // 1 s idle @10 mW + 1.25 ms transition @10 mW, rest off @0.
  EXPECT_NEAR(r.energy_mj(), 10.0 * 1.0 + 10.0 * 0.00125, 1e-6);
}

TEST(Radio, TxRxPowerHints) {
  sim::Simulator sim;
  RadioParams p = fast_params();
  p.p_idle_mw = 10.0;
  p.p_tx_mw = 40.0;
  Radio r{sim, p};
  r.begin_measurement();
  sim.schedule_at(Time::seconds(1), [&] { r.note_tx(true); });
  sim.schedule_at(Time::seconds(2), [&] { r.note_tx(false); });
  sim.run_until(Time::seconds(3));
  EXPECT_NEAR(r.energy_mj(), 10.0 + 40.0 + 10.0, 1e-6);
}

TEST(RadioParams, BreakEvenIsSumOfTransitions) {
  RadioParams p;
  p.t_off_on = Time::from_milliseconds(1.25);
  p.t_on_off = Time::from_milliseconds(1.25);
  EXPECT_EQ(p.break_even(), Time::from_milliseconds(2.5));
}

TEST(DutyCycleSummary, AveragesRadios) {
  sim::Simulator sim;
  Radio a{sim, fast_params()};
  Radio b{sim, fast_params()};
  a.begin_measurement();
  b.begin_measurement();
  sim.schedule_at(Time::milliseconds(0), [&] { b.turn_off(); });
  sim.run_until(Time::seconds(1));
  const auto summary = summarize_duty_cycles({&a, &b});
  EXPECT_NEAR(summary.average, (1.0 + 0.00125) / 2.0, 1e-6);
  EXPECT_NEAR(summary.max, 1.0, 1e-9);
}

TEST(DutyCycleByGroup, GroupsCorrectly) {
  sim::Simulator sim;
  Radio a{sim, fast_params()};
  Radio b{sim, fast_params()};
  Radio c{sim, fast_params()};
  a.begin_measurement();
  b.begin_measurement();
  c.begin_measurement();
  c.turn_off();
  sim.run_until(Time::seconds(10));
  const auto by_group = duty_cycle_by_group({&a, &b, &c}, {0, 0, 1}, 2);
  ASSERT_EQ(by_group.size(), 2u);
  EXPECT_NEAR(by_group[0], 1.0, 1e-9);
  EXPECT_LT(by_group[1], 0.01);
}

TEST(DutyCycleByGroup, SizeMismatchThrows) {
  EXPECT_THROW(duty_cycle_by_group({}, {0}, 1), std::invalid_argument);
}

}  // namespace
}  // namespace essat::energy
