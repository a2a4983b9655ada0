// Scenario engine tests (ISSUE 6): determinism of the tick log, every
// invariant checker red on a deliberately broken input, a smoke run of the
// full named catalogue, the crash-recovery regression (restart mid-storm
// serves bit-equal ESTB), deliberate sabotage caught with tick+seed, and
// the injector's deterministic schedule semantics.
//
// Scenarios share the process-global obs:: registry and fault hook, so
// every test here runs scenarios strictly sequentially -- which is also the
// engine's documented contract.
#include <gtest/gtest.h>

#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/alert_ring.h"
#include "core/persist.h"
#include "core/sharded_coordinator.h"
#include "geo/projection.h"
#include "geo/zone_grid.h"
#include "scenario/engine.h"
#include "scenario/injector.h"
#include "scenario/invariants.h"
#include "scenario/scenarios.h"

namespace {

using namespace wiscape;

// ---- determinism ----------------------------------------------------------

TEST(Scenario, SameSeedProducesByteIdenticalTickLog) {
  const scenario::scenario_config cfg = scenario::make_scenario("flash_crowd");
  const scenario::scenario_result a = scenario::run_scenario(cfg, 42);
  const scenario::scenario_result b = scenario::run_scenario(cfg, 42);
  ASSERT_TRUE(a.passed) << a.violations.size() << " violations, first: "
                        << scenario::to_string(a.violations.front());
  EXPECT_EQ(a.tick_log, b.tick_log);
  EXPECT_EQ(a.final_estb, b.final_estb);
}

TEST(Scenario, DifferentSeedDiverges) {
  const scenario::scenario_config cfg = scenario::make_scenario("baseline");
  const scenario::scenario_result a = scenario::run_scenario(cfg, 1);
  const scenario::scenario_result b = scenario::run_scenario(cfg, 2);
  EXPECT_NE(a.tick_log, b.tick_log);
}

TEST(Scenario, FaultInjectedRunIsDeterministicToo) {
  const scenario::scenario_config cfg = scenario::make_scenario("fault_storm");
  const scenario::scenario_result a = scenario::run_scenario(cfg, 9);
  const scenario::scenario_result b = scenario::run_scenario(cfg, 9);
  ASSERT_TRUE(a.passed);
  EXPECT_EQ(a.tick_log, b.tick_log);
}

// ---- the full catalogue stays green ---------------------------------------

TEST(Scenario, EveryNamedScenarioPasses) {
  for (const std::string& name : scenario::scenario_names()) {
    const scenario::scenario_result res =
        scenario::run_scenario(scenario::make_scenario(name), 1234);
    EXPECT_TRUE(res.passed) << name << ": "
                            << (res.violations.empty()
                                    ? "?"
                                    : scenario::to_string(res.violations.front()));
    EXPECT_FALSE(res.tick_log.empty()) << name;
  }
}

TEST(Scenario, UnknownNameThrows) {
  EXPECT_THROW(scenario::make_scenario("no_such_scenario"),
               std::invalid_argument);
}

// ---- crash-recovery regression --------------------------------------------
// An interrupted run (kill + persist + restore at tick 20) must end in the
// same published state as the identical run without the restart: the final
// sorted ESTB dump compares byte-for-byte.

TEST(Scenario, RestartMidStormServesBitEqualEstimates) {
  const scenario::scenario_config interrupted =
      scenario::make_scenario("restart_mid_storm");
  scenario::scenario_config uninterrupted = interrupted;
  uninterrupted.stress.restart_tick.reset();

  const scenario::scenario_result a =
      scenario::run_scenario(interrupted, 2024);
  const scenario::scenario_result b =
      scenario::run_scenario(uninterrupted, 2024);
  ASSERT_TRUE(a.passed) << scenario::to_string(a.violations.front());
  ASSERT_TRUE(b.passed);
  EXPECT_FALSE(a.final_estb.empty());
  EXPECT_EQ(a.final_estb, b.final_estb);
  EXPECT_EQ(a.final_table, b.final_table);
}

// ---- leader-failover regression -------------------------------------------
// A replicated run that loses its leader kill -9 style at tick 20 (no
// flush, no snapshot) must fail over to the follower and still end in the
// same published state as the identical run with no replication at all:
// epoch-stream replication plus client-assisted replay rebuilds the dead
// leader's state bit-for-bit.

TEST(Scenario, LeaderKillFailsOverToBitEqualEstimates) {
  const scenario::scenario_config interrupted =
      scenario::make_scenario("leader_kill");
  scenario::scenario_config uninterrupted = interrupted;
  uninterrupted.stress.replicate = false;
  uninterrupted.stress.kill_leader_tick.reset();
  uninterrupted.stress.faults.clear();

  const scenario::scenario_result a =
      scenario::run_scenario(interrupted, 2024);
  const scenario::scenario_result b =
      scenario::run_scenario(uninterrupted, 2024);
  ASSERT_TRUE(a.passed) << scenario::to_string(a.violations.front());
  ASSERT_TRUE(b.passed);
  EXPECT_FALSE(a.final_estb.empty());
  EXPECT_EQ(a.final_estb, b.final_estb);
  EXPECT_EQ(a.final_table, b.final_table);
}

// ---- recovery installs each frozen epoch once -----------------------------
// A WAL recovery whose last checkpoint saw an epoch open that froze before
// the kill, and a follower that caught up while epochs were open and
// pulled them frozen later, must both end in the uninterrupted run's
// table: no epoch frozen twice, every open accumulator bit-equal.

TEST(Scenario, WalRestartRecoversToTheUninterruptedTable) {
  const scenario::scenario_config interrupted =
      scenario::make_scenario("wal_restart");
  scenario::scenario_config uninterrupted = interrupted;
  uninterrupted.stress.restart_tick.reset();
  uninterrupted.stress.checkpoint_every = 0;

  const scenario::scenario_result a =
      scenario::run_scenario(interrupted, 2024);
  const scenario::scenario_result b =
      scenario::run_scenario(uninterrupted, 2024);
  ASSERT_TRUE(a.passed) << scenario::to_string(a.violations.front());
  ASSERT_TRUE(b.passed);
  EXPECT_NE(a.tick_log.find("restart=1"), std::string::npos);
  EXPECT_FALSE(a.final_table.empty());
  EXPECT_EQ(a.final_table, b.final_table);
  EXPECT_EQ(a.final_estb, b.final_estb);
}

TEST(Scenario, FollowerJoiningLateFailsOverToTheUninterruptedTable) {
  const scenario::scenario_config interrupted =
      scenario::make_scenario("follower_joins_late");
  scenario::scenario_config uninterrupted = interrupted;
  uninterrupted.stress.replicate = false;
  uninterrupted.stress.kill_leader_tick.reset();
  uninterrupted.stress.follower_join_tick.reset();

  const scenario::scenario_result a =
      scenario::run_scenario(interrupted, 2024);
  const scenario::scenario_result b =
      scenario::run_scenario(uninterrupted, 2024);
  ASSERT_TRUE(a.passed) << scenario::to_string(a.violations.front());
  ASSERT_TRUE(b.passed);
  EXPECT_FALSE(a.final_table.empty());
  EXPECT_EQ(a.final_table, b.final_table);
  EXPECT_EQ(a.final_estb, b.final_estb);
}

TEST(Scenario, LeaderKillTickLogIsDeterministicAndRecordsPromotion) {
  const scenario::scenario_config cfg = scenario::make_scenario("leader_kill");
  const scenario::scenario_result a = scenario::run_scenario(cfg, 7);
  const scenario::scenario_result b = scenario::run_scenario(cfg, 7);
  ASSERT_TRUE(a.passed) << scenario::to_string(a.violations.front());
  EXPECT_EQ(a.tick_log, b.tick_log);
  // The repl= field flips its promoted flag at the kill tick.
  EXPECT_NE(a.tick_log.find(" repl="), std::string::npos);
  EXPECT_NE(a.tick_log.find("/1\n"), std::string::npos);
}

TEST(Scenario, ReplicateRefusesRestartCombination) {
  scenario::scenario_config cfg = scenario::make_scenario("leader_kill");
  cfg.stress.restart_tick = 10;
  EXPECT_THROW(scenario::run_scenario(cfg, 1), std::invalid_argument);
}

// ---- a deliberately broken run is caught, with tick and seed --------------

TEST(Scenario, SabotagedAccountingIsCaughtWithTickAndSeed) {
  scenario::scenario_config cfg = scenario::make_scenario("baseline");
  cfg.ticks = 12;
  cfg.stress.sabotage_tick = 9;
  const scenario::scenario_result res = scenario::run_scenario(cfg, 77);
  ASSERT_FALSE(res.passed);
  ASSERT_FALSE(res.violations.empty());
  const scenario::violation& v = res.violations.front();
  EXPECT_EQ(v.invariant, "report_accounting");
  EXPECT_EQ(v.tick, 9u);
  EXPECT_EQ(v.seed, 77u);
  const std::string msg = scenario::to_string(v);
  EXPECT_NE(msg.find("tick=9"), std::string::npos);
  EXPECT_NE(msg.find("seed=77"), std::string::npos);
}

// ---- invariant checkers red on broken inputs ------------------------------

TEST(Invariants, ReportAccountingCatchesVanishedRecord) {
  scenario::tick_accounting a;
  a.submitted = 10;
  a.acked = 9;  // one record vanished at the wire
  a.accepted_delta = 9;
  ASSERT_TRUE(scenario::check_report_accounting(a).has_value());
}

TEST(Invariants, ReportAccountingCatchesMissingPipelineCounter) {
  scenario::tick_accounting a;
  a.submitted = 10;
  a.acked = 10;
  a.accepted_delta = 8;  // two acked records hit no counter
  ASSERT_TRUE(scenario::check_report_accounting(a).has_value());
}

TEST(Invariants, ReportAccountingCatchesApplyError) {
  scenario::tick_accounting a;
  a.submitted = 4;
  a.acked = 4;
  a.accepted_delta = 4;
  a.apply_errors_delta = 1;
  ASSERT_TRUE(scenario::check_report_accounting(a).has_value());
}

TEST(Invariants, ReportAccountingHoldsWithPartialShardFailure) {
  // A REPORTB that partially applied before a shard's push failed: the
  // frame erred at the wire, but its records account through accepted +
  // dropped -- that is the identity, not a violation.
  scenario::tick_accounting a;
  a.submitted = 32;
  a.erred = 32;
  a.accepted_delta = 20;
  a.dropped_delta = 12;
  EXPECT_FALSE(scenario::check_report_accounting(a).has_value());
}

TEST(Invariants, ReportAccountingIgnoresRefusedRecords) {
  // A whole frame refused before dispatch never reaches the pipeline.
  scenario::tick_accounting a;
  a.submitted = 32;
  a.erred = 32;
  a.refused = 32;
  EXPECT_FALSE(scenario::check_report_accounting(a).has_value());
}

TEST(Invariants, AlertAccountingCatchesLeakedAlert) {
  scenario::alert_ledger l;
  l.served_total = 5;
  l.dropped_total = 1;
  l.cursor = 7;  // one push unaccounted
  l.pushed = 10;
  ASSERT_TRUE(scenario::check_alert_accounting(l).has_value());
}

TEST(Invariants, AlertAccountingCatchesCursorBeyondPushed) {
  scenario::alert_ledger l;
  l.served_total = 11;
  l.cursor = 11;
  l.pushed = 10;
  ASSERT_TRUE(scenario::check_alert_accounting(l).has_value());
}

TEST(Invariants, AlertAccountingCatchesUndrainedTeardown) {
  scenario::alert_ledger l;
  l.served_total = 8;
  l.cursor = 8;
  l.pushed = 10;
  l.fully_drained = true;
  ASSERT_TRUE(scenario::check_alert_accounting(l).has_value());
  l.fully_drained = false;
  EXPECT_FALSE(scenario::check_alert_accounting(l).has_value());
}

TEST(Invariants, StalenessCatchesStalledRollover) {
  scenario::staleness_probe p;
  p.latest_epoch_start_s = 0.0;
  p.last_sample_s = 2000.0;
  p.epoch_s = 300.0;
  p.slack_s = 60.0;
  ASSERT_TRUE(scenario::check_staleness(p).has_value());
  p.latest_epoch_start_s = 1500.0;
  EXPECT_FALSE(scenario::check_staleness(p).has_value());
}

TEST(Invariants, MonotoneCatchesDecreaseAndDisappearance) {
  using obs::metric_sample;
  const std::vector<metric_sample> prev = {
      {"a.count", 5.0, true, true},
      {"b.gauge", 9.0, true, false},
  };
  // Decrease of a monotone sample.
  std::vector<metric_sample> cur = {
      {"a.count", 4.0, true, true},
      {"b.gauge", 1.0, true, false},
  };
  ASSERT_TRUE(scenario::check_counter_monotone(prev, cur).has_value());
  // Disappearance of a monotone sample.
  cur = {{"b.gauge", 1.0, true, false}};
  ASSERT_TRUE(scenario::check_counter_monotone(prev, cur).has_value());
  // A shrinking gauge and a brand-new counter are both fine.
  cur = {{"a.count", 5.0, true, true},
         {"b.gauge", 0.0, true, false},
         {"c.count", 1.0, true, true}};
  EXPECT_FALSE(scenario::check_counter_monotone(prev, cur).has_value());
}

// ---- injector semantics ----------------------------------------------------

TEST(Injector, AfterAndCountWindowTheSchedule) {
  scenario::injector inj(1);
  inj.add_rule({core::fault::site::queue_push, /*after=*/3, /*count=*/2, 1.0,
                core::fault::action::fail});
  int failed = 0;
  for (int i = 0; i < 10; ++i) {
    if (inj.on(core::fault::site::queue_push) == core::fault::action::fail) {
      ++failed;
      // Fires exactly on the 4th and 5th invocations.
      EXPECT_TRUE(i == 3 || i == 4) << i;
    }
  }
  EXPECT_EQ(failed, 2);
  EXPECT_EQ(inj.seen(core::fault::site::queue_push), 10u);
  EXPECT_EQ(inj.fired(core::fault::site::queue_push), 2u);
  // Other sites are untouched.
  EXPECT_EQ(inj.on(core::fault::site::server_handle),
            core::fault::action::proceed);
}

TEST(Injector, ProbabilisticScheduleIsAFunctionOfSeedAndOrdinal) {
  auto schedule = [](std::uint64_t seed) {
    scenario::injector inj(seed);
    inj.add_rule({core::fault::site::server_handle, 0,
                  std::numeric_limits<std::uint64_t>::max(), 0.3,
                  core::fault::action::fail});
    std::string bits;
    for (int i = 0; i < 200; ++i) {
      bits += inj.on(core::fault::site::server_handle) ==
                      core::fault::action::fail
                  ? '1'
                  : '0';
    }
    return bits;
  };
  const std::string a = schedule(5);
  EXPECT_EQ(a, schedule(5));      // same seed: same schedule
  EXPECT_NE(a, schedule(6));      // different seed: different schedule
  EXPECT_NE(a.find('1'), std::string::npos);  // p=0.3 over 200: some fire
  EXPECT_NE(a.find('0'), std::string::npos);
}

TEST(Injector, RuleCapacityIsEnforced) {
  scenario::injector inj(1);
  for (int i = 0; i < 16; ++i) {
    inj.add_rule({core::fault::site::queue_push, 0, 1, 1.0,
                  core::fault::action::fail});
  }
  EXPECT_THROW(inj.add_rule({core::fault::site::queue_push, 0, 1, 1.0,
                             core::fault::action::fail}),
               std::length_error);
}

TEST(Injector, ArmScopeRestoresPreviousHook) {
  scenario::injector outer(1);
  outer.add_rule({core::fault::site::queue_push, 0,
                  std::numeric_limits<std::uint64_t>::max(), 1.0,
                  core::fault::action::fail});
  scenario::arm_scope armed(outer);
  EXPECT_EQ(core::fault::fire(core::fault::site::queue_push),
            core::fault::action::fail);
  {
    scenario::injector inner(2);  // no rules: everything proceeds
    scenario::arm_scope nested(inner);
    EXPECT_EQ(core::fault::fire(core::fault::site::queue_push),
              core::fault::action::proceed);
  }
  EXPECT_EQ(core::fault::fire(core::fault::site::queue_push),
            core::fault::action::fail);
}

// ---- persist_save fault refuses the snapshot -------------------------------

TEST(Injector, PersistSaveFaultRefusesSnapshot) {
  geo::projection proj(geo::lat_lon{43.0, -89.4});
  geo::zone_grid grid(proj, 250.0);
  core::sharded_coordinator coord(grid, {"NetB"}, {}, 1);

  scenario::injector inj(1);
  inj.add_rule({core::fault::site::persist_save, 0, 1, 1.0,
                core::fault::action::fail});
  scenario::arm_scope armed(inj);

  std::ostringstream first;
  EXPECT_THROW(core::save_state(first, coord),
               std::runtime_error);
  EXPECT_TRUE(first.str().empty());  // refused before writing anything
  // The rule's budget is spent: the retry succeeds.
  std::ostringstream second;
  core::save_state(second, coord);
  EXPECT_FALSE(second.str().empty());
}

// ---- alert_ring resume ------------------------------------------------------

TEST(AlertRing, ResumeFromContinuesSequenceNumbers) {
  core::alert_ring ring(8);
  ring.resume_from(41);
  EXPECT_EQ(ring.pushed(), 41u);
  ring.push({});
  const auto drain = ring.drain_since(0, 16);
  ASSERT_EQ(drain.alerts.size(), 1u);
  EXPECT_EQ(drain.alerts.front().seq, 42u);
  // Everything before the resume point is reported dropped, not lost.
  EXPECT_EQ(drain.dropped, 41u);
  EXPECT_EQ(drain.next_seq, 42u);
}

TEST(AlertRing, ResumeFromRequiresFreshRing) {
  core::alert_ring ring(8);
  ring.push({});
  EXPECT_THROW(ring.resume_from(10), std::logic_error);
}

}  // namespace
