"""Unit tests for the schedule layer: validation, views, clamping,
trace interchange, and JSON persistence."""

import dataclasses

import pytest

from repro.net.faults import FaultPlan, FaultRule
from repro.p2p.traces import ChurnTrace, SessionEvent
from repro.scenario import ScenarioEvent, Schedule

DELAY_RULE = FaultRule(kind="delay", operation="*", scope="peer01", delay=0.01)
DROP_RULE = FaultRule(kind="drop", operation="get_piece", scope="peer02")


def simple_schedule():
    return Schedule(
        events=(
            ScenarioEvent(1.0, "kill", 0),
            ScenarioEvent(1.0, "fault_on", rule=DELAY_RULE),
            ScenarioEvent(2.0, "restart", 0),
            ScenarioEvent(3.0, "fault_off", rule=DELAY_RULE),
            ScenarioEvent(4.0, "death", 2),
            ScenarioEvent(5.0, "spawn", 4),
        ),
        horizon=6.0,
        initial_peers=4,
    )


class TestEventValidation:
    def test_unknown_action_rejected(self):
        with pytest.raises(ValueError, match="unknown scenario action"):
            ScenarioEvent(1.0, "explode", 0)

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            ScenarioEvent(-1.0, "kill", 0)

    def test_peer_events_need_a_peer(self):
        with pytest.raises(ValueError, match="need a peer"):
            ScenarioEvent(1.0, "kill")

    def test_fault_events_need_a_rule(self):
        with pytest.raises(ValueError, match="need a fault rule"):
            ScenarioEvent(1.0, "fault_on")

    def test_peer_events_cannot_carry_a_rule(self):
        with pytest.raises(ValueError, match="cannot carry"):
            ScenarioEvent(1.0, "kill", 0, rule=DELAY_RULE)


class TestScheduleValidation:
    def test_out_of_order_events_rejected(self):
        with pytest.raises(ValueError, match="time-ordered"):
            Schedule(
                events=(ScenarioEvent(2.0, "kill", 0), ScenarioEvent(1.0, "restart", 0)),
                horizon=3.0,
                initial_peers=2,
            )

    def test_events_beyond_horizon_rejected(self):
        with pytest.raises(ValueError, match="beyond its horizon"):
            Schedule(
                events=(ScenarioEvent(5.0, "kill", 0),), horizon=4.0, initial_peers=2
            )

    def test_needs_initial_peers(self):
        with pytest.raises(ValueError, match="at least one initial peer"):
            Schedule(events=(), horizon=1.0, initial_peers=0)


class TestViews:
    def test_event_times_distinct_sorted(self):
        assert simple_schedule().event_times() == [1.0, 2.0, 3.0, 4.0, 5.0]

    def test_events_at_groups_simultaneous_events(self):
        at_one = simple_schedule().events_at(1.0)
        assert [event.action for event in at_one] == ["kill", "fault_on"]

    def test_fault_rules_first_seen_order(self):
        schedule = Schedule(
            events=(
                ScenarioEvent(1.0, "fault_on", rule=DROP_RULE),
                ScenarioEvent(2.0, "fault_on", rule=DELAY_RULE),
                ScenarioEvent(3.0, "fault_off", rule=DROP_RULE),
            ),
            horizon=4.0,
            initial_peers=2,
        )
        assert schedule.fault_rules() == (DROP_RULE, DELAY_RULE)

    def test_build_fault_plan_starts_all_inactive(self):
        plan = simple_schedule().build_fault_plan(seed=9)
        assert isinstance(plan, FaultPlan)
        assert not plan.rule_active(0)
        plan.set_rule_active(0)
        assert plan.rule_active(0)


class TestMaxConcurrentDown:
    def test_counts_overlapping_outages(self):
        schedule = Schedule(
            events=(
                ScenarioEvent(1.0, "kill", 0),
                ScenarioEvent(2.0, "kill", 1),
                ScenarioEvent(3.0, "restart", 0),
                ScenarioEvent(4.0, "kill", 2),
            ),
            horizon=5.0,
            initial_peers=4,
        )
        assert schedule.max_concurrent_down() == 2

    def test_spawned_peers_excluded(self):
        schedule = Schedule(
            events=(
                ScenarioEvent(1.0, "spawn", 3),
                ScenarioEvent(2.0, "death", 3),
                ScenarioEvent(3.0, "kill", 0),
            ),
            horizon=4.0,
            initial_peers=3,
        )
        assert schedule.max_concurrent_down() == 1


class TestClamp:
    def test_excess_kill_and_its_restart_dropped(self):
        schedule = Schedule(
            events=(
                ScenarioEvent(1.0, "kill", 0),
                ScenarioEvent(1.0, "kill", 1),
                ScenarioEvent(2.0, "restart", 0),
                ScenarioEvent(3.0, "restart", 1),
            ),
            horizon=4.0,
            initial_peers=3,
        )
        clamped = schedule.clamped_to_max_down(1)
        assert clamped.max_concurrent_down() == 1
        # Peer 1 never went down, so it must not "come back" either.
        assert [(event.time, event.action, event.peer) for event in clamped.events] == [
            (1.0, "kill", 0),
            (2.0, "restart", 0),
        ]

    def test_deaths_count_against_the_budget(self):
        schedule = Schedule(
            events=(ScenarioEvent(1.0, "death", 0), ScenarioEvent(2.0, "kill", 1)),
            horizon=3.0,
            initial_peers=3,
        )
        clamped = schedule.clamped_to_max_down(1)
        assert [event.action for event in clamped.events] == ["death"]

    def test_spawned_peer_events_pass_through(self):
        schedule = Schedule(
            events=(
                ScenarioEvent(1.0, "spawn", 2),
                ScenarioEvent(2.0, "death", 2),
            ),
            horizon=3.0,
            initial_peers=2,
        )
        assert schedule.clamped_to_max_down(0).events == schedule.events

    def test_zero_budget_drops_all_initial_churn(self):
        clamped = simple_schedule().clamped_to_max_down(0)
        assert all(
            event.action not in ("kill", "death") or event.peer >= 4
            for event in clamped.events
        )

    def test_negative_budget_rejected(self):
        with pytest.raises(ValueError, match="max_down"):
            simple_schedule().clamped_to_max_down(-1)


class TestTraceInterchange:
    def trace(self):
        return ChurnTrace(
            events=(
                SessionEvent(0.0, "join", 0),
                SessionEvent(0.0, "join", 1),
                SessionEvent(0.0, "join", 2),
                SessionEvent(1.5, "offline", 1),
                SessionEvent(2.0, "join", 3),
                SessionEvent(2.5, "online", 1),
                SessionEvent(3.0, "death", 2),
            ),
            horizon=5.0,
        )

    def test_t0_joins_become_initial_peers(self):
        schedule = Schedule.from_trace(self.trace())
        assert schedule.initial_peers == 3
        assert [(e.time, e.action, e.peer) for e in schedule.events] == [
            (1.5, "kill", 1),
            (2.0, "spawn", 3),
            (2.5, "restart", 1),
            (3.0, "death", 2),
        ]

    def test_round_trip_is_event_for_event(self):
        trace = self.trace()
        assert Schedule.from_trace(trace).to_trace() == trace

    def test_sparse_labels_rejected(self):
        trace = ChurnTrace(
            events=(SessionEvent(0.0, "join", 0), SessionEvent(1.0, "join", 5)),
            horizon=2.0,
        )
        with pytest.raises(ValueError, match="dense"):
            Schedule.from_trace(trace)

    def test_no_t0_join_rejected(self):
        trace = ChurnTrace(events=(SessionEvent(1.0, "join", 0),), horizon=2.0)
        with pytest.raises(ValueError, match="t=0 join"):
            Schedule.from_trace(trace)

    def test_fault_events_refuse_to_convert(self):
        with pytest.raises(ValueError, match="no churn-trace equivalent"):
            simple_schedule().to_trace()


class TestPersistence:
    def test_json_round_trip_is_exact(self):
        schedule = simple_schedule()
        assert Schedule.from_jsonable(schedule.to_jsonable()) == schedule

    def test_save_load(self, tmp_path):
        schedule = simple_schedule()
        path = tmp_path / "schedule.json"
        schedule.save(path)
        assert Schedule.load(path) == schedule

    def test_foreign_format_rejected(self):
        with pytest.raises(ValueError, match="not a scenario schedule"):
            Schedule.from_jsonable({"format": "something-else", "events": []})

    def test_rule_survives_round_trip_with_kind_intact(self):
        event = ScenarioEvent(1.0, "fault_on", rule=DELAY_RULE)
        restored = ScenarioEvent.from_jsonable(event.to_jsonable())
        assert restored.rule == DELAY_RULE
        assert dataclasses.astuple(restored.rule) == dataclasses.astuple(DELAY_RULE)

