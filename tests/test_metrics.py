import random
import re
from pathlib import Path

import pytest

from replicasim import ConfigError
from replicasim.metrics import (
    BLOCK_KINDS,
    CSV_COLUMNS,
    EVENT_KINDS,
    NO_MANIPULATION,
    BlockTiming,
    Condition,
    ErrorCounts,
    LogEvent,
    SessionLog,
    block_times,
    error_counts,
    percent_improvement,
    read_metrics_csv,
    session_row,
    validate_session_log,
    weighted_total,
    write_metrics_csv,
)
from replicasim.netsim import derive_seed
from replicasim.scene import Handedness
from replicasim.scenario import (
    build_default_plan,
    default_model,
    default_profiles,
    run_session,
    valve_registry,
)


def make_log(events, condition=Condition.HMD, seed=0):
    return SessionLog(condition=condition, seed=seed, events=events)


def action_log(*events):
    """One-block log around the (kind, data) events of a guided action."""
    body = [LogEvent(10 * (i + 1), kind, data, "b1", "OneHanded") for i, (kind, data) in enumerate(events)]
    return make_log([LogEvent(0, "CallStart"), *body, LogEvent(10 * (len(body) + 1), "CallEnd")])


class TestClassify:
    def test_wrong_identification_is_simple(self):
        assert error_counts(action_log(("Identify", {"valve": "1V3", "correct": False}))) == ErrorCounts(simple=1)

    def test_wrong_manipulation_is_critical(self):
        assert error_counts(action_log(("Manipulate", {"valve": "1V3", "correct": False}))) == ErrorCounts(critical=1)

    def test_all_correct_is_clean(self):
        log = action_log(("Identify", {"valve": "2V4", "correct": True}),
                         ("Manipulate", {"valve": "2V4", "correct": True}))
        assert error_counts(log) == ErrorCounts()

    def test_repeat_request(self):
        assert error_counts(action_log(("RepeatRequest", {"valve": "2V4"}))) == ErrorCounts(repetition=1)

    def test_distinct_wrong_actions_both_counted(self):
        log = action_log(("Identify", {"valve": "1V3", "correct": False}),
                         ("Manipulate", {"valve": "1V5", "correct": False}))
        assert error_counts(log) == ErrorCounts(simple=1, critical=1)

    def test_at_most_one_record_per_category(self):
        log = action_log(("RepeatRequest", {"valve": "2V4"}),
                         ("Identify", {"valve": "1V1", "correct": False}),
                         ("Manipulate", {"valve": "1V2", "correct": False}))
        assert error_counts(log) == ErrorCounts(1, 1, 1)


class TestWeightedTotal:
    def test_tablet_column(self):
        assert weighted_total(ErrorCounts(49, 6, 3)) == 64

    def test_hmd_column(self):
        assert weighted_total(ErrorCounts(3, 1, 0)) == 5

    def test_zero(self):
        assert weighted_total(ErrorCounts(0, 0, 0)) == 0

    def test_linearity(self):
        rng = random.Random(13)
        for _ in range(100):
            a = ErrorCounts(rng.randrange(10), rng.randrange(10), rng.randrange(10))
            b = ErrorCounts(rng.randrange(10), rng.randrange(10), rng.randrange(10))
            total = ErrorCounts(a.simple + b.simple, a.critical + b.critical, a.repetition + b.repetition)
            assert weighted_total(total) == weighted_total(a) + weighted_total(b)

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError):
            ErrorCounts(-1, 0, 0)


class TestBlockTimes:
    def test_single_block_and_total(self):
        events = [
            LogEvent(0, "CallStart"),
            LogEvent(1_000, "Instruction", {"text": "set valve V to Open"}, "b1", "OneHanded"),
            LogEvent(11_000, "Breakpoint", {}, "b1", "OneHanded"),
            LogEvent(12_000, "CallEnd"),
        ]
        timing = block_times(make_log(events))
        assert timing.blocks == (BlockTiming("b1", "OneHanded", 11.0),)
        assert timing.total_s == 12.0
        assert timing.totals_by_kind["OneHanded"] == 11.0

    def test_no_blocks_total_is_call_span(self):
        events = [LogEvent(0, "CallStart"), LogEvent(9_000, "CallEnd")]
        timing = block_times(make_log(events))
        assert timing.blocks == () and timing.total_s == 9.0

    def test_block_sum_never_exceeds_total(self):
        plan = build_default_plan(valve_registry(default_model()))
        profiles = default_profiles()
        for seed in range(5):
            log = run_session(plan, Condition.HMD, profiles[Condition.HMD], seed=seed)
            timing = block_times(log)
            assert sum(b.duration_s for b in timing.blocks) <= timing.total_s

    def test_block_kinds_are_the_handedness_values_and_no_manipulation(self):
        # metrics spells the kinds itself, so that reading a log loads no scene.
        assert set(BLOCK_KINDS) == {h.value for h in Handedness} | {NO_MANIPULATION}
        assert BLOCK_KINDS[:2] == (Handedness.ONE_HANDED.value, Handedness.TWO_HANDED.value)

    def test_event_kinds_are_the_documented_kinds(self):
        schema = (Path(__file__).resolve().parent.parent / "docs" / "log-schema.md").read_text(encoding="utf-8")
        table = schema[schema.index("| kind "):schema.index("## Invariants")]
        assert EVENT_KINDS == set(re.findall(r"^\| `(\w+)` +\|", table, flags=re.MULTILINE))

    # block_times trusts a validated log; the logs it cannot time are refused
    # by validate_session_log, which every log reader and run_session call.
    def test_malformed_log_rejected(self):
        with pytest.raises(ConfigError, match="must end with CallEnd"):
            validate_session_log(make_log([LogEvent(0, "CallStart")]))

    def test_breakpoint_without_block_rejected(self):
        events = [LogEvent(0, "CallStart"), LogEvent(5, "Breakpoint"), LogEvent(9, "CallEnd")]
        with pytest.raises(ConfigError, match="breakpoint without block context"):
            validate_session_log(make_log(events))

    @pytest.mark.parametrize("block_kind", ["Diagonal", None])
    def test_breakpoint_with_unknown_block_kind_rejected(self, block_kind):
        events = [LogEvent(0, "CallStart"), LogEvent(5, "Breakpoint", {}, "b1", block_kind), LogEvent(9, "CallEnd")]
        with pytest.raises(ConfigError, match=f"unknown block kind {block_kind or ''!r}"):
            validate_session_log(make_log(events))


class TestCalibratedCorpus:
    def test_group_means_recover_study_times(self):
        # 19 + 20 sessions from the calibrated profiles; tolerance covers the
        # Monte-Carlo error of a single corpus draw (sem is about 16 s).
        plan = build_default_plan(valve_registry(default_model()))
        profiles = default_profiles()
        targets = {Condition.TABLET: (19, 763.65), Condition.HMD: (20, 623.55)}
        for condition, (n, target) in targets.items():
            totals = []
            for i in range(n):
                seed = derive_seed(424_242, f"corpus:{condition.value}:{i}")
                log = run_session(plan, condition, profiles[condition], seed=seed)
                totals.append(block_times(log).total_s)
            mean = sum(totals) / len(totals)
            assert abs(mean - target) < 45.0, f"{condition}: mean {mean:.1f} vs {target}"


class TestErrorsFromLog:
    def test_events_map_to_error_records(self):
        events = [
            LogEvent(0, "CallStart"),
            LogEvent(10, "RepeatRequest", {"valve": "2V4"}, "b1", "OneHanded"),
            LogEvent(20, "Identify", {"valve": "1V1", "correct": False}, "b1", "OneHanded"),
            LogEvent(30, "Identify", {"valve": "2V4", "correct": True}, "b1", "OneHanded"),
            LogEvent(40, "Manipulate", {"valve": "1V2", "correct": False}, "b1", "OneHanded"),
            LogEvent(50, "Manipulate", {"valve": "2V4", "correct": True}, "b1", "OneHanded"),
            LogEvent(60, "Breakpoint", {}, "b1", "OneHanded"),
            LogEvent(70, "CallEnd"),
        ]
        counts = error_counts(make_log(events))
        assert counts == ErrorCounts(simple=1, critical=1, repetition=1)
        assert weighted_total(counts) == 4


class TestPercentImprovement:
    def test_total_time_percentage(self):
        assert abs(percent_improvement(763.65, 623.55) - 0.1835) < 1e-4

    def test_one_handed_percentage(self):
        assert abs(percent_improvement(193.26, 146.43) - 0.2424) < 1e-4

    def test_identity(self):
        assert percent_improvement(5.0, 5.0) == 0.0

    def test_nonpositive_baseline_rejected(self):
        with pytest.raises(ValueError):
            percent_improvement(0.0, 1.0)

    def test_published_self_consistency(self):
        # Reported reductions match their own quoted inputs to 4 decimal places.
        assert round(percent_improvement(3.37, 0.25), 4) == 0.9258
        assert round(percent_improvement(49, 3), 4) == 0.9388
        assert round(percent_improvement(6, 1), 4) == 0.8333
        assert round(percent_improvement(146.7, 105.86), 4) == 0.2784
        # Table totals: 58 raw errors, 64 with ponderation; averages over 19.
        assert 49 + 6 + 3 == 58
        assert weighted_total(ErrorCounts(49, 6, 3)) == 64
        assert round(64 / 19, 2) == 3.37


class TestSessionRow:
    def test_row_has_all_columns(self):
        plan = build_default_plan(valve_registry(default_model()))
        log = run_session(plan, Condition.TABLET, default_profiles()[Condition.TABLET], seed=77)
        row = session_row("tablet-000", log)
        assert row["session_id"] == "tablet-000"
        assert row["condition"] == "tablet"
        assert row["weighted_total"] == row["simple"] + 2 * row["critical"] + row["repetition"]
        assert row["total_s"] >= row["one_handed_s"] + row["two_handed_s"]

    def test_row_keys_are_the_csv_columns_and_read_back_unchanged(self, tmp_path):
        # write_metrics_csv writes each row as session_row built it, so the keys must be the columns.
        plan = build_default_plan(valve_registry(default_model()))
        rows = [session_row(f"{c.value}-000", run_session(plan, c, default_profiles()[c], seed=5)) for c in Condition]
        assert [tuple(row) for row in rows] == [CSV_COLUMNS] * 2
        write_metrics_csv(str(tmp_path / "metrics.csv"), rows)
        assert read_metrics_csv(str(tmp_path / "metrics.csv")) == rows
