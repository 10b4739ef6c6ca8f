import json

import numpy as np
import pytest

from skillnet.consolidate import RetentionResult
from skillnet.curriculum import retention_event
from skillnet.metrics import MetricsWriter, read_metrics, validate_event


def solve_event(**overrides):
    event = {
        "event": "solve",
        "task_id": "a",
        "pass_number": 1,
        "budget": 100.0,
        "winner": "warm",
        "relevant_trial_ids": [3],
    }
    event.update(overrides)
    return event


def test_valid_event_passes():
    validate_event(solve_event())


def test_missing_field_rejected():
    event = solve_event()
    del event["winner"]
    with pytest.raises(ValueError, match="winner"):
        validate_event(event)


def test_extra_field_rejected():
    with pytest.raises(ValueError, match="solve.extra: unknown field"):
        validate_event(solve_event(extra=1))


def test_wrong_type_rejected():
    with pytest.raises(ValueError, match="pass_number"):
        validate_event(solve_event(pass_number="one"))


def test_bool_is_not_numeric():
    with pytest.raises(ValueError, match="budget"):
        validate_event(solve_event(budget=True))


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_number_rejected(value):
    # json.dumps would write these as the non-JSON tokens NaN and Infinity
    with pytest.raises(ValueError, match="solve.budget: must be a finite number"):
        validate_event(solve_event(budget=value))


def consolidation_event(**final_overrides):
    loss = {"total": 3.5, "action": 1.0, "pred": 1.5, "return": 1.0,
            "action_steps": 8, "pred_steps": 8, "return_steps": 8}
    return {"event": "consolidation", "task_id": "a", "pass_number": 1, "steps": 1,
            "initial_loss": loss, "final_loss": {**loss, **final_overrides},
            "verified": 1}


def test_consolidation_losses_pass_and_null_is_rejected():
    # a dream runs at least one step, so both losses are always measured
    validate_event(consolidation_event())
    for field in ("initial_loss", "final_loss"):
        with pytest.raises(ValueError, match=f"^consolidation.{field}: must be an object$"):
            validate_event({**consolidation_event(), field: None})


@pytest.mark.parametrize("overrides, message", [
    ({"total": float("inf")}, "final_loss.total: must be a finite number"),
    ({"pred": float("nan")}, "final_loss.pred: must be a finite number"),
    ({"action_steps": 8.0}, "final_loss.action_steps: must be an integer"),
    ({"extra": 1.0}, "final_loss.extra: unknown field"),
])
def test_bad_consolidation_loss_rejected(overrides, message):
    with pytest.raises(ValueError, match=f"consolidation.{message}"):
        validate_event(consolidation_event(**overrides))


def test_consolidation_loss_missing_a_field_rejected():
    event = consolidation_event()
    del event["final_loss"]["return_steps"]
    with pytest.raises(ValueError, match="final_loss.return_steps: missing required field"):
        validate_event(event)


def test_unknown_event_rejected():
    with pytest.raises(ValueError, match="unknown"):
        validate_event({"event": "mystery"})


def test_non_string_event_name_rejected(tmp_path):
    # a list is unhashable: looking it up must not raise TypeError
    path = tmp_path / "metrics.jsonl"
    path.write_text('{"event": []}\n')
    with pytest.raises(ValueError, match="line 1: unknown event type"):
        read_metrics(path)


def test_retention_check_events_carry_their_phase():
    result = RetentionResult(passed=True, success_rate=1.0, mean_return=0.9, mean_length=8.0)
    for phase in ("after_dream", "final"):
        event = retention_event("a", result, pass_number=2, phase=phase)
        validate_event(event)
        assert event["phase"] == phase


def test_retention_check_without_phase_rejected():
    result = RetentionResult(passed=False, success_rate=0.0, mean_return=-0.5,
                             mean_length=36.0)
    event = retention_event("a", result, pass_number=1, phase="final")
    del event["phase"]
    with pytest.raises(ValueError, match="phase"):
        validate_event(event)


def test_emitting_a_numpy_int_field_is_rejected(tmp_path):
    # the program emits plain Python values only; a numpy one is a program fault
    with MetricsWriter(tmp_path / "metrics.jsonl") as writer:
        with pytest.raises(ValueError, match="solve.pass_number: "):
            writer.emit(solve_event(pass_number=np.int64(1)))
    assert read_metrics(tmp_path / "metrics.jsonl") == []


def test_writer_round_trip(tmp_path):
    path = tmp_path / "metrics.jsonl"
    with MetricsWriter(path) as writer:
        writer.emit(solve_event())
        writer.emit({
            "event": "budget_double",
            "pass_number": 2,
            "old_budget": 100.0,
            "new_budget": 200.0,
        })
    events = read_metrics(path)
    assert [e["event"] for e in events] == ["solve", "budget_double"]


def test_writer_refuses_invalid_event(tmp_path):
    with MetricsWriter(tmp_path / "m.jsonl") as writer:
        with pytest.raises(ValueError):
            writer.emit({"event": "solve"})


def test_read_metrics_reports_bad_line(tmp_path):
    path = tmp_path / "m.jsonl"
    path.write_text('{"event": "budget_double", "pass_number": 1, '
                    '"old_budget": 1, "new_budget": 2}\nnot json\n')
    with pytest.raises(ValueError, match="line 2"):
        read_metrics(path)


BUDGET_DOUBLE = '{"event": "budget_double", "pass_number": 1, "old_budget": 1, "new_budget": 2}'


def test_read_metrics_skips_blank_lines(tmp_path):
    path = tmp_path / "m.jsonl"
    path.write_text(f"\n{BUDGET_DOUBLE}\n   \n\n{BUDGET_DOUBLE}\n")
    assert read_metrics(path) == [json.loads(BUDGET_DOUBLE)] * 2


@pytest.mark.parametrize("line", ['["budget_double"]', '"budget_double"', "7", "null"])
def test_read_metrics_rejects_a_line_that_is_not_an_object(tmp_path, line):
    path = tmp_path / "m.jsonl"
    path.write_text(f"{BUDGET_DOUBLE}\n\n{line}\n")
    with pytest.raises(ValueError, match="^line 3: metrics event must be an object"):
        read_metrics(path)
