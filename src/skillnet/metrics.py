"""Metrics emission: JSON Lines, one event object per line.

Every event carries an "event" discriminator so external tools can filter
and plot learning curves. The schemas below are the contract; emitted lines
contain exactly the declared fields. Events never include wall-clock data,
so two runs from the same config and seed produce byte-identical files.
"""

from __future__ import annotations

import json

import numpy as np

_NUM = (int, float)

# event name -> {field: expected type(s)}; None inside a tuple allows null
EVENT_SCHEMAS: dict[str, dict] = {
    "run_start": {
        "event": str,
        "master_seed": int,
        "task_ids": list,
        "budget_unit": str,
        "initial_budget": _NUM,
    },
    "task_attempt": {
        "event": str,
        "task_id": str,
        "pass_number": int,
        "budget": _NUM,
        "status": str,
        "winner": str,
        "budget_spent_warm": _NUM,
        "budget_spent_scratch": _NUM,
        "evaluations_warm": int,
        "evaluations_scratch": int,
        "trials_recorded": int,
        "max_batch_cost": _NUM,
    },
    "solve": {
        "event": str,
        "task_id": str,
        "pass_number": int,
        "budget": _NUM,
        "winner": str,
        "relevant_trial_ids": list,
    },
    "consolidation": {
        "event": str,
        "task_id": str,
        "pass_number": int,
        "steps": int,
        "initial_loss": (dict, type(None)),
        "final_loss": (dict, type(None)),
    },
    "retention_check": {
        "event": str,
        "task_id": str,
        "pass_number": int,
        "phase": str,           # "after_dream" | "final"
        "passed": bool,
        "success_rate": _NUM,
        "mean_return": _NUM,
        "mean_length": _NUM,
    },
    "budget_double": {
        "event": str,
        "pass_number": int,
        "old_budget": _NUM,
        "new_budget": _NUM,
    },
    "run_end": {
        "event": str,
        "solved_task_ids": list,
        "unsolved_task_ids": list,
        "pass_count": int,
        "total_search_spent": _NUM,
        "consolidations": int,
    },
    "transfer_probe": {
        "event": str,
        "task_id": str,
        "status": str,
        "winner": str,
        "budget_unit": str,
        "budget": _NUM,
        "budget_spent_warm": _NUM,
        "budget_spent_scratch": _NUM,
        "max_batch_cost": _NUM,
        "evaluations_warm": int,
        "evaluations_scratch": int,
        "relevant_trial_ids": list,
    },
}


def scrub(value):
    """Convert numpy scalars/arrays into plain JSON-serializable Python."""
    if isinstance(value, dict):
        return {k: scrub(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [scrub(v) for v in value]
    if isinstance(value, np.ndarray):
        return [scrub(v) for v in value.tolist()]
    if isinstance(value, (np.bool_, bool)):
        return bool(value)
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    return value


def validate_event(obj: dict) -> None:
    """Raise ValueError unless the object matches its event schema exactly."""
    if not isinstance(obj, dict) or "event" not in obj:
        raise ValueError("metrics event must be an object with an 'event' field")
    name = obj["event"]
    schema = EVENT_SCHEMAS.get(name)
    if schema is None:
        raise ValueError(f"unknown event type {name!r}")
    missing = set(schema) - set(obj)
    if missing:
        raise ValueError(f"event {name!r} missing fields {sorted(missing)}")
    extra = set(obj) - set(schema)
    if extra:
        raise ValueError(f"event {name!r} has undeclared fields {sorted(extra)}")
    for fieldname, expected in schema.items():
        value = obj[fieldname]
        if expected in (_NUM, int) and isinstance(value, bool):
            raise ValueError(f"event {name!r} field {fieldname!r} must be numeric")
        if not isinstance(value, expected):
            raise ValueError(
                f"event {name!r} field {fieldname!r} has type {type(value).__name__}"
            )


class MetricsWriter:
    """Writes validated events as JSON lines."""

    def __init__(self, path):
        self._fh = open(path, "w", encoding="utf-8")

    def emit(self, event: dict) -> None:
        event = scrub(event)
        validate_event(event)
        self._fh.write(json.dumps(event) + "\n")
        self._fh.flush()

    def close(self) -> None:
        self._fh.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


def read_metrics(path) -> list[dict]:
    """Parse and validate a metrics file; returns the event list."""
    events = []
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"line {line_no}: invalid JSON: {exc}") from exc
            try:
                validate_event(obj)
            except ValueError as exc:
                raise ValueError(f"line {line_no}: {exc}") from exc
            events.append(obj)
    return events
