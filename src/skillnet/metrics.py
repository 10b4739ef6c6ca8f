"""Metrics emission: JSON Lines, one event object per line.

Every event carries an "event" discriminator so external tools can filter
and plot learning curves. The schemas below are the contract; emitted lines
contain exactly the declared fields. Events hold no wall-clock data, so two
runs from the same config and seed produce byte-identical files.
"""

from __future__ import annotations

import json

from .jsoncheck import BOOL, INT, NUMBER, STRING, exact, plain, typed

LIST = typed(lambda v: isinstance(v, list), "a list")
LOSS_FIELDS = {"total": NUMBER, "action": NUMBER, "pred": NUMBER, "return": NUMBER,
               "action_steps": INT, "pred_steps": INT, "return_steps": INT}


def LOSSES(value, fieldpath: str):
    return exact(value, fieldpath, LOSS_FIELDS)


# event name -> {field: check of its JSON value}
EVENT_SCHEMAS: dict[str, dict] = {
    "run_start": {
        "event": STRING,
        "master_seed": INT,
        "task_ids": LIST,
        "budget_unit": STRING,
        "initial_budget": NUMBER,
    },
    "task_attempt": {
        "event": STRING,
        "task_id": STRING,
        "pass_number": INT,
        "budget": NUMBER,
        "status": STRING,
        "winner": STRING,
        "budget_spent_warm": NUMBER,
        "budget_spent_scratch": NUMBER,
        "evaluations_warm": INT,
        "evaluations_scratch": INT,
        "trials_recorded": INT,
        "max_batch_cost": NUMBER,
    },
    "solve": {
        "event": STRING,
        "task_id": STRING,
        "pass_number": INT,
        "budget": NUMBER,
        "winner": STRING,
        "relevant_trial_ids": LIST,
    },
    "consolidation": {
        "event": STRING,
        "task_id": STRING,
        "pass_number": INT,
        "steps": INT,
        "initial_loss": LOSSES,
        "final_loss": LOSSES,
        "verified": INT,   # solved tasks that pass the retention check after this chunk
    },
    "retention_check": {
        "event": STRING,
        "task_id": STRING,
        "pass_number": INT,
        "phase": STRING,  # "after_dream" | "final"
        "passed": BOOL,
        "success_rate": NUMBER,
        "mean_return": NUMBER,
        "mean_length": NUMBER,
    },
    "budget_double": {
        "event": STRING,
        "pass_number": INT,
        "old_budget": NUMBER,
        "new_budget": NUMBER,
    },
    "run_end": {
        "event": STRING,
        "solved_task_ids": LIST,
        "unsolved_task_ids": LIST,
        "pass_count": INT,
        "total_search_spent": NUMBER,
        "consolidations": INT,
    },
    "transfer_probe": {
        "event": STRING,
        "task_id": STRING,
        "status": STRING,
        "winner": STRING,
        "budget_unit": STRING,
        "budget": NUMBER,
        "budget_spent_warm": NUMBER,
        "budget_spent_scratch": NUMBER,
        "max_batch_cost": NUMBER,
        "evaluations_warm": INT,
        "evaluations_scratch": INT,
        "relevant_trial_ids": LIST,
    },
}


def validate_event(obj: dict) -> None:
    """Raise ValueError unless the object matches its event schema exactly;
    a wrong field is named as "<event>.<field>"."""
    if not isinstance(obj, dict) or "event" not in obj:
        raise ValueError("metrics event must be an object with an 'event' field")
    name = obj["event"]
    schema = EVENT_SCHEMAS.get(name) if isinstance(name, str) else None
    if schema is None:
        raise ValueError(f"unknown event type {name!r}")
    plain(exact, obj, name, schema)


class MetricsWriter:
    """Writes validated events as JSON lines."""

    def __init__(self, path):
        self._fh = open(path, "w", encoding="utf-8")

    def emit(self, event: dict) -> None:
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
