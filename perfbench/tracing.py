"""Spans recorded from outside the package, around calls into its layers.

Each wrapped name is replaced on the module or class where callers look it
up, so no source file changes. A span is (span_id, parent_id, name, start,
end, n): `n` is the work the call did (rows, trials), counted at the same
boundary. Spans stay in memory and are written out after the run.

The layers are the package modules; a span's layer is the text before the
first dot of its name.
"""

from __future__ import annotations

import importlib
import json
import statistics
import time

LAYERS = ("cli", "config", "curriculum", "evolve", "rollout", "envs", "network",
          "traces", "consolidate", "metrics")

OUTSIDE = "(outside spans)"

# the two phase spans, which an untraced run records too
SEARCH = "evolve.try_solve_task"
DREAM = "consolidate.consolidate"


def _rows(trial) -> int:
    return len(trial.timesteps)


def _batch_rows(args, kwargs, result) -> int:
    batch = args[1] if len(args) > 1 else kwargs["batch"]
    return sum(len(t) for t in batch)


def _count_len(args, kwargs, result) -> int:
    return len(result)


def _append_rows(args, kwargs, result) -> int:
    return _rows(args[1])


def _store_rows(args, kwargs, result) -> int:
    # save returns None and counts its own store; load counts the store it returns
    store = args[0] if result is None else result
    return sum(_rows(t) for t in store)


class Tracer:
    """Installs span wrappers for the rest of the process and records spans."""

    def __init__(self):
        self.spans: list[tuple] = []
        self._stack = [0]
        self._next_id = 1

    def _wrap(self, fn, name, count):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            sid = self._next_id
            self._next_id = sid + 1
            parent = stack[-1]
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                spans.append((sid, parent, name, start, clock(), 0))
                stack.pop()
                raise
            end = clock()
            stack.pop()
            n = 1 if count is None else count(args, kwargs, result)
            spans.append((sid, parent, name, start, end, n))
            return result

        return wrapper

    def wrap_function(self, module_name: str, attr: str, name: str, count=None) -> None:
        module = importlib.import_module(module_name)
        original = getattr(module, attr)
        setattr(module, attr, self._wrap(original, name, count))

    def wrap_method(self, cls, attr: str, name: str, count=None) -> None:
        original = cls.__dict__[attr]
        if isinstance(original, classmethod):
            inner = self._wrap(original.__func__, name, count)
            setattr(cls, attr, classmethod(inner))
        else:
            setattr(cls, attr, self._wrap(original, name, count))

    def install_phases(self) -> None:
        """Wrap only the two curriculum phases. The default solver and
        consolidator look these module globals up at call time."""
        self.wrap_function("skillnet.curriculum", "try_solve_task", SEARCH)
        self.wrap_function("skillnet.curriculum", "consolidate", DREAM)

    def install(self) -> None:
        """Wrap each name where it is looked up at call time."""
        from skillnet.envs import GridMaze
        from skillnet.metrics import MetricsWriter
        from skillnet.network import Network
        from skillnet.traces import TraceStore

        self.install_phases()
        fn = self.wrap_function
        fn("skillnet.cli", "cmd_run", "cli.cmd_run")
        fn("skillnet.cli", "load_config", "config.load_config")
        fn("skillnet.cli", "init_network", "network.init_network")
        fn("skillnet.cli", "run_curriculum", "curriculum.run_curriculum")
        fn("skillnet.cli", "retention_check", "consolidate.retention_check")
        fn("skillnet.cli", "save_checkpoint", "network.save_checkpoint")
        fn("skillnet.curriculum", "retention_check", "consolidate.retention_check")
        fn("skillnet.evolve", "run_trial", "rollout.run_trial.search")
        fn("skillnet.rollout", "run_trial", "rollout.run_trial.eval")
        fn("skillnet.consolidate", "bptt_gradient", "network.bptt_gradient", _batch_rows)
        fn("skillnet.consolidate", "build_targets", "consolidate.build_targets", _count_len)
        fn("skillnet.consolidate", "term_stats", "consolidate.term_stats")
        meth = self.wrap_method
        meth(Network, "step", "network.step")
        meth(GridMaze, "step", "envs.step")
        meth(TraceStore, "append", "traces.append", _append_rows)
        meth(TraceStore, "save", "traces.save", _store_rows)
        meth(TraceStore, "load", "traces.load", _store_rows)
        meth(TraceStore, "sample_replay", "traces.sample_replay", _count_len)
        meth(MetricsWriter, "emit", "metrics.emit")

    def take(self) -> list[tuple]:
        """Hand over the recorded spans and start a fresh list."""
        spans = list(self.spans)
        self.spans.clear()
        return spans


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the time its direct children cover."""
    child = {}
    for sid, parent, _name, start, end, _n in spans:
        child[parent] = child.get(parent, 0.0) + (end - start)
    return {sid: (end - start) - child.get(sid, 0.0)
            for sid, _parent, _name, start, end, _n in spans}


def layer_self_seconds(spans, run_s: float) -> dict[str, float]:
    """Self seconds per layer plus the run time no span covers; the values
    add up to run_s."""
    selfs = self_times(spans)
    out = {layer: 0.0 for layer in LAYERS}
    covered = 0.0
    for sid, parent, name, start, end, _n in spans:
        out[name.split(".", 1)[0]] += selfs[sid]
        if parent == 0:
            covered += end - start
    out[OUTSIDE] = run_s - covered
    return out


def span_stats(spans) -> dict[str, list]:
    """name -> [calls, seconds, work, self seconds]"""
    selfs = self_times(spans)
    stats: dict[str, list] = {}
    for sid, _parent, name, start, end, n in spans:
        s = stats.setdefault(name, [0, 0.0, 0, 0.0])
        s[0] += 1
        s[1] += end - start
        s[2] += n
        s[3] += selfs[sid]
    return stats


def per_layer_metrics(spans, load_spans, events, *, run_s: float, env_steps: int,
                      trace_bytes: int, tasks_attempted: int, tasks_failed: int) -> dict:
    """The per-layer metrics of one traced run, as name -> value."""
    st = span_stats(spans)
    empty = [0, 0.0, 0, 0.0]

    def calls(name):
        return st.get(name, empty)[0]

    def secs(name):
        return st.get(name, empty)[1]

    def work(name):
        return st.get(name, empty)[2]

    def self_s(name):
        return st.get(name, empty)[3]

    def per(num, den, scale=1.0):
        return scale * num / den if den else 0.0

    attempts = [e for e in events if e["event"] == "task_attempt"]
    solved = [e for e in attempts if e["status"] == "solved"]
    win = sum(e[f"budget_spent_{e['winner']}"] for e in solved)
    both = sum(e["budget_spent_warm"] + e["budget_spent_scratch"] for e in solved)
    cons = [e for e in events if e["event"] == "consolidation"]
    ratios = [e["final_loss"]["total"] / e["initial_loss"]["total"]
              for e in cons if e["initial_loss"] and e["initial_loss"]["total"] > 0]
    run_end = next(e for e in events if e["event"] == "run_end")
    trials = calls("rollout.run_trial.search") + calls("rollout.run_trial.eval")
    trial_s = secs("rollout.run_trial.search") + secs("rollout.run_trial.eval")
    trial_self = self_s("rollout.run_trial.search") + self_s("rollout.run_trial.eval")
    env_calls = calls("envs.step")
    load = span_stats(load_spans).get("traces.load", empty)
    return {
        "envs.steps": env_steps,
        "envs.step_us": per(secs("envs.step"), env_calls, 1e6),
        "network.step_calls": calls("network.step"),
        "network.step_us": per(secs("network.step"), calls("network.step"), 1e6),
        "network.bptt_calls": calls("network.bptt_gradient"),
        "network.bptt_rows_per_call": per(work("network.bptt_gradient"),
                                          calls("network.bptt_gradient")),
        "network.bptt_us_per_row": per(secs("network.bptt_gradient"),
                                       work("network.bptt_gradient"), 1e6),
        "rollout.trials": trials,
        "rollout.us_per_env_step": per(trial_s, env_calls, 1e6),
        "rollout.self_us_per_env_step": per(trial_self, env_calls, 1e6),
        "rollout.eval_s": secs("rollout.run_trial.eval"),
        "evolve.attempts": calls(SEARCH),
        "evolve.solve_ratio": per(len(solved), len(attempts)),
        "evolve.evaluations": sum(e["evaluations_warm"] + e["evaluations_scratch"]
                                  for e in attempts),
        "evolve.winner_budget_share": per(win, both),
        "evolve.self_s": self_s(SEARCH),
        "traces.append_rows": work("traces.append"),
        "traces.append_us_per_row": per(secs("traces.append"), work("traces.append"), 1e6),
        "traces.save_us_per_row": per(secs("traces.save"), work("traces.save"), 1e6),
        "traces.bytes_per_row": per(trace_bytes, work("traces.save")),
        "traces.sample_replay_us": per(secs("traces.sample_replay"),
                                       calls("traces.sample_replay"), 1e6),
        "traces.load_us_per_row": per(load[1], load[2], 1e6),
        "consolidate.calls": calls(DREAM),
        "consolidate.grad_steps": sum(e["steps"] for e in cons),
        "consolidate.self_s": self_s(DREAM),
        "consolidate.build_targets_us_per_row": per(secs("consolidate.build_targets"),
                                                    work("consolidate.build_targets"), 1e6),
        "consolidate.target_cache_hit_ratio": 1.0 - per(calls("consolidate.build_targets"),
                                                        work("traces.sample_replay")),
        "consolidate.loss_ratio": statistics.median(ratios) if ratios else 0.0,
        "curriculum.passes": run_end["pass_count"],
        "curriculum.budget_doubles": sum(1 for e in events if e["event"] == "budget_double"),
        "curriculum.retention_checks": calls("consolidate.retention_check"),
        "curriculum.retention_s": secs("consolidate.retention_check"),
        "curriculum.self_s": self_s("curriculum.run_curriculum"),
        "curriculum.tasks_failed_frac": per(tasks_failed, tasks_attempted),
        "config.load_s": secs("config.load_config"),
        "metrics.events": calls("metrics.emit"),
        "metrics.emit_us": per(secs("metrics.emit"), calls("metrics.emit"), 1e6),
        "cli.checkpoint_save_s": secs("network.save_checkpoint"),
        "cli.self_s": self_s("cli.cmd_run"),
        "trace.run_s": run_s,
    }


def write_spans(path, run_id: int, spans, origin: float) -> None:
    """Append one run's spans as JSON lines, times in seconds from origin."""
    with open(path, "a", encoding="utf-8") as fh:
        for sid, parent, name, start, end, n in spans:
            fh.write(json.dumps({"run": run_id, "id": sid, "parent": parent, "name": name,
                                 "start": start - origin, "end": end - origin, "n": n}))
            fh.write("\n")
