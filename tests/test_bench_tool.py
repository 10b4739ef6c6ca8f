"""tools/bench.py on small result files written here, in perfbench/run.py's
layout: one `<workload>-seed1-trace0.json` per workload under
.perfbench_out/."""

import importlib.util
import json
from itertools import islice
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = [w["name"] for w in
             json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["workloads"]]


def _load_bench():
    spec = importlib.util.spec_from_file_location("bench_tool", ROOT / "tools" / "bench.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


bench = _load_bench()


def digests(seed, salt=""):
    return {kind: f"{kind}-{seed}{salt}" for kind in ("trace", "metrics", "checkpoint")}


def run_record(seed, *, rc=0, tasks_failed=1, dream_steps=100, salt=""):
    record = {"master_seed": seed, "rc": rc, "tasks_attempted": 2,
              "tasks_failed": tasks_failed, "errors": [], "nproc": 2}
    if rc == 0:  # the worker digests and counts only a run that exits 0
        record.update(digests=digests(seed, salt), dream_steps=dream_steps)
    return record


def write_results(tmp_path, runs_of=None):
    """A result file per workload: by default each pool seed once, the first
    one twice, as a run that went round the pool again."""
    out = tmp_path / ".perfbench_out"
    out.mkdir(exist_ok=True)
    for workload in WORKLOADS:
        pool = bench.pool(workload)
        runs = runs_of(workload, pool) if runs_of else [run_record(s) for s in pool + pool[:1]]
        metrics = {"run_s": {"value": 0.5, "unit": "s"}}
        result = {"workload": workload, "seed": 1, "runs": runs, "metrics": metrics,
                  "errors": []}
        (out / f"{workload}-seed1-trace0.json").write_text(json.dumps(result))


def collect(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return bench.main(["t"])


def test_pool_is_the_benchmarks_twenty_seeds_whatever_the_run_seed():
    for workload in WORKLOADS:
        assert len(set(bench.pool(workload))) == bench.RUN.POOL_SIZE == 20
        assert bench.pool(workload) == sorted(
            islice(bench.RUN.master_seeds(workload, 5), bench.RUN.POOL_SIZE))


def test_collect_writes_each_pool_seed_and_the_pool_sums(tmp_path, monkeypatch, capsys):
    def runs_of(workload, pool):
        stopped = workload == WORKLOADS[0]  # its last seed's run diverged
        return ([run_record(s, tasks_failed=i % 3, dream_steps=10 * i,
                            rc=2 if stopped and s == pool[-1] else 0)
                 for i, s in enumerate(pool)]
                + [run_record(pool[4], tasks_failed=1, dream_steps=40)])  # a repeat

    write_results(tmp_path, runs_of)
    assert collect(tmp_path, monkeypatch) == 0
    written = json.loads((tmp_path / "BENCH_t.json").read_text())
    assert list(written["workloads"]) == WORKLOADS
    first, second = written["workloads"][WORKLOADS[0]], written["workloads"][WORKLOADS[1]]
    pool = bench.pool(WORKLOADS[1])
    assert list(second["seeds"]) == [str(s) for s in pool]
    assert second["seeds"][str(pool[4])] == {"digests": digests(pool[4]), "tasks_failed": 1,
                                             "rc": 0, "dream_steps": 40}
    assert second["pool"] == {"seeds": 20, "tasks": 40, "tasks_failed": 19,
                              "nonzero_exits": 0, "dream_steps": 1900}
    assert second["metrics"] == {"run_s": 0.5} and second["runs"] == 21
    stopped = first["seeds"][str(bench.pool(WORKLOADS[0])[-1])]
    assert stopped == {"digests": None, "tasks_failed": 1, "rc": 2, "dream_steps": None}
    assert first["pool"]["nonzero_exits"] == 1
    assert f"{WORKLOADS[1]}: 19 of 40 tasks failed, 0 non-zero exits, 1900 dream steps" \
        in capsys.readouterr().out.splitlines()


def test_a_seed_repeated_with_other_digests_is_an_error(tmp_path, monkeypatch, capsys):
    def runs_of(workload, pool):
        return [run_record(s) for s in pool] + [run_record(pool[3], salt="x")]

    write_results(tmp_path, runs_of)
    assert collect(tmp_path, monkeypatch) == 2
    assert f"master seed {bench.pool(WORKLOADS[0])[3]} ran twice" in capsys.readouterr().err
    assert not (tmp_path / "BENCH_t.json").exists()


def test_a_stopped_run_and_a_completed_run_of_one_seed_are_an_error(tmp_path, monkeypatch,
                                                                     capsys):
    def runs_of(workload, pool):
        return [run_record(s) for s in pool] + [run_record(pool[0], rc=2)]

    write_results(tmp_path, runs_of)
    assert collect(tmp_path, monkeypatch) == 2
    assert "ran twice with other outputs" in capsys.readouterr().err


def test_a_pool_seed_with_no_run_is_an_error(tmp_path, monkeypatch, capsys):
    write_results(tmp_path, lambda workload, pool: [run_record(s) for s in pool[1:]])
    assert collect(tmp_path, monkeypatch) == 2
    assert f"pool seeds [{bench.pool(WORKLOADS[0])[0]}] never ran" in capsys.readouterr().err


def test_a_missing_result_file_or_failed_check_is_an_error(tmp_path, monkeypatch, capsys):
    write_results(tmp_path)
    (tmp_path / ".perfbench_out" / f"{WORKLOADS[-1]}-seed1-trace0.json").unlink()
    assert collect(tmp_path, monkeypatch) == 2
    assert "no result file" in capsys.readouterr().err

    write_results(tmp_path)
    path = tmp_path / ".perfbench_out" / f"{WORKLOADS[0]}-seed1-trace0.json"
    result = json.loads(path.read_text())
    path.write_text(json.dumps({**result, "errors": ["traced outputs differ"]}))
    assert collect(tmp_path, monkeypatch) == 2
    assert "reports failed checks: traced outputs differ" in capsys.readouterr().err


def test_compare_lists_the_pool_seeds_whose_digests_differ(tmp_path, monkeypatch, capsys):
    write_results(tmp_path)
    assert collect(tmp_path, monkeypatch) == 0
    (tmp_path / "BENCH_t.json").rename(tmp_path / "BENCH_a.json")
    changed = bench.pool(WORKLOADS[1])[7]
    write_results(tmp_path, lambda workload, pool: [
        run_record(s, salt="x" if (workload, s) == (WORKLOADS[1], changed) else "")
        for s in pool])
    assert collect(tmp_path, monkeypatch) == 0
    capsys.readouterr()

    assert bench.main(["--compare", "BENCH_a.json", "BENCH_a.json"]) == 0
    assert capsys.readouterr().out.splitlines() == [f"0 of {20 * len(WORKLOADS)} pool seeds differ"]
    assert bench.main(["--compare", "BENCH_a.json", "BENCH_t.json"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2 and lines[0].startswith(f"{WORKLOADS[1]} master seed {changed}: ")
    assert lines[1] == f"1 of {20 * len(WORKLOADS)} pool seeds differ"


def test_compare_names_a_pool_seed_only_one_file_holds(tmp_path, monkeypatch, capsys):
    write_results(tmp_path)
    assert collect(tmp_path, monkeypatch) == 0
    written = json.loads((tmp_path / "BENCH_t.json").read_text())
    seeds = written["workloads"][WORKLOADS[0]]["seeds"]
    gone = next(iter(seeds))
    del seeds[gone]
    (tmp_path / "BENCH_b.json").write_text(json.dumps(written))
    capsys.readouterr()
    assert bench.main(["--compare", "BENCH_t.json", "BENCH_b.json"]) == 1
    assert f"{WORKLOADS[0]} master seed {gone}: " in capsys.readouterr().out
    assert bench.main(["--compare", "BENCH_t.json", "nowhere.json"]) == 2
    assert "cannot read nowhere.json" in capsys.readouterr().err


@pytest.mark.parametrize("bench_file", [
    {}, [], {"workloads": []}, {"workloads": {"w": {}}}, {"workloads": {"w": {"seeds": []}}},
    {"workloads": {"w": {"seeds": {"1": "digests"}}}},
], ids=["empty", "list", "workload_list", "no_seeds", "seed_list", "seed_string"])
def test_compare_of_a_file_that_is_no_bench_file_is_an_error(tmp_path, monkeypatch, capsys,
                                                             bench_file):
    write_results(tmp_path)
    assert collect(tmp_path, monkeypatch) == 0
    (tmp_path / "bad.json").write_text(json.dumps(bench_file))
    capsys.readouterr()
    for argv in (["BENCH_t.json", "bad.json"], ["bad.json", "BENCH_t.json"]):
        assert bench.main(["--compare", *argv]) == 2
        assert capsys.readouterr().err.startswith("bench: bad.json is not a BENCH file")


@pytest.mark.parametrize("argv", [[], ["t", "--compare", "a", "b"]])
def test_a_tag_or_compare_is_required(argv):
    with pytest.raises(SystemExit) as exc:
        bench.main(argv)
    assert exc.value.code == 2


def test_a_tag_that_is_no_file_name_part_is_an_error(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert bench.main(["../x"]) == 2
    assert "must match" in capsys.readouterr().err
