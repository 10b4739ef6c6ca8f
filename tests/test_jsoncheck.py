"""The readers that share the net's m, p, n and o keys apply one rule."""

import json
import struct

import pytest

from skillnet.config import load_config
from skillnet.network import NetConfig, init_network, load_checkpoint, save_checkpoint
from skillnet.traces import MAGIC, StoreDims, TraceStore

NET = {"m": 9, "p": 4, "n": 1, "o": 4, "h": 8}
MISSING = object()


def edit(obj: dict, key: str, value) -> dict:
    obj = dict(obj)
    if value is MISSING:
        del obj[key]
    else:
        obj[key] = value
    return obj


def read_config(tmp_path, key, value):
    config = {
        "master_seed": 3,
        "net": edit(NET, key, value),
        "tasks": [{"task_id": "a", "goal_index": 0,
                   "maze": {"width": 3, "height": 3, "start": [0, 0], "goal_cell": [2, 2]}}],
        "budgets": {"c0": 1000, "lambda": 0.1},
        "paths": {"trace_file": "t.jsonl", "metrics_file": "m.jsonl", "checkpoint_dir": "ckpt"},
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    load_config(path)


def read_checkpoint(tmp_path, key, value):
    cfg = NetConfig(obs_dim=9, goal_dim=4, reward_dim=1, action_dim=4, hidden_dim=8)
    path = tmp_path / "net.ckpt"
    save_checkpoint(path, cfg, init_network(cfg)[1])
    lines = path.read_text().splitlines()
    header = edit(json.loads(lines[0]), key, value)
    path.write_text(json.dumps(header) + "\n" + lines[1] + "\n")
    load_checkpoint(path)


def read_trace_header(tmp_path, key, value):
    path = tmp_path / "traces.bin"
    TraceStore(StoreDims(9, 4, 1, 4)).save(path)
    data = path.read_bytes()
    (length,) = struct.unpack_from("<I", data, len(MAGIC))
    header = json.loads(data[len(MAGIC) + 4:len(MAGIC) + 4 + length])
    frame = json.dumps(edit(header, key, value)).encode()
    path.write_bytes(MAGIC + struct.pack("<I", len(frame)) + frame)
    TraceStore.load(path)


@pytest.mark.parametrize("value", ["9", 9.0, True, 0, -1, None, MISSING],
                         ids=["string", "float", "bool", "zero", "negative", "null", "missing"])
@pytest.mark.parametrize("key", ["m", "p", "n", "o"])
def test_shared_net_keys_get_one_verdict(tmp_path, key, value):
    # each reader's error: the key's dotted path, then the reason
    reasons = {}
    for read, prefix in ((read_config, f"net.{key}: "),
                         (read_checkpoint, f"header.{key}: "),
                         (read_trace_header, f"byte {len(MAGIC)}: header.{key}: ")):
        try:
            read(tmp_path, key, value)
            reasons[read.__name__] = None
        except ValueError as exc:
            assert str(exc).startswith(prefix), str(exc)
            reasons[read.__name__] = str(exc)[len(prefix):]
    assert len(set(reasons.values())) == 1, reasons
    assert None not in reasons.values()
