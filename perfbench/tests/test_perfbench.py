"""Fast checks of the benchmark itself, at tiny sizes.

Run from the repository root with ``python3 -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import dataclasses
import json
import math
import shutil
import subprocess
import sys

import pytest

import inproc
import run
import serve
from common import METHODS, Outcome, Sizes, make_instance
from repro.core import Workspace, make_selector
from repro.service.protocol import QueueFullError

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
TINY = Sizes(n_c=3_000, n_f=60, n_p=40)


def _inproc(kind, tmp_path, trace=False, seed=3):
    return inproc.run(kind, seed, 0.3, trace, tmp_path, sizes=TINY, setups=2)


def _assert_prints_every_metric(outcome, trace):
    lines, result = run.render(outcome, SPEC, trace)
    section = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in section]
    text = "\n".join(lines)
    for metric in section:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
        assert f"{metric['name']} " in text and f" {metric['unit']} " in text
    json.dumps(result)  # serialisable as the last output line


def test_spec_follows_the_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    names = [m["name"] for s in ("workloads", "end_to_end", "per_layer") for m in SPEC[s]]
    assert len(names) == len(set(names))
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert max(bounds.values()) <= 0.25 and bounds["setup_s"] == max(bounds.values())
    assert all(len(w["why"]) <= 200 for w in SPEC["workloads"])


@pytest.mark.parametrize("kind", ["query", "disk", "churn"])
@pytest.mark.parametrize("trace", [False, True])
def test_inproc_workloads_print_every_metric(kind, trace, tmp_path):
    outcome = _inproc(kind, tmp_path, trace)
    assert outcome.correct, outcome.errors
    assert outcome.failed == 0 and outcome.attempted > 0
    assert all(value > 0 for value, _ in outcome.e2e.values())
    _assert_prints_every_metric(outcome, trace)


@pytest.mark.parametrize("trace", [False, True])
def test_serve_workload_prints_every_metric(trace, tmp_path):
    outcome = serve.run(
        5, 0.6, trace, tmp_path, run.ROOT, sizes=Sizes(300, 10, 10), instances=2
    )
    assert outcome.correct, outcome.errors
    assert outcome.failed == 0
    assert all(value > 0 for value, _ in outcome.e2e.values())
    _assert_prints_every_metric(outcome, trace)


@pytest.mark.parametrize("kind", ["query", "churn"])
def test_counts_repeat_exactly(kind, tmp_path):
    counts = []
    for _ in range(2):
        layers = _inproc(kind, tmp_path, trace=True).layers
        counted = ("storage.io_", "storage.index_", "storage.leaf_", "regions.")
        counts.append({k: v for k, v in layers.items() if k.startswith(counted)})
    assert counts[0] and counts[0] == counts[1]


def test_wrong_answer_trips_the_check(tmp_path, monkeypatch):
    real = inproc.make_selector

    def lying(ws, method):
        selector = real(ws, method)
        if method == "QVC":
            honest = selector.select

            def select():
                result = honest()
                other = ws.potentials[(result.location.sid + 1) % ws.n_p]
                return dataclasses.replace(result, location=other)

            selector.select = select
        return selector

    monkeypatch.setattr(inproc, "make_selector", lying)
    outcome = _inproc("query", tmp_path)
    assert not outcome.correct and outcome.failed > 0
    assert run.render(outcome, SPEC, False)[1]["correct"] is False


def test_wrong_served_answer_trips_the_check():
    instance = make_instance(1, Sizes(200, 5, 6))
    ws = Workspace(instance)
    served = {m: make_selector(ws, m).select() for m in METHODS}
    outcome = Outcome()
    serve.check(outcome, instance, {}, served)
    assert outcome.correct and outcome.attempted == len(METHODS)
    served["NFC"] = dataclasses.replace(served["NFC"], dr=served["NFC"].dr * 1.5)
    serve.check(outcome, instance, {}, served)
    assert not outcome.correct and outcome.failed == 1


def test_added_clients_spread_their_influence_evenly():
    instance = make_instance(2, Sizes(300, 10, 10))
    points = serve.add_points(instance, 2)
    assert len(points) == serve.ADD_POOL == len({tuple(p) for p in points})
    sites = [(p.x, p.y) for p in instance.potentials]

    def influences(x, y):
        dnn = min(math.hypot(x - f.x, y - f.y) for f in instance.facilities)
        return any(math.hypot(x - sx, y - sy) < dnn for sx, sy in sites)

    flags = [influences(*p) for p in points]
    share = sum(flags) / len(flags)
    assert 0.1 < share < 0.9
    for m in range(1, len(flags) + 1, 37):
        assert abs(sum(flags[:m]) - m * share) <= 1


class _RefusingClient:
    """Answers every request, refusing every third with queue_full."""

    def __init__(self):
        self.calls = 0

    def call(self, op, **params):
        self.calls += 1
        if self.calls % 3 == 0:
            raise QueueFullError("admission queue full")
        if op == "update":
            return {"result": {"cid": 10_000 + self.calls, "select_changed": True}}
        return {"result": {}}


def test_refused_request_counts_as_failed():
    instance = make_instance(1, Sizes(200, 5, 10))
    conn = serve.Connection(serve.random.Random(1), iter(serve.add_points(instance, 1)))
    serve.drive(conn, _RefusingClient(), 10, serve.perf_counter() + 0.05)
    refused = [r for r in conn.log if r.error is not None]
    assert refused and all(r.error == "queue_full" for r in refused)
    outcome = Outcome()
    serve.tally(outcome, conn)
    assert outcome.failed == len(refused) and outcome.attempted == len(conn.log)
    assert outcome.correct
    lines, _ = run.render(outcome, SPEC, False)
    assert f"failed {len(refused)}" in lines[-1]


def test_bare_directory_fails_without_a_result(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.ROOT / "perfbench", tmp_path / "perfbench")
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "query-100k"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode != 0
    assert "correct" not in done.stdout
