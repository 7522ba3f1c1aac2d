"""The ``serve-2k`` workload: the query service under a closed loop.

Five instances of 2,000 clients, 100 facilities and 100 sites, which
the benchmark generates from the seed, are served one after another,
each by its own child process (``python -m repro.cli serve`` with its
default configuration, the instance handed over as CSV files) for a
fifth of the run.  One connection sends each request only after the
previous reply arrived (a closed loop): 80% ``select`` (Zipf with
alpha = 0.9 over MND, NFC, SS, QVC), 10% ``evaluate`` of one random
site, 10% ``update``, in shuffled blocks of exact counts.  The updates
alternate ``add_client`` (at uniform points in a stratified order, see
``add_points``) with ``remove_client`` of the client added last, so n_c
stays within 2,000 + 1.  With one connection the request
stream, and so every cache hit and miss, is the same in every run of a
seed; with two, the interleaving of the connections changed from run
to run, and so did how many selects missed the cache.

This is the only workload that goes through the service stack:
protocol, admission, micro-batching, the result cache and the region
clock.  A ``--trace 1`` run serves each instance twice instead, for
half its share each: by a server started with ``--no-telemetry``, the
baseline of the tracing overhead, and by one with a trace buffer large
enough to keep every request's trace, fetched afterwards through the
``trace`` op.
"""

from __future__ import annotations

import os
import random
import select
import signal
import subprocess
import sys
from dataclasses import dataclass, field
from itertools import cycle
from pathlib import Path
from time import perf_counter
from typing import Iterator, Optional, Sequence

import numpy as np
from repro.core import Workspace, make_selector
from repro.datasets.generators import SpatialInstance
from repro.datasets.io import save_points_csv
from repro.geometry.point import Point
from repro.service.client import ServiceClient
from repro.service.protocol import E_QUEUE_FULL, ServiceError, selection_from_wire

from common import (
    DOMAIN_SIDE,
    METHODS,
    Outcome,
    Sizes,
    SpeedProbe,
    dr_close,
    make_instance,
    median,
    peak_rss_mb,
    percentile,
)

SIZES_2K = Sizes(n_c=2_000, n_f=100, n_p=100)

#: Instances per run, each generated from the seed and served by its
#: own server for an equal share of the run; ``setup_s`` is the median
#: spawn-to-ready of their servers.  Five instances average five
#: layouts of the facilities and sites.
INSTANCES = 5

#: Uniform points drawn per instance for the ``add_client`` updates,
#: used in turn and then again from the start (an instance of an 8 s run
#: adds about 30 clients).
ADD_POOL = 1024

#: Zipf rank order of the select methods.
ZIPF_METHODS = ("MND", "NFC", "SS", "QVC")

#: One block of requests, in exact counts shuffled by the connection's
#: seeded stream: 80% select, 10% evaluate, 10% update.
#: The 32 selects follow Zipf with alpha = 0.9 over ``ZIPF_METHODS``
#: (shares 0.46, 0.25, 0.17, 0.13) rounded to whole counts.  Drawn one
#: request at a time, the mix swung enough from seed to seed to move
#: throughput by up to 13%: each update makes later selects miss the
#: cache.
REQUEST_BLOCK = (
    ("MND", 15),
    ("NFC", 8),
    ("SS", 5),
    ("QVC", 4),
    ("evaluate", 4),
    ("update", 4),
)

#: Finished traces a traced server keeps: more than one run sends.
TRACE_BUFFER = 1 << 16

SERVICE_SPANS = ("admission", "batch", "execute", "cache")

STOP_TIMEOUT_S = 15.0

#: Seconds to wait for a starting server's first line.
START_TIMEOUT_S = 60.0

#: The load runs in segments of this many seconds with the speed probe
#: timed between them; a request's latency is scaled by the factor of
#: the two probe timings around its segment (see ``SpeedProbe``).
SEGMENT_S = 0.2


class Server:
    """A ``repro.cli serve`` child process, ready once ``health`` is OK."""

    def __init__(self, root: Path, inputs: dict[str, Path], flags: Sequence[str] = ()):
        command = [sys.executable, "-m", "repro.cli", "serve", "--port", "0", *flags]
        for kind, path in inputs.items():
            command += [f"--{kind}", str(path)]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(root / "src"), env.get("PYTHONPATH")) if p
        )
        started = perf_counter()
        self.proc = subprocess.Popen(
            command, cwd=root, env=env, stdout=subprocess.PIPE, text=True
        )
        try:
            ready, _, _ = select.select([self.proc.stdout], [], [], START_TIMEOUT_S)
            line = self.proc.stdout.readline() if ready else ""
            if " on " not in line:
                raise RuntimeError(f"server did not start (first line {line!r})")
            self.port = int(line.rsplit(":", 1)[1])
            with ServiceClient(port=self.port) as client:
                status = client.health()["status"]
            if status != "serving":
                raise RuntimeError(f"server reports {status!r}")
            self.ready_s = perf_counter() - started
        except BaseException:
            self.stop()
            raise

    def stop(self) -> None:
        """Drain and stop (SIGINT); kill if it does not end in time."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


@dataclass
class Request:
    op: str
    #: The select method, or the update action.
    what: Optional[str]
    latency_s: float
    trace_id: str
    #: The protocol error code of a refused request, else None.
    error: Optional[str] = None
    select_changed: Optional[bool] = None
    #: Whether a select was answered from the result cache.
    cached: bool = False
    #: The speed-probe factor of the segment the request ran in.
    scale: float = 1.0

    @property
    def scaled_s(self) -> float:
        return self.latency_s * self.scale


@dataclass
class Connection:
    """The closed-loop caller and the clients it added and kept."""

    rng: random.Random
    #: Where the ``add_client`` updates go, in order (see ``add_points``).
    add_points: Iterator[list[float]]
    log: list[Request] = field(default_factory=list)
    added: dict[int, tuple[float, float]] = field(default_factory=dict)
    #: The client added last, removed by the next update.
    pending: Optional[int] = None
    #: What is left of the current ``REQUEST_BLOCK``, taken from the end.
    planned: list[str] = field(default_factory=list)


def add_points(instance: SpatialInstance, seed: int) -> list[list[float]]:
    """Uniform points for the ``add_client`` updates, in a stratified order.

    An added client changes the answer of every select when it
    influences a site: a site lies strictly inside the circle around
    the client whose radius is its nearest-facility distance.  Then the
    server's select epoch moves and the next select of each method
    misses the cache, which is most of the run time.  Over 50 layouts
    of this size, between 46% and 54% of the domain influences a site;
    but drawn one at a time, the 150 or so adds of a run let the share
    that did swing by a binomial +-4 points, and that moved
    ``requests_per_s`` more than anything else (quartile spread 0.10
    over seeds 801-810; 0.04 with this order).  So ``ADD_POOL`` points are drawn
    uniformly and handed out with the ones that influence a site spread
    evenly through the sequence: every stretch of adds holds the pool's
    share of them, to within one point.
    """
    rng = np.random.default_rng(seed)
    points = rng.uniform(0.0, DOMAIN_SIDE, size=(ADD_POOL, 2))
    facilities = np.array([(f.x, f.y) for f in instance.facilities])
    sites = np.array([(p.x, p.y) for p in instance.potentials])

    def dist(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return np.hypot(a[:, None, 0] - b[None, :, 0], a[:, None, 1] - b[None, :, 1])

    dnn = dist(points, facilities).min(axis=1)
    influences = (dist(points, sites) < dnn[:, None]).any(axis=1)
    inside = points[influences].tolist()
    outside = points[~influences].tolist()
    n, k = ADD_POOL, len(inside)
    return [
        (inside if (i + 1) * k // n > i * k // n else outside).pop() for i in range(n)
    ]


def _next_request(conn: Connection, n_p: int):
    if not conn.planned:
        conn.planned = [slot for slot, count in REQUEST_BLOCK for _ in range(count)]
        conn.rng.shuffle(conn.planned)
    slot = conn.planned.pop()
    if slot == "evaluate":
        return "evaluate", None, {"ids": [conn.rng.randrange(n_p)]}
    if slot == "update" and conn.pending is None:
        point = next(conn.add_points)
        return "update", "add_client", {"action": "add_client", "point": point}
    if slot == "update":
        return "update", "remove_client", {"action": "remove_client", "cid": conn.pending}
    return "select", slot, {"method": slot}


def drive(conn: Connection, client, n_p: int, deadline: float) -> None:
    """Send requests back to back on ``client`` until ``deadline``."""
    while perf_counter() < deadline:
        trace_id = f"pb-{len(conn.log) + 1}"
        op, what, params = _next_request(conn, n_p)
        started = perf_counter()
        try:
            response = client.call(op, trace_id=trace_id, **params)
        except ServiceError as exc:
            elapsed = perf_counter() - started
            conn.log.append(Request(op, what, elapsed, trace_id, exc.code))
            continue
        elapsed = perf_counter() - started
        request = Request(op, what, elapsed, trace_id)
        request.cached = bool(response.get("cached"))
        if op == "update":
            result = response["result"]
            request.select_changed = bool(result.get("select_changed"))
            if what == "add_client":
                conn.pending = int(result["cid"])
                conn.added[conn.pending] = tuple(params["point"])
            else:
                del conn.added[conn.pending]
                conn.pending = None
        conn.log.append(request)


def _load(
    server: Server, instance: SpatialInstance, seed: int, seconds: float, probe: SpeedProbe
):
    """Warm the server, then run the closed loop for ``seconds``.

    Returns the connection and the probe-scaled seconds of load.
    """
    n_p = len(instance.potentials)
    points = cycle(add_points(instance, seed * 1000 + 1))
    conn = Connection(random.Random(seed * 1000), points)
    busy_s = 0.0
    with ServiceClient(port=server.port) as client:
        for method in ZIPF_METHODS:
            client.select(method)
        client.evaluate([0])
        end = perf_counter() + seconds
        before = probe.measure()
        while perf_counter() < end:
            mark = len(conn.log)
            started = perf_counter()
            drive(conn, client, n_p, min(started + SEGMENT_S, end))
            elapsed = perf_counter() - started
            after = probe.measure()
            scale = probe.scale(before, after)
            busy_s += elapsed * scale
            for request in conn.log[mark:]:
                request.scale = scale
            before = after
    return conn, busy_s


def tally(outcome: Outcome, conn: Connection) -> None:
    """Count every request sent; a refused one counts as failed."""
    log = conn.log
    outcome.attempted += len(log)
    outcome.failed += sum(1 for r in log if r.error is not None)


def _served_answers(server: Server) -> dict:
    """One uncached select per method against the server's final state."""
    with ServiceClient(port=server.port) as client:
        return {
            m: selection_from_wire(client.call("select", method=m, no_cache=True)["result"])
            for m in METHODS
        }


def check(outcome: Outcome, instance: SpatialInstance, added: dict, served: dict) -> None:
    """Served answers equal an in-process select over the same clients.

    Clients the load added and kept are appended in id order, which is
    the order the server's workspace holds them in.
    """
    clients = list(instance.clients) + [Point(*added[cid]) for cid in sorted(added)]
    reference = Workspace(
        SpatialInstance(
            "reference", clients, list(instance.facilities), list(instance.potentials)
        )
    )
    for method in METHODS:
        outcome.attempted += 1
        want = make_selector(reference, method).select()
        got = served[method]
        if got.location.sid != want.location.sid or not dr_close(got.dr, want.dr):
            outcome.wrong(
                f"served {method} chose site {got.location.sid} (dr {got.dr!r}); "
                f"in-process {want.location.sid} (dr {want.dr!r})"
            )


def _write_inputs(instance: SpatialInstance, workdir: Path) -> dict[str, Path]:
    workdir.mkdir(parents=True, exist_ok=True)
    inputs = {}
    for kind, points in (
        ("clients", instance.clients),
        ("facilities", instance.facilities),
        ("potentials", instance.potentials),
    ):
        inputs[kind] = workdir / f"{kind}.csv"
        save_points_csv(inputs[kind], points)
    return inputs


def run(
    seed: int,
    seconds: float,
    trace: bool,
    workdir: Path,
    root: Path,
    sizes: Sizes = SIZES_2K,
    instances: int = INSTANCES,
) -> Outcome:
    """Serve ``instances`` instances one after another, each by its own
    server (default configuration) loaded for an equal share of
    ``seconds``.

    With ``trace`` each instance is served twice, for half that share
    each: by a server started with ``--no-telemetry`` (the baseline of
    the tracing overhead) and by one with a trace buffer large enough to
    keep every request's trace.
    """
    outcome = Outcome()
    probe = SpeedProbe()
    configs = [["--no-telemetry"], ["--trace-buffer", str(TRACE_BUFFER)]] if trace else [[]]
    share = seconds / instances / len(configs)
    ready: list[float] = []
    #: Per server configuration, ``(connection, busy seconds, traces)``
    #: of each instance.
    loads: list[list] = [[] for _ in configs]
    for k in range(instances):
        sub_seed = seed * instances + k
        instance = make_instance(sub_seed, sizes)
        inputs = _write_inputs(instance, workdir)
        for flags, runs in zip(configs, loads):
            before = probe.measure()
            server = Server(root, inputs, flags)
            try:
                ready.append(server.ready_s * probe.scale(before, probe.measure()))
                conn, busy_s = _load(server, instance, sub_seed, share, probe)
                traces = {}
                if "--trace-buffer" in flags:
                    with ServiceClient(port=server.port) as client:
                        for t in client.trace(recent=len(conn.log) + 64):
                            traces[t["trace_id"]] = t
                served = _served_answers(server)
            finally:
                server.stop()
            tally(outcome, conn)
            check(outcome, instance, conn.added, served)
            runs.append((conn, busy_s, traces))
    outcome.put("setup_s", median(ready), len(ready))
    outcome.put_layer("service.ready_s", median(ready), len(ready))
    outcome.put("peak_rss_mb", peak_rss_mb(include_children=True), len(ready) + 1)

    outcome.notes.append(
        f"speed probe: median {median(probe.samples) * 1e3:.4g} ms over "
        f"{len(probe.samples)} timings (times are scaled to {probe.REFERENCE_S * 1e3:g} ms)"
    )
    plain = [r for conn, _, _ in loads[0] for r in conn.log if r.error is None]
    # A cached select costs the same for every method, and a rarely
    # asked method misses the cache about 40% of the time, which would
    # put its median on the hit/miss boundary; the per-method latency is
    # therefore that of the selects the server ran.
    for method in METHODS:
        times = [
            r.scaled_s
            for r in plain
            if r.op == "select" and r.what == method and not r.cached
        ]
        outcome.put(f"select_{method.lower()}_s", median(times), len(times))
    latencies = [r.scaled_s for r in plain]
    busy_s = sum(busy for _, busy, _ in loads[0])
    outcome.put("requests_per_s", len(latencies) / busy_s, len(latencies))
    outcome.put("p50_ms", percentile(latencies, 50) * 1e3, len(latencies))
    outcome.put("p99_ms", percentile(latencies, 99) * 1e3, len(latencies))
    if trace:
        _report_layers(outcome, loads, plain)
    return outcome


def _report_layers(outcome: Outcome, loads, plain: list[Request]) -> None:
    spans: dict[str, list[float]] = {name: [] for name in SERVICE_SPANS}
    wire, unattributed, batch_sizes = [], [], []
    hits = lookups = 0
    done = []
    for conn, _, traces in loads[-1]:
        for request in conn.log:
            found = traces.get(request.trace_id)
            if request.error is not None or found is None:
                continue
            done.append(request)
            covered = 0.0
            for span in found["spans"]:
                if span["name"] in spans:
                    spans[span["name"]].append(span["elapsed_s"])
                covered += span["elapsed_s"]
                if span["name"] == "cache":
                    lookups += 1
                    hits += bool(span.get("hit"))
            wire.append(request.latency_s - found["latency_s"])
            unattributed.append(found["latency_s"] - covered)
            if found.get("batch_size") is not None:
                batch_sizes.append(found["batch_size"])
    for name, values in list(spans.items()) + [("wire", wire), ("unattributed", unattributed)]:
        for q in (50, 99):
            outcome.put_layer(
                f"service.{name}_ms.p{q}", percentile(values, q) * 1e3, len(values)
            )
    outcome.put_layer("service.cache_hit_share", hits / lookups if lookups else 0.0, lookups)
    outcome.put_layer(
        "service.batch_size_mean",
        sum(batch_sizes) / len(batch_sizes) if batch_sizes else 0.0,
        len(batch_sizes),
    )
    every = [r for runs in loads for conn, _, _ in runs for r in conn.log]
    outcome.put_layer(
        "service.queue_full", sum(1 for r in every if r.error == E_QUEUE_FULL), len(every)
    )
    updates = [r for r in done if r.op == "update"]
    outcome.put_layer(
        "regions.select_changed_share",
        sum(1 for r in updates if r.select_changed) / len(updates) if updates else 0.0,
        len(updates),
    )
    traced_p50 = percentile([r.scaled_s for r in done], 50)
    plain_p50 = percentile([r.scaled_s for r in plain], 50)
    outcome.put_layer(
        "obs.trace_overhead_share", traced_p50 / plain_p50 - 1.0 if plain_p50 else 0.0, len(done)
    )
