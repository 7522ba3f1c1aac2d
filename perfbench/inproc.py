"""The in-process workloads: ``query-100k``, ``disk-100k``, ``churn-100k``.

All three share one data shape (the scale suite's 100K rung: 100,000
uniform clients, 2,000 facilities, 400 potential sites) and one round
structure: optional writes, then one select per method.  They differ in
what sits under the selects:

* ``query`` — an in-memory :class:`Workspace`; every select starts from
  an empty decoded-leaf cache, so it pays kernels, joins and decode;
* ``disk`` — the same data persisted with :func:`persist_indexes` and
  reopened as a :class:`DiskWorkspace` (both at their defaults) at the
  start of every round, so pages come from files and are decoded;
* ``churn`` — a :class:`DynamicWorkspace` with every index built; each
  round applies a block of mutations, then selects against the trees
  the writes just changed (only the dirtied leaves are decoded again).

Layers are timed from outside: setup steps by timing the first access
of each lazy attribute, read-path phases by attaching a
:class:`repro.obs.Tracer` around one select and taking span self-times.
"""

from __future__ import annotations

import gc
import random
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Optional

import numpy as np

from repro.churn import verify_parity
from repro.core import DynamicWorkspace, Workspace, make_selector
from repro.core.diskmode import DiskWorkspace, persist_indexes
from repro.obs import InMemorySink, Tracer

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

SIZES_100K = Sizes(n_c=100_000, n_f=2_000, n_p=400)

#: Setups per run; ``setup_s`` is their median.  The measured time runs
#: in as many stretches of at least one round each (see ``run``), so a
#: traced run, whose rounds take several seconds, still has this many
#: traced rounds, interleaved with untraced ones.
SETUPS = 3

#: One churn round's writes: exact counts (40% add_client, 20%
#: remove_client, 25% add_facility, 15% remove_facility), shuffled by
#: the seeded stream.  Fixed counts keep the per-operation latency
#: percentiles from shifting with how a seed happens to draw the mix.
MUTATION_BLOCK = (
    ("add_client", 16),
    ("remove_client", 8),
    ("add_facility", 10),
    ("remove_facility", 6),
)

#: ``remove_client`` picks one of the most recently added clients:
#: short-lived clients leave first, and its cost (which grows with the
#: client's position in the workspace) does not swing with the draw.
RECENT_CLIENTS = 64

#: Lazy structures built by setup, each timed on first access.  The
#: data bounds are QVC's clipping domain: left lazy, their Python pass
#: over every point would land in the first QVC select of a workspace.
BUILD_STEPS = (
    ("data_bounds", "core.data_bounds_s"),
    ("client_file", "storage.build.client_file_s"),
    ("potential_file", "storage.build.potential_file_s"),
    ("r_c", "rtree.build.r_c_s"),
    ("r_f", "rtree.build.r_f_s"),
    ("r_p", "rtree.build.r_p_s"),
    ("rnn_tree", "rtree.build.rnn_tree_s"),
    ("mnd_tree", "rtree.build.mnd_tree_s"),
)

#: The phase spans each method opens inside its ``query.<M>`` root.
PHASES = {
    "SS": ("scan", "client_pass"),
    "QVC": ("air", "window", "blocks"),
    "NFC": ("join", "leaf_eval"),
    "MND": ("join", "leaf_eval"),
}


@dataclass
class Select:
    """One timed select and what it read."""

    method: str
    #: Wall time in probe-scaled seconds (see ``SpeedProbe``).
    wall_s: float
    sid: int
    dr: float
    io_total: int
    index_reads: int
    leaf_misses: int
    dr_vector: np.ndarray
    #: Scaled span self-times by phase (traced selects only).
    phases: Optional[dict[str, float]] = None


@dataclass
class Round:
    """One round's selects: ``colds`` always; in a traced round, per
    method also a ``warms`` repeat and a ``traced`` select (cold on
    query and disk, warm on churn, where only writes can make it cold)."""

    colds: list[Select] = field(default_factory=list)
    warms: list[Select] = field(default_factory=list)
    traced: list[Select] = field(default_factory=list)
    #: ``(kind, scaled seconds, select_epoch_advanced)`` per mutation.
    mutations: list[tuple[str, float, bool]] = field(default_factory=list)


def timed_select(ws, method: str, probe: SpeedProbe, traced: bool = False) -> Select:
    """One select, timed from the call to the returned result."""
    sink = InMemorySink() if traced else None
    if sink is not None:
        ws.attach_tracer(Tracer([sink]))
    misses = ws.leaf_cache.misses
    before = probe.measure()
    started = perf_counter()
    selector = make_selector(ws, method)
    result = selector.select()
    wall = perf_counter() - started
    exponent = probe.SCAN_EXPONENT if method == "SS" else 1.0
    scale = probe.scale(before, probe.measure(), exponent)
    if sink is not None:
        ws.detach_tracer()
    phases = None
    if sink is not None:
        phases = {}
        for span in sink.last.walk():
            if span is not sink.last:
                phases[span.name] = phases.get(span.name, 0.0) + span.self_s * scale
    return Select(
        method=method,
        wall_s=wall * scale,
        sid=result.location.sid,
        dr=result.dr,
        io_total=result.io_total,
        index_reads=sum(
            n for source, n in result.io_reads.items() if source.startswith("R_")
        ),
        leaf_misses=ws.leaf_cache.misses - misses,
        dr_vector=selector.distance_reductions(),
        phases=phases,
    )


# ----------------------------------------------------------------------
# Setup
# ----------------------------------------------------------------------
def _build(cls, instance) -> tuple[Workspace, dict[str, float]]:
    steps = {}
    started = perf_counter()
    ws = cls(instance)
    steps["core.init_s"] = perf_counter() - started
    for attr, layer in BUILD_STEPS:
        started = perf_counter()
        getattr(ws, attr)
        steps[layer] = perf_counter() - started
    return ws, steps


def _setup_query(instance, workdir: Path):
    return _build(Workspace, instance)


def _setup_churn(instance, workdir: Path):
    ws, steps = _build(DynamicWorkspace, instance)
    started = perf_counter()
    ws.maintainer  # the incremental NN-join grid every write goes through
    steps["knnjoin.maintainer_s"] = perf_counter() - started
    return ws, steps


def _setup_disk(instance, workdir: Path):
    ws, steps = _build(Workspace, instance)
    started = perf_counter()
    indexes = persist_indexes(ws, workdir)
    steps["storage.persist_s"] = perf_counter() - started
    started = perf_counter()
    DiskWorkspace(indexes).close()
    steps["storage.open_s"] = perf_counter() - started
    return (ws, indexes), steps


_SETUPS = {"query": _setup_query, "disk": _setup_disk, "churn": _setup_churn}


# ----------------------------------------------------------------------
# Rounds
# ----------------------------------------------------------------------
def _mutate(ws: DynamicWorkspace, rng: random.Random, probe: SpeedProbe) -> list:
    kinds = [kind for kind, count in MUTATION_BLOCK for _ in range(count)]
    rng.shuffle(kinds)
    applied = []
    before = probe.measure()
    for kind in kinds:
        if kind == "add_client" or kind == "add_facility":
            arg = (rng.uniform(0.0, DOMAIN_SIDE), rng.uniform(0.0, DOMAIN_SIDE))
        elif kind == "remove_client":
            arg = ws.clients[ws.n_c - 1 - rng.randrange(min(ws.n_c, RECENT_CLIENTS))]
        else:
            arg = ws.facilities[rng.randrange(ws.n_f)]
        epoch = ws.region_clock.select_epoch
        started = perf_counter()
        getattr(ws, kind)(arg)
        elapsed = perf_counter() - started
        applied.append((kind, elapsed, ws.region_clock.select_epoch != epoch))
    scale = probe.scale(before, probe.measure())
    return [(kind, elapsed * scale, changed) for kind, elapsed, changed in applied]


class _Runner:
    """Runs rounds of one workload against its current set-up subject."""

    def __init__(self, kind: str, seed: int, probe: SpeedProbe):
        self.kind = kind
        self.subject = None
        self.stream = random.Random(seed)
        self.probe = probe

    def round(self, traced: bool, writes: bool = True) -> Round:
        out = Round()
        ws = DiskWorkspace(self.subject) if self.kind == "disk" else self.subject
        try:
            if self.kind == "churn" and writes:
                out.mutations = _mutate(ws, self.stream, self.probe)
            for method in METHODS:
                if self.kind != "churn":
                    ws.invalidate_leaf_cache()
                out.colds.append(timed_select(ws, method, self.probe))
                if traced:
                    out.warms.append(timed_select(ws, method, self.probe))
                    if self.kind != "churn":
                        ws.invalidate_leaf_cache()
                    out.traced.append(timed_select(ws, method, self.probe, traced=True))
        finally:
            if self.kind == "disk":
                ws.close()
        return out

    def loop(self, seconds: float, traced: bool) -> list[Round]:
        """Rounds until ``seconds`` have passed (at least one)."""
        rounds: list[Round] = []
        started = perf_counter()
        while not rounds or perf_counter() - started < seconds:
            rounds.append(self.round(traced))
        return rounds


# ----------------------------------------------------------------------
# Checks
# ----------------------------------------------------------------------
def _check_agreement(outcome: Outcome, selects: list[Select]) -> None:
    """All four methods answer one question: same p*, dr within 1e-9."""
    first = selects[0] if selects else None
    for sel in selects[1:]:
        if sel.sid != first.sid or not dr_close(sel.dr, first.dr):
            outcome.wrong(
                f"{sel.method} chose site {sel.sid} (dr {sel.dr!r}) but "
                f"{first.method} chose {first.sid} (dr {first.dr!r})"
            )


def _check_rounds(
    outcome: Outcome, rounds: list[Round], reference: Optional[dict], exact: bool
):
    """Count every operation of ``rounds`` and check every select: the
    methods agree, and (without writes) each repeats ``reference``."""
    for rnd in rounds:
        outcome.attempted += len(rnd.mutations)
        for selects in (rnd.colds, rnd.warms, rnd.traced):
            outcome.attempted += len(selects)
            _check_agreement(outcome, selects)
            if reference is not None:
                _check_reference(outcome, selects, reference, exact)


def _check_reference(outcome: Outcome, selects: list[Select], reference: dict, exact: bool):
    """Each select repeats the reference answer and its page count.

    ``exact`` (the disk workload) also requires the identical ``dr``
    value and vector: the files hold the same bytes as memory.
    """
    for sel in selects:
        ref = reference[sel.method]
        same = sel.sid == ref.sid and sel.io_total == ref.io_total
        if exact:
            same = same and sel.dr == ref.dr
            same = same and np.array_equal(sel.dr_vector, ref.dr_vector)
        else:
            same = same and dr_close(sel.dr, ref.dr)
        if not same:
            outcome.wrong(
                f"{sel.method}: site {sel.sid}, dr {sel.dr!r}, "
                f"io_total {sel.io_total} differ from the reference "
                f"site {ref.sid}, dr {ref.dr!r}, io_total {ref.io_total}"
            )


# ----------------------------------------------------------------------
# The workload
# ----------------------------------------------------------------------
def run(
    kind: str,
    seed: int,
    seconds: float,
    trace: bool,
    workdir: Path,
    sizes: Sizes = SIZES_100K,
    setups: int = SETUPS,
) -> Outcome:
    """Set up ``setups`` times, each time with no other workspace alive,
    and measure rounds for ``seconds`` in ``setups`` equal stretches.

    On query and disk each setup builds its own instance from the seed,
    and one stretch runs right after it on that instance, so a run's
    medians span ``setups`` layouts: QVC's page count, and with it its
    time, moves by 10% and more from one layout to the next.  On churn
    every setup builds the same instance and all stretches run on the
    last one, so a run applies one stream of writes, which one parity
    check compares with a rebuild.  With ``trace`` each stretch is half
    untraced and half traced, so the run can also report the tracing
    overhead.
    """
    outcome = Outcome()
    probe = SpeedProbe()
    runner = _Runner(kind, seed, probe)
    layouts = 1 if kind == "churn" else setups
    share = seconds / setups / (2 if trace else 1)
    totals: list[float] = []
    steps: dict[str, list[float]] = {}
    plain: list[Round] = []
    traced: list[Round] = []
    for k in range(setups):
        runner.subject = None
        gc.collect()
        instance = make_instance(seed * layouts + k % layouts, sizes)
        before = probe.measure()
        started = perf_counter()
        runner.subject, taken = _SETUPS[kind](instance, workdir / "indexes")
        elapsed = perf_counter() - started
        scale = probe.scale(before, probe.measure())
        totals.append(elapsed * scale)
        for name, value in taken.items():
            steps.setdefault(name, []).append(value * scale)
        if k < setups - layouts:
            continue
        reference = None
        if kind == "disk":
            memory_ws, runner.subject = runner.subject
            reference = {m: timed_select(memory_ws, m, probe) for m in METHODS}
            del memory_ws
        gc.collect()
        if not plain:
            # An untimed round keeps first-call costs out of the loop; on
            # churn it also fills the leaf cache, so selects after writes
            # decode only the leaves the writes dirtied.
            warmup = runner.round(traced=False, writes=False)
            _check_agreement(outcome, warmup.colds)
            if kind == "disk":
                _check_reference(outcome, warmup.colds, reference, exact=True)
        new_plain: list[Round] = []
        new_traced: list[Round] = []
        for _ in range(setups // layouts):
            new_plain += runner.loop(share, traced=False)
            if trace:
                new_traced += runner.loop(share, traced=True)
        if kind == "query":
            reference = {sel.method: sel for sel in new_plain[0].colds}
        _check_rounds(outcome, new_plain + new_traced, reference, exact=kind == "disk")
        plain += new_plain
        traced += new_traced
    # Before the parity check builds its rebuild twin.
    outcome.put("peak_rss_mb", peak_rss_mb(), 1)
    if kind == "churn":
        # The whole stream of writes against a rebuild, untimed.
        outcome.attempted += 1
        try:
            verify_parity(runner.subject)
        except AssertionError as exc:
            outcome.wrong(str(exc))
    outcome.notes.append(
        f"speed probe: median {median(probe.samples) * 1e3:.4g} ms over "
        f"{len(probe.samples)} timings (times are scaled to {probe.REFERENCE_S * 1e3:g} ms)"
    )
    outcome.put("setup_s", median(totals), len(totals))
    for name, values in steps.items():
        outcome.put_layer(name, median(values), len(values))

    _report(outcome, plain, traced, churn=kind == "churn")
    return outcome


def _report(outcome: Outcome, plain: list[Round], traced: list[Round], churn: bool):
    colds = {m: [s.wall_s for r in plain for s in r.colds if s.method == m] for m in METHODS}
    for method in METHODS:
        outcome.put(f"select_{method.lower()}_s", median(colds[method]), len(colds[method]))
    ops = [s.wall_s for r in plain for s in r.colds]
    ops += [t for r in plain for _, t, _ in r.mutations]
    outcome.put("requests_per_s", len(ops) / sum(ops), len(ops))
    # Percentiles of a dozen operations of four very different costs
    # land on the edge of one method's group (p50) or on the single
    # slowest select (p99); over the rounds they describe one latency.
    rounds = [sum(s.wall_s for s in r.colds) + sum(t for _, t, _ in r.mutations) for r in plain]
    outcome.put("p50_ms", percentile(rounds, 50) * 1e3, len(rounds))
    outcome.put("p99_ms", percentile(rounds, 99) * 1e3, len(rounds))
    if not traced:
        return

    # Counts come from the first measured round, which every run of a
    # seed executes identically, so they repeat exactly.
    for sel in plain[0].colds:
        m = sel.method.lower()
        outcome.put_layer(f"storage.io_total.{m}", sel.io_total, 1)
        outcome.put_layer(f"storage.index_reads.{m}", sel.index_reads, 1)
        outcome.put_layer(f"storage.leaf_misses.{m}", sel.leaf_misses, 1)
    first = plain[0].mutations
    if first:
        changed = sum(1 for _, _, advanced in first if advanced)
        outcome.put_layer("regions.select_changed_share", changed / len(first), len(first))

    # Decode is a cold select minus the warm repeat right after it; the
    # tracing overhead compares traced selects with untraced ones of
    # the same cache state.
    overhead_traced = overhead_plain = 0.0
    for method in METHODS:
        m = method.lower()
        pairs = [
            (c, w, t)
            for r in traced
            for c, w, t in zip(r.colds, r.warms, r.traced)
            if c.method == method
        ]
        spans = [t for _, _, t in pairs]
        for phase in PHASES[method]:
            name = f"{m}.{phase}"
            values = [s.phases.get(name, 0.0) for s in spans]
            outcome.put_layer(f"core.{name}_s", median(values), len(values))
        unattributed = [s.wall_s - sum(s.phases.values()) for s in spans]
        outcome.put_layer(f"core.{m}.unattributed_s", median(unattributed), len(spans))
        decode = [c.wall_s - w.wall_s for c, w, _ in pairs]
        outcome.put_layer(f"storage.decode.{m}_s", median(decode), len(decode))
        same_state = [w if churn else c for c, w, _ in pairs]
        overhead_traced += median([s.wall_s for s in spans])
        overhead_plain += median([s.wall_s for s in same_state])
    outcome.put_layer(
        "obs.trace_overhead_share", overhead_traced / overhead_plain - 1.0, len(traced)
    )

    writes = [w for r in plain + traced for w in r.mutations]
    if writes:
        for kind, _ in MUTATION_BLOCK:
            times = [t for k, t, _ in writes if k == kind]
            outcome.put_layer(f"core.{kind}_ms", median(times) * 1e3, len(times))
            outcome.put_layer(f"core.{kind}_n", len(times), len(times))
        plain_writes = [t for r in plain for _, t, _ in r.mutations]
        outcome.put_layer(
            "core.mutations_per_s", len(plain_writes) / sum(plain_writes), len(plain_writes)
        )
