"""Shared plumbing of the benchmark: inputs, statistics and the run outcome.

Every workload module builds its inputs with :func:`make_instance` from
the run's seed, measures from outside the program (``perf_counter``
around calls into public functions) and fills one :class:`Outcome`.
"""

from __future__ import annotations

import math
import resource
import statistics
from dataclasses import dataclass, field
from time import perf_counter
from typing import Iterable, Sequence

import numpy as np

from repro.datasets.generators import SpatialInstance
from repro.geometry.point import Point

#: The four query methods, in the order every round runs them.
METHODS = ("SS", "QVC", "NFC", "MND")

#: Relative tolerance on ``dr`` between methods and between a
#: maintained workspace and a rebuild: partial sums regrouped across
#: different leaf groupings wobble in the last few ulps only.
DR_RTOL = 1e-9

#: The paper's space domain is 1000 x 1000; every workload is uniform.
DOMAIN_SIDE = 1000.0


@dataclass(frozen=True)
class Sizes:
    """Dataset sizes of one workload: clients, facilities, sites."""

    n_c: int
    n_f: int
    n_p: int


def make_instance(seed: int, sizes: Sizes) -> SpatialInstance:
    """Uniform clients, facilities and potential sites drawn from ``seed``."""
    rng = np.random.default_rng(seed)

    def points(n: int) -> list[Point]:
        xy = rng.uniform(0.0, DOMAIN_SIDE, size=(n, 2))
        return [Point(float(x), float(y)) for x, y in xy]

    return SpatialInstance(
        name=f"perfbench(seed={seed})",
        clients=points(sizes.n_c),
        facilities=points(sizes.n_f),
        potentials=points(sizes.n_p),
    )


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


def percentile(values: Iterable[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100) of ``values``."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return float(ordered[rank - 1])


def dr_close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=DR_RTOL, abs_tol=DR_RTOL)


def peak_rss_mb(include_children: bool = False) -> float:
    """Peak resident set size so far, in MiB (Linux reports KiB).

    With ``include_children`` the largest waited-for child is added, so
    a server process counts once it has been stopped and reaped.
    """
    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if include_children:
        kib += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return kib / 1024.0


class SpeedProbe:
    """A fixed piece of work, independent of the program, that measures
    how fast the machine runs during one benchmark run.

    On a shared host the speed of one core drifts by tens of percent
    over seconds as other tenants load the caches and memory bus; that
    drift is larger than the differences between commits.  So the probe
    is timed right before and after every select, block of writes and
    setup, and that sample is reported scaled by ``REFERENCE_S`` over the
    mean of the two probe times: seconds at the speed the probe had on
    the reference machine (a 2-vCPU Xeon VM, where it takes about 8 ms).
    The probe mixes, in about equal parts, the three kinds of work the
    program does: an interpreter loop, many small numpy calls (the leaf
    kernels) and a block kernel (the scan).
    """

    REFERENCE_S = 0.008

    #: How strongly the time of a scan over 100K clients follows the
    #: probe: the scan is bound by memory, which drifts less than the
    #: interpreter.  Fitting, over the ten runs of one workload, the log
    #: of a run's raw median select time against the log of its median
    #: probe time gave, in nine such fits (three ten-seed sets of the
    #: three in-process workloads), a median slope of 0.70 for SS and
    #: of 1.03 for QVC, NFC and MND.  Scaled by the full factor, a slow
    #: spell made SS look fast, and SS had the widest ten-seed spread of
    #: any metric (0.19 on churn-100k).
    SCAN_EXPONENT = 0.7

    def __init__(self) -> None:
        self.samples: list[float] = []
        rng = np.random.default_rng(0)
        self._pairs = [tuple(p) for p in rng.random((10_000, 2)).tolist()]
        self._leaves = [rng.random((3, 60)) for _ in range(360)]
        self._sites = rng.random((2, 200))
        self._clients = rng.random((3, 146))

    def measure(self) -> float:
        """Seconds the fixed work takes right now."""
        started = perf_counter()
        total = 0.0
        for x, y in self._pairs:
            total += (x * x + y * y) ** 0.5
        counts: dict[int, int] = {}
        for i in range(10_000):
            counts[i % 977] = counts.get(i % 977, 0) + i
        for leaf in self._leaves:
            d = np.hypot(leaf[0] - 0.5, leaf[1] - 0.5)
            total += float(np.maximum(leaf[2] - d, 0.0).sum())
        sx, sy = self._sites
        cx, cy, cr = self._clients
        for _ in range(3):
            d = np.hypot(sx[:, None] - cx[None, :], sy[:, None] - cy[None, :])
            total += float(np.maximum(cr[None, :] - d, 0.0).sum())
        elapsed = perf_counter() - started
        self.samples.append(elapsed)
        return elapsed

    def scale(self, before: float, after: float, exponent: float = 1.0) -> float:
        """The factor for a sample taken between two probe timings, for
        work whose time follows the probe's to the power ``exponent``."""
        return (2.0 * self.REFERENCE_S / (before + after)) ** exponent


@dataclass
class Outcome:
    """What one run measured and whether every answer was right.

    ``e2e`` and ``layers`` map a metric name to ``(value, samples)``.
    ``failed`` counts refused requests and wrong answers; only a wrong
    answer (recorded with :meth:`wrong`) makes the run incorrect.
    """

    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    #: Lines printed with the ledger (how the numbers were taken).
    notes: list[str] = field(default_factory=list)
    e2e: dict[str, tuple[float, int]] = field(default_factory=dict)
    layers: dict[str, tuple[float, int]] = field(default_factory=dict)

    @property
    def correct(self) -> bool:
        return not self.errors

    def wrong(self, message: str, ops: int = 1) -> None:
        self.failed += ops
        self.errors.append(message)

    def put(self, name: str, value: float, samples: int) -> None:
        self.e2e[name] = (float(value), int(samples))

    def put_layer(self, name: str, value: float, samples: int) -> None:
        self.layers[name] = (float(value), int(samples))
