"""SS — the sequential scan baseline (Algorithm 1).

Block-nested-loop over the potential-location file and the client file:
for every potential-location block, the whole client file is scanned and
each client contributes ``max(dnn(c,F) - dist(c,p), 0)`` to every ``p``
in the block.  With precomputed ``dnn`` this needs no index at all, but
reads the client dataset ``n_p / C_m`` times — the I/O cost
``n_p * n_c / C_m^2`` of Table III.

The per-block-pair distance computation goes through
:func:`repro.kernels.scan_reductions`, an exact sparse form of the dense
tile :func:`~repro.kernels.accumulate_reductions`.  A client reduces
only the candidates of its reverse-nearest-neighbour set, about
``n_c / n_f`` of the ``n_p * n_c`` pairs, so the kernel sorts the P block
by x, takes ``hypot`` only inside each client's x-window
``[cx - dnn, cx + dnn]`` and recomputes densely only the rare rows with
three or more hits; the result is bit-identical to the dense tile (see
the kernel's docstring).  This changes constants, not the I/O pattern
or the paper's ``n_p * n_c`` pair count of the scan.

The scan decomposes naturally for the execution engine: one task per
``(P-block, C-block)`` pair.  The driver charges each potential block
once at planning time (the serial loop holds it in memory across the
inner scan); each task re-fetches it for free via ``peek_block`` and
charges only its own client-block read.  Per-``p`` accumulation order
across tasks equals the serial inner-loop order, so the reduced ``dr``
is bit-identical to the serial scan.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro import kernels
from repro.core.base import LocationSelector
from repro.core.plan import StageSpec
from repro.storage.stats import IOStats


class SequentialScan(LocationSelector):
    """The sequential scan (SS) method — no pruning, no index."""

    name = "SS"

    def prepare(self) -> None:
        __ = self.ws.client_file
        __ = self.ws.potential_file

    def index_pages(self) -> int:
        return 0  # SS maintains no index (data files are not indexes).

    # ------------------------------------------------------------------
    # Parallel execution protocol
    # ------------------------------------------------------------------
    def execution_plan(self) -> list[StageSpec]:
        return [
            StageSpec(
                name="ss.scan",
                plan=self._plan_scan,
                kernel="run_scan_task",
                reduce=self._reduce_scan,
            )
        ]

    def _plan_scan(self, stats: IOStats, carry: object = None) -> list[tuple]:
        """One task per (P-block, C-block) pair; charges the P reads."""
        ws = self.ws
        tasks: list[tuple[int, int, int]] = []
        n_c_blocks = ws.client_file.num_blocks
        offset = 0
        for p_id in range(ws.potential_file.num_blocks):
            p_block = ws.potential_file.read_block(p_id, stats=stats)
            stats.tracer.count("potential_blocks")
            for c_id in range(n_c_blocks):
                tasks.append((p_id, offset, c_id))
            offset += len(p_block)
        return tasks

    def run_scan_task(
        self, task: tuple[int, int, int], stats: IOStats
    ) -> tuple[int, np.ndarray]:
        """One (P-block, C-block) pairwise evaluation (Algorithm 1 core)."""
        p_id, offset, c_id = task
        ws = self.ws
        p_block = ws.potential_file.peek_block(p_id)  # charged at planning
        px = p_block[:, 0]
        py = p_block[:, 1]
        with stats.tracer.span("ss.client_pass") as sp:
            c_block = ws.client_file.read_block(c_id, stats=stats)
            sp.count("client_blocks")
            # (block of P) x (block of C) weighted clipped reductions.
            acc = kernels.scan_reductions(
                px, py, c_block[:, 0], c_block[:, 1], c_block[:, 2], c_block[:, 3]
            )
        return offset, acc

    def _reduce_scan(
        self, outs: list[tuple[int, np.ndarray]], dr: np.ndarray
    ) -> Optional[object]:
        for offset, acc in outs:
            dr[offset : offset + len(acc)] += acc
        return None

    # ------------------------------------------------------------------
    def _compute_distance_reductions(self) -> np.ndarray:
        """The serial path: the same plan/kernel/reduce, run inline."""
        ws = self.ws
        stats = ws.stats
        dr = np.zeros(ws.n_p, dtype=np.float64)
        # Phases: reads of file.P land on "ss.scan" (charged while
        # planning); each (P-block, C-block) evaluation opens its own
        # "ss.client_pass" child span carrying the file.C read.
        with stats.tracer.span("ss.scan"):
            tasks = self._plan_scan(stats)
            outs = [self.run_scan_task(task, stats) for task in tasks]
            self._reduce_scan(outs, dr)
        return dr
