"""Dynamic workspace updates — incremental-first.

Section VI motivates the MND method with dynamic environments: "In
dynamic environments, insertions and deletions on data occur
frequently.  Maintaining two indexes on the dataset C makes database
management ... more complicated".  ``DynamicWorkspace`` extends
:class:`~repro.core.workspace.Workspace` with live updates that keep
every materialised structure consistent **in place**:

* **client arrival/departure** — the ``dnn`` comes from one grid NN
  lookup (:class:`~repro.knnjoin.incremental.DnnMaintainer`), the dense
  arrays gain/lose one row, and the point enters/leaves ``R_C``, the
  RNN-tree (with its NFC square) and the MND tree (whose augmentation
  is maintained by the tree's own hooks);
* **facility opening/closing** — the maintainer finds the affected
  clients with one vectorised pass; exactly those clients' NFCs move:
  they are deleted and reinserted in the RNN- and MND-trees with their
  new radii (exact MBR tightening via the trees' refresh hooks), their
  ``dnn`` column updates in place, and ``R_F`` gains/loses one entry —
  no structure is rebuilt.

Every distance uses the grid join's ``sqrt(dx*dx + dy*dy)`` formula,
so the maintained state is **bit-identical** to a from-scratch rebuild
after any mutation stream (the ``repro.churn`` parity twin asserts
this).  Facility ids are minted by a counter and never reused — a
closure leaves a hole instead of renumbering, which is what lets
``R_F`` shed one entry instead of being dropped wholesale.

Each mutation also publishes its **affected region** — the union of
the old and new NFC bounding boxes of every client whose state changed
— to the workspace :class:`~repro.core.regions.RegionClock`, which
bumps the ``select``/``evaluate`` sub-epochs only when the region can
actually change those answers.  Version-keyed result caches key on the
sub-epochs, so spatially disjoint mutations leave them warm.

Flat files are still rebuilt lazily (they are scan structures;
rebuilding is exactly what a real system's extent map does on append);
``data_bounds`` is maintained incrementally and re-derived only when a
boundary point departs.

The mutators are the validation boundary for inserted data: points
must be finite and client weights finite and non-negative, checked
before any state changes.  The sparse ``dr`` kernels of
:mod:`repro.kernels` equal the dense tile only on such inputs (a NaN
weight poisons every row of a dense tile, but only the rows within
reach of a sparse one).
"""

from __future__ import annotations

import math
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

from repro.core.regions import RegionClock, region_covers_any
from repro.core.types import Client, Site
from repro.core.workspace import Workspace
from repro.geometry.circle import Circle
from repro.geometry.point import Point
from repro.geometry.rect import Rect
from repro.knnjoin.incremental import DnnMaintainer
from repro.rtree.mnd_tree import MNDTree
from repro.rtree.rtree import RTree


def _finite_point(point: Point | tuple[float, float], kind: str) -> Point:
    p = Point(*point)
    if not (math.isfinite(p.x) and math.isfinite(p.y)):
        raise ValueError(f"{kind} coordinates must be finite, got {tuple(p)!r}")
    return p


class DynamicWorkspace(Workspace):
    """A workspace supporting incremental client and facility updates."""

    # Structures rebuilt lazily after a mutation that touches them
    # (cheap scans; the dense arrays and trees update in place).
    _LAZY = ("client_file", "potential_file", "data_bounds")

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        #: Mutation clock with answer-scoped sub-epochs; caches key on
        #: :meth:`RegionClock.version_for` instead of ``data_version``.
        self.region_clock = RegionClock()

    # ------------------------------------------------------------------
    # Incremental maintenance plumbing
    # ------------------------------------------------------------------
    @property
    def maintainer(self) -> DnnMaintainer:
        """The lazily-built incremental NN-join engine, seeded from the
        workspace's current state (so precomputed ``dnn`` vectors — e.g.
        shard tiles — are honoured bit-for-bit)."""
        m = self.__dict__.get("_dnn_maintainer")
        if m is None:
            m = DnnMaintainer(
                [Point(c.x, c.y) for c in self.clients],
                [Point(f.x, f.y) for f in self.facilities],
                dnn=self.client_xyd[:, 2],
            )
            self.__dict__["_dnn_maintainer"] = m
        return m

    def _invalidate(self, *names: str) -> None:
        """Drop lazily-rebuilt structures (flat files / bounds)."""
        for name in names:
            self.__dict__.pop(name, None)

    def _note_mutation(
        self, region: Optional[Rect], *, client_state_changed: bool
    ) -> None:
        """Publish one mutation: bump ``data_version`` (every mutation,
        the legacy contract) and advance the region clock's sub-epochs
        by what the mutation can actually affect."""
        self.data_version += 1
        affects_select = region is not None and region_covers_any(
            region, self.potential_xy
        )
        self.region_clock.advance(
            region,
            affects_select=affects_select,
            affects_evaluate=client_state_changed,
        )

    def _grow_bounds(self, p: Point) -> None:
        """Keep a materialised ``data_bounds`` exact under insertion."""
        bounds = self.__dict__.get("data_bounds")
        if bounds is not None:
            self.__dict__["data_bounds"] = bounds.union_point(p)

    def _shrink_bounds(self, x: float, y: float) -> None:
        """Re-derive ``data_bounds`` lazily only when a boundary point
        departs (an interior removal cannot move the MBR)."""
        bounds = self.__dict__.get("data_bounds")
        if bounds is not None and (
            x in (bounds.xmin, bounds.xmax) or y in (bounds.ymin, bounds.ymax)
        ):
            del self.__dict__["data_bounds"]

    # ------------------------------------------------------------------
    # Trees: bind the scoped leaf cache on construction
    # ------------------------------------------------------------------
    @cached_property
    def r_c(self) -> RTree:
        tree = Workspace.r_c.func(self)
        tree.bind_leaf_cache(self.leaf_cache)
        return tree

    @cached_property
    def r_f(self) -> RTree:
        tree = Workspace.r_f.func(self)
        tree.bind_leaf_cache(self.leaf_cache)
        return tree

    @cached_property
    def rnn_tree(self) -> RTree:
        tree = Workspace.rnn_tree.func(self)
        tree.bind_leaf_cache(self.leaf_cache)
        return tree

    @cached_property
    def mnd_tree(self) -> MNDTree:
        tree = Workspace.mnd_tree.func(self)
        tree.bind_leaf_cache(self.leaf_cache)
        return tree

    # ------------------------------------------------------------------
    # Client updates
    # ------------------------------------------------------------------
    def _take_client_id(self) -> int:
        """A fresh, never-reused client id (removals leave holes)."""
        counter = self.__dict__.get("_cid_counter")
        if counter is None:
            counter = max((c.cid for c in self.clients), default=-1) + 1
        self.__dict__["_cid_counter"] = counter + 1
        return counter

    def add_client(
        self, point: Point | tuple[float, float], weight: float = 1.0
    ) -> Client:
        """A new client arrives; returns its record (with fresh dnn)."""
        p = _finite_point(point, "client")
        if not (math.isfinite(weight) and weight >= 0):
            raise ValueError(
                f"client weights must be finite and non-negative, got {weight!r}"
            )
        dnn = self.maintainer.add_client(p)
        client = Client(self._take_client_id(), p[0], p[1], dnn, weight)
        self.clients.append(client)
        if self.instance.client_weights is None and weight != 1.0:
            # The instance's implicit all-ones weights become explicit the
            # first time a weighted client arrives, so a from-scratch
            # rebuild over the instance reproduces this workspace exactly.
            self.instance.client_weights = [1.0] * len(self.instance.clients)
        self.instance.clients.append(p)
        if self.instance.client_weights is not None:
            self.instance.client_weights.append(float(weight))
        self.client_xyd = np.vstack(
            [self.client_xyd, np.array([[p[0], p[1], dnn]], dtype=np.float64)]
        )
        self.client_w = np.append(self.client_w, float(weight))
        self._invalidate("client_file")
        self._grow_bounds(p)

        point_rect = Rect.from_point(p)
        nfc_mbr = Circle(p, dnn).mbr()
        if "r_c" in self.__dict__:
            self.r_c.insert(point_rect, client)
        if "rnn_tree" in self.__dict__:
            self.rnn_tree.insert(nfc_mbr, client)
        if "mnd_tree" in self.__dict__:
            self.mnd_tree.insert(point_rect, client)
        self._note_mutation(nfc_mbr, client_state_changed=True)
        return client

    def remove_client(self, client: Client) -> None:
        """A client departs; all client structures drop it."""
        try:
            index = self.clients.index(client)
        except ValueError:
            raise ValueError(f"unknown client {client!r}") from None
        self.maintainer.remove_client(index)
        del self.clients[index]
        del self.instance.clients[index]
        if self.instance.client_weights is not None:
            del self.instance.client_weights[index]
        self.client_xyd = np.delete(self.client_xyd, index, axis=0)
        self.client_w = np.delete(self.client_w, index)
        self._invalidate("client_file")
        self._shrink_bounds(client.x, client.y)

        point_rect = Rect(client.x, client.y, client.x, client.y)
        nfc_mbr = Circle(Point(client.x, client.y), client.dnn).mbr()
        if "r_c" in self.__dict__:
            assert self.r_c.delete(point_rect, client)
        if "rnn_tree" in self.__dict__:
            assert self.rnn_tree.delete(nfc_mbr, client)
        if "mnd_tree" in self.__dict__:
            assert self.mnd_tree.delete(point_rect, client)
        self._note_mutation(nfc_mbr, client_state_changed=True)

    # ------------------------------------------------------------------
    # Facility updates
    # ------------------------------------------------------------------
    def _take_facility_id(self) -> int:
        """A fresh, never-reused facility id (closures leave holes, so
        ``R_F`` entries stay valid and shed incrementally)."""
        counter = self.__dict__.get("_sid_counter")
        if counter is None:
            counter = max((f.sid for f in self.facilities), default=-1) + 1
        self.__dict__["_sid_counter"] = counter + 1
        return counter

    def add_facility(self, point: Point | tuple[float, float]) -> Site:
        """A facility opens: affected clients' dnn (and NFCs) shrink."""
        p = _finite_point(point, "facility")
        # Materialise the maintainer from the *pre-mutation* facility
        # set before the lists change underneath its lazy constructor.
        maintainer = self.maintainer
        site = Site(self._take_facility_id(), p[0], p[1])
        self.facilities.append(site)
        self.instance.facilities.append(p)
        self._grow_bounds(p)
        if "r_f" in self.__dict__:
            self.r_f.insert(Rect.from_point(p), site)

        indices, old_dnn, new_dnn = maintainer.open_facility(p)
        region = self._apply_dnn_changes(indices, old_dnn, new_dnn)
        self._note_mutation(region, client_state_changed=len(indices) > 0)
        return site

    def remove_facility(self, site: Site) -> None:
        """A facility closes: its clients fall back to the runner-up."""
        if len(self.facilities) <= 1:
            raise ValueError("cannot remove the last facility")
        try:
            index = self.facilities.index(site)
        except ValueError:
            raise ValueError(f"unknown facility {site!r}") from None
        maintainer = self.maintainer  # build from pre-mutation state
        del self.facilities[index]
        del self.instance.facilities[index]
        if "r_f" in self.__dict__:
            assert self.r_f.delete(Rect(site.x, site.y, site.x, site.y), site)
        self._shrink_bounds(site.x, site.y)

        indices, old_dnn, new_dnn = maintainer.close_facility(
            Point(site.x, site.y)
        )
        region = self._apply_dnn_changes(indices, old_dnn, new_dnn)
        self._note_mutation(region, client_state_changed=len(indices) > 0)

    def _apply_dnn_changes(
        self,
        indices: Sequence[int],
        old_dnn: Sequence[float],
        new_dnn: Sequence[float],
    ) -> Optional[Rect]:
        """Move the given clients' NFCs to their new radii, keeping every
        radius-dependent structure consistent in place.  Returns the
        union of the affected old∪new NFC boxes (the mutation region),
        or None when nothing changed."""
        if len(indices) == 0:
            return None
        region: Optional[Rect] = None
        touched: list[tuple[Rect, Client]] = []
        for i, old, radius in zip(indices, old_dnn, new_dnn):
            client = self.clients[int(i)]
            point = Point(client.x, client.y)
            point_rect = Rect(client.x, client.y, client.x, client.y)
            old_mbr = Circle(point, float(old)).mbr()
            new_mbr = Circle(point, float(radius)).mbr()
            both = old_mbr.union(new_mbr)
            region = both if region is None else region.union(both)
            if "rnn_tree" in self.__dict__:
                assert self.rnn_tree.delete(old_mbr, client)
            if "mnd_tree" in self.__dict__:
                # Delete while the old radius is still in effect so the
                # condense step recomputes consistent MNDs, then update
                # and reinsert.
                assert self.mnd_tree.delete(point_rect, client)
            client.dnn = float(radius)
            if "rnn_tree" in self.__dict__:
                self.rnn_tree.insert(new_mbr, client)
            if "mnd_tree" in self.__dict__:
                self.mnd_tree.insert(point_rect, client)
            touched.append((point_rect, client))
        self.client_xyd[np.asarray(indices, dtype=np.intp), 2] = np.asarray(
            new_dnn, dtype=np.float64
        )
        self._invalidate("client_file")
        if "r_c" in self.__dict__:
            # R_C's leaf columns include dnn; the in-place update never
            # passes through an insert/delete, so dirty those leaves
            # explicitly.
            self.r_c.touch_data_entries(touched)
        return region
