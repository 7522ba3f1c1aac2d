"""Property tests: codec round trips and scalar ≡ vector exactness.

Two families of invariants:

* the binary codecs are lossless — ``decode(encode(x)) == x`` for every
  record and entry kind over arbitrary finite floats and 32-bit ids;
* the two kernel backends are interchangeable **bit for bit** — for
  every batch kernel and arbitrary inputs (including points sitting
  exactly on rectangle edges and zero-area rectangles) the vector and
  scalar implementations return identical arrays, and the geometry
  kernels agree with the scalar :class:`~repro.geometry.rect.Rect`
  reference methods.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.types import Client, Site
from repro.geometry.point import Point
from repro.geometry.rect import Rect
from repro.kernels import scalar, vector
from repro.kernels.columnar import RectColumns
from repro.storage.codecs import (
    ClientCodec,
    SiteCodec,
    decode_branch,
    decode_rect,
    encode_branch,
    encode_rect,
)
from tests.conftest import coords, rects

ids = st.integers(min_value=0, max_value=2**32 - 1)
weights = st.floats(min_value=0.0, max_value=10.0, allow_nan=False)
dnns = st.floats(min_value=0.0, max_value=2000.0, allow_nan=False)


@st.composite
def degenerate_rects(draw):
    """Rectangles that may collapse to a line or a single point."""
    x1 = draw(coords)
    y1 = draw(coords)
    x2 = draw(st.one_of(st.just(x1), coords))
    y2 = draw(st.one_of(st.just(y1), coords))
    (x1, x2), (y1, y2) = sorted((x1, x2)), sorted((y1, y2))
    return Rect(x1, y1, x2, y2)


@st.composite
def any_rects(draw):
    return draw(st.one_of(rects(), degenerate_rects()))


@st.composite
def point_batches(draw, rect):
    """A batch of points biased toward the edges/corners of ``rect``.

    Plain random coordinates almost never land exactly on a rectangle
    boundary, which is precisely where the min/max-dist branch structure
    matters; so each point is drawn either freely or snapped to one of
    the rectangle's edge coordinates.
    """
    edge_x = st.sampled_from([rect.xmin, rect.xmax])
    edge_y = st.sampled_from([rect.ymin, rect.ymax])
    x = st.one_of(coords, edge_x)
    y = st.one_of(coords, edge_y)
    pts = draw(st.lists(st.tuples(x, y), min_size=1, max_size=8))
    xs = np.array([p[0] for p in pts])
    ys = np.array([p[1] for p in pts])
    return xs, ys


def rect_batches(max_size=6):
    return st.lists(any_rects(), min_size=1, max_size=max_size).map(
        RectColumns.from_rects
    )


def assert_backends_bitwise_equal(kernel, *args):
    got_vector = getattr(vector, kernel)(*args)
    got_scalar = getattr(scalar, kernel)(*args)
    assert got_vector.dtype == got_scalar.dtype
    assert got_vector.shape == got_scalar.shape
    assert np.array_equal(got_vector, got_scalar), kernel
    if got_vector.dtype == np.float64:
        assert not np.isnan(got_vector).any()
    return got_vector


# ---------------------------------------------------------------------------
# Codec round trips
# ---------------------------------------------------------------------------


class TestCodecRoundTrips:
    @given(sid=ids, x=coords, y=coords)
    def test_site(self, sid, x, y):
        codec = SiteCodec()
        assert codec.decode(codec.encode(Site(sid, x, y))) == Site(sid, x, y)

    @given(cid=ids, x=coords, y=coords, dnn=dnns)
    def test_client(self, cid, x, y, dnn):
        codec = ClientCodec()
        got = codec.decode(codec.encode(Client(cid, x, y, dnn)))
        assert (got.cid, got.x, got.y, got.dnn) == (cid, x, y, dnn)
        assert got.weight == 1.0  # the layout carries no weight

    @given(rect=any_rects())
    def test_rect(self, rect):
        assert decode_rect(encode_rect(rect)) == rect

    @given(rect=any_rects(), child=ids, mnd=st.none() | dnns)
    def test_branch(self, rect, child, mnd):
        got = decode_branch(encode_branch(rect, child, mnd), mnd is not None)
        assert got == (rect, child, mnd)


# ---------------------------------------------------------------------------
# Scalar ≡ vector, and both ≡ the Rect reference
# ---------------------------------------------------------------------------


coord_batches = st.lists(coords, min_size=1, max_size=8).map(np.array)


@st.composite
def client_batches(draw):
    n = draw(st.integers(min_value=1, max_value=8))
    batch = st.lists(st.tuples(coords, coords, dnns, weights), min_size=n, max_size=n)
    rows = draw(batch)
    return tuple(np.array(col) for col in zip(*rows))


class TestBackendEquivalence:
    @given(px=coord_batches, py=coord_batches, c=client_batches())
    @settings(max_examples=60)
    def test_distance_and_reduction_kernels(self, px, py, c):
        n = min(len(px), len(py))
        px, py = px[:n], py[:n]
        cx, cy, dnn, w = c
        d = assert_backends_bitwise_equal("pairwise_distances", px, py, cx, cy)
        acc = assert_backends_bitwise_equal(
            "accumulate_reductions", px, py, cx, cy, dnn, w
        )
        inf = assert_backends_bitwise_equal("influence_matrix", px, py, cx, cy, dnn)
        # Cross-kernel consistency: influence is exactly d < dnn, and a
        # client reduces a candidate iff it influences it.
        assert np.array_equal(inf, d < dnn[None, :])
        assert acc.shape == (n,)
        positive = (np.clip(dnn[None, :] - d, 0.0, None) * w[None, :]) > 0
        assert np.array_equal(positive, inf & (w[None, :] > 0))

    @given(c=client_batches(), x=coords, y=coords)
    @settings(max_examples=60)
    def test_circle_containment(self, c, x, y):
        cx, cy, dnn, __ = c
        got = assert_backends_bitwise_equal(
            "circles_contain_point", cx, cy, dnn, x, y
        )
        for j in range(len(cx)):
            assert got[j] == (math.hypot(x - cx[j], y - cy[j]) < dnn[j])

    @given(rect=any_rects(), data=st.data())
    @settings(max_examples=60)
    def test_point_rect_kernels_match_the_reference(self, rect, data):
        xs, ys = data.draw(point_batches(rect))
        mind = assert_backends_bitwise_equal("min_dist_points_rect", xs, ys, rect)
        maxd = assert_backends_bitwise_equal("max_dist_points_rect", xs, ys, rect)
        for i in range(len(xs)):
            p = Point(xs[i], ys[i])
            # np.hypot and math.hypot can differ in the final ulp, so
            # the reference comparison is approximate; the backends
            # themselves are compared bitwise above.
            assert mind[i] == pytest.approx(rect.min_dist_point(p), rel=1e-12)
            assert maxd[i] == pytest.approx(rect.max_dist_point(p), rel=1e-12)
            assert mind[i] <= maxd[i]
            if rect.contains_point(p):
                assert mind[i] == 0.0

    @given(batch=rect_batches(), rect=any_rects())
    @settings(max_examples=60)
    def test_rects_vs_one_rect_match_the_reference(self, batch, rect):
        mind = assert_backends_bitwise_equal("min_dist_rects_rect", batch, rect)
        hits = assert_backends_bitwise_equal("rects_intersect_rect", batch, rect)
        for i in range(len(batch)):
            other = Rect(
                batch.xmin[i], batch.ymin[i], batch.xmax[i], batch.ymax[i]
            )
            assert mind[i] == pytest.approx(other.min_dist_rect(rect), rel=1e-12)
            assert hits[i] == other.intersects(rect)
            if hits[i]:
                assert mind[i] == 0.0

    @given(a=rect_batches(max_size=4), b=rect_batches(max_size=4))
    @settings(max_examples=60)
    def test_pairwise_rect_kernels_match_the_reference(self, a, b):
        mind = assert_backends_bitwise_equal("pairwise_min_dist_rects", a, b)
        hits = assert_backends_bitwise_equal("rect_intersect_matrix", a, b)
        for i in range(len(a)):
            ra = Rect(a.xmin[i], a.ymin[i], a.xmax[i], a.ymax[i])
            for j in range(len(b)):
                rb = Rect(b.xmin[j], b.ymin[j], b.xmax[j], b.ymax[j])
                assert mind[i, j] == pytest.approx(ra.min_dist_rect(rb), rel=1e-12)
                assert hits[i, j] == ra.intersects(rb)

    @given(batch=rect_batches(), cid_seed=ids)
    @settings(max_examples=40)
    def test_circle_reconstruction(self, batch, cid_seed):
        n = len(batch)
        cids = np.arange(cid_seed % 1000, cid_seed % 1000 + n, dtype=np.uint32)
        w = np.ones(n)
        got_v = vector.circle_columns_from_rects(batch, cids, w)
        got_s = scalar.circle_columns_from_rects(batch, cids, w)
        for field in ("ids", "xs", "ys", "dnn", "weights"):
            assert np.array_equal(getattr(got_v, field), getattr(got_s, field))


# ---------------------------------------------------------------------------
# Sparse dr kernels: bit-identical to the dense tile
# ---------------------------------------------------------------------------

SPARSE_KERNELS = ("scan_reductions", "leaf_reductions")

#: A small integer lattice: exact ``dist == dnn`` ties are common (axis
#: offsets, 3-4-5 triangles) and so are duplicate x coordinates.
lattice = st.integers(min_value=-6, max_value=6).map(float)
lattice_radii = st.integers(min_value=0, max_value=8).map(float)
lattice_weights = st.sampled_from([0.0, 0.1, 0.5, 1.0, 3.0])


@st.composite
def tiles(draw, coord, radius, weight, max_p=12, max_c=40):
    """One (candidates × clients) tile; either side may be empty."""
    n_p = draw(st.integers(min_value=0, max_value=max_p))
    n_c = draw(st.integers(min_value=0, max_value=max_c))

    def column(n, elements):
        values = draw(st.lists(elements, min_size=n, max_size=n))
        return np.array(values, dtype=np.float64)

    return (
        column(n_p, coord),
        column(n_p, coord),
        column(n_c, coord),
        column(n_c, coord),
        column(n_c, radius),
        column(n_c, weight),
    )


def assert_sparse_equals_dense(px, py, cx, cy, dnn, w):
    """Both sparse kernels return the dense tile's bytes exactly."""
    want = vector.accumulate_reductions(px, py, cx, cy, dnn, w)
    for name in SPARSE_KERNELS:
        got = getattr(vector, name)(px, py, cx, cy, dnn, w)
        assert got.dtype == want.dtype and got.shape == want.shape, name
        assert got.tobytes() == want.tobytes(), name
    return want


def hits_per_row(px, py, cx, cy, dnn, w):
    terms = np.clip(dnn[None, :] - vector.pairwise_distances(px, py, cx, cy), 0, None)
    return np.count_nonzero(terms * w[None, :], axis=1)


class TestSparseReductions:
    @given(tile=tiles(lattice, lattice_radii, lattice_weights))
    @settings(max_examples=200)
    def test_lattice_tiles_with_exact_ties(self, tile):
        assert_sparse_equals_dense(*tile)

    @given(tile=tiles(coords, st.floats(0.0, 400.0), weights))
    @settings(max_examples=150)
    def test_float_tiles(self, tile):
        assert_sparse_equals_dense(*tile)
        # Under the scalar backend both sparse kernels are the dense loop.
        for name in SPARSE_KERNELS:
            assert_backends_bitwise_equal(name, *tile)

    @pytest.mark.parametrize("k", [0, 1, 2, 3, 7, 8, 9, 17, 40])
    @pytest.mark.parametrize("seed", range(4))
    def test_rows_with_k_hits(self, k, seed):
        """Row 0 has exactly ``k`` hits among 48 clients; the others
        sit far away.  Float weights make the sum order observable, so
        rows of 3+ hits must take numpy's pairwise (8-accumulator) path
        exactly as the dense tile does."""
        rng = np.random.default_rng(seed)
        n_c = 48
        angle = rng.uniform(0, 2 * np.pi, n_c)
        r = np.where(np.arange(n_c) < k, rng.uniform(0, 5, n_c), 50.0)
        cx, cy = r * np.cos(angle), r * np.sin(angle)
        dnn = np.where(np.arange(n_c) < k, r + rng.uniform(0.1, 9, n_c), 10.0)
        w = rng.uniform(0.01, 5, n_c)
        perm = rng.permutation(n_c)
        cx, cy, dnn, w = cx[perm], cy[perm], dnn[perm], w[perm]
        px = np.array([0.0, 500.0, 0.0, -500.0])
        py = np.array([0.0, 0.0, 500.0, 0.0])
        assert_sparse_equals_dense(px, py, cx, cy, dnn, w)
        assert list(hits_per_row(px, py, cx, cy, dnn, w)) == [k, 0, 0, 0]

    @pytest.mark.parametrize("seed", range(3))
    def test_hits_one_ulp_inside_the_filters_are_kept(self, seed):
        """Boundary hits that a filter without its rounding argument
        would drop: a candidate at ``fl(cx ± dnn)`` whose rounded
        ``|px - cx|`` is still below ``dnn`` (the window must be
        inclusive), and a client whose ``dnn`` exceeds the distance by
        one ulp while ``dx*dx + dy*dy >= dnn*dnn`` (the prefilter needs
        its slack)."""
        rng = np.random.default_rng(seed)
        window_hits = prefilter_hits = 0
        for __ in range(200):
            cx, cy = rng.uniform(-100, 1100, (2, 1))
            dnn = rng.uniform(0, 50, 1)
            px = np.array([cx[0] + dnn[0], cx[0] - dnn[0]])
            py = np.array([cy[0], cy[0]])
            acc = assert_sparse_equals_dense(px, py, cx, cy, dnn, np.ones(1))
            window_hits += int(np.count_nonzero(acc))

            px, py = rng.uniform(-100, 1100, (2, 1))
            d = np.hypot(px - cx, py - cy)
            dnn = np.nextafter(d, np.inf)
            acc = assert_sparse_equals_dense(px, py, cx, cy, dnn, np.ones(1))
            assert acc[0] > 0
            if (px - cx) ** 2 + (py - cy) ** 2 >= dnn * dnn:
                prefilter_hits += 1
        assert window_hits > 0 and prefilter_hits > 0

    def test_duplicate_x_candidates(self):
        """Stable-sort ties: every candidate shares one x."""
        rng = np.random.default_rng(7)
        px = np.full(30, 3.0)
        py = rng.uniform(-20, 20, 30)
        cx = rng.uniform(-5, 10, 50)
        cy = rng.uniform(-20, 20, 50)
        dnn = rng.uniform(0, 8, 50)
        w = rng.uniform(0, 2, 50)
        acc = assert_sparse_equals_dense(px, py, cx, cy, dnn, w)
        assert (hits_per_row(px, py, cx, cy, dnn, w) >= 3).any()
        assert (acc > 0).any()

    @pytest.mark.parametrize("n_p, n_c", [(0, 0), (0, 5), (5, 0)])
    def test_empty_sides(self, n_p, n_c):
        rng = np.random.default_rng(n_p + n_c)
        p = rng.uniform(0, 10, (2, n_p))
        c = rng.uniform(0, 10, (4, n_c))
        acc = assert_sparse_equals_dense(p[0], p[1], *c)
        assert acc.shape == (n_p,)

    def test_zero_radii_and_zero_weights(self):
        """``dist < 0`` never holds and a zero weight adds nothing: the
        result is all zeros, with the dense tile's sign bits."""
        rng = np.random.default_rng(3)
        px, py = rng.integers(0, 4, (2, 20)).astype(float)
        cx, cy = rng.integers(0, 4, (2, 30)).astype(float)
        zero = np.zeros(30)
        for dnn, w in ((zero, np.ones(30)), (np.full(30, 2.0), zero), (zero, zero)):
            acc = assert_sparse_equals_dense(px, py, cx, cy, dnn, w)
            assert not acc.any()
