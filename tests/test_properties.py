"""Property tests: the exact identities of dirstft.invariants over drawn
grids (odd and even counts, nonzero origins, anisotropic spacings), frames
and windows, at sizes under the oracle caps."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dirstft import (Grid, Signal, build_frame, dstft_fast, gaussian_window,
                     gevrey_bump, invariants, pairing_check, reconstruct)
from dirstft.grids import (BLOCK_ELEMS, evaluate_trig, evaluate_trig_grid,
                           relative_error)
from dirstft.synthesis import dso
from dirstft.windows import window_blocks

SETTINGS = settings(derandomize=True, deadline=None, database=None,
                    max_examples=25)


@st.composite
def grids(draw, dim, max_count=8):
    return Grid(tuple(draw(st.floats(-3.0, 3.0)) for _ in range(dim)),
                tuple(draw(st.floats(0.25, 1.0)) for _ in range(dim)),
                tuple(draw(st.integers(3, max_count)) for _ in range(dim)))


@st.composite
def signals(draw, grid):
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    return Signal(grid, rng.normal(size=grid.counts)
                  + 1j * rng.normal(size=grid.counts))


@st.composite
def frames(draw, n, k=None):
    k = draw(st.integers(1, n)) if k is None else k
    rows = [[draw(st.floats(-1.0, 1.0)) for _ in range(n)] for _ in range(k)]
    try:
        return build_frame(rows)
    except ValueError:
        assume(False)


@st.composite
def windows(draw, k):
    """A Gaussian or Gevrey bump window on a k-dimensional grid that
    straddles the origin, as gevrey_bump requires."""
    lo = [draw(st.floats(-3.0, -1.0)) for _ in range(k)]
    hi = [draw(st.floats(1.0, 3.0)) for _ in range(k)]
    grid = Grid.from_bounds(lo, hi, [draw(st.integers(4, 8)) for _ in range(k)])
    if draw(st.booleans()):
        return gaussian_window(grid, [draw(st.floats(0.5, 2.0)) for _ in range(k)])
    try:
        return gevrey_bump(grid, draw(st.floats(0.6, 0.95)),
                           draw(st.floats(1.5, 3.0)))
    except ValueError:          # no lattice point inside the support
        assume(False)


@st.composite
def transform_cases(draw):
    """(f1, f2, g, frame) with f1, f2 on one 2-d grid, g on R^k."""
    grid = draw(grids(2))
    frame = draw(frames(2))
    return draw(signals(grid)), draw(signals(grid)), draw(windows(frame.k)), frame


@SETTINGS
@given(st.integers(1, 2).flatmap(lambda d: grids(d, max_count=12)).flatmap(signals))
def test_dft_matches_oracle_and_inverts(f):
    assert invariants.dft_oracle_error(f) <= 1e-10
    assert invariants.dft_roundtrip_error(f) <= 1e-10


@SETTINGS
@given(grids(2).flatmap(lambda g: st.tuples(signals(g), signals(g))))
def test_parseval(pair):
    assert invariants.parseval_error(*pair) <= 1e-8


@SETTINGS
@given(transform_cases())
def test_fast_paths_match_oracles(case):
    f1, _, g, frame = case
    assert invariants.oracle_error(f1, g, frame) <= 1e-10


@SETTINGS
@given(transform_cases())
def test_synthesis_is_the_adjoint(case):
    assert invariants.adjoint_error(*case) <= 1e-8


@st.composite
def streamed_cases(draw):
    """(f, g, phi, frame, y_grid) on a 2-d grid of 40-64 points per axis,
    so a y~ block holds only BLOCK_ELEMS // Nt rows, with y~ counts that
    leave the last block partial; phi is g or a Gaussian on g's grid."""
    grid = Grid(tuple(draw(st.floats(-3.0, 3.0)) for _ in range(2)),
                tuple(draw(st.floats(0.1, 0.2)) for _ in range(2)),
                tuple(draw(st.integers(40, 64)) for _ in range(2)))
    frame = draw(frames(2))
    g = draw(windows(frame.k))
    phi = g if draw(st.booleans()) else gaussian_window(
        g.grid, [draw(st.floats(0.5, 2.0)) for _ in range(frame.k)])
    rows = BLOCK_ELEMS // grid.size
    if frame.k == 1:
        y_counts = (draw(st.integers(rows + 1, 3 * rows)),)
    else:
        y_counts = (2, draw(st.integers(rows // 2 + 1, 2 * rows)))
    y_grid = Grid.from_bounds([draw(st.floats(-3.0, -1.0)) for _ in y_counts],
                              [draw(st.floats(1.0, 3.0)) for _ in y_counts],
                              y_counts)
    sizes = [hi - lo for lo, hi, _ in
             window_blocks(g, grid, frame.u, y_grid.points())]
    assume(len(sizes) > 1 and sizes[-1] < sizes[0])
    assume(pairing_check(g, phi).admissible)
    return draw(signals(grid)), g, phi, frame, y_grid


@SETTINGS
@given(streamed_cases())
def test_reconstruct_matches_synthesis_of_the_field(case):
    # the fused stream reuses one inverse buffer across blocks of unequal
    # length; it must agree with synthesis of the stored field
    f, g, phi, frame, y_grid = case
    want = (dso(dstft_fast(f, g, frame, y_grid=y_grid), phi, frame, f.grid).values
            / pairing_check(g, phi).value)
    got = reconstruct(f, g, phi, frame, y_grid=y_grid).values
    assert relative_error(got, want) <= 1e-12


@st.composite
def mapped_lattices(draw, n, k):
    """(f, C, out_grid): a signal on an n-d grid, the C of a k-frame (upper
    triangular for k = 1, dense for k = n) and an output grid other than
    f's."""
    grid = draw(grids(n, max_count=12))
    out = draw(grids(n, max_count=12))
    assume(out != grid)
    return draw(signals(grid)), draw(frames(n, k)).C, out


@pytest.mark.parametrize("n, k", [(1, 1), (2, 1), (2, 2), (3, 1), (3, 2), (3, 3)])
@SETTINGS
@given(data=st.data())
def test_trig_on_a_mapped_lattice_matches_scattered_points(n, k, data):
    f, A, out = data.draw(mapped_lattices(n, k))
    pts = out.points() @ A.T
    want = evaluate_trig(f, pts)
    got = evaluate_trig_grid(f, A, out)
    assert got.shape == out.counts
    # both sides round each phase 2 pi xi . t to a few ulps of its size, so
    # a nearly singular frame (entries of C up to ~1e4) widens the tolerance
    xi_max = np.abs(np.asarray(f.grid.dual().origin))
    phase = 2 * np.pi * np.max(np.abs(pts) @ xi_max)
    assert relative_error(got.ravel(), want) <= max(1e-12, 1e-14 * phase)
