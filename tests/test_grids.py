import numpy as np
import pytest

from dirstft import Grid, Signal, dft, dft_oracle, idft, inner_product
from dirstft import grids
from dirstft.fixtures import gaussian, random_bandlimited
from dirstft.grids import (BLOCK_ELEMS, BoundaryMassWarning, _idft_into,
                           _phase_tables, boundary_mass_fraction,
                           check_boundary_mass, evaluate_trig,
                           evaluate_trig_grid, primal_phase, relative_error)
from dirstft.windows import Window


def test_grid_basic_geometry():
    g = Grid.from_bounds([-8, -8], [8, 8], [32, 32])
    assert g.dim == 2
    assert g.spacing == (0.5, 0.5)
    assert g.cell_volume == pytest.approx(0.25)
    axes = g.axes()
    assert axes[0][0] == -8.0
    assert axes[0][-1] == pytest.approx(7.5)


@pytest.mark.parametrize("origin, spacing, counts, message", [
    ((float("nan"),), (0.5,), (16,), "finite"),
    ((0.0,), (float("inf"),), (16,), "finite"),
    ((0.0,), (1e308,), (16,), "finite"),            # the extent overflows
    ((0.0, 0.0), (0.5, 0.5), (16, 16.5), "integers, got 16.5"),
    ((0.0,), (0.5,), ("16",), "integers, got '16'"),
    ((0.0,), (0.5,), (float("nan"),), "integers"),
    ((0.0,), (0.5,), (1,), "at least 2"),
])
def test_grid_rejects_bad_geometry(origin, spacing, counts, message):
    with pytest.raises(ValueError, match=message):
        Grid(origin, spacing, counts)


@pytest.mark.parametrize("counts, message", [([0], "at least 2"),
                                             ([16.5], "integers, got 16.5"),
                                             (["16"], "integers, got '16'")])
def test_from_bounds_checks_counts_before_dividing(counts, message):
    # counts 0 used to divide by zero (a RuntimeWarning) before the error
    with pytest.raises(ValueError, match=message):
        Grid.from_bounds([-4], [4], counts)


def test_grid_accepts_integral_counts_of_any_type():
    ref = Grid((0.0,), (0.5,), (16,))
    assert Grid((0,), (0.5,), (np.int64(16),)) == ref
    assert Grid((0.0,), (0.5,), (16.0,)) == ref
    assert Grid.from_bounds([0], [8], np.array([16])) == ref
    assert isinstance(ref.counts[0], int) and isinstance(ref.size, int)


def test_grid_dual_lattice():
    g = Grid.from_bounds([-8], [8], [32])
    d = g.dual()
    # spacing 1/(N Delta), centered at zero
    assert d.spacing[0] == pytest.approx(1 / (32 * 0.5))
    assert d.origin[0] == pytest.approx(-(32 // 2) * d.spacing[0])
    assert 0.0 in set(d.axes()[0])


def test_dft_delta_is_constant():
    g = Grid.from_bounds([-4], [4], [16])
    vals = np.zeros(16, dtype=complex)
    i0 = g.lattice_index(np.array([[0.0]]))[0]
    vals[i0] = 1.0 / g.cell_volume
    spec = dft(Signal(g, vals))
    assert np.allclose(spec.values, 1.0, atol=1e-12)


def test_dft_gaussian_at_zero():
    g = Grid.from_bounds([-8, -8], [8, 8], [256, 256])
    f = gaussian(g, sigma=1.0)
    spec = dft(f)
    i0 = tuple(spec.grid.lattice_index(np.array([[0.0, 0.0]]))[0])
    assert abs(spec.values[i0] - 1.0) <= 1e-12


def test_dft_gaussian_pair_closed_form():
    # e^{-pi |t|^2} is its own transform under this convention
    g = Grid.from_bounds([-8, -8], [8, 8], [256, 256])
    f = gaussian(g, sigma=1.0)
    spec = dft(f)
    xi = spec.grid.points()
    want = np.exp(-np.pi * np.sum(xi ** 2, axis=-1))
    mask = np.linalg.norm(xi, axis=-1) <= 4.0
    err = np.abs(spec.values.ravel()[mask] - want[mask])
    assert err.max() <= 1e-9


@pytest.mark.parametrize("counts", [(16, 16), (64,), (8, 8, 8)])
def test_dft_matches_oracle(counts):
    g = Grid.from_bounds([-4] * len(counts), [4] * len(counts), counts)
    f = random_bandlimited(g, 3, band=0.8)
    fast = dft(f)
    slow = dft_oracle(f)
    assert relative_error(fast.values, slow.values) < 1e-10


def test_oracle_zero_signal():
    g = Grid.from_bounds([-4], [4], [16])
    f = Signal(g, np.zeros(16, dtype=complex))
    assert np.all(dft_oracle(f).values == 0)


def test_oracle_shifted_delta_pure_phase():
    g = Grid.from_bounds([-4], [4], [16])
    vals = np.zeros(16, dtype=complex)
    t0 = 1.5
    i0 = g.lattice_index(np.array([[t0]]))[0]
    vals[i0] = 1.0 / g.cell_volume
    spec = dft_oracle(Signal(g, vals))
    xi = spec.grid.points()[:, 0]
    want = np.exp(-2j * np.pi * xi * t0)
    assert np.allclose(spec.values.ravel(), want, atol=1e-12)


def test_oracle_cap_rejected(monkeypatch):
    g = Grid.from_bounds([-4], [4], [1024])
    f = Signal(g, np.ones(1024, dtype=complex))
    monkeypatch.setattr(grids, "ORACLE_WORK_CAP", 512 ** 2)
    with pytest.raises(ValueError):
        dft_oracle(f)


def test_inner_product_hermitian_real():
    g = Grid.from_bounds([-8], [8], [64])
    f = gaussian(g, sigma=1.0)
    v = inner_product(f, f)
    assert v.real > 0
    assert abs(v.imag) < 1e-15


def test_inner_product_disjoint_supports():
    g = Grid.from_bounds([-8], [8], [64])
    a = np.zeros(64, dtype=complex)
    b = np.zeros(64, dtype=complex)
    a[:32] = 1.0
    b[32:] = 1.0
    assert inner_product(Signal(g, a), Signal(g, b)) == 0


def test_inner_product_gaussian_closed_form():
    # integral of e^{-2 pi t^2} = 2^{-1/2}
    g = Grid.from_bounds([-8], [8], [1024])
    f = gaussian(g, sigma=1.0)
    assert abs(inner_product(f, f) - 2 ** -0.5) <= 1e-9


def test_idft_inverts_dft():
    g = Grid.from_bounds([-8, -8], [8, 8], [32, 32])
    f = random_bandlimited(g, 5)
    back = idft(dft(f), g)
    assert relative_error(back.values, f.values) < 1e-10


def test_plancherel():
    g = Grid.from_bounds([-8, -8], [8, 8], [32, 32])
    f = random_bandlimited(g, 1, band=0.5)
    h = random_bandlimited(g, 2, band=0.5)
    lhs = inner_product(f, h)
    rhs = inner_product(dft(f), dft(h))
    assert abs(lhs - rhs) / abs(rhs) < 1e-8


def test_dft_linearity():
    g = Grid.from_bounds([-4], [4], [32])
    f = random_bandlimited(g, 7)
    h = random_bandlimited(g, 8)
    a, b = 2.5 - 1j, -0.25 + 3j
    lhs = dft(Signal(g, a * f.values + b * h.values)).values
    rhs = a * dft(f).values + b * dft(h).values
    assert relative_error(lhs, rhs) < 1e-12


def test_boundary_mass_warning():
    g = Grid.from_bounds([-2], [2], [32])
    wide = gaussian(g, sigma=4.0)       # nowhere near decayed at the edge
    assert boundary_mass_fraction(wide) > 1e-9
    with pytest.warns(BoundaryMassWarning):
        check_boundary_mass(wide)
    narrow = gaussian(g, sigma=0.25)
    check_boundary_mass(narrow)         # no warning


def test_signal_rejects_nonfinite():
    g = Grid.from_bounds([-4], [4], [16])
    vals = np.ones(16, dtype=complex)
    vals[3] = np.nan
    with pytest.raises(ValueError):
        Signal(g, vals)


@pytest.mark.parametrize("counts", [(7,), (8,), (9, 12), (15, 16, 5)])
def test_primal_inverts_dual(counts):
    # dual() of a dual lattice is the zero-centered primal grid
    d = len(counts)
    g = Grid.from_bounds([-3.0] * d, [5.0] * d, counts)
    dual = g.dual()
    assert dual.dual().dual() == dual
    centered = dual.dual()
    assert centered.counts == g.counts
    assert np.allclose(centered.spacing, g.spacing, rtol=1e-14, atol=0)
    assert all(o == -(n // 2) * s for o, n, s in
               zip(centered.origin, centered.counts, centered.spacing))


def test_a_signal_holds_exactly_its_grid_counts():
    # a batch of signals on one grid is rejected, not taken as one signal
    # that dft, the file writer or inner_product would each read differently
    g = Grid.from_bounds([-4], [4], [16])
    with pytest.raises(ValueError):
        Signal(g, np.ones((3, 16)))
    with pytest.raises(ValueError):
        Signal(Grid.from_bounds([-4, -4], [4, 4], [16, 16]), np.ones((2, 16, 16)))
    # the same samples in another shape are reshaped to the grid
    assert Signal(g, np.ones((4, 4))).values.shape == (16,)


def test_the_array_helpers_keep_batch_axes():
    # the streams transform blocks of rows: the private helpers take leading
    # batch axes, each item transformed as dft and idft transform a signal
    g = Grid.from_bounds([-4, -2], [4, 3], [8, 7])
    batch = np.stack([random_bandlimited(g, s, band=0.5).values
                      for s in range(3)])
    F = grids._dft_inplace(batch.copy(), g)
    inv = _idft_into(np.empty_like(F), F, g) * primal_phase(g)
    for b in range(3):
        one = dft(Signal(g, batch[b]))
        assert np.array_equal(F[b], one.values)
        assert np.array_equal(inv[b], idft(one, g).values)


def test_dft_idft_leave_their_inputs_unchanged():
    g = Grid.from_bounds([-4, -2], [4, 3], [8, 7])
    f = random_bandlimited(g, 1, band=0.5)
    before = f.values.copy()
    F = dft(f)
    assert np.array_equal(f.values, before)
    spectrum = F.values.copy()
    idft(F, g)
    _idft_into(np.empty_like(F.values), F.values, g)
    assert np.array_equal(F.values, spectrum)


def test_phase_tables_reject_writes():
    g = Grid.from_bounds([-4, -2], [4, 3], [8, 7])
    tables = _phase_tables(g)
    assert _phase_tables(Grid(g.origin, g.spacing, g.counts)) is tables
    for table in tables + (primal_phase(g),):
        assert table.shape == g.counts
        with pytest.raises(ValueError, match="read-only"):
            table[0, 0] = 0


@pytest.mark.parametrize("pts", [[[0.5]], [[0.5, 0.25, 1.0]]])
def test_evaluate_trig_rejects_points_of_other_dimension(pts):
    # neither a (1, 1) array (one value for both axes) nor a (1, 3) array
    # (a column left unread) is a set of 2-d points
    f = gaussian(Grid.from_bounds([-4, -4], [4, 4], [16, 16]), sigma=1.0)
    with pytest.raises(ValueError, match="2 coordinates"):
        evaluate_trig(f, np.array(pts))


@pytest.mark.parametrize("pts", [[[0.5]], [[0.5, 0.25, 1.0]]])
def test_grid_point_queries_reject_points_of_other_dimension(pts):
    # one value must not be broadcast to both axes, nor a third column be
    # left unread
    g = Grid.from_bounds([-4, -4], [4, 4], [16, 16])
    with pytest.raises(ValueError, match="2 coordinates"):
        g.contains(np.array(pts))
    with pytest.raises(ValueError, match="2 coordinates"):
        g.lattice_index(np.array(pts))


def test_grid_point_queries_read_coordinates_on_the_last_axis():
    g = Grid.from_bounds([-4, -4], [4, 4], [16, 16])
    pts = np.array([[[0.5, 0.5], [4.0, 0.0]], [[-4.0, -4.0], [0.0, 9.0]]])
    assert g.contains(pts).tolist() == [[True, False], [True, False]]
    assert g.lattice_index(pts[:, :1]).tolist() == [[[9, 9]], [[0, 0]]]


@pytest.mark.parametrize("index", [0, BLOCK_ELEMS, -1])
def test_samples_checked_for_finiteness_in_every_chunk(index):
    # signals (spectra among them) and windows share one validator;
    # BLOCK_ELEMS + 5 samples span two chunks of its check, the last one
    # partial
    g = Grid.from_bounds([-1], [1], [BLOCK_ELEMS + 5])
    vals = np.ones(g.counts, dtype=complex)
    for cls, what in ((Signal, "signal"), (Window, "window")):
        assert cls(g, vals).values.shape == g.counts
        bad = vals.copy()
        bad[index] = complex(0.0, np.nan)
        with pytest.raises(ValueError, match=f"{what} values must be finite"):
            cls(g, bad)


def test_evaluate_trig_grid_rejects_map_of_other_shape():
    f = gaussian(Grid.from_bounds([-4], [4], [16]), sigma=1.0)
    out = Grid.from_bounds([-4, -4], [4, 4], [8, 8])
    with pytest.raises(ValueError, match="A must be 1 x 2"):
        evaluate_trig_grid(f, np.eye(2), out)


@pytest.mark.parametrize("A", [
    # dense: the blocks cut output axis 0 to one index and axis 1 to runs
    # of 2 (22 = 11 x 2) to keep the work buffers near BLOCK_ELEMS
    [[1.0, 0.3, -0.2], [0.1, 1.0, 0.4], [0.2, -0.3, 1.0]],
    # mode axis 1 touches no output axis and output axis 0 depends on no mode
    [[0.0, 0.7, 0.0], [0.0, 0.0, 0.0], [0.0, 0.4, 1.1]],
])
def test_evaluate_trig_grid_matches_scattered_points(A):
    rng = np.random.default_rng(5)
    grid = Grid((-1.0, 0.5, -2.0), (0.3, 0.2, 0.25), (20, 22, 24))
    f = Signal(grid, rng.normal(size=grid.counts) + 1j * rng.normal(size=grid.counts))
    out = Grid((0.2, -1.0, 0.4), (0.25, 0.3, 0.2), (20, 22, 24))
    A = np.array(A)
    want = evaluate_trig(f, out.points() @ A.T)
    got = evaluate_trig_grid(f, A, out)
    assert relative_error(got.ravel(), want) <= 1e-12
