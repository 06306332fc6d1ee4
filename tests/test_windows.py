import numpy as np
import pytest

from dirstft import Grid, gaussian_window, gevrey_bump, pairing_check
from dirstft.grids import evaluate_trig
from dirstft.windows import Window, WindowKind, window_at


def test_gaussian_peak_and_symmetry():
    g = Grid.from_bounds([-8], [8], [256])
    w = gaussian_window(g, 1.0)
    i0 = int(np.argmin(np.abs(g.axis(0))))
    assert w.values[i0] == pytest.approx(1.0)
    assert np.allclose(w.values[1:], w.values[1:][::-1])


def test_gaussian_anisotropic_sigma():
    g = Grid.from_bounds([-4, -4], [4, 4], [64, 64])
    w = gaussian_window(g, [1.0, 2.0])
    pts = g.points()
    want = np.exp(-np.pi * (pts[:, 0] ** 2 + pts[:, 1] ** 2 / 4))
    assert np.allclose(w.values.ravel(), want)


def test_gaussian_bad_sigma():
    g = Grid.from_bounds([-4], [4], [16])
    with pytest.raises(ValueError):
        gaussian_window(g, -1.0)


def test_bump_value_at_half_radius():
    # alpha=2, radius=1: b(0.5) = exp(-1/(1 - 0.25)) = exp(-4/3)
    g = Grid.from_bounds([-2], [2], [64])
    w = gevrey_bump(g, radius=1.0, alpha=2.0)
    i = int(np.argmin(np.abs(g.axis(0) - 0.5)))
    assert w.values[i] == pytest.approx(0.2635971381157267, rel=1e-12)


def test_bump_compact_support():
    g = Grid.from_bounds([-2, -2], [2, 2], [64, 64])
    w = gevrey_bump(g, radius=1.0, alpha=2.0)
    r = np.linalg.norm(g.points(), axis=-1)
    assert np.all(w.values.ravel()[r >= 1.0] == 0)
    assert np.all(w.values.ravel()[r < 0.999] > 0)


def test_bump_rejects_bad_parameters():
    g = Grid.from_bounds([-2], [2], [64])
    with pytest.raises(ValueError):
        gevrey_bump(g, radius=1.0, alpha=1.0)
    with pytest.raises(ValueError):
        gevrey_bump(g, radius=2.5, alpha=2.0)


def test_window_rejects_identically_zero():
    g = Grid.from_bounds([-2], [2], [16])
    with pytest.raises(ValueError):
        Window(g, np.zeros(16), WindowKind.CUSTOM)


def test_pairing_gaussian_sigmas():
    # integral of e^{-pi t^2} e^{-pi t^2/4} = (5/4)^{-1/2} = 2/sqrt(5)
    g = Grid.from_bounds([-16], [16], [1024])
    a = gaussian_window(g, 1.0)
    b = gaussian_window(g, 2.0)
    cert = pairing_check(a, b)
    assert cert.admissible
    assert cert.value == pytest.approx(0.8944271909999159, rel=1e-9)


def test_pairing_orthogonal_inadmissible():
    g = Grid.from_bounds([-8], [8], [256])
    t = g.axis(0)
    even = Window(g, np.exp(-np.pi * t ** 2), WindowKind.CUSTOM)
    odd = Window(g, t * np.exp(-np.pi * t ** 2), WindowKind.CUSTOM)
    cert = pairing_check(even, odd)
    assert not cert.admissible
    assert cert.magnitude <= 1e-12


def test_pairing_requires_same_grid():
    a = gaussian_window(Grid.from_bounds([-8], [8], [64]), 1.0)
    b = gaussian_window(Grid.from_bounds([-8], [8], [128]), 1.0)
    with pytest.raises(ValueError):
        pairing_check(a, b)


def test_window_at_lattice_and_outside():
    g = Grid.from_bounds([-2], [2], [64])
    w = gevrey_bump(g, radius=1.0, alpha=2.0)
    pts = np.array([[0.5], [1.5], [5.0]])
    vals = window_at(w, pts)
    assert vals[0] == pytest.approx(0.2635971381157267, rel=1e-12)
    assert vals[1] == 0
    assert vals[2] == 0


def test_window_at_off_lattice_gaussian():
    g = Grid.from_bounds([-8], [8], [256])
    w = gaussian_window(g, 1.0)
    pts = np.array([[0.3], [-1.7], [0.031]])   # off the 1/16 lattice
    vals = window_at(w, pts)
    want = np.exp(-np.pi * pts[:, 0] ** 2)
    assert np.max(np.abs(vals - want)) < 1e-9


@pytest.mark.parametrize("pts", [[[0.5]], [[0.5, 0.25, 1.0]]])
def test_window_at_rejects_points_of_other_dimension(pts):
    w = gaussian_window(Grid.from_bounds([-4, -4], [4, 4], [16, 16]), [1.0, 1.0])
    with pytest.raises(ValueError, match="2 coordinates"):
        window_at(w, np.array(pts))


def test_window_at_zeroes_what_the_periodic_interpolant_does_not():
    # a random window is far from zero at the edges of its box [-2, 2), so
    # its periodic interpolant is large just outside it
    g = Grid.from_bounds([-2], [2], [16])
    rng = np.random.default_rng(3)
    w = Window(g, rng.normal(size=16) + 1j * rng.normal(size=16))
    outside = np.array([[2.03], [-2.05]])
    assert np.array_equal(window_at(w, outside), [0.0, 0.0])
    raw = evaluate_trig(w.as_signal(), outside)
    assert np.all(np.abs(raw) > 1e-3 * np.max(np.abs(w.values)))
    images = evaluate_trig(w.as_signal(), outside + [[-4.0], [4.0]])
    assert np.allclose(raw, images, rtol=0, atol=1e-12 * np.max(np.abs(w.values)))
    # inside the box both rules agree off the lattice
    inside = np.array([[1.93], [-1.95]])
    assert np.array_equal(window_at(w, inside), evaluate_trig(w.as_signal(), inside))
