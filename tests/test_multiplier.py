"""Reconstruction is a pointwise multiplier: on the DFT-dual xi lattice,
reconstruct's undivided stream, synthesis._frame_operator(f, g, phi, frame,
y_grid) = DS*_phi DS_g f / (g, phi), equals f M with M the y~ sum of window
products, and the M it returns, which reconstruct divides out, equals that
sum (invariants.multiplier_error), to roundoff, for any signal.  The cases
cover the factored and one-level streams, a blind axis, the two mixed
pairings of a factored and an unfactored window, and a coarse y~ grid."""

import numpy as np
import pytest

from dirstft import Grid, Window, build_frame, gaussian_window, pairing_check, transform
from dirstft.direction import identity_frame
from dirstft.fixtures import gaussian, random_bandlimited
from dirstft.invariants import multiplier_error
from dirstft.synthesis import _frame_operator

G32 = Grid.from_bounds([-4, -4], [4, 4], [32, 32])
W1 = gaussian_window(Grid.from_bounds([-4], [4], [32]), [1.0])
F = random_bandlimited(G32, 7, band=0.5)


def unfactored(w):
    return Window(w.grid, w.values, w.kind)


CASES = {
    "factored k=n=2": (gaussian(G32, 1.0, [0.3, -0.2], [0.5, 0.25]),
                       gaussian_window(G32, [1.0, 1.2]), None, identity_frame(2, 2),
                       None),
    "u=(1,1)/sqrt2": (F, W1, None, build_frame([[1.0, 1.0]]),
                      Grid.from_bounds([-4], [4], [40])),
    "blind axis 1": (F, W1, None, build_frame([[1.0, 0.0]]), None),
    "factored g, unfactored phi": (F, gaussian_window(G32, [1.0, 1.0]),
                                   unfactored(gaussian_window(G32, [1.5, 0.8])),
                                   identity_frame(2, 2), None),
    "unfactored g, factored phi": (F, unfactored(gaussian_window(G32, [1.0, 1.0])),
                                   gaussian_window(G32, [1.5, 0.8]),
                                   identity_frame(2, 2), None),
    "y~ stride 2": (F, gaussian_window(G32, [1.0, 1.0]), None, identity_frame(2, 2),
                    Grid((-4.0, -4.0), (0.5, 0.5), (16, 16))),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_reconstruct_is_the_multiplier(case):
    f, g, phi, frame, y_grid = CASES[case]
    assert multiplier_error(f, g, g if phi is None else phi, frame, y_grid) <= 1e-13


@pytest.mark.parametrize("case", ["factored g, unfactored phi",
                                  "unfactored g, factored phi"])
def test_a_mixed_pair_streams_as_the_unfactored_pair(monkeypatch, case):
    # when exactly one window of the pair is factored, both stream one level,
    # so the undivided reconstruction and M are the unfactored pair's, bit
    # for bit, on any shard count
    f, g, phi, frame, _ = CASES[case]
    pairing = pairing_check(g, phi).value
    for n in (1, 2, 3):
        monkeypatch.setattr(transform, "_cpu_count", lambda: n)
        got = _frame_operator(f, g, phi, frame, G32, pairing)
        want = _frame_operator(f, unfactored(g), unfactored(phi), frame, G32, pairing)
        assert all(np.array_equal(a, b) for a, b in zip(got, want, strict=True))
