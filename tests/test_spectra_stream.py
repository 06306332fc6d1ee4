"""The analysis block stream transform._spectra reuses one work buffer: each
S it yields without out is valid only until the next block is asked for."""

import numpy as np
import pytest

from dirstft import Grid, build_frame, dstft_fast, gaussian_window
from dirstft.direction import identity_frame
from dirstft.fixtures import random_bandlimited
from dirstft.transform import _spectra
from dirstft.windows import _projected_box, window_levels

GRID = Grid.from_bounds([-4, -4], [4, 4], [32, 32])
F = random_bandlimited(GRID, 5, band=0.5)
WIN1 = gaussian_window(Grid.from_bounds([-4], [4], [32]), [1.0])
WIN2 = gaussian_window(GRID, [1.0, 1.0])
# 150 rows each, so the last block is partial; Y2 is on the window lattice
Y1 = Grid.from_bounds([-4], [4], [150])
Y2 = Grid((-4.0, -4.0), (0.25, 0.25), (10, 15))

CASES = {
    "lattice k=n=2": (WIN2, identity_frame(2, 2), Y2),
    "projected box u=(1,1)/sqrt2": (WIN1, build_frame([[1.0, 1.0]]), Y1),
    "per-sample u=(1,0.3)": (WIN1, build_frame([[1.0, 0.3]]), Y1),
    "blind to axis 1": (WIN1, build_frame([[1.0, 0.0]]), Y1),
}


def stream(case):
    g, frame, y_grid = CASES[case]
    return _spectra(F, window_levels(g, GRID, frame.u, y_grid))


@pytest.mark.parametrize("case", sorted(CASES))
def test_consecutive_blocks_share_the_work_buffer(case):
    blocks = stream(case)
    _, _, _, S1 = next(blocks)
    _, _, _, S2 = next(blocks)
    assert np.shares_memory(S1, S2)


@pytest.mark.parametrize("case", sorted(CASES))
def test_copied_blocks_reproduce_the_field_exactly(case):
    g, frame, y_grid = CASES[case]
    rows, sizes = [], []
    for lo, hi, _, S in stream(case):
        assert S.shape == (hi - lo,) + GRID.counts
        rows.append(S.copy())
        sizes.append(hi - lo)
    assert len(sizes) > 1 and sizes[-1] < sizes[0]     # a partial last block
    field = dstft_fast(F, g, frame, y_grid=y_grid).values
    assert np.all(np.concatenate(rows) == field.reshape((y_grid.size,) + GRID.counts))


def test_the_off_lattice_cases_take_the_box_and_per_sample_paths():
    for case, has_box in [("projected box u=(1,1)/sqrt2", True),
                          ("per-sample u=(1,0.3)", False)]:
        g, frame, _ = CASES[case]
        assert (_projected_box(g, GRID, frame.u, GRID.points() @ frame.u.T)
                is not None) == has_box
