"""The estimator's cell lookup against the earlier lookup kept in ``cell_oracle``.

Inference finds each column's kept cell with one bisection of its delay
coordinates into ``IndicatorGrid.search_edges`` and one into the model's
padded ``cell_table``; the fit picks its dense cells from the same padded
indices.  Both must agree with the flat-index lookup for every coordinate,
edges, their float neighbours, signed zeros, out-of-range values, NaN and
infinities included.
"""
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import cell_oracle
from emgrip.estimation import IndicatorGrid, _cell_table, _dense_cells, _kept_positions, _padded_cells

_SPECIAL = [0.0, -0.0, 1.0, -1e-300, -0.5, -2.0, 1.5, 1e300, np.nan, np.inf, -np.inf]


@st.composite
def lookups(draw):
    """(hankel, grid, kept): three delay rows, a grid and kept cells."""
    divisions = draw(st.sampled_from([1, 2, 5, 22]))
    exponent = draw(st.one_of(st.floats(0.2, 0.95), st.floats(1.05, 4.0), st.just(1.0)))
    grid = IndicatorGrid(divisions, exponent, tau1=1, tau2=2, min_density=draw(st.sampled_from([0.0, 0.05, 0.3])))
    edges = grid.edges
    pool = np.concatenate([edges, np.nextafter(edges, -np.inf), np.nextafter(edges, np.inf), _SPECIAL])
    coordinate = st.one_of(st.sampled_from(pool.tolist()), st.floats(-0.1, 1.1))
    columns = draw(st.integers(1, 40))
    hankel = np.array(draw(st.lists(coordinate, min_size=3 * columns, max_size=3 * columns))).reshape(3, columns)
    # kept: some of the cells the columns hit, and some drawn anywhere
    hit = cell_oracle.flat_cells(hankel, grid)
    hit = hit[hit >= 0]
    chosen = draw(st.lists(st.booleans(), min_size=hit.size, max_size=hit.size))
    anywhere = draw(st.sets(st.integers(0, divisions**3 - 1), max_size=30))
    kept = np.unique(np.concatenate([hit[np.array(chosen, dtype=bool)], list(anywhere)]).astype(int))
    return hankel, grid, kept


@settings(max_examples=250, deadline=None, database=None)
@given(lookups())
def test_kept_positions_match_the_flat_lookup(case):
    hankel, grid, kept = case
    got = _kept_positions(_padded_cells(hankel, grid), _cell_table(kept, grid.divisions))
    want = cell_oracle.cell_positions(cell_oracle.flat_cells(hankel, grid), kept)
    assert np.array_equal(got, want)


@settings(max_examples=100, deadline=None, database=None)
@given(lookups())
def test_dense_cells_match_the_flat_lookup(case):
    hankel, grid, _ = case
    got = _dense_cells(_padded_cells(hankel, grid), grid)
    assert np.array_equal(got, cell_oracle.dense_cells(cell_oracle.flat_cells(hankel, grid), grid))


def test_signed_zero_and_edges_land_in_the_lower_cell():
    grid = IndicatorGrid(divisions=2, exponent=1.0, tau1=1, tau2=2)
    hankel = np.array([[-0.0, 0.5, 1.0, np.nextafter(0.0, -1.0)], [0.0] * 4, [0.0] * 4])
    cells = _kept_positions(_padded_cells(hankel, grid), _cell_table(np.arange(8), 2))
    # -0.0 and 0.5 in cell (0, 0, 0), 1.0 in (1, 0, 0), the float below 0 in none
    assert cells.tolist() == [0, 0, 4, -1]
