"""The estimator's earlier cell lookup, kept as an oracle for the current one.

Each column's flat cell comes from a bisection of its delay coordinates into
``edges[1:]`` and a separate [0, 1] range check; its position among the kept
cells from a second bisection into the flat indices.
"""
import numpy as np


def flat_cells(hankel, grid):
    """Flattened cell index per Hankel column; -1 when any of its three
    delay coordinates lies outside [0, 1] or is not finite."""
    edges = grid.edges
    div = grid.divisions
    coords = hankel[[0, grid.tau1, grid.tau2]]
    i, j, k = np.searchsorted(edges[1:], coords)
    valid = ((coords >= edges[0]) & (coords <= edges[-1])).all(axis=0)
    return np.where(valid, (i * div + j) * div + k, -1)


def dense_cells(flat, grid):
    """Cells holding at least ``min_density`` of the columns, ascending."""
    counts = np.bincount(flat[flat >= 0], minlength=grid.divisions**3)
    return np.flatnonzero(counts >= grid.min_density * flat.size)


def cell_positions(flat, kept):
    """Position in the ascending ``kept`` of each column's cell ``flat[n]``;
    -1 for a column outside every kept cell."""
    if not kept.size:
        return np.full(flat.size, -1)
    pos = np.searchsorted(kept, flat)
    return np.where(kept.take(pos, mode="clip") == flat, pos, -1)


def indicator_rows(hankel, grid, kept):
    """kept.size x columns 0/1 block, row r set where a column lies in kept[r]."""
    cells = cell_positions(flat_cells(hankel, grid), np.asarray(kept))
    rows = np.zeros((np.size(kept), cells.size))
    hit = np.flatnonzero(cells >= 0)
    rows[cells[hit], hit] = 1.0
    return rows
