"""Timestamped physical storage of copies (the [Gif79/Tho79/UW87] rule).

Every copy carries ``(value, timestamp)``; a write stamps the current
PRAM step, a read returns the value with the newest timestamp among the
copies it reached.  Definition 2 guarantees that whenever both the write
and the read access the root of T_v, the read sees at least one updated
copy — the consistency property tested exhaustively in E12.

This is the simulated machine's memory content, not its geometry (which
lives in :mod:`repro.hmos.placement`).  A PRAM program touches few of
the up to ``n^2 q^k`` copies (5.2e9 slots in E8's largest instance), so
storage grows with the *touched variables* only:

* a two-level row map finds each variable's table row: a directory
  entry per block of ``2^_BLOCK_BITS`` ids names the block's chunk in a
  pool of int64 row-id chunks, one row id per id in the block.  Entry 0
  (an untouched block) names chunk 0, which stays all zeros, so a
  lookup is two gathers and an untouched variable lands on row 0.  A
  write claims a zeroed chunk per block and a row per variable it
  touches first;
* each row indexes two appended ``(rows, q^k)`` int64 tables, the
  copies' values and timestamps; a row is set to ``(0, -1)`` when it
  is claimed.  Pool and tables grow by doubling into uninitialised
  capacity;
* row 0 is never written and reads ``(0, -1)``: the machine's initial
  memory image, returned for every copy of an untouched variable.

Reads and writes are whole-array gathers and scatters into the flat
tables.  Callers name copies by ``(variable, path)``, with integer paths
broadcast against the variables or, as in NumPy, a boolean ``(N, q^k)``
copy mask, which needs one lookup per variable.  ``snapshot()`` keys
copies by the flat copy id ``variable * q^k + path``.
"""

from __future__ import annotations

import numpy as np

from repro.hmos.params import HMOSParams
from repro.util.validate import check_int_array

__all__ = ["CopyMemory"]

_UNWRITTEN_TS = -1
#: log2 of the variable ids per block.  The directory takes 8 B per
#: block of the address space, the pool 8 * 2^_BLOCK_BITS B per touched
#: block: 18 MB plus 2 KB per touched block at E8's 5.8e8 variables.
_BLOCK_BITS = 8
_BLOCK = 1 << _BLOCK_BITS


def _distinct(ascending: np.ndarray) -> np.ndarray:
    """The distinct values of an ascending array."""
    first = np.ones(ascending.size, dtype=bool)
    np.not_equal(ascending[1:], ascending[:-1], out=first[1:])
    return ascending[first]


def _with_room(table: np.ndarray, kept: int, need: int) -> np.ndarray:
    """``table`` if it has ``need`` rows, else its first ``kept`` rows in
    a new table at least twice as long, the rest uninitialised."""
    if need <= table.shape[0]:
        return table
    grown = np.empty((max(need, 2 * table.shape[0]),) + table.shape[1:], table.dtype)
    grown[:kept] = table[:kept]
    return grown


class CopyMemory:
    """Vectorised ``copy id -> (value, timestamp)`` store."""

    def __init__(self, params: HMOSParams):
        self.params = params
        red = params.redundancy
        self._directory = np.zeros(-(-params.num_variables // _BLOCK), dtype=np.int64)
        self._pool = np.zeros(_BLOCK, dtype=np.int64)
        self._chunks = 1
        self._values = np.zeros((1, red), dtype=np.int64)
        self._stamps = np.full((1, red), _UNWRITTEN_TS, dtype=np.int64)
        self._used = 1

    def _checked(self, variables, paths) -> tuple[np.ndarray, np.ndarray]:
        """Range-checked ``(variables, paths)``: a boolean ``paths`` stays
        a copy mask, other ``paths`` become int64 path ids."""
        variables = check_int_array("variables", variables)
        paths = np.asarray(paths)
        red = self.params.redundancy
        if paths.dtype == bool:
            if variables.ndim != 1 or paths.shape != (variables.size, red):
                raise ValueError(
                    f"a copy mask must have shape (len(variables), {red}), "
                    f"got {paths.shape} for variables of shape {variables.shape}"
                )
        else:
            paths = check_int_array("paths", paths)
            if ((paths < 0) | (paths >= red)).any():
                raise ValueError(f"path out of range [0, {red})")
            np.broadcast_shapes(variables.shape, paths.shape)
        if ((variables < 0) | (variables >= self.params.num_variables)).any():
            raise ValueError("variable out of range")
        return variables, paths

    def _slots(self, variables: np.ndarray) -> np.ndarray:
        """Position of each variable's row id in the pool."""
        chunks = self._directory[variables >> _BLOCK_BITS]
        return (chunks << _BLOCK_BITS) | (variables & (_BLOCK - 1))

    def _rows_of(self, variables: np.ndarray) -> np.ndarray:
        """Table row of each variable; 0 (the unwritten row) if untouched."""
        return self._pool[self._slots(variables)]

    def _claim_rows(self, variables: np.ndarray) -> np.ndarray:
        """Table row of each variable, claiming one for each untouched one."""
        flat = variables.reshape(-1)
        rows = self._rows_of(flat)
        fresh = rows == 0
        if fresh.any():
            fresh_vars = flat[fresh]
            new = _distinct(np.sort(fresh_vars))
            blocks = new >> _BLOCK_BITS
            untouched = _distinct(blocks[self._directory[blocks] == 0])
            self._directory[untouched] = self._new_chunks(untouched.size)
            self._pool[self._slots(new)] = self._append_rows(new.size)
            rows[fresh] = self._rows_of(fresh_vars)
        return rows.reshape(variables.shape)

    def _new_chunks(self, count: int) -> np.ndarray:
        """Claim ``count`` pool chunks, each set to zeros; returns their ids."""
        start, self._chunks = self._chunks, self._chunks + count
        first, end = start * _BLOCK, self._chunks * _BLOCK
        self._pool = _with_room(self._pool, first, end)
        self._pool[first:end] = 0
        return np.arange(start, self._chunks, dtype=np.int64)

    def _append_rows(self, count: int) -> np.ndarray:
        """Claim ``count`` table rows, each set to ``(0, -1)``; returns their ids."""
        start, self._used = self._used, self._used + count
        self._values = _with_room(self._values, start, self._used)
        self._stamps = _with_room(self._stamps, start, self._used)
        self._values[start : self._used] = 0
        self._stamps[start : self._used] = _UNWRITTEN_TS
        return np.arange(start, self._used, dtype=np.int64)

    def _masked(self, rows: np.ndarray, mask: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Cell and variable index of each copy a mask selects, in
        row-major order.  Flat mask position ``i * q^k + p`` is cell
        ``rows[i] * q^k + p`` (``np.nonzero`` of a 2-D mask is slower)."""
        red = self.params.redundancy
        picked = np.flatnonzero(mask)
        at = picked // red
        shift = (rows - np.arange(rows.size, dtype=np.int64)) * red
        return picked + shift[at], at

    def write(self, variables, paths, values, timestamp: int) -> None:
        """Write ``values`` to the given copies, stamping ``timestamp``.

        With integer ``paths``, ``values`` broadcasts against the
        flattened copies.  With a ``(len(variables), q^k)`` copy mask,
        it broadcasts against ``variables``: each variable's value goes
        to every copy its row selects.  If a copy appears more than
        once, its last value wins.  ``values`` must be int64 integers:
        floats, strings and booleans raise ``ValueError`` before any row
        is claimed.
        """
        ts = int(timestamp)
        if ts < 0:
            raise ValueError(
                f"timestamp must be >= 0 ({_UNWRITTEN_TS} marks an unwritten copy)"
            )
        variables, paths = self._checked(variables, paths)
        values = check_int_array("values", values)
        rows = self._claim_rows(variables)
        if paths.dtype == bool:
            cells, at = self._masked(rows, paths)
            values = np.broadcast_to(values, variables.shape)[at]
        else:
            cells = (rows * self.params.redundancy + paths).reshape(-1)
            values = np.broadcast_to(values, cells.shape)
        flat = self._values.reshape(-1)
        flat[cells] = values
        self._stamps.reshape(-1)[cells] = ts
        if (flat[cells] != values).any():
            # A repeated copy id got an arbitrary one of its values
            # (NumPy does not order repeated scatters): redo the last.
            last = cells.size - 1 - np.unique(cells[::-1], return_index=True)[1]
            flat[cells[last]] = values[last]

    def read(self, variables, paths) -> tuple[np.ndarray, np.ndarray]:
        """Return ``(values, timestamps)`` of the given copies.

        Both take the shape of ``variables`` broadcast with integer
        ``paths``; a copy mask gives the selected copies flat, in
        row-major order, as ``a[mask]`` does.  Unwritten copies read as
        ``(0, -1)`` — the machine's initial memory image.
        """
        variables, paths = self._checked(variables, paths)
        rows = self._rows_of(variables)
        if paths.dtype == bool:
            cells, _ = self._masked(rows, paths)
        else:
            cells = rows * self.params.redundancy + paths
        return (
            np.take(self._values.reshape(-1), cells),
            np.take(self._stamps.reshape(-1), cells),
        )

    def read_latest(self, variables, paths_matrix: np.ndarray) -> np.ndarray:
        """Majority-rule read: newest value among each row's copies.

        ``paths_matrix`` has one row per variable listing the paths
        actually reached; returns one value per row.
        """
        variables = check_int_array("variables", variables)
        vals, tss = self.read(variables[:, None], paths_matrix)
        pick = np.argmax(tss, axis=1)
        rows = np.arange(vals.shape[0])
        return vals[rows, pick]

    def read_latest_masked(self, variables, reached_mask: np.ndarray) -> np.ndarray:
        """Majority-rule read with a boolean reached-set per variable.

        ``reached_mask`` has shape ``(N, q^k)``; rows must reach at least
        one copy.  Returns the newest reached value per row (the first
        reached path among equally new ones).  Only the reached copies
        are fetched, through :meth:`read`.
        """
        reached_mask = np.asarray(reached_mask, dtype=bool)
        vals, tss = self.read(variables, reached_mask)
        reached = np.flatnonzero(reached_mask)
        newest = np.full(reached_mask.size, _UNWRITTEN_TS - 1, dtype=np.int64)
        newest[reached] = tss
        red = self.params.redundancy
        pick = newest.reshape(reached_mask.shape).argmax(axis=1)
        pick += np.arange(0, reached_mask.size, red, dtype=np.int64)
        if (newest[pick] < _UNWRITTEN_TS).any():
            raise ValueError("every row must reach at least one copy")
        found = np.zeros(reached_mask.size, dtype=np.int64)
        found[reached] = vals
        return found[pick]

    @property
    def written_copies(self) -> int:
        """Number of copies ever written (storage footprint)."""
        return int(np.count_nonzero(self._stamps[1 : self._used] >= 0))

    def snapshot(self) -> dict[int, tuple[int, int]]:
        """The full ``copy id -> (value, timestamp)`` image, copied.

        Two runs produced identical memory states iff their snapshots
        compare equal — the byte-identical check the serve layer's
        differential certification (batched vs sequential replay) and
        the fault tests rely on.
        """
        red = self.params.redundancy
        blocks = np.flatnonzero(self._directory)
        variables = (blocks[:, None] * _BLOCK + np.arange(_BLOCK)).reshape(-1)
        rows = self._rows_of(variables)
        variables, rows = variables[rows > 0], rows[rows > 0]
        stamps = self._stamps[rows]
        hit = stamps >= 0
        cids = (variables[:, None] * red + np.arange(red, dtype=np.int64))[hit]
        return dict(
            zip(
                cids.tolist(),
                zip(self._values[rows][hit].tolist(), stamps[hit].tolist()),
            )
        )
