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

* a sorted int64 index of every variable ever written, looked up with
  ``np.searchsorted`` (one trailing sentinel key, so every lookup lands
  on a valid entry);
* each index entry names one row of two appended ``(rows, q^k)`` int64
  tables, the copies' values and timestamps, grown by doubling;
* row 0 is never written and reads ``(0, -1)``: the machine's initial
  memory image, returned for every copy of an untouched variable.

Reads and writes are whole-array gathers and scatters into the flat
tables.  Callers name copies by ``(variable, path)``; ``snapshot()``
keys them by the flat copy id ``variable * q^k + path``.
"""

from __future__ import annotations

import numpy as np

from repro.hmos.params import HMOSParams

__all__ = ["CopyMemory"]

_UNWRITTEN_TS = -1
_SENTINEL = np.iinfo(np.int64).max


class CopyMemory:
    """Vectorised ``copy id -> (value, timestamp)`` store."""

    def __init__(self, params: HMOSParams):
        self.params = params
        red = params.redundancy
        self._keys = np.array([_SENTINEL], dtype=np.int64)
        self._rows = np.zeros(1, dtype=np.int64)
        self._values = np.zeros((1, red), dtype=np.int64)
        self._stamps = np.full((1, red), _UNWRITTEN_TS, dtype=np.int64)
        self._used = 1

    def _checked(self, variables, paths) -> tuple[np.ndarray, np.ndarray]:
        """Range-checked ``(variables, paths)``, broadcast together."""
        variables = np.asarray(variables, dtype=np.int64)
        paths = np.asarray(paths, dtype=np.int64)
        red = self.params.redundancy
        if ((paths < 0) | (paths >= red)).any():
            raise ValueError(f"path out of range [0, {red})")
        if ((variables < 0) | (variables >= self.params.num_variables)).any():
            raise ValueError("variable out of range")
        if variables.shape != paths.shape:
            variables, paths = np.broadcast_arrays(variables, paths)
        return variables, paths

    def _rows_of(self, variables: np.ndarray) -> np.ndarray:
        """Table row of each variable; 0 (the unwritten row) if untouched."""
        at = self._keys.searchsorted(variables)
        return np.where(self._keys[at] == variables, self._rows[at], 0)

    def write(self, variables, paths, values, timestamp: int) -> None:
        """Write ``values`` to the given copies, stamping ``timestamp``.

        If a copy appears more than once, its last value wins.
        """
        ts = int(timestamp)
        if ts < 0:
            raise ValueError(
                f"timestamp must be >= 0 ({_UNWRITTEN_TS} marks an unwritten copy)"
            )
        variables, paths = self._checked(variables, paths)
        variables = variables.reshape(-1)
        rows = self._rows_of(variables)
        fresh = rows == 0
        if fresh.any():
            new = np.unique(variables[fresh])
            new_rows = self._append_rows(new.size)
            at = self._keys.searchsorted(new)
            self._keys = np.insert(self._keys, at, new)
            self._rows = np.insert(self._rows, at, new_rows)
            rows[fresh] = new_rows[new.searchsorted(variables[fresh])]
        cells = rows * self.params.redundancy + paths.reshape(-1)
        values = np.broadcast_to(np.asarray(values, dtype=np.int64), cells.shape)
        flat = self._values.reshape(-1)
        flat[cells] = values
        self._stamps.reshape(-1)[cells] = ts
        if (flat[cells] != values).any():
            # A repeated copy id got an arbitrary one of its values
            # (NumPy does not order repeated scatters): redo the last.
            last = cells.size - 1 - np.unique(cells[::-1], return_index=True)[1]
            flat[cells[last]] = values[last]

    def _append_rows(self, count: int) -> np.ndarray:
        """Claim ``count`` fresh (unwritten) table rows; returns their ids."""
        start = self._used
        self._used += count
        capacity = self._values.shape[0]
        if self._used > capacity:
            capacity = max(self._used, 2 * capacity)
            red = self.params.redundancy
            values = np.zeros((capacity, red), dtype=np.int64)
            stamps = np.full((capacity, red), _UNWRITTEN_TS, dtype=np.int64)
            values[:start] = self._values[:start]
            stamps[:start] = self._stamps[:start]
            self._values, self._stamps = values, stamps
        return np.arange(start, self._used, dtype=np.int64)

    def read(self, variables, paths) -> tuple[np.ndarray, np.ndarray]:
        """Return ``(values, timestamps)`` of the given copies.

        Unwritten copies read as ``(0, -1)`` — the machine's initial
        memory image.
        """
        variables, paths = self._checked(variables, paths)
        cells = self._rows_of(variables) * self.params.redundancy + paths
        return (
            np.take(self._values.reshape(-1), cells),
            np.take(self._stamps.reshape(-1), cells),
        )

    def read_latest(self, variables, paths_matrix: np.ndarray) -> np.ndarray:
        """Majority-rule read: newest value among each row's copies.

        ``paths_matrix`` has one row per variable listing the paths
        actually reached; returns one value per row.
        """
        variables = np.asarray(variables, dtype=np.int64)
        vals, tss = self.read(variables[:, None], paths_matrix)
        pick = np.argmax(tss, axis=1)
        rows = np.arange(vals.shape[0])
        return vals[rows, pick]

    def read_latest_masked(self, variables, reached_mask: np.ndarray) -> np.ndarray:
        """Majority-rule read with a boolean reached-set per variable.

        ``reached_mask`` has shape ``(N, q^k)``; rows must reach at least
        one copy.  Returns the newest reached value per row (the first
        reached path among equally new ones).  Only the reached copies
        are fetched.
        """
        variables = np.asarray(variables, dtype=np.int64)
        reached_mask = np.asarray(reached_mask, dtype=bool)
        if not reached_mask.any(axis=1).all():
            raise ValueError("every row must reach at least one copy")
        red = self.params.redundancy
        reached = np.flatnonzero(reached_mask)
        vals, tss = self.read(variables[reached // red], reached % red)
        newest = np.full(reached_mask.size, _UNWRITTEN_TS - 1, dtype=np.int64)
        newest[reached] = tss
        pick = newest.reshape(reached_mask.shape).argmax(axis=1)
        found = np.zeros(reached_mask.size, dtype=np.int64)
        found[reached] = vals
        return found[np.arange(pick.size) * red + pick]

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
        keys, rows = self._keys[:-1], self._rows[:-1]
        stamps = self._stamps[rows]
        hit = stamps >= 0
        cids = (keys[:, None] * red + np.arange(red, dtype=np.int64))[hit]
        return dict(
            zip(
                cids.tolist(),
                zip(self._values[rows][hit].tolist(), stamps[hit].tolist()),
            )
        )
