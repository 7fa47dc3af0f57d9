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

* an open-addressing hash index maps each variable ever written to its
  table row: two power-of-two int64 arrays of slot keys (-1 marks a free
  slot) and slot rows (0 in every free slot), Fibonacci-hashed with one
  extra mixing round and linearly probed, kept at most half full and
  doubled when a write would fill it past that.  A lookup costs about
  one gather per copy, and a write pays only for the variables it adds,
  never for the ones already resident;
* each row indexes two appended ``(rows, q^k)`` int64 tables, the
  copies' values and timestamps, grown by doubling;
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
#: Key of a free index slot (variable ids are >= 0).
_FREE = -1
#: Slots of a fresh index (a power of two).
_MIN_SLOTS = 1024
#: The index keeps at least this many slots per key: at most half full.
_SLOTS_PER_KEY = 2
#: 2^64 / golden ratio, the Fibonacci hashing multiplier.
_GOLDEN = np.uint64(0x9E3779B97F4A7C15)


class CopyMemory:
    """Vectorised ``copy id -> (value, timestamp)`` store."""

    def __init__(self, params: HMOSParams):
        self.params = params
        red = params.redundancy
        self._new_index(_MIN_SLOTS)
        self._values = np.zeros((1, red), dtype=np.int64)
        self._stamps = np.full((1, red), _UNWRITTEN_TS, dtype=np.int64)
        self._used = 1

    def _new_index(self, size: int) -> None:
        """Replace the index by an empty one of ``size`` slots."""
        self._slot_keys = np.full(size, _FREE, dtype=np.int64)
        self._slot_rows = np.zeros(size, dtype=np.int64)
        self._shift = np.uint64(64 - (size.bit_length() - 1))

    def _home(self, variables: np.ndarray) -> np.ndarray:
        """Home slot of each variable.

        Fibonacci hashing alone (the top bits of ``v * _GOLDEN mod
        2^64``) packs some strided id sets into long runs: stride 2^16
        modulo the 796,797 variables of n = 4096 put a key 137 slots past
        its home.  Folding the high half down and multiplying again kept
        every key within 28 slots of home on every id pattern tried
        (contiguous, strided, 2-D blocks, random).
        """
        h = variables.view(np.uint64) * _GOLDEN
        h ^= h >> np.uint64(32)
        h *= _GOLDEN
        h >>= self._shift
        return h.view(np.int64)

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
        flat = variables.reshape(-1)
        slots = self._home(flat)
        rows = self._slot_rows[slots]
        # key ^ v is 0 on a hit and negative on a free slot (-1 ^ v < 0
        # for v >= 0): both answer with the slot's row.  Only queries
        # whose slot holds another key probe on.
        at = np.flatnonzero((self._slot_keys[slots] ^ flat) > 0)
        if at.size:
            mask = self._slot_keys.size - 1
            want, slots = flat[at], slots[at]
            while at.size:
                slots = (slots + 1) & mask
                rows[at] = self._slot_rows[slots]
                on = (self._slot_keys[slots] ^ want) > 0
                at, want, slots = at[on], want[on], slots[on]
        return rows.reshape(variables.shape)

    def _place(self, keys: np.ndarray, rows: np.ndarray) -> None:
        """Enter distinct keys, none of them in the index, with their rows.

        Every pending key whose slot is free writes itself there and
        reads the slot back: exactly one writer per slot reads its own
        key and wins.  The rest probe on to the next slot.
        """
        mask = self._slot_keys.size - 1
        slots = self._home(keys)
        while keys.size:
            free = self._slot_keys[slots] == _FREE
            self._slot_keys[slots[free]] = keys[free]
            won = self._slot_keys[slots] == keys
            self._slot_rows[slots[won]] = rows[won]
            lost = ~won
            keys, rows, slots = keys[lost], rows[lost], (slots[lost] + 1) & mask

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
        fresh = np.flatnonzero(rows == 0)
        if fresh.size:
            fresh_vars = variables[fresh]
            new = np.sort(fresh_vars)
            first = np.ones(new.size, dtype=bool)
            np.not_equal(new[1:], new[:-1], out=first[1:])
            new = new[first]
            new_rows = self._append_rows(new.size)
            rows[fresh] = new_rows[new.searchsorted(fresh_vars)]
            size = self._slot_keys.size
            while _SLOTS_PER_KEY * (self._used - 1) > size:
                size *= 2
            if size > self._slot_keys.size:
                # Grow: re-place every resident key with the new ones.
                resident = self._slot_keys != _FREE
                new = np.concatenate((self._slot_keys[resident], new))
                new_rows = np.concatenate((self._slot_rows[resident], new_rows))
                self._new_index(size)
            self._place(new, new_rows)
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
        red = self.params.redundancy
        if variables.ndim != 1 or reached_mask.shape != (variables.size, red):
            raise ValueError(
                f"reached_mask must have shape (len(variables), {red}), "
                f"got {reached_mask.shape} for variables of shape {variables.shape}"
            )
        if not reached_mask.any(axis=1).all():
            raise ValueError("every row must reach at least one copy")
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
        resident = self._slot_keys != _FREE
        keys = self._slot_keys[resident]
        order = np.argsort(keys)
        keys, rows = keys[order], self._slot_rows[resident][order]
        stamps = self._stamps[rows]
        hit = stamps >= 0
        cids = (keys[:, None] * red + np.arange(red, dtype=np.int64))[hit]
        return dict(
            zip(
                cids.tolist(),
                zip(self._values[rows][hit].tolist(), stamps[hit].tolist()),
            )
        )
