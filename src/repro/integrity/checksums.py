"""Block-CRC sidecars over warm arrays: the cheap end of the tier.

A :class:`ChecksummedArrays` store seals named numpy arrays into
per-block CRC32 sidecars and later re-verifies them.  The block layout
(~64 KB per block) keeps two properties the serving layer needs:

* **detection granularity** — a mismatch names the exact array and
  block, so an operator can tell "one flipped bit in the transpose"
  from "the whole session is garbage";
* **cheap verification** — CRC32 over memoryview slices runs at
  memcpy-like speed (zlib's slice-by-8).  Each sweep still reads every
  sealed byte, so the engine sweeps a warm session's read-only arrays
  twice per run — at borrow and at ``run:final``, plus once more if a
  phase raises, and at every phase entry while the unchecked compiled
  kernels run — and sweeps the run state the phases write (labels,
  colours) at every phase boundary (priced by
  ``benchmarks/bench_integrity.py`` into ``BENCH_integrity.json``
  against a 5% serving-overhead budget).

Seals are *identity-free*: only byte content is hashed (plus dtype and
byte length, which change the block layout), so re-verifying a view,
a copy, or the fork-inherited twin of a sealed array all work.  The
seal keeps the ``np.dtype`` itself and compares it on verify: dtype
equality also tells byte orders apart (``<i8`` from ``>i8``), and
formatting ``str(dtype)`` on every call cost ~6.6 µs on NumPy 2.4
against ~0.1 µs for the comparison.  A mismatch raises
:class:`~repro.errors.IntegrityError` (exit code 20).
"""

from __future__ import annotations

import zlib
from typing import Dict, Optional, Tuple

import numpy as np

from ..errors import IntegrityError

__all__ = ["DEFAULT_BLOCK_BYTES", "ChecksummedArrays"]

#: block size for the CRC sidecars; 64 KB keeps sidecar overhead
#: ~0.006% of the data while still localizing a mismatch.
DEFAULT_BLOCK_BYTES = 64 * 1024


def _array_bytes(array: np.ndarray) -> memoryview:
    """A zero-copy byte view of ``array`` (contiguous arrays only)."""
    a = np.ascontiguousarray(array)
    return memoryview(a).cast("B")


class ChecksummedArrays:
    """Seal named arrays into block-CRC sidecars; verify them later.

    Not thread-safe for concurrent seal/verify of the *same* name;
    callers (sessions, runs) already serialize access to the arrays
    themselves, which covers the sidecars too.
    """

    def __init__(self, *, block_bytes: int = DEFAULT_BLOCK_BYTES) -> None:
        if block_bytes < 1:
            raise ValueError("block_bytes must be >= 1")
        self.block_bytes = block_bytes
        #: name -> (dtype, nbytes, per-block CRC tuple)
        self._seals: Dict[str, Tuple[np.dtype, int, Tuple[int, ...]]] = {}
        # counters (surfaced in session stats / service reports)
        self.seals = 0
        self.verifications = 0
        self.mismatches = 0

    # -- sealing --------------------------------------------------------
    def _block_crcs(self, array: np.ndarray) -> Tuple[int, ...]:
        mv = _array_bytes(array)
        step = self.block_bytes
        return tuple(
            zlib.crc32(mv[off : off + step]) & 0xFFFFFFFF
            for off in range(0, len(mv) or 1, step)
        )

    def seal(self, name: str, array: np.ndarray) -> None:
        """(Re)compute ``name``'s sidecar from ``array``'s bytes."""
        self._seals[name] = (
            array.dtype,
            int(array.nbytes),
            self._block_crcs(array),
        )
        self.seals += 1

    def drop(self, name: str) -> bool:
        """Forget one seal (True when it existed)."""
        return self._seals.pop(name, None) is not None

    def sealed(self, name: str) -> bool:
        return name in self._seals

    @property
    def names(self) -> Tuple[str, ...]:
        return tuple(sorted(self._seals))

    # -- verification ---------------------------------------------------
    def verify(
        self, name: str, array: np.ndarray, *, context: str = ""
    ) -> None:
        """Check ``array`` against ``name``'s sidecar.

        Raises :class:`~repro.errors.IntegrityError` naming the array,
        the first mismatching block, and ``context`` (the boundary
        that caught it).  An unsealed name is a caller bug and raises
        ``KeyError`` — silently passing unchecked data would defeat
        the tier.
        """
        dtype, nbytes, blocks = self._seals[name]
        self.verifications += 1
        if array.dtype != dtype or array.nbytes != nbytes:
            self.mismatches += 1
            raise IntegrityError(
                f"array shape/dtype drifted from seal "
                f"(sealed {dtype}/{nbytes}B, "
                f"got {array.dtype}/{array.nbytes}B)",
                array=name,
                context=context or None,
            )
        mv = _array_bytes(array)
        step = self.block_bytes
        for i, expected in enumerate(blocks):
            actual = zlib.crc32(mv[i * step : (i + 1) * step]) & 0xFFFFFFFF
            if actual != expected:
                self.mismatches += 1
                raise IntegrityError(
                    f"block checksum mismatch "
                    f"(expected {expected:#010x}, got {actual:#010x})",
                    array=name,
                    block=i,
                    context=context or None,
                )

    def verify_all(
        self,
        arrays: Dict[str, np.ndarray],
        *,
        context: str = "",
        require_all_sealed: bool = False,
    ) -> int:
        """Verify every sealed name present in ``arrays``.

        Names in ``arrays`` without a seal are skipped (a session may
        not have built its transpose yet) unless ``require_all_sealed``
        is set.  Returns how many arrays were verified.
        """
        checked = 0
        for name, array in arrays.items():
            if name not in self._seals:
                if require_all_sealed:
                    raise KeyError(f"array {name!r} was never sealed")
                continue
            self.verify(name, array, context=context)
            checked += 1
        return checked

    def crc32(self, name: str) -> Optional[int]:
        """Whole-array CRC derived from the sidecar (None if unsealed).

        CRC32 of concatenated blocks is *not* the CRC of the whole
        byte string, so this combines block CRCs with
        ``zlib.crc32_combine``-style folding via recomputation-free
        accumulation: we store per-block CRCs, so the whole-array tag
        is simply the CRC chain over the block tags — stable, cheap,
        and good enough for equality comparison between two sidecars.
        """
        sealed = self._seals.get(name)
        if sealed is None:
            return None
        crc = 0
        for block in sealed[2]:
            crc = zlib.crc32(
                block.to_bytes(4, "little"), crc
            )
        return crc & 0xFFFFFFFF

    def to_dict(self) -> dict:
        return {
            "sealed_arrays": len(self._seals),
            "block_bytes": self.block_bytes,
            "seals": self.seals,
            "verifications": self.verifications,
            "mismatches": self.mismatches,
        }

    def __len__(self) -> int:
        return len(self._seals)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ChecksummedArrays({len(self._seals)} sealed, "
            f"{self.verifications} verified, "
            f"{self.mismatches} mismatched)"
        )
