"""End-to-end integrity tier: trust the warm state, but verify it.

The serving stack keeps graph sessions warm for hours and forks
workers that inherit their arrays; every response's correctness
silently assumes those bytes never rot.  This package removes the
assumption with three cooperating defenses (DESIGN.md §14):

* :mod:`repro.integrity.checksums` — block-CRC sidecars
  (:class:`ChecksummedArrays`) over session-owned CSR/transpose/degree
  arrays, verified at session borrow, before a response is emitted
  (``run:final``) and whenever an exception escapes a phase (rot that
  crashes a kernel is answered typed), plus every phase entry while
  the unchecked compiled kernels run, and over the run-owned labels
  and colours the phases write, verified at every phase boundary; a
  mismatch raises :class:`~repro.errors.IntegrityError` (exit 20);
* :mod:`repro.integrity.certify` — machine-checkable result
  certificates (:func:`certify_result`): canonical CRC, sampled FW∧BW
  membership proofs (one forward and one backward BFS per sampled
  SCC, confined to its label), and a full Tarjan cross-check tier for
  small graphs, with a per-graph-version :class:`ProofLedger` so a
  repeat request on unchanged labels reuses the proofs;
* :mod:`repro.integrity.audit` — the continuous self-audit loop
  (:class:`SelfAuditor`): a deterministic sample of completed requests
  re-executed on the serial reference-NumPy path, mismatches
  quarantining the session and marking the backend suspect.

Chaos drills drive the whole detect → quarantine → rebuild → correct
path with the deterministic ``corrupt`` fault kind
(:mod:`repro.runtime.faults`).
"""

from .audit import AuditRecord, SelfAuditor
from .certify import (
    CERTIFY_LEVELS,
    ProofLedger,
    certify_level,
    certify_result,
)
from .checksums import DEFAULT_BLOCK_BYTES, ChecksummedArrays

__all__ = [
    "AuditRecord",
    "SelfAuditor",
    "CERTIFY_LEVELS",
    "ProofLedger",
    "certify_level",
    "certify_result",
    "ChecksummedArrays",
    "DEFAULT_BLOCK_BYTES",
]
