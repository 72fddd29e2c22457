"""Fixed reference work that tracks the speed of a shared machine.

On a VM that shares its host, the CPU time of one and the same job moves by
20-30% over seconds to minutes as the other tenants' load changes.  Two
references follow that drift, and ifsseq code runs in neither, so a change
to ifsseq moves the scaled times in full:

- reference_cpu_s() times a fixed mix of the kinds of work ifsseq jobs do:
  interpreted Python, numpy calls on tiny arrays and a numpy round-and-dedup
  of 2D points.  The worker reads it just before each job, and the job's CPU
  time is scaled by REFERENCE_S / that reading.
- REFERENCE_START is a fresh interpreter that imports numpy.  run.py starts
  it just before each cold start of the CLI, whose CPU time is scaled by
  REFERENCE_START_S / the reference's.  Cold starts are mostly file and
  import work, which reference_cpu_s() does not track.

A scaled time is the time at the speed at which the references take
REFERENCE_S and REFERENCE_START_S, the typical speed of the 2-core VM the
baseline was recorded on.
"""

from __future__ import annotations

import time

import numpy as np

# CPU seconds of each reference at that speed: round numbers near their
# median readings on the baseline VM, 0.018-0.026 s and 0.20 s, as its speed
# moved.
REFERENCE_S = 0.02
REFERENCE_START_S = 0.2
REFERENCE_START = ("-c", "import numpy")

_rng = np.random.default_rng(0)
_POINTS = _rng.random((10_000, 2))
_MATRICES = _rng.random((8, 2, 2))
_VERTICES = _rng.random((4, 2))


def reference_cpu_s() -> float:
    """CPU seconds (user + system) of one fixed piece of reference work."""
    c0 = time.process_time()
    total = 0
    for i in range(40_000):  # interpreted Python
        total += i * i
    for i in range(1_500):  # small-array numpy calls, as in maps and systems
        np.abs(_VERTICES @ _MATRICES[i % 8].T - _VERTICES).max()
    np.unique(np.round(_POINTS * 100.0), axis=0)  # a large dedup, as in PointSet
    return time.process_time() - c0
