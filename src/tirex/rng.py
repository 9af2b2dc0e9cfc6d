"""Counter-based random number streams.

Every stochastic routine in the package draws from a Philox generator keyed
by ``(seed, *stream)``.  Stream keys make replications order-independent:
replication ``r`` of a Monte-Carlo experiment always sees the same draws no
matter how many worker processes or threads run or in which order cells
complete.

Stream-key conventions used across the package (first component = purpose):

* ``(0, r)``   -- synthetic sample for replication ``r``
* ``(1,)``     -- train/test split shuffling
* ``(2,)``     -- cross-validation fold assignment
* ``(3,)``     -- Monte-Carlo covariate draws for tail-ratio expectations
* ``(4, r)``   -- process-verification replication ``r``
"""

import numpy as np

from .errors import InvalidInputError


def stream(seed, *key):
    """Return a ``numpy.random.Generator`` for the given seed and stream key.

    Identical ``(seed, key)`` always yields a bit-identical draw sequence.
    """
    if seed is None:
        raise InvalidInputError("a seed is required for stochastic operations")
    key = tuple(int(k) for k in key)
    if int(seed) < 0 or min(key, default=0) < 0:
        raise InvalidInputError(f"seed and stream must be non-negative, got seed {seed}, key {key}")
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=key)
    return np.random.Generator(np.random.Philox(ss))
