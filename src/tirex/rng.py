"""Counter-based random number streams.

Every stochastic routine in the package draws from a Philox generator keyed
by ``(seed, *stream)``.  Stream keys make replications order-independent:
replication ``r`` of a Monte-Carlo experiment always sees the same draws no
matter how many threads ``replicate`` runs or in which order they finish.

Stream-key conventions used across the package (first component = purpose):

* ``(0, r)``   -- synthetic sample for replication ``r``
* ``(1,)``     -- train/test split shuffling
* ``(2,)``     -- cross-validation fold assignment
* ``(3,)``     -- Monte-Carlo covariate draws for tail-ratio expectations
* ``(4, r)``   -- process-verification replication ``r``
"""

import os

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


def replicate(fn, n_reps, workers):
    """``[fn(0), ..., fn(n_reps - 1)]`` on w = min(workers, n_reps, CPUs this
    process may use) threads, worker i running replications i, i + w, ...;
    an exception in any replication is raised here, and the other workers
    start no further replication once it is.  With w = 1 the loop runs in
    the calling thread and no pool is made."""
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    w = min(workers, n_reps, cpus)
    if w <= 1:
        return [fn(r) for r in range(n_reps)]
    import concurrent.futures  # here: the import costs every CLI call ~10 ms
    import threading

    failed = threading.Event()

    def run(r):
        if failed.is_set():
            return None  # another replication raised: no result is read
        try:
            return fn(r)
        except BaseException:
            failed.set()
            raise

    with concurrent.futures.ThreadPoolExecutor(max_workers=w) as pool:
        shares = list(pool.map(lambda i: [run(r) for r in range(i, n_reps, w)], range(w)))
    return [shares[r % w][r // w] for r in range(n_reps)]
