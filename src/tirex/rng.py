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
from threading import Event, Thread

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
    """``[fn(0), ..., fn(n_reps - 1)]`` on w = max(1, min(workers, n_reps,
    CPUs this process may use)) threads of work, the calling thread
    included, and no pool: share i runs replications i, i + w, ..., share 0
    in the calling thread and shares 1 ... w - 1 on threads started here.
    An exception in any replication stops every share before its next
    replication and is raised here once all threads have joined.  With
    w = 1 no thread starts."""
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    w = max(1, min(workers, n_reps, cpus))
    failed = Event()
    errors = []
    shares = [[] for _ in range(w)]

    def run_share(i):
        for r in range(i, n_reps, w):
            if failed.is_set():
                return  # another replication raised: no result is read
            try:
                shares[i].append(fn(r))
            except BaseException as exc:  # re-raised in the calling thread
                errors.append(exc)
                failed.set()

    threads = []
    try:
        for i in range(1, w):
            thread = Thread(target=run_share, args=(i,))
            thread.start()
            threads.append(thread)
        run_share(0)
    except BaseException:  # a thread failed to start: stop the started ones
        failed.set()
        raise
    finally:
        for thread in threads:
            thread.join()
    if errors:
        raise errors[0]
    return [shares[r % w][r // w] for r in range(n_reps)]
