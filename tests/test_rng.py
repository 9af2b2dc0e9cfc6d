import subprocess
import sys
import threading
import time

import pytest

from tirex.rng import replicate

from oracles import set_cpus, threads_of_work


def test_replicate_caps_the_threads_at_workers_reps_and_cpus(monkeypatch):
    # (cpus, workers, reps, threads of work): a large --jobs or --reps asks
    # for no more threads than there are CPUs, and one worker starts none;
    # no workers still runs every replication, and no replications give []
    for cpus, workers, n_reps, want in ((64, 2, 3, [2]), (64, 64, 3, [3]),
                                        (4, 10**5, 10**5, [4]), (64, 1000, 5, [5]),
                                        (3, 1000, 1000, [3]), (1, 64, 100, []),
                                        (64, 1, 100, []), (64, 0, 7, []), (64, 8, 0, [])):
        set_cpus(monkeypatch, cpus)
        sizes = threads_of_work(monkeypatch)
        assert replicate(lambda r: r, n_reps, workers) == list(range(n_reps))
        assert sizes == want
    monkeypatch.delattr("os.sched_getaffinity", raising=False)
    for cpu_count, want in ((None, []), (6, [6]), (500, [200])):
        monkeypatch.setattr("os.cpu_count", lambda: cpu_count)
        sizes = threads_of_work(monkeypatch)
        replicate(lambda r: r, 200, 200)
        assert sizes == want


def test_one_worker_runs_in_the_calling_thread_and_imports_no_pool():
    # with two workers the calling thread runs share 0 (replications 0, 2,
    # 4) and one started thread runs share 1; neither count loads a pool
    code = ("import os, sys, threading; from tirex.rng import replicate; "
            "os.sched_getaffinity = lambda pid: {0, 1}; "
            "me = threading.get_ident(); "
            "ids = replicate(lambda r: threading.get_ident(), 5, 1); "
            "assert ids == [me] * 5, ids; "
            "assert replicate(lambda r: threading.get_ident(), 5, 0) == ids; "
            "ids = replicate(lambda r: threading.get_ident(), 5, 2); "
            "assert ids[0::2] == [me] * 3 and me not in ids[1::2], ids; "
            "assert len(set(ids[1::2])) == 1, ids; "
            "print(sorted(m for m in sys.modules if m.startswith('concurrent')))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


@pytest.mark.parametrize("failing", [0, 1])
def test_a_failing_replication_stops_the_other_workers(monkeypatch, failing):
    # on two threads replication 0 (the calling thread's share) or 1 (the
    # started thread's share) raises; the other share used to run all of
    # its 500 replications before the error reached the caller
    set_cpus(monkeypatch, 2)
    ran = []

    def fn(r):
        ran.append(r)
        time.sleep(1e-3)
        if r == failing:
            raise ValueError(f"replication {r} failed")
        return r

    with pytest.raises(ValueError, match=f"replication {failing} failed"):
        replicate(fn, 1000, 2)
    assert failing in ran and len(ran) < 50


def test_eight_threads_on_few_cores_keep_every_result_and_join(monkeypatch):
    # more threads of work than cores, switching every microsecond: every
    # replication's result lands at its own index, and every started thread
    # has ended when replicate returns or raises
    set_cpus(monkeypatch, 8)
    before = threading.active_count()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        assert replicate(lambda r: [r] * (r % 3), 2000, 8) == [[r] * (r % 3) for r in range(2000)]
        assert threading.active_count() == before

        def fn(r):
            if r % 7 == 3:
                raise ValueError(f"replication {r} failed")
            return r

        with pytest.raises(ValueError, match="replication .* failed"):
            replicate(fn, 2000, 8)
        assert threading.active_count() == before
    finally:
        sys.setswitchinterval(interval)
