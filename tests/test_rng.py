import subprocess
import sys
import time

import pytest

from tirex.rng import replicate

from oracles import serial_pools, set_cpus


def test_replicate_caps_the_threads_at_workers_reps_and_cpus(monkeypatch):
    # (cpus, workers, reps, pool sizes): a large --jobs or --reps asks for
    # no more threads than there are CPUs, and one worker makes no pool
    for cpus, workers, n_reps, want in ((64, 2, 3, [2]), (64, 64, 3, [3]),
                                        (4, 10**5, 10**5, [4]), (64, 1000, 5, [5]),
                                        (3, 1000, 1000, [3]), (1, 64, 100, []),
                                        (64, 1, 100, [])):
        set_cpus(monkeypatch, cpus)
        sizes = serial_pools(monkeypatch)
        assert replicate(lambda r: r, n_reps, workers) == list(range(n_reps))
        assert sizes == want
    monkeypatch.delattr("os.sched_getaffinity", raising=False)
    for cpu_count, want in ((None, []), (6, [6]), (500, [200])):
        monkeypatch.setattr("os.cpu_count", lambda: cpu_count)
        sizes = serial_pools(monkeypatch)
        replicate(lambda r: r, 200, 200)
        assert sizes == want


def test_one_worker_runs_in_the_calling_thread_and_imports_no_pool():
    code = ("import sys, threading; from tirex.rng import replicate; "
            "ids = replicate(lambda r: threading.get_ident(), 5, 1); "
            "assert ids == [threading.get_ident()] * 5; "
            "print(sorted(m for m in sys.modules if m.startswith('concurrent')))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_a_failing_replication_stops_the_other_workers(monkeypatch):
    # on two real threads replication 0 raises; the other worker used to run
    # its whole share of 500 before the error reached the caller
    set_cpus(monkeypatch, 2)
    ran = []

    def fn(r):
        ran.append(r)
        time.sleep(1e-3)
        if r == 0:
            raise ValueError("replication 0 failed")
        return r

    with pytest.raises(ValueError, match="replication 0 failed"):
        replicate(fn, 1000, 2)
    assert 0 in ran and len(ran) < 50
