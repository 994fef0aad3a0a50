"""Helpers shared by the benchmark runner and its workload processes."""

from __future__ import annotations

import json
import os
import pathlib
import platform
import resource
import subprocess
import time

import numpy as np

BENCH_DIR = pathlib.Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

#: Pinned to one thread in every workload's environment.  At the BLAS
#: libraries' default thread count (one per core) the logistic-regression
#: passes ran about 6x slower on a 2-core box and their run-to-run spread
#: was about 20%, too wide to gate on; ``tradeoff_sweep``'s traced run
#: still measures one pass at the defaults (``blas.default_threads_slowdown``).
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

RESULT_PREFIX = "PERFBENCH_RESULT "

#: A reference-loop slice's time, in seconds: a round figure near its
#: median on the 2-core Xeon box the benchmark was defined on.  That
#: shared host's speed drifted by up to 1.6x within five minutes, for the
#: program and for this loop alike, so the gated timings are reported at
#: this reference speed: each is scaled by ``REF_S / t``, where ``t`` is
#: the loop's time measured next to it in the same process
#: (``at_reference_speed``).
REF_S = 0.025
#: slices per reference measurement; their median is the measurement
REF_SLICES = 5


class _Reference:
    """A fixed mix of numpy and interpreter work that calls no ``repro`` code.

    Logistic-gradient steps on a 20k x 20 matrix (the shape of the
    logistic-regression fits), elementwise passes over 200k values (like
    naive-Bayes scoring) and a loop over Python dicts.  Its inputs are
    fixed, not drawn from the workload seed, so its time depends on the
    host alone.
    """

    def __init__(self):
        rng = np.random.default_rng(20211)
        self.X = rng.standard_normal((20_000, 20))
        self.y = (rng.random(20_000) < 0.3).astype(float)
        self.a = rng.random(200_000)
        self.rows = [{"k": i, "v": float(i)} for i in range(10_000)]

    def slice_s(self):
        t0 = time.perf_counter()
        w = np.zeros(self.X.shape[1])
        for _ in range(48):
            p = 1.0 / (1.0 + np.exp(-(self.X @ w)))
            w -= 1e-4 * (self.X.T @ (p - self.y))
        total = 0.0
        for _ in range(16):
            total += float(((self.a - 0.3) ** 2 * 1.7).sum())
            total += float(np.log1p(self.a).sum())
        for _ in range(4):
            for row in self.rows:
                total += row["v"] * 0.5 if row["k"] % 3 else row["v"]
        return time.perf_counter() - t0


_REFERENCE = None


def reference_s():
    """Time the reference loop now: the median of ``REF_SLICES`` slices."""
    global _REFERENCE
    if _REFERENCE is None:
        _REFERENCE = _Reference()
    return median([_REFERENCE.slice_s() for _ in range(REF_SLICES)])


def at_reference_speed(seconds, ref_s):
    """``seconds`` measured while the reference loop took ``ref_s``."""
    return seconds * REF_S / ref_s


def workload_env(blas_defaults=False):
    """Environment for a workload process.

    The thread variables are set to 1, or removed when ``blas_defaults``
    is true so the libraries pick their own defaults.
    """
    env = dict(os.environ)
    for name in THREAD_VARS:
        env.pop(name, None)
        if not blas_defaults:
            env[name] = "1"
    paths = [str(SRC), str(BENCH_DIR)]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def quantile(values, q):
    """Linear-interpolated quantile ``q`` in [0, 1] of a non-empty list."""
    return float(np.percentile(values, 100.0 * q))


def median(values):
    return quantile(values, 0.5)


def share(part, whole):
    return part / whole if whole else 0.0


def peak_rss_mb(pid=None):
    """Peak resident set size in MB of this process or of ``pid``."""
    if pid is None:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    status = pathlib.Path(f"/proc/{pid}/status").read_text()
    for line in status.splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for process {pid}")


def emit_result(payload):
    """Print a workload process's result as its last stdout line."""
    print(RESULT_PREFIX + json.dumps(payload), flush=True)


def read_result(stdout):
    """The result a workload process printed, or None."""
    for line in reversed(stdout.splitlines()):
        if line.startswith(RESULT_PREFIX):
            return json.loads(line[len(RESULT_PREFIX):])
    return None


def environment_block():
    """Machine and library facts recorded with every run."""
    block = {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": None,
        "blas": None,
        "commit": None,
        "thread_vars": {
            name: {"caller": os.environ.get(name), "workload": "1"}
            for name in THREAD_VARS
        },
    }
    try:
        import scipy

        block["scipy"] = scipy.__version__
    except ImportError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        block["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        pass
    try:
        top, commit = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
            capture_output=True, text=True, timeout=10, check=True,
        ).stdout.split()
        if pathlib.Path(top).resolve() == ROOT:
            block["commit"] = commit
    except (OSError, ValueError, subprocess.SubprocessError):
        pass
    return block
