"""The ``serve_mixed`` workload: mixed reads and writes on one served model.

A ``repro serve`` subprocess gets one logistic-regression model from
``POST /retune`` on the Adult twin, and its incremental auditor is seeded
by a first ``POST /update`` with a 200k-row base.  An open loop from this
process then sends ``/predict`` on a seeded Poisson schedule at six
fixed rates (most requests carry one row, a seeded share 256 rows) over
at most ``nproc`` connections, next to ``/update`` deltas (500-row append
plus 500-row retire) at a fixed low rate.  Run from the repository root::

    PYTHONPATH=src:perfbench python3 perfbench/serve.py --seed 1 \
        --seconds 20 [--trace] [--setups 3]

After the open loop, 1-row ``/predict`` requests run back to back on
the same connections for a moment; their throughput is the capacity the
schedule's rates are fractions of.

Every ``/predict`` answer is compared with a locally solved twin of the
model, and the last ``/update`` audit with a from-scratch audit of the
live rows this process tracked.  The last stdout line is the result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import pathlib
import queue
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time

import numpy as np

from common import (
    BENCH_DIR, ROOT, emit_result, median, peak_rss_mb, quantile,
    reference_s, share, workload_env,
)

MODEL = "fair"
SPEC = "SP <= 0.05"
ESTIMATOR = "LR"
TRAIN_ROWS = 48_842  # the Adult twin at paper size
BASE_ROWS = 200_000
POOL_ROWS = 20_000
BIG_ROWS = 256
BIG_SHARE = 0.05
UPDATE_ROWS = 500
UPDATE_RATE = 2.0
#: closed-loop 1-row ``/predict`` throughput over 2 connections with
#: batching on (``predict_capacity_rps``; perfbench/METRICS.md has the
#: probe)
CAPACITY_RPS = 560.0
#: predict rates as fractions of ``CAPACITY_RPS``; the first is the
#: reference rate, the lowest, where the batcher's straggler wait shows
RATE_FRACTIONS = (0.15, 0.3, 0.45, 0.6, 0.75, 0.9)
RATES = tuple(round(f * CAPACITY_RPS) for f in RATE_FRACTIONS)
#: share of the timed window spent at each rate
RATE_SHARES = (0.4,) + (0.12,) * 5
#: seconds of closed-loop traffic after the window (``predict_capacity_rps``)
CAPACITY_S = 2.0
P99_LIMIT_MS = 25.0
LAG_GROWTH_LIMIT_MS = 5.0
QUICK = {"TRAIN_ROWS": 3_000, "BASE_ROWS": 20_000, "POOL_ROWS": 2_000}


class ServeFailed(Exception):
    """The server misbehaved or answered wrongly."""


# -- inputs ------------------------------------------------------------------


class Inputs:
    """Everything the workload sends, generated from ``seed``."""

    def __init__(self, seed, seconds, sizes):
        from repro.datasets import load

        self.retune = {"dataset": "adult", "n": sizes["TRAIN_ROWS"],
                       "seed": seed}
        self.base_spec = {"dataset": "adult", "n": sizes["BASE_ROWS"],
                          "seed": seed + 1}
        pool = load("adult", n=sizes["POOL_ROWS"], seed=seed + 2)
        self.pool = pool.X
        self.seconds = seconds
        rng = np.random.default_rng(seed)
        self.events = []
        start = 0.0
        for step, (rate, frac) in enumerate(zip(RATES, RATE_SHARES)):
            end = start + frac * seconds
            t = start + rng.exponential(1.0 / rate)
            while t < end:
                n = BIG_ROWS if rng.random() < BIG_SHARE else 1
                first = int(rng.integers(0, len(self.pool) - n))
                self.events.append((t, "predict", step, (first, n)))
                t += rng.exponential(1.0 / rate)
            start = end
        n_updates = int(seconds * UPDATE_RATE)
        if n_updates * UPDATE_ROWS > sizes["BASE_ROWS"]:
            raise ServeFailed("more rows retired than the base holds")
        fresh = load("adult", n=max(n_updates, 1) * UPDATE_ROWS, seed=seed + 3)
        self.fresh = fresh
        retire_order = rng.permutation(sizes["BASE_ROWS"])
        for u in range(n_updates):
            rows = slice(u * UPDATE_ROWS, (u + 1) * UPDATE_ROWS)
            retire = np.sort(retire_order[rows])
            self.events.append(
                ((u + 0.5) / UPDATE_RATE, "update", None, (rows, retire))
            )
        self.events.sort(key=lambda e: e[0])

    def rows(self, ref):
        first, n = ref
        return self.pool[first:first + n]


# -- the server --------------------------------------------------------------


class Server:
    """One ``repro serve`` process, optionally under the span launcher."""

    def __init__(self, trace, workdir):
        env = workload_env()
        self.spans_path = None
        if trace:
            self.spans_path = pathlib.Path(
                tempfile.mkstemp(suffix=".json", dir=workdir)[1]
            )
            cmd = [sys.executable, str(BENCH_DIR / "serve_launcher.py"),
                   "--spans-out", str(self.spans_path), "--"]
        else:
            cmd = [sys.executable, "-m", "repro"]
        cmd += ["serve", "--host", "127.0.0.1", "--port", "0"]
        self._drain = None
        self.spawned = time.monotonic()
        self.proc = subprocess.Popen(
            cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT, text=True,
        )
        line = self.proc.stdout.readline()
        if not line.startswith("serving on "):
            self.stop()
            raise ServeFailed(f"server did not start: {line!r}")
        self.port = int(line.split()[2].rpartition(":")[2])
        # keep the pipe drained so server output can never block it
        self._drain = threading.Thread(target=self.proc.stdout.read)
        self._drain.start()

    def client(self):
        from repro.serving import ServingClient

        return ServingClient(port=self.port, timeout=60.0, retry=False)

    def peak_rss_mb(self):
        return peak_rss_mb(self.proc.pid)

    def stop(self):
        """SIGINT (the serve command's clean shutdown), then wait."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        if self._drain is not None:
            self._drain.join()
        self.proc.stdout.close()

    def spans(self):
        return json.loads(self.spans_path.read_text())


def set_up(inputs, trace, workdir):
    """Boot, retune, seed the auditor; returns the live server and facts.

    The reference loop is timed before the boot and after set-up, for
    scaling the set-up and ``/retune`` times to the reference speed.
    """
    ref_before = reference_s()
    server = Server(trace, workdir)
    try:
        with server.client() as client:
            job = client.retune(
                SPEC, inputs.retune["dataset"], name=MODEL,
                estimator=ESTIMATOR, n=inputs.retune["n"],
                seed=inputs.retune["seed"],
            )["job_id"]
            while True:
                status = client.job(job)
                if status["status"] not in ("pending", "running"):
                    break
                time.sleep(0.005)
            if status["status"] != "done":
                raise ServeFailed(f"/retune job ended {status['status']}: "
                                  f"{status.get('error')}")
            client.update(MODEL, base=inputs.base_spec, retune=False)
        ready = time.monotonic()
        ref_s = (ref_before + reference_s()) / 2
    except BaseException:
        server.stop()
        raise
    return server, {
        "setup_s": ready - server.spawned,
        "cold_s": status["finished_at"] - status["started_at"],
        "ref_s": ref_s,
        "lambdas": status["result"]["lambdas"],
    }


# -- the open loop -----------------------------------------------------------


def open_loop(server, inputs, n_conns):
    """Send every scheduled event at its due time; record the outcomes.

    Each record is ``(event, due, sent, done, answer or None, error)``
    with times from ``time.perf_counter``.  Latency is measured from the
    due time, so a stall also charges the requests queued behind it.
    """
    work = queue.Queue()
    records = []
    lock = threading.Lock()

    def worker():
        with server.client() as client:
            while True:
                item = work.get()
                if item is None:
                    return
                event, due = item
                sent = time.perf_counter()
                answer, error = None, None
                try:
                    if event[1] == "predict":
                        answer = client.predict(MODEL, inputs.rows(event[3]))
                    else:
                        rows, retire = event[3]
                        answer = client.update(
                            MODEL, retune=False, retire=retire,
                            append={
                                "X": inputs.fresh.X[rows],
                                "y": inputs.fresh.y[rows],
                                "sensitive": inputs.fresh.sensitive[rows],
                            },
                        )["audit"]
                except Exception as exc:  # every failure is counted
                    error = f"{type(exc).__name__}: {exc}"
                done = time.perf_counter()
                with lock:
                    records.append((event, due, sent, done, answer, error))

    threads = [threading.Thread(target=worker) for _ in range(n_conns)]
    for thread in threads:
        thread.start()
    # batcher counters at each rate step's start, read from ``/stats``
    snapshots = []
    starts = list(np.cumsum((0.0,) + RATE_SHARES[:-1]) * inputs.seconds)
    start = time.perf_counter() + 0.05
    try:
        with server.client() as stats_client:
            for event in inputs.events:
                while starts and event[0] >= starts[0]:
                    snapshots.append(stats_snapshot(stats_client))
                    starts.pop(0)
                due = start + event[0]
                delay = due - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                work.put((event, due))
    finally:
        for _ in threads:
            work.put(None)
        for thread in threads:
            thread.join()
    return start, time.perf_counter(), records, snapshots


def closed_loop(server, inputs, n_conns, seconds):
    """Back-to-back 1-row ``/predict`` on every connection for ``seconds``.

    Returns the throughput in requests/s and the ``(rows, answer)`` pairs
    (the answers are checked like the open loop's).
    """
    answers = [[] for _ in range(n_conns)]

    def worker(i, stop):
        with server.client() as client:
            first = i
            while time.perf_counter() < stop:
                ref = (first % (len(inputs.pool) - 1), 1)
                answers[i].append((ref, client.predict(MODEL,
                                                       inputs.rows(ref))))
                first += n_conns

    start = time.perf_counter()
    threads = [threading.Thread(target=worker, args=(i, start + seconds))
               for i in range(n_conns)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - start
    pairs = [pair for mine in answers for pair in mine]
    return len(pairs) / elapsed, pairs


def rate_report(records, snapshots):
    """Per-rate latency, lag, batching, and the highest rate meeting the
    limit; ``snapshots`` are the ``/stats`` counters at each step's start
    and the window's end."""
    steps = []
    best = 0.0
    for step, rate in enumerate(RATES):
        mine = sorted(
            (r for r in records if r[0][1] == "predict" and r[0][2] == step),
            key=lambda r: r[1],
        )
        if not mine:
            continue
        batcher = stats_delta(snapshots[step], snapshots[step + 1])["batcher"]
        lat = [(r[3] - r[1]) * 1e3 for r in mine]
        lag = [(r[2] - r[1]) * 1e3 for r in mine]
        quarter = max(len(lag) // 4, 1)
        growth = median(lag[-quarter:]) - median(lag[:quarter])
        failed = sum(1 for r in mine if r[5] is not None)
        p99 = quantile(lat, 0.99)
        ok = failed == 0 and p99 <= P99_LIMIT_MS and (
            growth <= LAG_GROWTH_LIMIT_MS
        )
        if ok:
            best = rate
        steps.append({
            "rate": rate, "n": len(mine), "failed": failed,
            "p50_ms": median(lat), "p99_ms": p99,
            "lag_growth_ms": growth, "meets_limit": ok,
            "mean_batch_size": share(batcher["requests"], batcher["batches"]),
            "coalesced_share": share(batcher["coalesced"], batcher["requests"]),
        })
    return steps, best


# -- checks ------------------------------------------------------------------


def solve_twin(inputs):
    """Solve the served model locally, exactly as the retune job does."""
    from repro.api import Engine, Problem
    from repro.datasets import load
    from repro.ml.adapters import resolve_model

    spec = inputs.retune
    data = load(spec["dataset"], n=spec["n"], seed=spec["seed"])
    return Engine().solve(
        Problem(SPEC), resolve_model(ESTIMATOR), data, seed=spec["seed"],
    )


def check(inputs, twin, facts, records, capacity_pairs):
    """Return the number of wrong answers; raise on a broken final state."""
    wrong = sum(
        1 for ref, answer in capacity_pairs
        if not np.array_equal(answer, twin.predict(inputs.rows(ref)))
    )
    if facts["lambdas"] != twin.lambdas.tolist():
        raise ServeFailed(
            f"served λ {facts['lambdas']} != local twin {twin.lambdas}"
        )
    last = None
    for event, _due, _sent, _done, answer, error in records:
        if error is not None:
            continue
        if event[1] == "predict":
            expected = twin.predict(inputs.rows(event[3]))
            if not np.array_equal(answer, expected):
                wrong += 1
        elif last is None or answer["n_updates"] > last["n_updates"]:
            last = answer
    if last is None:
        return wrong
    from repro.datasets import Dataset, load

    spec = inputs.base_spec
    base = load(spec["dataset"], n=spec["n"], seed=spec["seed"])
    alive = np.ones(len(base), dtype=bool)
    appended = []
    for event, *_rest, error in records:
        if event[1] == "update" and error is None:
            rows, retire = event[3]
            alive[retire] = False
            appended.append(rows)
    fresh = inputs.fresh
    live = Dataset(
        name=base.name,
        X=np.vstack([base.X[alive]] + [fresh.X[r] for r in appended]),
        y=np.concatenate([base.y[alive]] + [fresh.y[r] for r in appended]),
        sensitive=np.concatenate(
            [base.sensitive[alive]] + [fresh.sensitive[r] for r in appended]
        ),
        group_names=base.group_names,
        sensitive_attribute=base.sensitive_attribute,
        feature_names=base.feature_names,
        task=base.task,
    )
    audit = twin.audit(live)
    served = dict(zip(last["constraint_labels"], last["disparities"]))
    if (last["n_live"] != len(live) or served != audit["disparities"]
            or last["accuracy"] != audit["accuracy"]):
        raise ServeFailed(
            f"final /update audit {served} acc={last['accuracy']} differs "
            f"from a from-scratch audit {audit['disparities']} "
            f"acc={audit['accuracy']}"
        )
    return wrong


# -- per-layer metrics from the server's spans -------------------------------


def layer_metrics(spans, window, records, stats_delta):
    """Per-request layer times over the timed window (milliseconds)."""
    lo, hi = window
    inside = [s for s in spans if lo <= s[3] <= hi]
    submit = [s[4] - s[3] for s in inside if s[2] == "batcher.submit"]
    batches = [(s[4] - s[3], s[5]) for s in inside
               if s[2] == "batcher.predict"]
    from spans import self_times

    selfs = self_times(spans)
    apply_ms = sum(selfs[s[0]] for s in inside
                   if s[2] == "incremental.apply")
    audit_ms = sum(s[4] - s[3] for s in inside
                   if s[2] == "incremental.audit")
    predicts = [r for r in records if r[0][1] == "predict"]
    updates = [r for r in records if r[0][1] == "update"]
    client_ms = [(r[3] - r[2]) * 1e3 for r in predicts]
    mean_submit = 1e3 * sum(submit) / max(len(submit), 1)
    per_request_predict = 1e3 * share(
        sum(d * n for d, n in batches), sum(n for _d, n in batches)
    )
    batcher = stats_delta["batcher"]
    return {
        "serving.outside_batcher_ms":
            sum(client_ms) / max(len(client_ms), 1) - mean_submit,
        "batcher.queue_wait_ms": mean_submit - per_request_predict,
        "batcher.predict_ms":
            1e3 * sum(d for d, _n in batches) / max(len(batches), 1),
        "batcher.mean_batch_size":
            share(batcher["requests"], batcher["batches"]),
        "batcher.coalesced_share":
            share(batcher["coalesced"], batcher["requests"]),
        "incremental.apply_ms": 1e3 * apply_ms / max(len(updates), 1),
        "incremental.audit_ms": 1e3 * audit_ms / max(len(updates), 1),
        "service.shed_share":
            share(stats_delta["shed_predict"], stats_delta["admitted"]),
        "service.error_share":
            share(stats_delta["errors"], stats_delta["admitted"]),
    }


def stats_snapshot(client):
    stats = client.stats()
    per_model = stats["batching"]["per_model"].get(MODEL) or {}
    return {
        "admitted": stats["admission"]["admitted"],
        "errors": stats["admission"]["errors"],
        "shed_predict": stats["admission"]["shed_predict"],
        "batcher": {key: per_model.get(key, 0)
                    for key in ("requests", "batches", "coalesced")},
    }


def stats_delta(before, after):
    out = {key: after[key] - before[key] for key in before if key != "batcher"}
    out["batcher"] = {key: after["batcher"][key] - before["batcher"][key]
                      for key in before["batcher"]}
    return out


# -- one session -------------------------------------------------------------


def session(inputs, twin, trace, workdir, n_conns):
    """Set up, run the open loop, tear down, check; returns a summary."""
    server, facts = set_up(inputs, trace, workdir)
    try:
        start, end, records, snapshots = open_loop(server, inputs, n_conns)
        with server.client() as client:
            snapshots.append(stats_snapshot(client))
        capacity, pairs = closed_loop(server, inputs, n_conns, CAPACITY_S)
        rss = server.peak_rss_mb()
    finally:
        server.stop()
    wrong = check(inputs, twin, facts, records, pairs)
    failed = sum(1 for r in records if r[5] is not None) + wrong
    steps, best = rate_report(records, snapshots)
    ref = [r for r in records if r[0][1] == "predict" and r[0][2] == 0]
    upd = [r for r in records if r[0][1] == "update"]
    lag = [(r[2] - r[1]) * 1e3 for r in ref]
    digest = hashlib.sha1(json.dumps(facts["lambdas"]).encode())
    for record in sorted(records, key=lambda r: r[1]):
        if record[0][1] == "predict" and record[5] is None:
            digest.update(np.asarray(record[4], dtype=np.int64).tobytes())
    out = {
        "setup_s": facts["setup_s"],
        "cold_s": facts["cold_s"],
        "ref_s": facts["ref_s"],
        "peak_rss_mb": rss,
        "attempted": len(records) + len(pairs),
        "failed": failed,
        "errors": sorted({r[5] for r in records if r[5]})[:5],
        "predict_ms": [(r[3] - r[1]) * 1e3 for r in ref],
        "update_ms": [(r[3] - r[1]) * 1e3 for r in upd],
        "steps": steps,
        "predict_max_rps": best,
        "predict_capacity_rps": capacity,
        "lag_p99_ms": quantile(lag, 0.99) if lag else 0.0,
        "digest": digest.hexdigest(),
    }
    if trace:
        out["layers"] = layer_metrics(
            server.spans(), (start, end), records,
            stats_delta(snapshots[0], snapshots[-1]),
        )
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setups", type=int, default=1,
                        help="set-ups measured; all but the last are "
                             "torn down right after set-up")
    parser.add_argument("--quick", action="store_true")
    args = parser.parse_args(argv)

    sizes = {"TRAIN_ROWS": TRAIN_ROWS, "BASE_ROWS": BASE_ROWS,
             "POOL_ROWS": POOL_ROWS}
    if args.quick:
        sizes.update(QUICK)
    n_conns = os.cpu_count() or 1
    workdir = tempfile.mkdtemp(prefix="perfbench-", dir=ROOT)
    try:
        inputs = Inputs(args.seed, args.seconds, sizes)
        twin = solve_twin(inputs)
        setups, colds, refs = [], [], []
        for _ in range(args.setups - 1):
            server, facts = set_up(inputs, False, workdir)
            server.stop()
            setups.append(facts["setup_s"])
            colds.append(facts["cold_s"])
            refs.append(facts["ref_s"])
        result = session(inputs, twin, args.trace, workdir, n_conns)
    except ServeFailed as exc:
        emit_result({"error": str(exc)})
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result["setups_s"] = setups + [result["setup_s"]]
    result["colds_s"] = colds + [result["cold_s"]]
    result["refs_s"] = refs + [result["ref_s"]]
    result["connections"] = n_conns
    if result["failed"]:
        result["error"] = (
            f"{result['failed']} of {result['attempted']} operations failed "
            f"or answered wrongly: {result['errors']}"
        )
    emit_result(result)
    return 0 if result["failed"] == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
