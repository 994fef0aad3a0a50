"""Solve workloads, one workload per fresh interpreter.

``tradeoff_sweep`` draws the paper's trade-off curves on the Adult twin at
paper size with the default logistic regression; ``grid_1m`` runs the
population grid on a million-row scenario with Gaussian naive Bayes.  A
*pass* is the workload's fixed list of solves; passes repeat until the
timed window is spent.  Run from the repository root::

    PYTHONPATH=src:perfbench python3 perfbench/solve.py \
        --workload grid_1m --seed 1 --seconds 20 [--trace] [--probe]

``--probe`` stops after set-up (``run.py`` repeats set-up for its
``setup_s`` median); ``--seconds 0`` runs the cold pass only.  The
reference loop (``common.reference_s``) is timed after set-up and after
every pass, so each timing can be scaled to the reference speed with the
loop's times next to it.  The last stdout line is the result record.
"""

from __future__ import annotations

import argparse
import hashlib
import shutil
import tempfile
import time

import numpy as np

from common import (
    ROOT, emit_result, median, peak_rss_mb, reference_s, share,
)
from spans import SOLVE_TARGETS, Recorder, layer_self_times

#: tradeoff_sweep: SP from loose to tight (the store warm-starts each
#: tighter solve), then FOR, then EO (Algorithm 2), then the first spec
#: respelled, which the solution cache must answer with zero fits.
SP_SWEEP = ("SP <= 0.10", "SP <= 0.05", "SP <= 0.02")
#: the FOR sweep's ε as fractions of the unconstrained FOR disparity, so
#: each solve runs Algorithm 1's linear ladder (weights chained through
#: predictions) for every seed
FOR_SWEEP = (0.9, 0.8)
REPEAT = "SP<=0.1"
EO_SPEC = "EO <= 0.05"

#: grid_1m: 18 candidates for SP, 65 for EO (k = 2).
GRID_SPECS = ("SP <= 0.05", "EO <= 0.05")
GRID_OPTIONS = {"grid_steps": 8, "grid_max": 0.5}
GRID_ROWS = 1_000_000
#: row counts under ``--quick`` (the benchmark's own tests)
QUICK_ROWS = {"tradeoff_sweep": 6_000, "grid_1m": 60_000}
CHUNK = 65_536

#: rows of validation data whose predictions enter the digest
DIGEST_ROWS = 4096

#: span name -> per-layer metric (a self time in seconds per warm pass)
LAYERS = {
    "ml.fit": "ml.fit_s",
    "ml.predict": "ml.predict_s",
    "fitter": "fitter.self_s",
    "kernels.weights": "kernels.weights_s",
    "kernels.score": "kernels.score_s",
    "evaluation.audit": "evaluation.audit_s",
    "planner": "planner.self_s",
    "api.solve": "api.solve_self_s",
    "api.bind": "api.bind_s",
    "store.get": "store.get_s",
    "store.put": "store.put_s",
    "datasets.fingerprint": "datasets.fingerprint_s",
    "pass": "solve.unattributed_s",
}


class SolveFailed(Exception):
    """A solve was infeasible or returned a model that fails a check."""


def load_inputs(workload, seed, quick=False):
    """The workload's (train, val) splits, generated from ``seed``."""
    from repro.datasets import ADULT_N_ROWS, load_adult, load_scenario
    from repro.ml.model_selection import train_test_split, train_val_test_split

    if workload == "tradeoff_sweep":
        n = QUICK_ROWS[workload] if quick else ADULT_N_ROWS
        data = load_adult(n=n, seed=seed)
        strat = data.sensitive * 2 + data.y
        tr, va, _te = train_val_test_split(len(data), seed=seed, stratify=strat)
    else:
        n = QUICK_ROWS[workload] if quick else GRID_ROWS
        data = load_scenario("million_row", n=n, seed=seed)
        strat = data.sensitive * 2 + data.y
        tr, va = train_test_split(
            np.arange(len(data)), test_size=0.8, seed=seed, stratify=strat,
        )
    return data.subset(tr), data.subset(va)


def _solve(engine, spec, estimator, train, val):
    from repro.core.exceptions import InfeasibleConstraintError

    try:
        return engine.solve(spec, estimator, train, val)
    except InfeasibleConstraintError as exc:
        raise SolveFailed(f"{spec}: infeasible ({exc})") from exc


def tradeoff_pass(train, val, workdir):
    """One trade-off pass; returns ``[(spec, FairModel)]`` and the store."""
    from repro.api import Engine
    from repro.ml import LogisticRegression

    engine = Engine(store_dir=tempfile.mkdtemp(dir=workdir))
    solves = []
    for spec in SP_SWEEP:
        solves.append((spec, _solve(engine, spec, LogisticRegression(),
                                    train, val)))
    # FOR, not FDR: on this twin the FDR disparity jumps across the band
    # next to λ = 0 and is flat further out (perfbench/METRICS.md), so no
    # FDR ε below the unconstrained disparity is feasible for every seed.
    # ε = 1 is the λ = 0 end of the curve, and gives the disparity the
    # tighter ε are scaled from.
    loose = _solve(engine, "FOR <= 1", LogisticRegression(), train, val)
    solves.append(("FOR <= 1", loose))
    d0 = abs(next(iter(loose.report.validation["disparities"].values())))
    for fraction in FOR_SWEEP:
        spec = f"FOR <= {d0 * fraction:.4f}"
        solves.append((spec, _solve(engine, spec, LogisticRegression(),
                                    train, val)))
    solves.append((EO_SPEC, _solve(engine, EO_SPEC, LogisticRegression(),
                                   train, val)))
    solves.append((REPEAT, _solve(engine, REPEAT, LogisticRegression(),
                                  train, val)))
    return solves, engine.store


def grid_pass(train, val, workdir):
    """One grid pass: SP then EO over the chunked population grid."""
    from repro.api import Engine
    from repro.ml.naive_bayes import GaussianNaiveBayes

    engine = Engine("grid", chunk_size=CHUNK, **GRID_OPTIONS)
    solves = [
        (spec, _solve(engine, spec, GaussianNaiveBayes(), train, val))
        for spec in GRID_SPECS
    ]
    return solves, None


PASSES = {"tradeoff_sweep": tradeoff_pass, "grid_1m": grid_pass}


def _trained(report):
    return sum(
        count for path, count in report.fit_paths.items()
        if path not in ("cached", "store", "solution")
    )


def pass_counts(solves, store):
    """Per-pass counts from the solves' FitReports and the store."""
    reports = [model.report for _spec, model in solves]
    return {
        "fits_trained": sum(_trained(r) for r in reports),
        "fit_hits": sum(r.fit_cache_hits for r in reports),
        "fit_lookups": sum(r.fit_cache_lookups for r in reports),
        "eval_hits": sum(r.eval_cache_hits for r in reports),
        "eval_lookups": sum(r.eval_cache_lookups for r in reports),
        "store_hits": sum(r.store_hits for r in reports),
        "store_lookups": sum(r.store_lookups for r in reports),
        "store_bytes": 0 if store is None else store.stats()["bytes"],
    }


def check_and_digest(workload, passes, val):
    """Gate every pass; return the workload digest.

    Every returned model must meet each ε when re-audited on validation,
    every pass must select bit-identical λ, and the respelled repeat must
    be a zero-fit solution-cache hit with the first spec's λ.  The FOR
    solves below the unconstrained disparity must each train more than
    one fit.
    """
    chunk = CHUNK if workload == "grid_1m" else None
    reference = None
    for solves in passes:
        for spec, model in solves:
            audit = model.audit(val, chunk_size=chunk)
            if not (model.report.feasible and audit["feasible"]):
                raise SolveFailed(f"{spec}: re-audit on validation fails ε")
        lambdas = [model.lambdas.tobytes() for _spec, model in solves]
        if reference is None:
            reference = (solves, lambdas)
        elif lambdas != reference[1]:
            raise SolveFailed("passes disagree on the selected λ")
        if workload == "tradeoff_sweep":
            for spec, model in solves[len(SP_SWEEP) + 1:][:len(FOR_SWEEP)]:
                if model.report.n_fits < 2:
                    raise SolveFailed(
                        f"{spec}: trained {model.report.n_fits} fit(s); the "
                        f"FOR sweep must run the λ search"
                    )
            first, repeat = solves[0][1], solves[-1][1]
            if repeat.report.n_fits != 0:
                raise SolveFailed(
                    f"respelled repeat trained {repeat.report.n_fits} fits"
                )
            if repeat.lambdas.tobytes() != first.lambdas.tobytes():
                raise SolveFailed("respelled repeat changed λ")
    digest = hashlib.sha1()
    X = val.X[:DIGEST_ROWS]
    for spec, model in reference[0]:
        digest.update(spec.encode())
        digest.update(model.lambdas.tobytes())
        digest.update(np.asarray(model.predict(X), dtype=np.int64).tobytes())
    return digest.hexdigest()


def layer_metrics(recorder, pass_ids, counts):
    """Per-layer metrics per warm pass, and the self-time sum check.

    Returns the metrics and the largest difference between a pass's wall
    time and the sum of its layers' self times (the remainder included).
    """
    warm_ids, warm_counts = pass_ids[1:], counts[1:]
    per_pass = [layer_self_times(recorder.spans, sid) for sid in warm_ids]
    walls = {s[0]: s[4] - s[3] for s in recorder.spans}
    out = {
        metric: median([p.get(name, 0.0) for p in per_pass])
        for name, metric in LAYERS.items()
    }
    total = {key: sum(c[key] for c in warm_counts) for key in warm_counts[0]}
    out["fitter.fits_trained"] = total["fits_trained"] / len(warm_counts)
    out["fitter.cache_hit_share"] = share(
        total["fit_hits"], total["fit_lookups"]
    )
    out["kernels.eval_hit_share"] = share(
        total["eval_hits"], total["eval_lookups"]
    )
    out["store.hit_share"] = share(total["store_hits"], total["store_lookups"])
    out["store.bytes"] = total["store_bytes"] / len(warm_counts)
    sum_error = max(
        abs(sum(p.values()) - walls[sid]) for p, sid in zip(per_pass, warm_ids)
    )
    return out, sum_error


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(PASSES), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--probe", action="store_true")
    parser.add_argument("--quick", action="store_true")
    args = parser.parse_args(argv)

    train, val = load_inputs(args.workload, args.seed, args.quick)
    ready = time.monotonic()
    refs = [reference_s()]
    if args.probe:
        emit_result({"ready": ready, "ref_s": refs})
        return 0

    recorder = Recorder().install(SOLVE_TARGETS) if args.trace else None
    workdir = tempfile.mkdtemp(prefix="perfbench-", dir=ROOT)
    run_pass = PASSES[args.workload]
    walls, passes, counts, pass_ids = [], [], [], []
    try:
        # at least a cold and a warm pass; then another pass only when
        # it should end inside the window, so runs do not overshoot
        min_passes = 2 if args.seconds > 0 else 1
        start = time.perf_counter()
        while len(passes) < min_passes or (
            time.perf_counter() - start + walls[-1] <= args.seconds
        ):
            t0 = time.perf_counter()
            if recorder is None:
                solves, store = run_pass(train, val, workdir)
            else:
                with recorder.span("pass") as span:
                    solves, store = run_pass(train, val, workdir)
                pass_ids.append(span.sid)
                counts.append(pass_counts(solves, store))
            walls.append(time.perf_counter() - t0)
            passes.append(solves)
            refs.append(reference_s())
        if recorder is not None:
            recorder.uninstall()
        digest = check_and_digest(args.workload, passes, val)
    except SolveFailed as exc:
        emit_result({"error": str(exc)})
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    result = {
        "ready": ready,
        "pass_s": walls,
        "ref_s": refs,
        "solves_per_pass": len(passes[0]),
        "digest": digest,
        "peak_rss_mb": peak_rss_mb(),
    }
    if recorder is not None:
        result["layers"], result["sum_error_s"] = layer_metrics(
            recorder, pass_ids, counts,
        )
    emit_result(result)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
