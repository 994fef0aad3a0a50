"""OmniFair end-to-end benchmark runner.

One command runs a workload in fresh interpreters and prints every metric
by name, with its unit and sample count, then one JSON line
(``--workload all`` runs the three in turn, one JSON line each)::

    python3 perfbench/run.py --workload tradeoff_sweep --seed 1 \
        --seconds 30 --trace 0

Workloads (why each was chosen is in ``BENCHMARK.json`` and
``perfbench/METRICS.md``):

* ``tradeoff_sweep`` -- SP/FOR/EO ε-sweeps on the paper-size Adult twin;
* ``grid_1m`` -- the chunked population grid on a million-row scenario;
* ``serve_mixed`` -- open-loop ``/predict`` plus ``/update`` traffic on a
  ``repro serve`` process.

``--trace 0`` reports the end-to-end metrics from untraced processes.
Every gated timing except ``serve_mixed``'s request latency is reported
at the reference speed (``common.at_reference_speed``), scaled by the
time of a fixed loop measured next to it; the raw times are printed as
detail lines.
``--trace 1`` runs the workload untraced and then traced (the benchmark's
own wrappers around each layer's public callables), requires both runs
to produce the same digest, and reports the per-layer metrics.  The exit
code is 0 only when every correctness check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import time

from common import (
    BENCH_DIR, ROOT, SRC, at_reference_speed, environment_block, median,
    quantile, read_result, workload_env,
)

WORKLOADS = ("tradeoff_sweep", "grid_1m", "serve_mixed")
#: set-ups per untraced run; ``setup_s`` is their median.  A served
#: model's ``cold_s`` is the ``/retune`` solve of each set-up, about
#: 0.6 s, so ``serve_mixed`` takes more of them.
SETUPS = {"tradeoff_sweep": 5, "grid_1m": 5, "serve_mixed": 7}
#: fresh processes an untraced solve run's window is split over; the rest
#: of the set-ups only set up.  A grid pass takes 3.5 to 5 s, so each of
#: three processes gets a cold and one or two warm passes.  One 30 s
#: process would give four or more warm passes but a single cold one,
#: whose run-to-run spread was 0.18 (perfbench/METRICS.md).
PROCESSES = {"tradeoff_sweep": 5, "grid_1m": 3}
#: the whole run, and so every workload process, ends within this
RUN_BUDGET_S = 175

#: metric names and units, as declared in ``BENCHMARK.json``
_DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in _DECLARED["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in _DECLARED["per_layer"]}

class RunFailed(Exception):
    """A workload process failed, timed out, or broke a check."""


class Clock:
    """The run's wall-clock budget, shared by every process it starts."""

    def __init__(self, budget_s):
        self.deadline = time.monotonic() + budget_s

    def remaining(self):
        left = self.deadline - time.monotonic()
        if left <= 0:
            raise RunFailed("run exceeded its time budget")
        return left


def run_child(script, args, clock, blas_defaults=False):
    """Run one workload process; returns (result, spawn time).

    The process leads its own process group, so a timeout also stops the
    servers it started.
    """
    cmd = [sys.executable, str(BENCH_DIR / script)] + args
    spawned = time.monotonic()
    proc = subprocess.Popen(
        cmd, cwd=ROOT, env=workload_env(blas_defaults), text=True,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        start_new_session=True,
    )
    try:
        stdout, stderr = proc.communicate(
            timeout=clock.remaining()
        )
    except (subprocess.TimeoutExpired, RunFailed) as exc:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RunFailed(f"{script} {' '.join(args)} timed out") from exc
    result = read_result(stdout)
    if result is None or "error" in result:
        detail = (result or {}).get("error") or stderr.strip()[-2000:]
        raise RunFailed(f"{script} {' '.join(args)}: {detail}")
    if proc.returncode != 0:
        raise RunFailed(f"{script} exited {proc.returncode}")
    return result, spawned


# -- solve workloads ---------------------------------------------------------


def solve_session(args, clock, trace=False, probe=False, seconds=None,
                  blas_defaults=False):
    seconds = args.seconds if seconds is None else seconds
    cmd = ["--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(seconds)]
    cmd += ["--trace"] * trace + ["--probe"] * probe + ["--quick"] * args.quick
    result, spawned = run_child("solve.py", cmd, clock, blas_defaults)
    result["setup_s"] = result["ready"] - spawned
    refs = result["ref_s"]
    result["setup_ref_s"] = at_reference_speed(result["setup_s"], refs[0])
    # a pass is scaled by the reference loop timed before and after it
    result["pass_ref_s"] = [
        at_reference_speed(t, (refs[i] + refs[i + 1]) / 2)
        for i, t in enumerate(result.get("pass_s", []))
    ]
    return result


def run_solve(args, clock):
    if args.trace:
        half = args.seconds / 2
        plain = solve_session(args, clock, seconds=half)
        traced = solve_session(args, clock, trace=True, seconds=half)
        if traced["digest"] != plain["digest"]:
            raise RunFailed(
                f"traced digest {traced['digest']} != untraced "
                f"{plain['digest']}"
            )
        layers = dict(traced["layers"])
        layers["trace.overhead_share"] = (
            median(traced["pass_ref_s"][1:])
            / median(plain["pass_ref_s"][1:]) - 1.0
        )
        if args.workload == "tradeoff_sweep":
            # one cold pass with the BLAS libraries at their default
            # thread counts, against the pinned run's cold pass
            default = solve_session(args, clock, seconds=0,
                                    blas_defaults=True)
            layers["blas.default_threads_slowdown"] = (
                default["pass_s"][0] / plain["pass_s"][0]
            )
            same = default["digest"] == plain["digest"]
            print(f"blas: default-thread digest equals the pinned run's: "
                  f"{same}")
        traced["attempted"] = traced["solves_per_pass"] * (
            len(plain["pass_s"]) + len(traced["pass_s"])
        )
        traced["failed"] = 0
        print(f"trace: layer self-times + unattributed differ from the "
              f"pass wall time by at most "
              f"{traced['sum_error_s']:.3g} s")
        return traced, layers, {}
    # the timed window is split over fresh processes, so cold passes and
    # set-ups are medians and the passes sample more of the machine's
    # slow and fast spells
    processes = PROCESSES[args.workload]
    probes = [solve_session(args, clock, probe=True)
              for _ in range(SETUPS[args.workload] - processes)]
    runs = [solve_session(args, clock, seconds=args.seconds / processes)
            for _ in range(processes)]
    digests = {r["digest"] for r in runs}
    if len(digests) != 1:
        raise RunFailed(f"processes disagree on the digest: {digests}")
    setups = probes + runs
    refs = [t for r in setups for t in r["ref_s"]]
    # cold and warm passes, at the reference speed and as measured
    colds = [r["pass_ref_s"][0] for r in runs]
    warm = [t for r in runs for t in r["pass_ref_s"][1:]]
    raw_colds = [r["pass_s"][0] for r in runs]
    raw_warm = [t for r in runs for t in r["pass_s"][1:]]
    n_ops = sum(len(r["pass_s"]) for r in runs) * runs[0]["solves_per_pass"]
    samples = {
        "setup_s": (median([r["setup_ref_s"] for r in setups]), "s",
                    len(setups)),
        "cold_s": (median(colds), "s", len(colds)),
        "op_p50_ms": (1e3 * median(warm), "ms", len(warm)),
        "peak_rss_mb": (median([r["peak_rss_mb"] for r in runs]), "MB",
                        len(runs)),
    }
    detail = {
        "setup_raw_s": (median([r["setup_s"] for r in setups]), "s",
                        len(setups)),
        "cold_pass_s": (median(raw_colds), "s", len(raw_colds)),
        "pass_p50_s": (median(raw_warm), "s", len(raw_warm)),
        "reference_loop_ms": (1e3 * median(refs), "ms", len(refs)),
        "fail_share": (0.0, "share", n_ops),
    }
    result = dict(runs[0], attempted=n_ops, failed=0)
    return result, samples, detail


# -- the serving workload ----------------------------------------------------


def serve_session(args, clock, trace=False, setups=1):
    cmd = ["--seed", str(args.seed), "--seconds", str(args.seconds),
           "--setups", str(setups)]
    cmd += ["--trace"] * trace + ["--quick"] * args.quick
    result, _spawned = run_child("serve.py", cmd, clock)
    return result


def run_serve(args, clock):
    if args.trace:
        plain = serve_session(args, clock)
        traced = serve_session(args, clock, trace=True)
        if traced["digest"] != plain["digest"]:
            raise RunFailed(
                f"traced digest {traced['digest']} != untraced "
                f"{plain['digest']}"
            )
        layers = dict(traced["layers"])
        layers["loadgen.lag_p99_ms"] = traced["lag_p99_ms"]
        layers["trace.overhead_share"] = (
            median(traced["predict_ms"]) / median(plain["predict_ms"]) - 1.0
        )
        return traced, layers, {}
    main = serve_session(args, clock, setups=SETUPS[args.workload])
    predict, update = main["predict_ms"], main["update_ms"]
    refs = main["refs_s"]
    setups = [at_reference_speed(t, r) for t, r in zip(main["setups_s"], refs)]
    colds = [at_reference_speed(t, r) for t, r in zip(main["colds_s"], refs)]
    # request latency is reported as measured: at the reference rate most
    # of it is the batcher's fixed straggler wait, which a faster host
    # does not shorten
    samples = {
        "setup_s": (median(setups), "s", len(setups)),
        "cold_s": (median(colds), "s", len(colds)),
        "op_p50_ms": (median(predict), "ms", len(predict)),
        "peak_rss_mb": (main["peak_rss_mb"], "MB", 1),
    }
    detail = {
        "setup_raw_s": (median(main["setups_s"]), "s", len(setups)),
        "retune_raw_s": (median(main["colds_s"]), "s", len(colds)),
        "reference_loop_ms": (1e3 * median(refs), "ms", len(refs)),
        "predict_p50_ms": (median(predict), "ms", len(predict)),
        "predict_p99_ms": (quantile(predict, 0.99), "ms", len(predict)),
        "predict_max_rps": (main["predict_max_rps"], "1/s",
                            len(main["steps"])),
        "predict_capacity_rps": (main["predict_capacity_rps"], "1/s", 1),
        "update_p50_ms": (median(update), "ms", len(update)),
        "update_p90_ms": (quantile(update, 0.9), "ms", len(update)),
        "fail_share": (main["failed"] / main["attempted"], "share",
                       main["attempted"]),
    }
    print(f"open loop over {main['connections']} connections")
    for step in main["steps"]:
        print(f"rate {step['rate']:g}/s: n={step['n']} "
              f"p50={step['p50_ms']:.3f}ms p99={step['p99_ms']:.3f}ms "
              f"lag_growth={step['lag_growth_ms']:.3f}ms "
              f"mean_batch_size={step['mean_batch_size']:.3f} "
              f"coalesced_share={step['coalesced_share']:.3f} "
              f"failed={step['failed']} meets_limit={step['meets_limit']}")
    return main, samples, detail


# -- entry point -------------------------------------------------------------


def run_workload(args):
    """Run, check and report one workload; returns the exit code."""
    print(f"workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    runner = run_serve if args.workload == "serve_mixed" else run_solve
    try:
        result, samples, detail = runner(args, Clock(RUN_BUDGET_S))
    except RunFailed as exc:
        print(f"FAILED: {exc}")
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1,
                          "metrics": {}}))
        return 1

    print(f"digest {result['digest']}")
    if args.trace:
        # a layer the workload does not exercise reports 0
        metrics = {
            name: {"value": float(samples.get(name, 0.0)), "unit": unit}
            for name, unit in PER_LAYER.items()
        }
        for name, entry in metrics.items():
            print(f"layer {name} = {entry['value']:.6g} {entry['unit']}")
    else:
        for name, (value, unit, n) in {**samples, **detail}.items():
            print(f"metric {name} = {value:.6g} {unit} (n={n})")
        metrics = {
            name: {"value": float(samples[name][0]), "unit": unit}
            for name, unit in END_TO_END.items()
        }
    print(json.dumps({
        "correct": True,
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": metrics,
    }))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",),
                        required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="small inputs, for the benchmark's own tests")
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {SRC}", file=sys.stderr)
        return 2
    print("environment " + json.dumps(environment_block()))
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    codes = [
        run_workload(argparse.Namespace(**dict(vars(args), workload=name)))
        for name in workloads
    ]
    return max(codes)


if __name__ == "__main__":
    sys.exit(main())
