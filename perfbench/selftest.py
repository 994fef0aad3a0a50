"""The benchmark's own tests.  Run from the repository root::

    PYTHONPATH=src:perfbench python3 -m pytest -q perfbench/selftest.py

They are kept out of the tier-1 suite's default collection (the file is
not named ``test_*.py``) because they start servers and full workload
processes.
"""

from __future__ import annotations

import asyncio
import json
import pathlib
import shutil
import subprocess
import sys

import numpy as np
import pytest

from common import BENCH_DIR, REF_S, ROOT, at_reference_speed, reference_s
from spans import (
    SERVE_TARGETS, SOLVE_TARGETS, Recorder, layer_self_times, self_times,
)

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(workload, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "0", "--seconds", "2", "--trace", str(trace), "--quick"],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


# -- self-time arithmetic ----------------------------------------------------


def test_self_times_on_a_synthetic_tree():
    # (id, parent, name, start, end, size)
    spans = [
        (1, 0, "pass", 0.0, 10.0, 0),
        (2, 1, "api.solve", 1.0, 6.0, 0),
        (3, 2, "ml.fit", 2.0, 3.0, 0),
        (4, 2, "ml.fit", 2.5, 4.0, 0),      # overlaps its sibling
        (5, 1, "store.get", 7.0, 8.0, 0),
        (6, 5, "ml.predict", 7.5, 9.0, 0),  # outlives its parent
    ]
    selfs = self_times(spans)
    assert selfs[1] == pytest.approx(10.0 - 5.0 - 1.0)
    assert selfs[2] == pytest.approx(5.0 - 2.0)   # union of [2, 4]
    assert selfs[5] == pytest.approx(0.5)         # child clipped at 8.0
    layers = layer_self_times(spans, 1)
    assert layers["ml.fit"] == pytest.approx(2.5)
    assert layers["pass"] == pytest.approx(4.0)
    # the siblings' 0.5 s overlap and the runaway child's 1 s tail each
    # count in more than one self time; serial spans sum to the root
    assert sum(layers.values()) == pytest.approx(10.0 + 0.5 + 1.0)


def test_reference_speed_cancels_a_uniform_slowdown():
    assert at_reference_speed(2.0, REF_S) == 2.0
    # a host 1.6x slower stretches the pass and the loop alike
    assert at_reference_speed(1.6 * 2.0, 1.6 * 0.03) \
        == pytest.approx(at_reference_speed(2.0, 0.03))
    assert 0 < reference_s() < 1.0


def test_recorder_nests_spans_and_restores_targets():
    import repro.api

    original = vars(repro.api.Engine)["solve"]
    recorder = Recorder().install(SOLVE_TARGETS)
    try:
        assert vars(repro.api.Engine)["solve"] is not original
        with recorder.span("outer") as outer:
            with recorder.span("inner"):
                pass
    finally:
        recorder.uninstall()
    assert vars(repro.api.Engine)["solve"] is original
    parents = {s[2]: s[1] for s in recorder.spans}
    assert parents == {"outer": 0, "inner": outer.sid}


# -- wrappers change no result -----------------------------------------------


def _solve_all():
    from repro.api import Engine
    from repro.datasets import load_adult
    from repro.ml import LogisticRegression
    from repro.ml.naive_bayes import GaussianNaiveBayes

    data = load_adult(n=3000, seed=4)
    train, val = data.subset(np.arange(2000)), data.subset(np.arange(2000, 3000))
    out = []
    for engine, estimator, spec in (
        (Engine(), LogisticRegression(), "SP <= 0.05"),
        # a linear-ladder search: weights chained through predictions
        (Engine(), LogisticRegression(), "FOR <= 0.072"),
        (Engine("grid", grid_steps=4, chunk_size=256), GaussianNaiveBayes(),
         "EO <= 0.1"),
    ):
        model = engine.solve(spec, estimator, train, val)
        out.append((model.lambdas.tobytes(), model.predict(val.X).tobytes()))
    return out


def test_solve_wrappers_leave_lambda_and_predictions_identical():
    plain = _solve_all()
    recorder = Recorder().install(SOLVE_TARGETS)
    try:
        traced = _solve_all()
    finally:
        recorder.uninstall()
    assert traced == plain
    names = {s[2] for s in recorder.spans}
    assert {"api.solve", "api.bind", "planner", "fitter", "ml.fit",
            "ml.predict", "kernels.weights", "kernels.score",
            "evaluation.audit"} <= names


def test_serve_wrappers_leave_answers_identical():
    from repro.api import Engine
    from repro.datasets import load_adult
    from repro.incremental import IncrementalAuditor
    from repro.serving.batcher import MicroBatcher

    data = load_adult(n=2000, seed=5)
    model = Engine().solve("SP <= 0.1", "LR", data.subset(np.arange(1500)),
                           data.subset(np.arange(1500, 2000)))

    def answers():
        async def submit():
            batcher = MicroBatcher(model.predict_batch, max_wait_us=0)
            try:
                return await batcher.submit(data.X[:7])
            finally:
                await batcher.close()

        labels = asyncio.run(submit())
        auditor = IncrementalAuditor("SP <= 0.1", model, data.subset(
            np.arange(1000)))
        auditor.append_rows(X=data.X[1000:1200], y=data.y[1000:1200],
                            sensitive=data.sensitive[1000:1200])
        audit = auditor.retire_rows(np.arange(50))
        return labels.tobytes(), audit["disparities"].tobytes()

    plain = answers()
    recorder = Recorder().install(SERVE_TARGETS)
    try:
        traced = answers()
    finally:
        recorder.uninstall()
    assert traced == plain
    assert {s[2] for s in recorder.spans} == {
        "batcher.submit", "batcher.predict", "incremental.apply",
        "incremental.audit",
    }


# -- the checks catch wrong answers ------------------------------------------


def test_solve_check_rejects_passes_that_disagree():
    import solve

    train, val = solve.load_inputs("grid_1m", 0, quick=True)
    workdir = ROOT
    first, _ = solve.grid_pass(train, val, workdir)
    second, _ = solve.grid_pass(train, val, workdir)
    solve.check_and_digest("grid_1m", [first, second], val)
    second[0][1].report.lambdas[0] += 1e-9
    with pytest.raises(solve.SolveFailed, match="disagree"):
        solve.check_and_digest("grid_1m", [first, second], val)


def test_solve_check_rejects_a_for_solve_without_a_search(tmp_path):
    import solve

    train, val = solve.load_inputs("tradeoff_sweep", 0, quick=True)
    solves, _store = solve.tradeoff_pass(train, val, tmp_path)
    solve.check_and_digest("tradeoff_sweep", [solves], val)
    tight = solves[len(solve.SP_SWEEP) + 1][1]
    tight.report.n_fits = 1
    with pytest.raises(solve.SolveFailed, match="λ search"):
        solve.check_and_digest("tradeoff_sweep", [solves], val)


def test_serve_check_counts_a_wrong_prediction():
    import serve

    sizes = dict(serve.QUICK)
    inputs = serve.Inputs(0, 1.0, sizes)
    twin = serve.solve_twin(inputs)
    event = next(e for e in inputs.events if e[1] == "predict")
    right = twin.predict(inputs.rows(event[3]))
    facts = {"lambdas": twin.lambdas.tolist()}
    records = [(event, 0, 0, 0, right, None)]
    assert serve.check(inputs, twin, facts, records, []) == 0
    records = [(event, 0, 0, 0, 1 - right, None)]
    assert serve.check(inputs, twin, facts, records, []) == 1
    # closed-loop (capacity) answers are checked too
    pair = ((0, 1), twin.predict(inputs.rows((0, 1))))
    assert serve.check(inputs, twin, facts, [], [pair]) == 0
    assert serve.check(inputs, twin, facts, [], [(pair[0], 1 - pair[1])]) == 1


# -- end to end, quick sizes -------------------------------------------------


@pytest.mark.parametrize("workload", [w["name"] for w in
                                      BENCHMARK["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_quick_workload_end_to_end(workload, trace):
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {name: entry["unit"] for name, entry in result["metrics"].items()} \
        == {m["name"]: m["unit"] for m in expected}
    for entry in result["metrics"].values():
        assert isinstance(entry["value"], float)


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("grid_1m", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
    assert not list(pathlib.Path(tmp_path).glob("perfbench-*"))
