"""Chunked evaluation path: bit-identical to in-memory, on every workload.

The chunked path streams exact integer count accumulators over row
blocks, so no tolerance is involved anywhere — every assertion in this
file is exact equality.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import Engine, Problem
from repro.core.fairness_metrics import METRIC_FACTORIES
from repro.core.kernels import CompiledEvaluator, evaluate_lambda_batch
from repro.core.fitter import WeightedFitter
from repro.core.spec import Constraint, bind_specs
from repro.datasets import available_scenarios, load_scenario
from repro.ml import DecisionTree, GaussianNaiveBayes
from repro.ml.model_selection import train_val_test_split

BUILTIN_METRICS = sorted(METRIC_FACTORIES)


def _random_constraints(rng, n, y, k):
    constraints = []
    for i in range(k):
        metric = METRIC_FACTORIES[BUILTIN_METRICS[i % len(BUILTIN_METRICS)]]()
        groups = rng.integers(0, 2, size=n)
        constraints.append(Constraint(
            metric=metric, epsilon=0.05,
            group_names=("a", "b"),
            g1_idx=np.nonzero(groups == 0)[0],
            g2_idx=np.nonzero(groups == 1)[0],
            label=f"c{i}",
        ))
    return constraints


def _fitted_models(rng, X, y, B, mixed):
    """B weighted fits on perturbed labels; every other one a tree when
    ``mixed``, so the list has no shared ``predict_batch`` hook."""
    n = len(y)
    models = []
    for b in range(B):
        yb = np.where(rng.random(n) < 0.1, 1 - y, y)
        wb = rng.uniform(0.2, 2.0, size=n)
        proto = (DecisionTree(max_depth=3) if mixed and b % 2
                 else GaussianNaiveBayes())
        models.append(proto.fit(X, yb, sample_weight=wb))
    return models


def _block_predictions(models, X, chunk):
    """The stacked predictions the streaming path scores: each row block
    predicted on its own, through the batch hook when all models share
    one."""
    blocks = []
    for start in range(0, len(X), chunk):
        X_block = X[start:start + chunk]
        if all(type(m) is GaussianNaiveBayes for m in models):
            blocks.append(GaussianNaiveBayes.predict_batch(models, X_block))
        else:
            blocks.append(np.stack([m.predict(X_block) for m in models]))
    return np.concatenate(blocks, axis=1)


class TestEvaluatorBitIdentity:
    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(40, 400),
        B=st.integers(1, 6),
        k=st.integers(1, 4),
        chunk=st.integers(1, 500),
    )
    def test_disparities_and_accuracies_match_bitwise(
        self, seed, n, B, k, chunk
    ):
        rng = np.random.default_rng(seed)
        y = rng.integers(0, 2, size=n)
        if y.min() == y.max():
            y[: n // 2] = 1 - y[0]
        constraints = _random_constraints(rng, n, y, k)
        preds = rng.integers(0, 2, size=(B, n))

        full = CompiledEvaluator(constraints, y)
        chunked = CompiledEvaluator(constraints, y, chunk_size=chunk)
        assert np.array_equal(
            full.disparities_batch(preds), chunked.disparities_batch(preds)
        )
        assert np.array_equal(
            full.accuracies_batch(preds), chunked.accuracies_batch(preds)
        )

    def test_chunk_size_validation(self):
        y = np.array([0, 1, 0, 1])
        c = _random_constraints(np.random.default_rng(0), 4, y, 1)
        with pytest.raises(ValueError, match="chunk_size"):
            CompiledEvaluator(c, y, chunk_size=0)

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        B=st.integers(1, 6),
        k=st.integers(1, 4),
        chunk=st.integers(1, 400),
        mixed=st.booleans(),
    )
    def test_streaming_model_scoring_matches_stacked(
        self, seed, B, k, chunk, mixed
    ):
        # all-NB lists stream through the shared predict_batch hook; a
        # mixed-type list takes the per-model predict fallback
        rng = np.random.default_rng(seed)
        n, d = 300, 4
        X = rng.normal(size=(n, d))
        y = (X[:, 0] > 0).astype(np.int64)
        constraints = _random_constraints(rng, n, y, k)
        models = _fitted_models(rng, X, y, B, mixed)

        full = CompiledEvaluator(constraints, y)
        d_ref, a_ref = full.score_batch(_block_predictions(models, X, chunk))
        ev = CompiledEvaluator(constraints, y, chunk_size=chunk)
        d_got, a_got = ev.score_models_batch(models, X)
        assert np.array_equal(d_ref, d_got)
        assert np.array_equal(a_ref, a_got)

    def test_streaming_scoring_bypasses_the_score_cache(self, tmp_path):
        from repro.store import CacheStore

        rng = np.random.default_rng(9)
        n = 120
        X = rng.normal(size=(n, 3))
        y = (X[:, 0] > 0).astype(np.int64)
        constraints = _random_constraints(rng, n, y, 2)
        models = _fitted_models(rng, X, y, 3, mixed=False)
        store = CacheStore(tmp_path)
        ev = CompiledEvaluator(constraints, y, chunk_size=32, store=store)
        d_stream, a_stream = ev.score_models_batch(models, X)
        # no digest, no lookup, no publish: stats, cache and store untouched
        assert ev.stats == {"hits": 0, "lookups": 0}
        assert ev._score_cache == {}
        assert store.stats()["puts"] == 0
        # a later memoized score of the same predictions computes them
        # afresh, bitwise equal to the streamed values
        preds = _block_predictions(models, X, 32)
        for b in range(len(models)):
            d_b, a_b = ev.score(preds[b])
            assert np.array_equal(d_b, d_stream[b])
            assert a_b == a_stream[b]
        assert ev.stats["hits"] == 0
        assert ev.stats["lookups"] == len(models)

    def test_fallback_metric_uses_in_memory_path(self):
        # a custom metric must still be scored identically (full-vector
        # python fallback), chunked or not
        from repro.core.fairness_metrics import custom_metric

        def odd_coeff(y, _pred):
            n1 = max(int(np.sum(y == 1)), 1)
            c = np.zeros(len(y))
            c[y == 1] = 1.0 / n1
            return c, 0.0

        def odd_rate(y_true, y_pred):
            n1 = max(int(np.sum(y_true == 1)), 1)
            return float(np.sum(y_pred[y_true == 1] == y_true[y_true == 1]) / n1)

        metric = custom_metric("ODD", odd_coeff, odd_rate)
        rng = np.random.default_rng(2)
        n = 90
        y = rng.integers(0, 2, size=n)
        groups = rng.integers(0, 2, size=n)
        constraints = [Constraint(
            metric=metric, epsilon=0.1, group_names=("a", "b"),
            g1_idx=np.nonzero(groups == 0)[0],
            g2_idx=np.nonzero(groups == 1)[0],
        )]
        preds = rng.integers(0, 2, size=(3, n))
        full = CompiledEvaluator(constraints, y)
        chunked = CompiledEvaluator(constraints, y, chunk_size=16)
        assert np.array_equal(
            full.disparities_batch(preds), chunked.disparities_batch(preds)
        )


class TestBatchEvalPlumbing:
    def _fitter(self, chunk_size=None):
        rng = np.random.default_rng(0)
        n = 240
        X = rng.normal(size=(n, 3))
        y = (X[:, 0] + 0.4 * rng.normal(size=n) > 0).astype(np.int64)
        groups = rng.integers(0, 2, size=n)
        constraint = Constraint(
            metric=METRIC_FACTORIES["SP"](), epsilon=0.05,
            group_names=("a", "b"),
            g1_idx=np.nonzero(groups == 0)[0],
            g2_idx=np.nonzero(groups == 1)[0],
        )
        fitter = WeightedFitter(
            GaussianNaiveBayes(), X, y, [constraint],
            eval_chunk_size=chunk_size,
        )
        return fitter, constraint, X, y

    def test_eval_chunk_size_validation(self):
        with pytest.raises(ValueError, match="eval_chunk_size"):
            self._fitter(chunk_size=0)

    def test_evaluate_lambda_batch_inherits_fitter_chunk_size(self):
        L = np.linspace(-0.5, 0.5, 7)[:, None]
        ref_fitter, c, X, y = self._fitter(None)
        ref = evaluate_lambda_batch(ref_fitter, [c], X, y, L)
        chunk_fitter, c2, X2, y2 = self._fitter(chunk_size=50)
        got = evaluate_lambda_batch(chunk_fitter, [c2], X2, y2, L)
        assert np.array_equal(ref.disparities, got.disparities)
        assert np.array_equal(ref.accuracies, got.accuracies)

    def test_explicit_chunk_size_overrides(self):
        L = np.array([[0.0], [0.25]])
        fitter, c, X, y = self._fitter(None)
        ref = evaluate_lambda_batch(fitter, [c], X, y, L)
        got = evaluate_lambda_batch(fitter, [c], X, y, L, chunk_size=9)
        assert np.array_equal(ref.disparities, got.disparities)
        assert np.array_equal(ref.accuracies, got.accuracies)


def _splits(data, seed=0):
    strat = data.sensitive * 2 + data.y
    tr, va, te = train_val_test_split(len(data), seed=seed, stratify=strat)
    return data.subset(tr), data.subset(va)


class TestEndToEndWorkloads:
    """Chunked λ-search selects the identical λ on every scenario family
    and on a benchmark twin — the acceptance-criterion check."""

    # per-family ε probed so the grid lands on a feasible nonzero λ
    SCENARIO_EPS = {
        "group_sweep": 0.15,
        "imbalance": 0.05,
        "label_noise": 0.05,
        "covariate_shift": 0.10,
        "million_row": 0.05,
        "hundred_million_row": 0.08,
        "drifting_mix": 0.10,
        "label_drift": 0.10,
    }

    @pytest.mark.parametrize("name", sorted(available_scenarios()))
    def test_scenario_grid_search_identical(self, name):
        overrides = {"n_groups": 2} if name == "group_sweep" else {}
        data = load_scenario(name, n=2000, seed=0, **overrides)
        train, val = _splits(data)
        spec = f"SP <= {self.SCENARIO_EPS[name]}"
        engines = dict(
            full=Engine("grid", grid_steps=10, grid_max=0.5),
            chunked=Engine("grid", grid_steps=10, grid_max=0.5,
                           chunk_size=128),
        )
        reports = {
            kind: engine.solve(
                Problem(spec), GaussianNaiveBayes(), train, val
            ).report
            for kind, engine in engines.items()
        }
        assert reports["full"].lambdas[0] != 0.0
        assert np.array_equal(
            reports["full"].lambdas, reports["chunked"].lambdas
        )
        assert (
            reports["full"].validation["accuracy"]
            == reports["chunked"].validation["accuracy"]
        )
        d_full = [h.disparity for h in reports["full"].history]
        d_chunk = [h.disparity for h in reports["chunked"].history]
        assert d_full == d_chunk

    def test_twin_multi_constraint_grid_identical(self):
        from repro.datasets import load_adult

        data = load_adult(n=2400, seed=0)
        train, val = _splits(data)
        problem = Problem("SP <= 0.12 and FPR <= 0.2")
        full = Engine("grid", grid_steps=5).solve(
            problem, GaussianNaiveBayes(), train, val
        )
        chunked = Engine("grid", grid_steps=5, chunk_size=100).solve(
            problem, GaussianNaiveBayes(), train, val
        )
        assert np.array_equal(full.report.lambdas, chunked.report.lambdas)
        assert np.any(full.report.lambdas != 0.0)

    def test_sequential_strategy_with_chunking_identical(self):
        # binary_search scores one model at a time through the memoized
        # evaluator; chunking must not perturb it either
        data = load_scenario("label_noise", n=2000, seed=1)
        train, val = _splits(data)
        problem = Problem("SP <= 0.05")
        full = Engine("binary_search").solve(
            problem, GaussianNaiveBayes(), train, val
        )
        chunked = Engine("binary_search", chunk_size=64).solve(
            problem, GaussianNaiveBayes(), train, val
        )
        assert np.array_equal(full.report.lambdas, chunked.report.lambdas)

    def test_evaluate_model_and_audit_chunking_identical(self):
        # the final validation/audit pass streams predictions in row
        # blocks when chunking is on — same numbers, bounded peak
        from repro.core.evaluation import evaluate_model

        data = load_scenario("imbalance", n=1500, seed=2)
        constraints = bind_specs(Problem("SP <= 0.05").specs, data)
        model = GaussianNaiveBayes().fit(data.X, data.y)
        full = evaluate_model(model, data.X, data.y, constraints)
        for chunk in (1, 64, 1499, 1500, 4000):
            got = evaluate_model(
                model, data.X, data.y, constraints, chunk_size=chunk
            )
            assert got == full, chunk

        train, val = _splits(data)
        fair = Engine("binary_search").solve(
            Problem("SP <= 0.05"), GaussianNaiveBayes(), train, val
        )
        assert fair.audit(data, chunk_size=97) == fair.audit(data)

    def test_chunked_constraints_bound_via_bind_specs(self):
        # chunking composes with DSL binding (multi-group scenario)
        data = load_scenario("group_sweep", n=2000, seed=0, n_groups=3)
        constraints = bind_specs(Problem("SP <= 0.3").specs, data)
        ev_full = CompiledEvaluator(constraints, data.y)
        ev_chunk = CompiledEvaluator(constraints, data.y, chunk_size=77)
        model = GaussianNaiveBayes().fit(data.X, data.y)
        preds = model.predict(data.X)
        assert np.array_equal(
            ev_full.disparities(preds), ev_chunk.disparities(preds)
        )
