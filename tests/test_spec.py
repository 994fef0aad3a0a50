"""Tests for FairnessSpec / Constraint (Definition 1)."""

import numpy as np
import pytest

from repro.core.exceptions import SpecificationError
from repro.core.fairness_metrics import statistical_parity
from repro.core.grouping import by_groups
from repro.core.spec import (
    Constraint,
    FairnessSpec,
    bind_specs,
    equalized_odds_specs,
)
from repro.datasets import make_biased_dataset


@pytest.fixture(scope="module")
def data3():
    return make_biased_dataset(
        "s", 300, ("A", "B", "C"), (0.4, 0.35, 0.25), (0.5, 0.4, 0.3), seed=2
    )


class TestFairnessSpec:
    def test_metric_by_name(self):
        spec = FairnessSpec("sp", 0.03)
        assert spec.metric.name == "SP"

    def test_metric_object_accepted(self):
        spec = FairnessSpec(statistical_parity(), 0.05)
        assert spec.metric.name == "SP"

    def test_unknown_metric_name_raises(self):
        with pytest.raises(SpecificationError, match="unknown metric"):
            FairnessSpec("EQODDS", 0.03)

    def test_non_metric_object_raises(self):
        with pytest.raises(SpecificationError, match="FairnessMetric"):
            FairnessSpec(42, 0.03)

    def test_epsilon_range_checked(self):
        with pytest.raises(SpecificationError, match="epsilon"):
            FairnessSpec("SP", -0.1)
        with pytest.raises(SpecificationError, match="epsilon"):
            FairnessSpec("SP", 1.5)

    def test_repr_mentions_metric(self):
        assert "SP" in repr(FairnessSpec("SP", 0.03))


class TestBinding:
    def test_pairwise_constraint_count(self, data3):
        # Definition 1: |g(D)| choose 2 constraints
        constraints = FairnessSpec("SP", 0.03).bind(data3)
        assert len(constraints) == 3  # C(3,2)

    def test_two_groups_single_constraint(self, data3):
        spec = FairnessSpec("SP", 0.03, grouping=by_groups("A", "C"))
        assert len(spec.bind(data3)) == 1

    def test_bind_specs_concatenates(self, data3):
        specs = [
            FairnessSpec("SP", 0.03, grouping=by_groups("A", "B")),
            FairnessSpec("FNR", 0.05, grouping=by_groups("A", "B")),
        ]
        constraints = bind_specs(specs, data3)
        assert [c.metric.name for c in constraints] == ["SP", "FNR"]

    def test_shared_grouping_binds_once(self, data3):
        # the FPR and FNR halves of one EO clause share a grouping object,
        # so their constraints share the group index arrays
        calls = []
        grouping = by_groups("A", "B", "C")

        def counted(dataset):
            calls.append(1)
            return grouping(dataset)

        specs = [FairnessSpec(m, 0.05, grouping=counted) for m in ("FPR", "FNR")]
        fpr, fnr = bind_specs(specs, data3)[::3]
        assert len(calls) == 1
        assert fpr.g1_idx is fnr.g1_idx and fpr.g2_idx is fnr.g2_idx
        # specs with their own groupings still bind separately, to equal
        # arrays
        alone = bind_specs(equalized_odds_specs(0.05), data3)
        assert alone[0].g1_idx is not alone[3].g1_idx
        assert np.array_equal(alone[0].g1_idx, fpr.g1_idx)

    def test_shared_grouping_leaves_lambda_unchanged(self):
        from repro.api import Engine, Problem
        from repro.datasets import load_scenario
        from repro.ml import GaussianNaiveBayes

        data = load_scenario("million_row", n=5000, seed=0)
        engine = Engine("grid", grid_steps=8, grid_max=0.5)
        shared = engine.solve(Problem("EO <= 0.05"), GaussianNaiveBayes(), data)
        fpr, fnr = shared.report.train_constraints
        assert fpr.g1_idx is fnr.g1_idx
        separate = engine.solve(
            Problem(equalized_odds_specs(0.05)), GaussianNaiveBayes(), data
        )
        assert np.array_equal(shared.report.lambdas, separate.report.lambdas)
        assert np.any(shared.report.lambdas != 0.0)

    def test_labels_unique_and_informative(self, data3):
        constraints = FairnessSpec("SP", 0.03).bind(data3)
        labels = [c.label for c in constraints]
        assert len(set(labels)) == 3
        assert all("SP" in label for label in labels)


class TestConstraint:
    def _make(self, data3):
        return FairnessSpec("SP", 0.03, grouping=by_groups("A", "B")).bind(
            data3
        )[0]

    def test_disparity_is_group_rate_difference(self, data3):
        c = self._make(data3)
        pred = np.zeros(len(data3), dtype=np.int64)
        pred[c.g1_idx[: len(c.g1_idx) // 2]] = 1  # ~half of A selected
        d = c.disparity(data3.y, pred)
        expected = np.mean(pred[c.g1_idx]) - np.mean(pred[c.g2_idx])
        assert d == pytest.approx(expected)

    def test_swapped_negates_disparity(self, data3):
        c = self._make(data3)
        rng = np.random.default_rng(0)
        pred = rng.integers(0, 2, size=len(data3))
        assert c.swapped().disparity(data3.y, pred) == pytest.approx(
            -c.disparity(data3.y, pred)
        )

    def test_is_satisfied_threshold(self, data3):
        c = self._make(data3)
        pred = np.zeros(len(data3), dtype=np.int64)  # both rates 0
        assert c.is_satisfied(data3.y, pred)

    def test_swapped_preserves_epsilon(self, data3):
        c = self._make(data3)
        assert c.swapped().epsilon == c.epsilon

    def test_constraint_label_autogenerated(self):
        c = Constraint(
            metric=statistical_parity(),
            epsilon=0.1,
            group_names=("x", "y"),
            g1_idx=np.array([0]),
            g2_idx=np.array([1]),
        )
        assert "SP" in c.label and "x-y" in c.label
