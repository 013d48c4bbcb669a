"""Model construction, validation, and estimation from raw judgments."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import affine_model, model_corpus
from crowdwise.errors import SampleTooSmall, ShapeMismatch, ValidationFailed
from crowdwise.model import (
    CrowdModel,
    JudgmentSample,
    estimate_model,
    fixed_criterion_model,
    validate_model,
)


def eigs_2x2(m):
    """Eigenvalues of a symmetric 2x2 via the characteristic polynomial."""
    tr = m[0][0] + m[1][1]
    det = m[0][0] * m[1][1] - m[0][1] * m[1][0]
    disc = math.sqrt(tr * tr - 4.0 * det)
    return (tr - disc) / 2.0, (tr + disc) / 2.0


class TestValidateModel:
    def test_perfectly_correlated_pair_is_valid(self):
        model = CrowdModel(
            judge_means=[0.0],
            judge_cov=[[1.0]],
            criterion_mean=0.0,
            criterion_var=1.0,
            cross_cov=[1.0],
        )
        assert validate_model(model) == []

    def test_zero_variance_criterion_forces_zero_cross_covariance(self):
        model = CrowdModel(
            judge_means=[0.0],
            judge_cov=[[1.0]],
            criterion_mean=0.0,
            criterion_var=0.0,
            cross_cov=[0.5],
        )
        violations = validate_model(model)
        assert len(violations) == 1
        assert "joint covariance" in violations[0]

    def test_indefinite_judge_cov_reported_once(self):
        # Characteristic polynomial gives eigenvalues 3 and -1.
        cov = [[1.0, 2.0], [2.0, 1.0]]
        assert eigs_2x2(cov) == (-1.0, 3.0)
        model = CrowdModel(
            judge_means=[0.0, 0.0],
            judge_cov=cov,
            criterion_mean=0.0,
            criterion_var=0.0,
            cross_cov=[0.0, 0.0],
        )
        violations = validate_model(model)
        assert len(violations) == 1
        assert "not positive semidefinite" in violations[0]

    def test_asymmetric_cov_flagged(self):
        model = CrowdModel(
            judge_means=[0.0, 0.0],
            judge_cov=[[1.0, 0.5], [0.2, 1.0]],
            criterion_mean=0.0,
            criterion_var=0.0,
            cross_cov=[0.0, 0.0],
        )
        assert any("asymmetric" in v for v in validate_model(model))

    def test_negative_criterion_variance_flagged(self):
        model = CrowdModel(
            judge_means=[0.0],
            judge_cov=[[1.0]],
            criterion_mean=0.0,
            criterion_var=-0.5,
            cross_cov=[0.0],
        )
        assert any("criterion_var" in v for v in validate_model(model))

    def test_non_finite_moments_listed_first_and_alone(self):
        model = CrowdModel(
            judge_means=[np.nan, 3.0],
            judge_cov=[[1.0, 0.0], [0.0, np.inf]],
            criterion_mean=0.0,
            criterion_var=-1.0,
            cross_cov=[0.0, 0.0],
        )
        assert validate_model(model) == [
            "non-finite values in judge_means, judge_cov"
        ]

    def test_non_finite_moments_rejected_by_constructors(self):
        with pytest.raises(ValidationFailed, match="non-finite"):
            fixed_criterion_model([0.0, np.nan], np.eye(2), 0.0)
        with pytest.raises(ValidationFailed, match="non-finite"):
            estimate_model(
                JudgmentSample(
                    judgments=[[1.0, np.nan], [2.0, 3.0], [0.0, 1.0]],
                    criterion=[1.0, 2.0, 3.0],
                )
            )


class TestEstimateModel:
    def test_two_trial_hand_computation(self):
        sample = JudgmentSample(
            judgments=[[1.0, 2.0], [3.0, 4.0]],
            criterion=[2.0, 3.0],
            judge_labels=("a", "b"),
        )
        model = estimate_model(sample)
        np.testing.assert_allclose(model.judge_means, [2.0, 3.0], rtol=1e-12)
        assert model.criterion_mean == pytest.approx(2.5, abs=1e-12)
        np.testing.assert_allclose(
            model.judge_cov, [[2.0, 2.0], [2.0, 2.0]], rtol=1e-12
        )
        np.testing.assert_allclose(model.cross_cov, [1.0, 1.0], rtol=1e-12)
        assert model.criterion_var == pytest.approx(0.5, abs=1e-12)
        assert validate_model(model) == []

    def test_constant_data_has_zero_variance(self):
        sample = JudgmentSample(
            judgments=[[5.0], [5.0], [5.0]], criterion=[5.0, 5.0, 5.0]
        )
        model = estimate_model(sample)
        assert model.judge_means[0] == 5.0
        assert model.judge_cov[0, 0] == 0.0
        assert model.criterion_var == 0.0
        assert model.cross_cov[0] == 0.0

    def test_monte_carlo_moments_recovered(self):
        # Two independent standard-normal judges; the criterion is judge 1,
        # so cross covariances head to (1, 0).  Tolerance is about 4/sqrt(T).
        rng = np.random.default_rng(2024)
        judgments = rng.standard_normal((1000, 2))
        sample = JudgmentSample(judgments=judgments, criterion=judgments[:, 0])
        model = estimate_model(sample)
        np.testing.assert_allclose(model.judge_cov, np.eye(2), atol=0.15)
        np.testing.assert_allclose(model.cross_cov, [1.0, 0.0], atol=0.15)

    def test_single_trial_rejected(self):
        with pytest.raises(SampleTooSmall):
            estimate_model(JudgmentSample(judgments=[[1.0, 2.0]], criterion=[1.0]))

    def test_criterion_length_mismatch_rejected(self):
        with pytest.raises(ShapeMismatch):
            JudgmentSample(judgments=[[1.0], [2.0]], criterion=[1.0, 2.0, 3.0])

    @given(seed=st.integers(0, 10_000), t=st.integers(2, 30), n=st.integers(1, 5))
    @settings(max_examples=40, deadline=None)
    def test_estimate_always_validates(self, seed, t, n):
        rng = np.random.default_rng(seed)
        sample = JudgmentSample(
            judgments=rng.normal(size=(t, n)), criterion=rng.normal(size=t)
        )
        assert validate_model(estimate_model(sample)) == []

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_trial_permutation_invariance(self, seed):
        rng = np.random.default_rng(seed)
        judgments = rng.normal(size=(12, 3))
        criterion = rng.normal(size=12)
        perm = rng.permutation(12)
        base = estimate_model(JudgmentSample(judgments=judgments, criterion=criterion))
        shuffled = estimate_model(
            JudgmentSample(judgments=judgments[perm], criterion=criterion[perm])
        )
        np.testing.assert_allclose(base.judge_means, shuffled.judge_means, rtol=1e-12)
        np.testing.assert_allclose(base.judge_cov, shuffled.judge_cov, rtol=1e-9, atol=1e-12)
        np.testing.assert_allclose(base.cross_cov, shuffled.cross_cov, rtol=1e-9, atol=1e-12)
        assert base.criterion_var == pytest.approx(shuffled.criterion_var, rel=1e-9)

    @given(
        a=st.floats(-50.0, 50.0).filter(lambda a: abs(a) > 1e-3),
        b=st.floats(-100.0, 100.0),
    )
    @settings(max_examples=30, deadline=None)
    def test_affine_equivariance(self, a, b):
        rng = np.random.default_rng(7)
        judgments = rng.normal(size=(15, 3))
        criterion = rng.normal(size=15)
        base = estimate_model(JudgmentSample(judgments=judgments, criterion=criterion))
        transformed = estimate_model(
            JudgmentSample(judgments=a * judgments + b, criterion=a * criterion + b)
        )
        expected = affine_model(base, a, b)
        np.testing.assert_allclose(
            transformed.judge_means, expected.judge_means, rtol=1e-9, atol=1e-9
        )
        np.testing.assert_allclose(
            transformed.judge_cov, expected.judge_cov, rtol=1e-9, atol=1e-9
        )
        np.testing.assert_allclose(
            transformed.cross_cov, expected.cross_cov, rtol=1e-9, atol=1e-9
        )
        assert transformed.criterion_var == pytest.approx(
            expected.criterion_var, rel=1e-9, abs=1e-9
        )
        assert transformed.criterion_mean == pytest.approx(
            expected.criterion_mean, rel=1e-9, abs=1e-9
        )


class TestFixedCriterionModel:
    def test_definition(self):
        model = fixed_criterion_model([0.0, 0.0], np.eye(2), 0.0)
        assert model.criterion_var == 0.0
        np.testing.assert_array_equal(model.cross_cov, [0.0, 0.0])
        assert model.criterion_mean == 0.0

    def test_singular_but_psd_cov_accepted(self):
        # Eigenvalues 0 and 2 by the characteristic polynomial.
        cov = [[1.0, -1.0], [-1.0, 1.0]]
        assert eigs_2x2(cov) == (0.0, 2.0)
        model = fixed_criterion_model([1.0, 1.0], cov, 0.0)
        assert validate_model(model) == []

    def test_negative_variance_rejected(self):
        with pytest.raises(ValidationFailed) as exc:
            fixed_criterion_model([0.0], [[-1.0]], 0.0)
        assert any("not positive semidefinite" in v for v in exc.value.violations)

    def test_corpus_models_validate(self):
        for model in model_corpus(40):
            assert validate_model(model) == []
