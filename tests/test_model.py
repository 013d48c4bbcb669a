"""Model construction, validation, and estimation from raw judgments."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import affine_model, matrix_with_spectrum, model_corpus
from crowdwise import model as model_module
from crowdwise.errors import SampleTooSmall, ShapeMismatch, ValidationFailed
from crowdwise.model import (
    PSD_RTOL,
    CrowdModel,
    JudgmentSample,
    _nonfinite_violation,
    _symmetry_violation,
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

    def test_largest_finite_variances_validate_without_overflow(self):
        model = CrowdModel(
            judge_means=[0.0, 0.0],
            judge_cov=[[1e308, 0.0], [0.0, 1.5e308]],
            criterion_mean=0.0,
            criterion_var=1.0,
            cross_cov=[0.0, 0.0],
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert validate_model(model) == []

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

    def test_constant_column_centres_to_exact_zeros(self):
        # Three 0.1s average to 0.10000000000000002, so centring on the plain
        # mean would leave a variance of 2.9e-34.
        sample = JudgmentSample(
            judgments=[[0.1, 1.0], [0.1, 3.0], [0.1, 2.0]],
            criterion=[2.0, 3.0, 7.0],
        )
        model = estimate_model(sample)
        assert model.judge_means[0] == 0.1
        np.testing.assert_array_equal(model.judge_cov[0], [0.0, 0.0])
        np.testing.assert_array_equal(model.judge_cov[:, 0], [0.0, 0.0])
        assert model.cross_cov[0] == 0.0

    def test_non_constant_means_are_plain_means(self):
        rng = np.random.default_rng(5)
        judgments = rng.normal(size=(9, 3))
        criterion = rng.normal(size=9)
        model = estimate_model(JudgmentSample(judgments=judgments, criterion=criterion))
        assert model.judge_means.tobytes() == judgments.mean(axis=0).tobytes()
        assert model.criterion_mean == criterion.mean()

    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 6),
        extra=st.integers(0, 5),
        kinds=st.lists(st.sampled_from(["fresh", "duplicate", "constant"]), min_size=6,
                       max_size=6),
        criterion_kind=st.sampled_from(["judge", "mean", "fresh", "constant"]),
        exponent=st.integers(-100, 100),
    )
    @settings(max_examples=300, deadline=None)
    def test_rank_deficient_sample_validates_with_symmetric_cov(
        self, seed, n, extra, kinds, criterion_kind, exponent
    ):
        # T <= N + 1 trials: the joint sample covariance is singular, and its
        # rounding-sized negative eigenvalues must pass validation unclamped.
        rng = np.random.default_rng(seed)
        t = 2 + extra % n
        scale = 10.0 ** exponent
        columns = []
        for kind in kinds[:n]:
            if kind == "duplicate" and columns:
                columns.append(columns[int(rng.integers(len(columns)))])
            elif kind == "constant":
                columns.append(np.full(t, rng.normal() * scale))
            else:
                columns.append(rng.normal(size=t) * scale)
        judgments = np.column_stack(columns)
        criterion = {
            "judge": lambda: judgments[:, int(rng.integers(n))],
            "mean": lambda: judgments.mean(axis=1),
            "fresh": lambda: rng.normal(size=t) * scale,
            "constant": lambda: np.full(t, rng.normal() * scale),
        }[criterion_kind]()
        model = estimate_model(JudgmentSample(judgments=judgments, criterion=criterion))
        assert validate_model(model) == []
        assert np.array_equal(model.judge_cov, model.judge_cov.T)

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

    def test_joint_matrix_is_not_factored(self, monkeypatch):
        # Its last pivot is -|l|^2 <= 0, so Cholesky could never factor it.
        model = fixed_criterion_model([0.5, 1.0, 0.0], np.diag([1.0, 2.0, 3.0]), 0.0)
        calls = []
        cholesky = np.linalg.cholesky

        def counted(m):
            calls.append(m.shape)
            return cholesky(m)

        monkeypatch.setattr(np.linalg, "cholesky", counted)
        assert validate_model(model) == []
        assert calls == []


def separate_spectra_violations(model: CrowdModel) -> list[str]:
    """The violations as one eigensolve each of judge_cov and of the joint
    matrix words them: the reference for the one-spectrum checks."""
    nonfinite = _nonfinite_violation(model)
    if nonfinite:
        return nonfinite
    violations = []
    asym = _symmetry_violation(model.judge_cov)
    if asym > PSD_RTOL:
        violations.append(f"judge_cov is asymmetric (relative violation {asym:.3e})")

    def smallest_if_not_psd(m):
        eigs = np.linalg.eigvalsh(m / 2.0 + m.T / 2.0)
        return None if eigs[0] >= -PSD_RTOL * max(eigs[-1], 0.0) else float(eigs[0])

    cov_smallest = smallest_if_not_psd(model.judge_cov)
    if cov_smallest is not None:
        violations.append(
            "judge_cov is not positive semidefinite "
            f"(smallest eigenvalue {cov_smallest:.6g})"
        )
    if model.criterion_var < 0.0:
        violations.append(f"criterion_var is negative ({model.criterion_var:.6g})")
    if cov_smallest is None and model.criterion_var >= 0.0:
        joint_smallest = smallest_if_not_psd(model.joint_covariance())
        if joint_smallest is not None:
            violations.append(
                "joint covariance of judges and criterion is not positive "
                f"semidefinite (smallest eigenvalue {joint_smallest:.6g}); "
                "cross_cov is inconsistent with any joint distribution"
            )
    return violations


def joint_model(joint: np.ndarray, seed: int) -> CrowdModel:
    """The model whose joint covariance is ``joint``, criterion last."""
    n = joint.shape[0] - 1
    rng = np.random.default_rng(seed)
    return CrowdModel(
        judge_means=rng.normal(size=n),
        judge_cov=joint[:n, :n],
        criterion_mean=float(rng.normal()),
        criterion_var=float(joint[n, n]),
        cross_cov=joint[:n, n],
    )


def rank_deficient_estimates(count: int) -> list[CrowdModel]:
    """Sample moments from at most N + 1 trials, with duplicated and constant
    columns, as ``estimate_model`` computes them (before it validates)."""
    models = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(model_module, "validate_model", lambda model: models.append(model) or [])
        for seed in range(count):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(2, 9))
            t = int(rng.integers(2, n + 2))
            scale = 10.0 ** int(rng.integers(-50, 51))
            columns = [rng.normal(size=t) * scale]
            for _ in range(n):
                kind = rng.integers(3)
                if kind == 0:
                    columns.append(columns[int(rng.integers(len(columns)))])
                elif kind == 1:
                    columns.append(np.full(t, rng.normal() * scale))
                else:
                    columns.append(rng.normal(size=t) * scale)
            estimate_model(JudgmentSample(np.column_stack(columns[1:]), columns[0]))
    return models


def validation_fixtures() -> list[CrowdModel]:
    corpus = model_corpus(200, base_seed=17)
    models = list(corpus)
    models += rank_deficient_estimates(60)
    for model in corpus[:40]:
        # A fixed criterion, where the joint matrix is singular, and the same
        # with cross covariances it cannot have.
        for cross in (0.0, 0.1, 0.2):
            models.append(
                CrowdModel(
                    judge_means=model.judge_means,
                    judge_cov=model.judge_cov,
                    criterion_mean=0.5,
                    criterion_var=0.0,
                    cross_cov=np.full(model.n_judges, cross),
                )
            )
        for var in (-0.5, -1e-300):
            models.append(
                CrowdModel(
                    judge_means=model.judge_means,
                    judge_cov=model.judge_cov,
                    criterion_mean=model.criterion_mean,
                    criterion_var=var,
                    cross_cov=model.cross_cov,
                )
            )
        if model.n_judges >= 2:
            for asym in (0.5 * PSD_RTOL, 2.0 * PSD_RTOL):
                cov = model.judge_cov.copy()
                cov[0, 1] += asym * np.abs(cov).max()
                models.append(
                    CrowdModel(
                        judge_means=model.judge_means,
                        judge_cov=cov,
                        criterion_mean=model.criterion_mean,
                        criterion_var=model.criterion_var,
                        cross_cov=model.cross_cov,
                    )
                )
    for seed in range(6):
        largest = 10.0 ** (3 * seed - 6)
        # judge_cov just inside and just outside -PSD_RTOL * largest, with an
        # independent criterion; then the joint matrix the same way.
        for factor in (1.0 - 1e-3, 1.0 + 1e-3):
            floor = -PSD_RTOL * factor * largest
            cov = matrix_with_spectrum([floor, 0.3 * largest, largest, largest / 7], seed)
            models.append(
                CrowdModel(
                    judge_means=np.zeros(4),
                    judge_cov=cov,
                    criterion_mean=0.0,
                    criterion_var=largest,
                    cross_cov=np.zeros(4),
                )
            )
            spectrum = [floor, 0.3 * largest, largest, largest / 7, largest / 3]
            models.append(joint_model(matrix_with_spectrum(spectrum, seed), seed))
        # The joint matrix's smallest eigenvalue around zero, on both sides of
        # the margin that lets it certify judge_cov alone.
        for relative in (-1e-12, -1e-15, 0.0, 1e-15, 1e-14, 1e-13, 1e-12, 1e-9, 1e-3):
            spectrum = [relative * largest, largest, largest / 2, largest / 5]
            models.append(joint_model(matrix_with_spectrum(spectrum, 10 + seed), seed))
        models.append(joint_model(matrix_with_spectrum([-0.5, 1.0, 2.0], seed), seed))
    for seed in range(30):
        # A judge_cov of scale 1e-20 just outside its tolerance, beside a unit
        # criterion: the joint eigensolve's rounding dwarfs judge_cov's
        # spectrum and may leave the joint's smallest eigenvalue positive.
        joint = np.zeros((5, 5))
        joint[:4, :4] = matrix_with_spectrum([-PSD_RTOL * 1.001e-20, 1e-20, 5e-21, 3e-21], seed)
        joint[:4, 4] = joint[4, :4] = np.random.default_rng(seed).normal(size=4) * 1e-11
        joint[4, 4] = 1.0
        models.append(joint_model(joint, seed))
    nan_cov = np.eye(3)
    nan_cov[1, 2] = np.nan
    models.append(
        CrowdModel(
            judge_means=np.zeros(3),
            judge_cov=nan_cov,
            criterion_mean=0.0,
            criterion_var=1.0,
            cross_cov=np.zeros(3),
        )
    )
    return models


class TestOneSpectrum:
    def test_violations_equal_separate_spectra(self, linalg_calls):
        fixtures = validation_fixtures()
        joint_alone = 0
        for model in fixtures:
            expected = separate_spectra_violations(model)
            before = linalg_calls["eigvalsh"]
            assert validate_model(model) == expected
            one_call = linalg_calls["eigvalsh"] == before + 1
            joint_alone += one_call and model.computed_joint_spectrum() is not None
        # Both paths ran: the joint spectrum alone, and the separate checks.
        assert 0 < joint_alone < len(fixtures)

    def test_joint_spectrum_is_computed_once(self, linalg_calls):
        model = model_corpus(1, base_seed=3, sizes=(5,), criterion_vars=(1.0,))[0]
        assert validate_model(model) == []
        assert validate_model(model) == []
        assert linalg_calls["eigvalsh"] == 1
