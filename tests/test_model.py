"""Model construction, validation, and estimation from raw judgments."""

import dataclasses
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import affine_model, matrix_with_spectrum, model_corpus
from crowdwise import model as model_module
from crowdwise.diversity import CandidateMember, extend_model
from crowdwise.errors import SampleTooSmall, ShapeMismatch, ValidationFailed
from crowdwise.model import (
    PSD_RTOL,
    CrowdModel,
    JudgmentSample,
    _certified_definite,
    _certified_extensions,
    _nonfinite_violation,
    _symmetry_violation,
    estimate_model,
    fixed_criterion_model,
    validate_model,
)
from crowdwise.montecarlo import SimulationSpec, random_model, simulate
from crowdwise.schemes import optimal_weights, uniform_selection, uniform_weights


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

    def test_validation_and_solve_scan_the_moments_once(self, monkeypatch):
        model = random_model(6, seed=17, criterion_var=1.0)
        scans = []
        isfinite = np.isfinite
        monkeypatch.setattr(
            np, "isfinite", lambda a: scans.append(a is model.judge_cov) or isfinite(a)
        )
        assert validate_model(model) == []
        optimal_weights(model)
        assert scans.count(True) == 1

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
        # A mean near zero keeps only its sum's rounding: two orders of a
        # 12-term sum give means at most about 12 eps max|x| of the column
        # apart.
        for column, mean, permuted in zip(judgments.T, base.judge_means, shuffled.judge_means):
            atol = 12 * np.finfo(float).eps * np.abs(column).max()
            np.testing.assert_allclose(mean, permuted, rtol=1e-12, atol=atol)
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

    @staticmethod
    def count_factorizations(monkeypatch) -> list[tuple[str, tuple[int, ...]]]:
        """Each Cholesky factorization from here on, as ("cholesky", shape)
        for np.linalg.cholesky and ("certificate", shape) for the
        certificate's own call."""
        calls = []
        cholesky = np.linalg.cholesky
        shifted_factor = model_module._shifted_factor

        def counted_cholesky(m):
            calls.append(("cholesky", m.shape))
            return cholesky(m)

        def counted_shifted_factor(m, shift):
            calls.append(("certificate", m.shape))
            return shifted_factor(m, shift)

        monkeypatch.setattr(np.linalg, "cholesky", counted_cholesky)
        monkeypatch.setattr(model_module, "_shifted_factor", counted_shifted_factor)
        return calls

    def test_joint_matrix_is_not_factored(self, monkeypatch):
        # Its last pivot is -|l|^2 <= 0, so Cholesky could never factor it.
        model = fixed_criterion_model([0.5, 1.0, 0.0], np.diag([1.0, 2.0, 3.0]), 0.0)
        calls = self.count_factorizations(monkeypatch)
        assert validate_model(model) == []
        assert calls == []

    def test_random_criterion_joint_matrix_is_factored_once(self, monkeypatch):
        # The control for the count above: a criterion of positive variance
        # makes the certificate factor the joint matrix, by its own call.
        model = random_model(50, seed=5, criterion_var=1.0)
        calls = self.count_factorizations(monkeypatch)
        assert validate_model(model) == []
        assert calls == [("certificate", (51, 51))]


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


def full_symmetry_violation(cov: np.ndarray) -> float:
    """max|cov - cov'| / max|cov| over whole matrices: the reference for
    ``_symmetry_violation``."""
    scale = np.abs(cov).max()
    if scale == 0.0:
        return 0.0
    return float(np.abs(cov - cov.T).max() / scale)


class TestSymmetryViolation:
    def test_bits_equal_the_full_formula(self):
        # Finite matrices only, as validate_model passes after its
        # nonfinite check.
        rng = np.random.default_rng(23)
        matrices = [model.judge_cov for model in validation_fixtures()]
        for size in (1, 2, 5, 200):
            m = rng.normal(size=(size, size)) * 10.0 ** rng.integers(-300, 300)
            noise = rng.normal(size=(size, size)) * 1e-10
            matrices += [m, m + m.T, (m + m.T) * (1.0 + noise), np.zeros((size, size))]
        for cov in filter(lambda c: np.isfinite(c).all(), matrices):
            expected = full_symmetry_violation(cov)
            got = _symmetry_violation(cov)
            assert type(got) is float
            assert got.hex() == expected.hex()


class TestOneSpectrum:
    def test_violations_equal_separate_spectra(self, linalg_calls):
        fixtures = validation_fixtures()
        certified = eigen_path = 0
        for model in fixtures:
            expected = separate_spectra_violations(model)
            before = linalg_calls["eigvalsh"]
            assert validate_model(model) == expected
            eigen_path += linalg_calls["eigvalsh"] > before
            certified += linalg_calls["eigvalsh"] == before and not _nonfinite_violation(model)
        # Both paths ran: the Cholesky certificate alone, and the eigen path.
        assert certified > 0 and eigen_path > 0

    def test_joint_spectrum_is_computed_once(self, linalg_calls):
        model = model_corpus(1, base_seed=3, sizes=(5,), criterion_vars=(1.0,))[0]
        assert validate_model(model) == []
        assert validate_model(model) == []
        assert linalg_calls["eigvalsh"] == 0
        assert model.joint_spectrum == model.joint_spectrum
        assert linalg_calls["eigvalsh"] == 1


def exactly_positive_definite(m: np.ndarray) -> bool:
    """Whether every pivot of an exact rational LDL' of ``m`` is positive."""
    a = [[Fraction(x) for x in row] for row in m.tolist()]
    for k, pivot_row in enumerate(a):
        if pivot_row[k] <= 0:
            return False
        for row in a[k + 1:]:
            factor = row[k] / pivot_row[k]
            for j in range(k + 1, len(a)):
                row[j] -= factor * pivot_row[j]
    return True


def straddling_matrices() -> list[np.ndarray]:
    """Exactly symmetric matrices of order 1 to 6 with a smallest eigenvalue
    of +/-1e-17 to 1e-12 beside others from 0.1 to 1: on either side of the
    certificate's shift."""
    relatives = np.logspace(-17, -12, 11)
    matrices = []
    for size in range(1, 7):
        others = np.linspace(1.0, 0.1, size - 1)
        for seed in range(3):
            for relative in np.concatenate([-relatives, relatives]):
                spectrum = [relative, *others]
                matrices.append(matrix_with_spectrum(spectrum, 100 * size + seed))
    return matrices


def bordered_straddling_cases(seed: int):
    """A model with an exactly symmetric joint matrix J of order 2 to 5, and
    borders b with corners v = b'J^-1 b + delta, delta from -1e-12 to 1e-12:
    extended matrices [[J, b], [b', v]] of order up to 6 whose last pivot
    lies on either side of the bordered certificate's shift."""
    rng = np.random.default_rng(seed)
    size = 2 + seed % 4
    joint = matrix_with_spectrum(np.linspace(1.0, 0.1, size), seed)
    deltas = np.concatenate([-np.logspace(-17, -12, 11), np.logspace(-17, -12, 11)])
    borders = rng.normal(size=(size, len(deltas))) * 0.3
    schur = (borders * np.linalg.solve(joint, borders)).sum(axis=0)
    return joint_model(joint, seed), borders, schur + deltas


class TestCholeskyCertificate:
    def test_certified_matrices_are_exactly_definite(self):
        decisions = []
        for m in straddling_matrices():
            certified = _certified_definite(m.copy())
            if certified:
                assert exactly_positive_definite(m / 2.0 + m.T / 2.0), m
            decisions.append(certified)
        assert any(decisions) and not all(decisions)

    def test_bordered_certificates_are_exactly_definite(self):
        decisions = []
        for seed in range(12):
            model, borders, corners = bordered_straddling_cases(seed)
            joint = model.joint_covariance()
            for b, v, certified in zip(
                borders.T, corners, _certified_extensions(model, borders, corners)
            ):
                if certified:
                    # The new judge last: a symmetric permutation of the
                    # extended joint matrix, definite exactly when it is.
                    extended = np.block([[joint, b[:, None]], [b[None, :], v]])
                    assert exactly_positive_definite(extended), (seed, v)
                decisions.append(bool(certified))
        assert any(decisions) and not all(decisions)

    def test_gufunc_verdict_is_numpy_choleskys(self):
        # The certificate calls numpy's private Cholesky gufunc: it must
        # complete exactly when np.linalg.cholesky does, with no warning,
        # and give its factor bit for bit.
        rng = np.random.default_rng(29)
        twins = CrowdModel(
            judge_means=[0.0, 0.0],
            judge_cov=[[1.0, 1.0], [1.0, 1.0]],
            criterion_mean=0.0,
            criterion_var=1.0,
            cross_cov=[0.5, 0.5],
        )
        matrices = [
            *straddling_matrices(),
            *(model.joint_covariance() for model in model_corpus(40)),
            np.array([[1.0, 2.0], [2.0, 1.0]]),
            twins.joint_covariance(),
            np.diag([1e308, 1e308, 1.0]),
            np.array([[1e-300, 1e308], [1e308, 1.0]]),  # the factor overflows
        ]
        for order in (1, 2, 64, 65, 1001):
            a = rng.normal(size=(order, order))
            spd = a @ a.T + order * np.eye(order)
            matrices.append((spd + spd.T) / 2.0)
        verdicts = []
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for m in matrices:
                expected = factor_or_none(m.T)
                got = model_module._shifted_factor(m.copy(), 0.0)
                assert (got is None) == (expected is None)
                if got is not None:
                    assert np.ascontiguousarray(got).tobytes() == expected.tobytes()
                verdicts.append(got is not None)
        assert any(verdicts) and not all(verdicts)

    def test_nonpositive_diagonal_is_refused_without_overflow(self):
        # A tiny largest diagonal entry beside a huge negative one: the
        # ratio of the two would overflow.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert not _certified_definite(np.diag([-1e300, 1e-310]))

    def test_decision_is_invariant_under_power_of_four_rescaling(self):
        # Scaling by 4^j scales every rounded operation of the factorization
        # exactly, square roots included; an odd power of two would round
        # each square root afresh.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for m in straddling_matrices():
                decision = _certified_definite(m.copy())
                for k in range(-900, 1001, 50):
                    assert _certified_definite(m * 2.0**k) == decision, k


def factor_or_none(m: np.ndarray) -> np.ndarray | None:
    try:
        return np.linalg.cholesky(m)
    except np.linalg.LinAlgError:
        return None


def one_ulp_off_symmetric(model: CrowdModel) -> CrowdModel:
    cov = model.judge_cov.copy()
    cov[0, 1] = np.nextafter(cov[0, 1], np.inf)
    return dataclasses.replace(model, judge_cov=cov)


class TransposeCompares(np.ndarray):
    """An array that counts its comparisons with its own transpose."""

    count = 0

    def __eq__(self, other):
        if (
            isinstance(other, np.ndarray)
            and other.shape == self.shape[::-1]
            and other.strides == self.strides[::-1]
            and np.may_share_memory(self, other)
        ):
            TransposeCompares.count += 1
        return np.asarray(self) == np.asarray(other)


class TestExactSymmetry:
    """An exactly symmetric judge_cov is checked once and factored as it is;
    any other takes the symmetrised route."""

    def test_transposed_cholesky_is_the_same_factor(self):
        # The certificate and the solver factor m' for an exactly symmetric
        # m, the layout LAPACK reads without a strided copy.
        rng = np.random.default_rng(31)
        matrices = straddling_matrices()
        for order in range(1, 301):
            a = rng.normal(size=(order, order))
            shift = order if order % 3 else 0.0  # every third is indefinite
            matrices.append((a + a.T) / 2.0 + shift * np.eye(order))
        factored = 0
        for m in matrices:
            assert (m == m.T).all()
            expected, got = factor_or_none(m), factor_or_none(m.T)
            assert (expected is None) == (got is None)
            if expected is not None:
                assert expected.tobytes() == got.tobytes()
                factored += 1
        assert 0 < factored < len(matrices)

    def test_one_ulp_off_takes_the_symmetrised_route(self):
        for model in model_corpus(64, base_seed=41, sizes=(2, 3, 5, 8)):
            off = one_ulp_off_symmetric(model)
            halves = 0.5 * off.judge_cov + 0.5 * off.judge_cov.T
            symmetrised = dataclasses.replace(off, judge_cov=halves)
            assert not off.exactly_symmetric and symmetrised.exactly_symmetric
            assert validate_model(off) == validate_model(symmetrised) == []
            got, expected = optimal_weights(off), optimal_weights(symmetrised)
            assert got.weights.weights.tobytes() == expected.weights.weights.tobytes()
            assert (got.iterations, got.kkt_residual) == (
                expected.iterations, expected.kkt_residual
            )
            w, p = uniform_weights(off.n_judges), uniform_selection(off.n_judges)
            got, expected = (
                simulate(SimulationSpec(m, trials=500, seed=7), w, p) for m in (off, symmetrised)
            )
            assert repr(got) == repr(expected)

    def test_validate_and_solve_compare_with_the_transpose_once(self, monkeypatch):
        monkeypatch.setattr(TransposeCompares, "count", 0)
        model = model_corpus(1, base_seed=3, sizes=(6,), criterion_vars=(1.0,))[0]
        object.__setattr__(model, "judge_cov", model.judge_cov.view(TransposeCompares))
        assert validate_model(model) == []
        optimal_weights(model)
        assert TransposeCompares.count == 1
        assert model.symmetric_cov is model.judge_cov

    def test_bordered_certificate_agrees_on_subnormal_borders(self, linalg_calls):
        # Every moment is a multiple of the subnormal spacing eta, so an odd
        # one is not its own b / 2 + b / 2.  At this scale both shifts are
        # 2 order (order + 1) eta, and the bordered certificate decides each
        # candidate as validate_model's own factor of the extended crowd.
        eta = 2.0**-1074

        def decisions_agree(base, borders, corners) -> list[bool]:
            certified = _certified_extensions(base, borders, corners)
            for b, v, decision in zip(borders.T, corners, certified):
                extended = extend_model(base, CandidateMember(0.0, v, b[:2], b[2]), certified=True)
                before = linalg_calls["eigvalsh"]
                own = validate_model(extended) == [] and linalg_calls["eigvalsh"] == before
                assert decision == own, (b / eta, v / eta)
            return certified.tolist()

        rng = np.random.default_rng(43)
        decisions = []
        for _ in range(20):
            variances = rng.integers(60, 200, size=3)
            base = CrowdModel(
                judge_means=np.zeros(2),
                judge_cov=np.diag(variances[:2] * eta),
                criterion_mean=0.0,
                criterion_var=float(variances[2] * eta),
                cross_cov=np.zeros(2),
            )
            borders = (2 * rng.integers(0, 40, size=(3, 12)) + 1) * eta
            corners = rng.integers(40, 200, size=12) * eta
            decisions += decisions_agree(base, borders, corners)
        assert any(decisions) and not all(decisions)
        # A crowd asymmetric within PSD_RTOL: variances near 2^40 eta and one
        # pair that differs by eta.  The extended crowd's symmetric_cov keeps
        # each border and corner as it is.  Every r_i^2 is below eta / 2, so
        # a candidate is certified when its corner v clears the shift, 40 eta;
        # an odd v halved to v / 2 + v / 2 would lose an eta there.
        rng = np.random.default_rng(47)
        decisions = []
        for _ in range(20):
            variances = rng.integers(2**40, 2**41, size=3)
            pair = int(rng.integers(0, 2**38))
            base = CrowdModel(
                judge_means=np.zeros(2),
                judge_cov=np.array([[variances[0], pair], [pair + 1, variances[1]]]) * eta,
                criterion_mean=0.0,
                criterion_var=float(variances[2] * eta),
                cross_cov=np.zeros(2),
            )
            assert not base.exactly_symmetric and validate_model(base) == []
            borders = (2 * rng.integers(0, 2**17, size=(3, 12)) + 1) * eta
            corners = rng.integers(30, 60, size=12) * eta
            decisions += decisions_agree(base, borders, corners)
        assert any(decisions) and not all(decisions)

    def test_bordered_certificate_holds_beside_subnormal_borders(self, linalg_calls):
        decisions = []
        for seed in range(12):
            base = random_model(8, seed=seed, criterion_var=1.0)
            assert base.exactly_symmetric
            rng = np.random.default_rng(seed)
            borders = rng.normal(size=(9, 6)) * 0.2
            borders[rng.random(size=borders.shape) < 0.3] = 5e-324
            corners = (borders * borders).sum(axis=0) * 10.0 ** rng.uniform(-1.0, 1.0, 6)
            certified = _certified_extensions(base, borders, corners)
            for b, v, decision in zip(borders.T, corners, certified):
                if decision:
                    extended = extend_model(base, CandidateMember(0.0, v, b[:8], b[8]), certified=True)
                    before = linalg_calls["eigvalsh"]
                    assert validate_model(extended) == []
                    assert linalg_calls["eigvalsh"] == before
                decisions.append(bool(decision))
        assert any(decisions) and not all(decisions)
