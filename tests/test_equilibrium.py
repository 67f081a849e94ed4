import warnings

import numpy as np
import pytest

from fpopt import (
    CoefficientPair,
    Covariance,
    InvalidMatrix,
    MixedEquilibria,
    NotPSD,
    Schedule,
    TraceBudgetExceeded,
    construct_optimal,
    general_eigenvalues,
    same_equilibrium,
    spectral_gap,
    validate_pair,
)
from fpopt.benchmarks import balanced_pair, symmetric_pair
from helpers import make_pair, random_admissible_pair, random_covariance, whitened_skew


# ------------------------------------------------------------ Covariance

def test_covariance_input_forms_agree():
    full = Covariance(np.diag([1.0, 2.0]))
    diagonal = Covariance(np.array([1.0, 2.0]))
    eigen = Covariance.from_eigen(np.array([1.0, 2.0]), np.eye(2))
    assert np.array_equal(full.matrix, diagonal.matrix)
    assert np.array_equal(full.matrix, eigen.matrix)


@pytest.mark.parametrize("kappa", [1e6, 1e9, 1e12])
def test_covariance_from_eigen_keeps_the_stated_spectrum(kappa):
    # an eigh of K = Q diag(v) Q^T rounds the smallest variance by about
    # eps kappa relative; the stated pairs carry it exactly
    stated = np.geomspace(1.0, kappa, 4)
    for seed in range(5):
        axes = np.linalg.qr(np.random.default_rng(seed).normal(size=(4, 4)))[0]
        cov = Covariance.from_eigen(stated[::-1], axes[:, ::-1])
        assert np.array_equal(cov.variances, stated)
        assert cov.fastest_rate == construct_optimal(cov, 2.0).rate == 1.0
        assert abs(cov.fastest_direction @ axes[:, 0]) == pytest.approx(1.0, rel=0, abs=1e-15)
        assert np.array_equal(cov.matrix, Covariance(axes[:, ::-1] @ np.diag(stated[::-1])
                                                     @ axes[:, ::-1].T).matrix)


def test_covariance_cached_data():
    rng = np.random.default_rng(21)
    cov = random_covariance(rng, 5)
    assert cov.fastest_rate == pytest.approx(1.0 / cov.variances[0], rel=1e-12)
    assert np.linalg.norm(cov.sqrt @ cov.sqrt - cov.matrix) <= 1e-11 * np.linalg.norm(cov.matrix)
    assert np.linalg.norm(cov.inv @ cov.matrix - np.eye(5)) <= 1e-11 * cov.condition_number
    direction = cov.fastest_direction
    assert np.linalg.norm(cov.matrix @ direction - cov.variances[0] * direction) <= 1e-10
    assert np.linalg.norm(direction) == pytest.approx(1.0, abs=1e-12)


def test_same_equilibrium_is_scale_free():
    # the distance is judged relative to the covariances' own size
    small, swapped = Covariance(np.diag([1e-14, 2e-14])), Covariance(np.diag([2e-14, 1e-14]))
    assert not same_equilibrium(small, swapped)
    with pytest.raises(MixedEquilibria):
        Schedule([CoefficientPair(small, small.inv, np.eye(2)),
                  CoefficientPair(swapped, swapped.inv, np.eye(2))], [1.0])
    # norms beyond the float range are taken after a power-of-two scaling
    assert not same_equilibrium(Covariance(np.diag([1e200, 1e200])),
                                Covariance(np.diag([1e200, 1.0])))
    cov = Covariance(np.array([[2.0, 0.5], [0.5, 1.0]]))
    assert same_equilibrium(cov, Covariance(cov.matrix * (1.0 + 1e-15)))


def test_covariance_rejects_indefinite():
    with pytest.raises(NotPSD):
        Covariance(np.diag([1.0, -0.5]))
    with pytest.raises(NotPSD):
        Covariance(np.diag([1.0, 0.0]))


def test_covariance_rejects_a_subnormal_variance_before_inverting_it():
    # 1 / 1e-320 overflows; refused with no RuntimeWarning on the way
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for variances in ([1e-320, 1.0], [1.0, 2.0, 5e-324]):
            with pytest.raises(NotPSD, match="subnormal variance"):
                Covariance(np.array(variances))
    # the smallest normal double still has a finite inverse
    assert Covariance(np.array([np.finfo(float).tiny, 1.0])).fastest_rate < np.inf


def test_covariance_direction_sign_deterministic():
    cov = Covariance(np.array([20.0, 1.0]))
    assert np.array_equal(cov.fastest_direction, np.array([0.0, 1.0]))


# ------------------------------------------------------ admissible pairs

def test_make_pair_symmetric_case():
    cov = Covariance(np.array([1.0, 2.0]))
    pair = make_pair(cov, np.eye(2), np.zeros((2, 2)))
    assert np.abs(pair.drift - np.diag([1.0, 0.5])).max() <= 1e-15


def test_make_pair_reproduces_2d_optimal_drift():
    # mu = 5/3 is the budget-2 coupling; skew = CK - D = sqrt(2) mu J2
    cov = Covariance(np.array([1.0, 2.0]))
    mu = 5.0 / 3.0
    skew = np.sqrt(2.0) * mu * np.array([[0.0, 1.0], [-1.0, 0.0]])
    pair = make_pair(cov, np.diag([2.0, 0.0]), skew)
    expected = np.array([[2.0, mu / np.sqrt(2.0)], [-np.sqrt(2.0) * mu, 0.0]])
    assert np.abs(pair.drift - expected).max() <= 1e-12


def test_make_pair_reproduces_anisotropic_rotating_drift():
    # skew chosen so the whitened drift is [[0, -7], [7, 2]]
    eps = 0.05
    cov = Covariance(np.array([1.0 / eps, 1.0]))
    j_whitened = np.array([[0.0, -7.0], [7.0, 0.0]])
    skew = cov.sqrt @ j_whitened @ cov.sqrt
    pair = make_pair(cov, np.diag([0.0, 2.0]), skew)
    expected = np.array([[0.0, -7.0 / np.sqrt(eps)], [7.0 * np.sqrt(eps), 2.0]])
    assert np.abs(pair.drift - expected).max() <= 1e-10
    assert np.abs(pair.whitened_drift - np.array([[0.0, -7.0], [7.0, 2.0]])).max() <= 1e-12


def test_pair_rejects_over_budget_or_indefinite_diffusion():
    cov = Covariance(np.array([1.0, 1.0]))
    with pytest.raises(TraceBudgetExceeded):
        CoefficientPair(cov, np.diag([2.0, 0.5]), np.diag([2.0, 0.5]))
    with pytest.raises(NotPSD):
        CoefficientPair(cov, np.diag([1.0, -0.1]), np.diag([1.0, -0.1]))
    # the budget holds to TRACE_TOL: Tr(D) = d passes, d + 1e-9 does not
    CoefficientPair(cov, np.diag([1.5, 0.5]), np.diag([1.5, 0.5]))
    with pytest.raises(TraceBudgetExceeded):
        CoefficientPair(cov, np.diag([1.5, 0.5 + 1e-9]), np.diag([1.5, 0.5 + 1e-9]))


def test_psd_check_is_scale_free():
    # diag(1e-12, -1e-11) is as indefinite as diag(1, -10): the diffusion
    # check rejects it at any scale
    cov = Covariance(np.eye(2))
    for scale in (1.0, 1e12):
        m = scale * np.diag([1e-12, -1e-11])
        with pytest.raises(NotPSD):
            CoefficientPair(cov, np.zeros((2, 2)), m)


def test_pair_invariants_random_sweep():
    rng = np.random.default_rng(22)
    for d in (2, 3, 5):
        cov = random_covariance(rng, d)
        for _ in range(10):
            g = rng.normal(size=(d, d))
            diffusion = g @ g.T
            diffusion *= rng.uniform(0.2, 1.0) * d / np.trace(diffusion)
            r = rng.normal(size=(d, d))
            skew = 0.5 * (r - r.T)
            pair = make_pair(cov, diffusion, skew)
            scale = (np.linalg.norm(pair.drift) * np.linalg.norm(cov.matrix)
                     + np.linalg.norm(diffusion))
            assert pair.stationarity_residual <= 1e-10 * scale
            # round trip: the whitened skew recovered from the whitened drift
            jw = cov.whiten_form(skew)
            assert np.linalg.norm(whitened_skew(pair) - jw) <= 1e-12 * max(1.0, np.linalg.norm(jw))
            # whitened symmetric part equals the whitened diffusion
            ct = pair.whitened_drift
            assert np.linalg.norm(0.5 * (ct + ct.T) - pair.whitened_diffusion) \
                <= 1e-10 * max(1.0, np.linalg.norm(pair.whitened_diffusion))


# ----------------------------------------------------------- validation

def test_validate_symmetric_pair_passes():
    cov = Covariance(np.array([1.0, 2.0]))
    report = validate_pair(CoefficientPair(cov, cov.inv, np.eye(2)))
    assert report.passed
    assert report.admissible and report.positive_stable and report.hypoelliptic


def test_validate_degenerate_pair_fails_uniqueness():
    cov = Covariance(np.eye(2))
    report = validate_pair(CoefficientPair(cov, np.diag([1.0, 0.0]), np.diag([1.0, 0.0])))
    assert report.admissible
    assert not report.hypoelliptic
    assert not report.positive_stable
    assert not report.steady_state_unique
    assert not report.passed


def test_validate_constructed_certificate_rank_one():
    cov = Covariance(np.array([1.0, 2.0, 3.0]))
    cert = construct_optimal(cov, 1.5)
    report = validate_pair(cert.pair)
    assert report.passed
    assert report.rank_diffusion == 1
    assert report.trace_diffusion == pytest.approx(3.0, abs=1e-12)


def test_stationarity_is_judged_without_overflow():
    # the residual and its scale are taken on C, K and D scaled by powers
    # of two: finite residuals keep every bit, none overflows to inf <= inf
    rng = np.random.default_rng(23)
    for d in (2, 4):
        cov = random_covariance(rng, d)
        pair = random_admissible_pair(rng, cov)
        ck = pair.drift @ cov.matrix
        assert pair.stationarity_residual == np.linalg.norm(ck + ck.T - 2.0 * pair.diffusion)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        # whitened drift entries near 1e200: the unscaled norms overflowed
        report = validate_pair(construct_optimal(Covariance(np.diag([1e-200, 1.0])), 2).pair)
        assert np.isfinite(report.stationarity_residual)
        assert report.admissible and report.passed
        # a true residual of 2.8e308, beyond the float range, is reported as such
        far = CoefficientPair(Covariance(np.eye(2)), 1e308 * np.eye(2), np.zeros((2, 2)))
        report = validate_pair(far)
        assert report.stationarity_residual == np.inf
        assert not report.admissible and not report.passed


@pytest.mark.parametrize("s", [1.0, 1e-12, 1e-200])
def test_admissibility_is_scale_free(s):
    # C K + K C^T - 2 D = 2 s [[1, 0.3], [0.3, 2]]: never admissible, and
    # there is no absolute floor under which the residual would pass
    pair = CoefficientPair(Covariance(np.eye(2)), s * np.array([[1.0, 0.3], [0.3, 2.0]]),
                           np.zeros((2, 2)))
    report = validate_pair(pair)
    assert not report.admissible and not report.passed
    # the zero pair is admissible: its residual 0 is within 0
    assert validate_pair(CoefficientPair(Covariance(np.eye(2)), np.zeros((2, 2)),
                                         np.zeros((2, 2)))).admissible


def test_skew_certificate_is_taken_without_overflow():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        # C K = 1e308 [[1, 1], [-1, 1]]: its skew part is finite, its
        # unhalved difference is not
        far = CoefficientPair(Covariance(np.eye(2)), 1e308 * np.array([[1.0, 1.0], [-1.0, 1.0]]),
                              np.zeros((2, 2)))
        assert np.array_equal(whitened_skew(far), 1e308 * np.array([[0.0, 1.0], [-1.0, 0.0]]))
        report = validate_pair(far)
        assert report.stationarity_residual == np.inf
        assert not report.admissible and not report.passed
        # C K = 1e400 [[1, 1], [-1, 1]] is beyond the float range, but the
        # whitened drift 1e200 [[1, 1], [-1, 1]] is not: the pair is taken,
        # and its residual, beyond the float range too, fails validation
        farther = CoefficientPair(Covariance(1e200 * np.eye(2)),
                                  1e200 * np.array([[1.0, 1.0], [-1.0, 1.0]]), np.zeros((2, 2)))
        assert np.array_equal(whitened_skew(farther), 1e200 * np.array([[0.0, 1.0], [-1.0, 0.0]]))
        report = validate_pair(farther)
        assert report.stationarity_residual == np.inf
        assert not report.admissible and not report.passed


def test_whitening_overflow_is_an_input_error():
    cov = Covariance(np.array([1e-300, 1.0]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidMatrix, match="finite"):
            cov.unwhiten_drift(np.full((2, 2), 1e200))
        with pytest.raises(InvalidMatrix, match="finite"):
            construct_optimal(cov, 2.0)


# --------------------------------------------------------- spectral gap

def test_spectral_gap_diagonal():
    cov = Covariance(np.eye(2))
    pair = CoefficientPair(cov, np.diag([1.0, 3.0]), np.diag([1.0, 1.0]))
    assert spectral_gap(pair) == pytest.approx(1.0, abs=1e-12)


def test_spectral_gap_of_optimal_pair_attains_rate():
    cov = Covariance(np.array([1.0, 2.0]))
    cert = construct_optimal(cov, 2.0)
    assert spectral_gap(cert.pair) == pytest.approx(1.0, abs=1e-10)


def _near_defective_drifts(rng):
    """Drifts whose traceless part has ``delta2 = +-10**-k`` times its scale,
    so that the eigenvalues are a near-defective real or complex pair."""
    for k in range(2, 15, 2):
        for sign in (1.0, -1.0):
            mu, n, p = rng.normal(size=3)
            q = (sign * 10.0**-k - n * n) / p
            yield np.array([[mu + n, p], [q, mu - n]])


def test_2d_spectral_gap_matches_mpmath():
    # the gap of the closed-form factor, against the eigenvalues
    # mu +- sqrt(delta2) of the same double matrix at 60 digits: within 16
    # ulps, including where mu and delta nearly cancel (symmetric_pair)
    mpmath = pytest.importorskip("mpmath")
    rng = np.random.default_rng(32)
    drifts = [rng.normal(size=(2, 2)) * 10.0**rng.uniform(-3.0, 3.0) for _ in range(300)]
    drifts += list(_near_defective_drifts(rng))
    # on K = I the whitened drift is the drift itself, bit for bit
    pairs = [CoefficientPair(Covariance(np.eye(2)), a, np.zeros((2, 2))) for a in drifts]
    pairs += [symmetric_pair(), balanced_pair()]
    worst = 0.0
    with mpmath.workdps(60):
        for pair in pairs:
            (a, b), (c, d) = [[mpmath.mpf(x) for x in row] for row in pair.whitened_drift.tolist()]
            mu, delta2 = (a + d) / 2, ((a - d) / 2) ** 2 + b * c
            exact = mu if delta2 <= 0 else mu - mpmath.sqrt(delta2)
            error = abs(mpmath.mpf(spectral_gap(pair)) - exact)
            worst = max(worst, float(error) / np.spacing(abs(float(exact))))
    assert worst <= 16.0


def test_spectral_gap_whitening_invariant():
    rng = np.random.default_rng(23)
    cov = random_covariance(rng, 4)
    pair = random_admissible_pair(rng, cov)
    # spectral_gap reads the whitened drift; the raw drift is similar to it
    whitened = spectral_gap(pair)
    raw = float(np.min(np.real(general_eigenvalues(pair.drift))))
    assert abs(raw - whitened) <= 1e-9 * max(1.0, abs(raw))


def test_spectral_gap_bounded_by_fastest_rate():
    # 200 random admissible pairs across dimensions 2..6
    rng = np.random.default_rng(24)
    for d in (2, 3, 4, 5, 6):
        cov = random_covariance(rng, d)
        for _ in range(40):
            pair = random_admissible_pair(rng, cov)
            assert spectral_gap(pair) <= cov.fastest_rate + 1e-9
