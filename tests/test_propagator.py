import functools
import importlib
import io
import multiprocessing
import os
import subprocess
import sys
import threading
import time
import warnings

import numpy as np
import pytest

from fpopt import (
    CoefficientPair,
    Covariance,
    FpoptError,
    InvalidArgument,
    InvalidInterval,
    MixedEquilibria,
    NormCurve,
    NotApplicable2D,
    RateTooLarge,
    Schedule,
    best_constant_2d,
    compare_schedules,
    construct_optimal,
    expm,
    max_initial_decay,
    norm_curve,
    sharp_constant,
    spectral_gap,
    tangency_time,
    validate_pair,
)
from fpopt import kernel, propagator
from fpopt.benchmarks import case_pairs, rotating_pair, split_schedule, symmetric_pair
from fpopt.propagator import (
    _CHUNK_ELEMENTS,
    _REFINE_RTOL,
    _Flow,
    _as_schedule,
    _four_sums,
    _refine_peaks,
    _top_singular_2x2,
    write_columns,
)
from fpopt.text import _FORMAT_CHUNK
from helpers import (
    blas_threads,
    exact_constant_2d,
    flow_stack,
    fokker_planck_evolution,
    hold_is_free,
    initial_slope,
    integrate_flow,
    make_pair,
    propagator_at,
    random_admissible_pair,
    random_covariance,
    random_spd,
    restarted,
)

#: Two distinct real eigenvalues, 1 +- sqrt(3)/2.
REAL_SPLIT = np.array([[0.0, -0.5], [0.5, 2.0]])
#: The reference rotation: eigenvalues 1 +- i sqrt(48), sharp constant sqrt(4/3).
ROTATION = np.array([[0.0, -7.0], [7.0, 2.0]])


def time_scaled_pair(a, s):
    """The admissible pair K = I/s, C = s a, D = (a + a^T)/2: its whitened
    drift is s a, so it is the problem of ``a`` with time rescaled by 1/s."""
    return CoefficientPair(Covariance(np.eye(2) / s), s * a, 0.5 * (a + a.T))


# ---------------------------------------------------------------- schedules

def test_schedule_validation():
    pair = rotating_pair(7.0)
    with pytest.raises(ValueError):
        Schedule([pair, pair], [])
    with pytest.raises(ValueError):
        Schedule([pair, pair], [-0.1])
    cov = Covariance([10.0, 1.0])   # another equilibrium
    other = CoefficientPair(cov, cov.inv, np.eye(2))
    with pytest.raises(MixedEquilibria):
        Schedule([pair, other], [0.1])


# --------------------------------------------------------------- propagator

def test_propagator_empty_interval_identity():
    schedule = Schedule([rotating_pair(7.0), rotating_pair(11.0)], [0.4])
    assert np.array_equal(propagator_at(schedule, 0.0), np.eye(2))
    assert np.array_equal(propagator_at(restarted(schedule, 1.3), 0.0), np.eye(2))


def test_propagator_constant_schedule_semigroup():
    pair = rotating_pair(7.0)
    schedule = Schedule.constant(pair)
    t = 0.8
    direct = propagator_at(schedule, t)
    assert np.abs(direct - expm(pair.whitened_drift, t)).max() <= 1e-14
    composed = propagator_at(restarted(schedule, 0.4), t - 0.4) @ propagator_at(schedule, 0.4)
    assert np.linalg.norm(direct - composed) <= 1e-10


def test_propagator_identical_pieces_reduce_to_constant():
    pair = rotating_pair(7.0)
    schedule = Schedule([pair, pair], [0.1])
    for t in (0.05, 0.1, 0.31, 2.0):
        expected = expm(pair.whitened_drift, t)
        assert np.linalg.norm(propagator_at(schedule, t) - expected) <= 1e-12


def test_propagator_composition_across_breakpoints():
    # T(t2, 0) = T(t2, t1) T(t1, 0), with T(t2, t1) that of the schedule
    # restarted at t1, on both sides of the switch at 0.1
    rng = np.random.default_rng(41)
    schedule = split_schedule(rotating_pair(11.0), 0.1)
    for _ in range(10):
        t1, t2 = np.sort(rng.uniform(0.0, 0.5, size=2))
        full = propagator_at(schedule, t2)
        split = propagator_at(restarted(schedule, t1), t2 - t1) @ propagator_at(schedule, t1)
        assert np.linalg.norm(full - split) <= 1e-10


def test_propagator_matches_ode_oracle_across_switch():
    schedule = split_schedule(symmetric_pair(), 0.1)
    for t in (0.05, 0.1, 0.6, 1.7):
        assert np.abs(propagator_at(schedule, t) - integrate_flow(schedule, t)).max() <= 1e-8


def _fokker_planck_cases():
    """(schedule, degree) pairs: the reference rotation, a constructed pair,
    and seeded random admissible pairs, constant and two-piece."""
    constructed = construct_optimal(random_covariance(np.random.default_rng(7), 3), 1.5)
    cases = [pytest.param(Schedule.constant(rotating_pair(7.0)), 3, id="rotation-d2"),
             pytest.param(Schedule.constant(constructed.pair), 3, id="constructed-d3")]
    rng = np.random.default_rng(47)
    for dim, degree in ((2, 3), (3, 3), (4, 2)):
        cov = Covariance(0.2 * random_spd(rng, dim))   # variances O(1): decay within t = 4
        first, second = random_admissible_pair(rng, cov), random_admissible_pair(rng, cov)
        cases += [pytest.param(Schedule.constant(first), degree, id=f"random-d{dim}"),
                  pytest.param(Schedule([first, second], [0.5]), degree, id=f"switched-d{dim}")]
    return cases


@pytest.mark.parametrize("schedule, degree", _fokker_planck_cases())
def test_propagator_norm_is_the_fokker_planck_decay_factor(schedule, degree):
    """||T(t, 0)|| is the L^2(f_inf^{-1}) decay factor of the Fokker-Planck
    evolution itself, checked on its invariant subspace of polynomials (in
    whitened coordinates) of degree 1 to ``degree``: the evolution there has
    norm ||T||, and its degree-k block, the k-th symmetric tensor power of
    T, has norm ||T||^k.  A polynomial subspace bounds the full L^2 norm from
    below, so this checks the equality there and does not prove it on all
    of L^2."""
    for t in (0.05, 0.2, 0.5, 0.8, 1.2, 1.8, 2.5, 3.2, 4.0):
        factor = np.linalg.norm(propagator_at(schedule, t), 2)
        evolution, degrees = fokker_planck_evolution(schedule, t, degree)
        keep = degrees >= 1
        assert np.linalg.norm(evolution[np.ix_(keep, keep)], 2) \
            == pytest.approx(factor, rel=1e-12)
        for k in range(1, degree + 1):
            block = degrees == k
            assert np.linalg.norm(evolution[np.ix_(block, block)], 2) \
                == pytest.approx(factor ** k, rel=1e-12)


def test_propagator_contraction_bound():
    rng = np.random.default_rng(42)
    cov = random_covariance(rng, 3)
    pairs = [random_admissible_pair(rng, cov) for _ in range(3)]
    schedule = Schedule(pairs, [0.3, 0.7])
    for _ in range(10):
        t1, t2 = np.sort(rng.uniform(0.0, 3.0, size=2))
        assert np.linalg.norm(propagator_at(restarted(schedule, t1), t2 - t1), 2) <= 1.0 + 1e-12


# ------------------------------------------------------- stacked evaluator

def _scalar_norm(product):
    # the arithmetic of one curve value, written out for a single time
    return np.exp(np.log(np.linalg.norm(product, 2)))


def test_flow_three_pieces_matches_scalar_products():
    rng = np.random.default_rng(46)
    cov = random_covariance(rng, 3)
    pairs = [random_admissible_pair(rng, cov) for _ in range(3)]
    switches = (0.3, 0.7)
    schedule = Schedule(pairs, switches)
    flow = _Flow(schedule)
    assert all(exp.factored for exp in flow.exps)
    curve = norm_curve(schedule, 2.0, 41)
    assert set(switches) <= set(curve.times)
    drifts = [p.whitened_drift for p in pairs]
    at_first = kernel.expm(drifts[0], 0.3) @ np.eye(3)
    at_second = kernel.expm(drifts[1], 0.7 - 0.3) @ at_first
    expected = []
    for t in curve.times:
        if t < 0.3:
            product = kernel.expm(drifts[0], t) @ np.eye(3)
        elif t < 0.7:
            product = kernel.expm(drifts[1], t - 0.3) @ at_first
        else:
            product = kernel.expm(drifts[2], t - 0.7) @ at_second
        expected.append(_scalar_norm(product))
    np.testing.assert_allclose(curve.values, expected, rtol=1e-12, atol=0)
    stack = flow_stack(flow, curve.times)
    np.testing.assert_allclose(stack[curve.times == 0.7][0], at_second, rtol=1e-12, atol=1e-15)


def test_flow_chunks_match_scalar_calls_at_d16():
    rng = np.random.default_rng(47)
    cov = random_covariance(rng, 16)
    pair = random_admissible_pair(rng, cov)
    assert _Flow(Schedule.constant(pair)).exps[0].factored
    curve = norm_curve(pair, 5.0, 600)
    assert len(curve.times) > 2 * (_CHUNK_ELEMENTS // 16**2)
    expected = [_scalar_norm(kernel.expm(pair.whitened_drift, t) @ np.eye(16))
                for t in curve.times]
    np.testing.assert_allclose(curve.values, expected, rtol=1e-12, atol=0)


def test_flow_norms_match_mpmath_on_fast_rotation():
    # independent 40-digit reference; ||C~ t|| reaches about 280 at t = 20
    mpmath = pytest.importorskip("mpmath")
    pair = rotating_pair(13.8)
    flow = _Flow(Schedule.constant(pair))
    times = np.linspace(0.0, 20.0, 41)
    values = np.exp(flow.log_norms(times, 20.0, "t_max"))
    with mpmath.workdps(40):
        drift = mpmath.matrix(pair.whitened_drift.tolist())
        reference = [float(max(mpmath.svd_r(mpmath.expm(-mpmath.mpf(t) * drift),
                                            compute_uv=False)))
                     for t in times]
    np.testing.assert_allclose(values, reference, rtol=1e-13, atol=0)


@pytest.mark.parametrize("rate", [None, 1.0])
def test_curve_norms_match_mpmath_at_long_horizons(rate):
    # ||T(t)|| near 2e-174 and 1e-304 at t * rate = 400 and 700: the flow is
    # weighted at the rate, which defaults to the spectral gap
    mpmath = pytest.importorskip("mpmath")
    pair = rotating_pair(7.0)
    with mpmath.workdps(40):
        drift = mpmath.matrix(pair.whitened_drift.tolist())
        for t_max in (400.0, 700.0):
            curve = norm_curve(pair, t_max, 2, rate=rate)
            assert curve.times[-1] == t_max
            exact = max(mpmath.svd_r(mpmath.expm(-mpmath.mpf(t_max) * drift), compute_uv=False))
            assert curve.values[-1] == pytest.approx(float(exact), rel=1e-12, abs=0)


@pytest.mark.parametrize("mu", [1.0, 1.0 + 1e-9])
def test_flow_defective_drift_matches_mpmath(mu):
    # mu = 1 is the critically damped whitened drift [[0, -1], [1, 2]], with
    # one eigenvector for its double eigenvalue; just above it, cond(V) ~ 1e4.
    # The 2x2 closed form needs no eigenvectors: 60-digit mpmath on the same
    # float drift is the reference
    mpmath = pytest.importorskip("mpmath")
    pair = rotating_pair(mu)
    drift = pair.whitened_drift
    schedule = Schedule.constant(pair)
    flow = _Flow(schedule)
    times = np.array([0.0, 0.05, 0.4, 1.7, 6.0])
    stack = flow_stack(flow, times)
    with mpmath.workdps(60):
        exact = [mpmath.expm(-mpmath.mpf(t) * mpmath.matrix(drift.tolist())) for t in times]
        exact = np.array([[[float(x) for x in row] for row in m.tolist()] for m in exact])
    for product, reference in zip(stack, exact):
        assert np.abs(product - reference).max() <= 1e-13 * np.abs(reference).max()
    for t, product in zip(times, stack):
        assert np.abs(product - integrate_flow(schedule, t)).max() <= 1e-8


@pytest.mark.parametrize("k", range(1, 13))
def test_flow_near_defective_log_norms_match_mpmath(k):
    # rotating_pair(1 + 10**-k) weighted at rate 1 has delta2 = 1 - mu^2,
    # which cancels to about -2 10**-k.  Summed error-free, it keeps the log
    # norm within 64 eps (1 + omega t) of 60-digit mpmath on the same shifted
    # float drift, from t = 1 out to the cap (the worst ratio is about 43, at
    # k = 6); with delta2 in plain doubles the ratio passes 100 from k = 3 on
    mpmath = pytest.importorskip("mpmath")
    flow = _Flow(Schedule.constant(rotating_pair(1.0 + 10.0**-k)), shift=1.0)
    times = np.append(10.0 ** np.arange(16), flow.cap)
    logs = flow.log_norms(times, flow.cap, "t_max")
    omega = np.sqrt(abs(1.0 - (1.0 + 10.0**-k) ** 2))
    with mpmath.workdps(60):
        drift = mpmath.matrix(flow.drifts[0].tolist())
        exact = [mpmath.log(max(mpmath.svd_r(mpmath.expm(-mpmath.mpf(t) * drift),
                                             compute_uv=False)))
                 for t in times]
    bound = 64.0 * np.finfo(float).eps * (1.0 + omega * times)
    assert np.all(np.abs(logs - np.array(exact, dtype=float)) <= bound)


def _gram_top(m):
    """The d >= 3 route on any stack: log of the top singular value and
    the top left singular vector from the Gram matrices and ``eigh``."""
    eigenvalues, vectors = np.linalg.eigh(np.swapaxes(m, 1, 2) @ m)
    u = (m @ vectors[:, :, -1:])[:, :, 0]
    return 0.5 * np.log(eigenvalues[:, -1]), u / np.linalg.norm(u, axis=1, keepdims=True)


def _random_2x2_stacks(rng):
    """Random 2x2 stacks: general, near-rotations with sigma_1 / sigma_2 - 1
    about 1e-12, and both scaled by 2**500 and 2**-500."""
    general = rng.normal(size=(400, 2, 2))
    angle = rng.uniform(-np.pi, np.pi, 200)
    rotation = np.array([[np.cos(angle), -np.sin(angle)], [np.sin(angle), np.cos(angle)]])
    rotation = np.moveaxis(rotation, -1, 0) * rng.uniform(0.1, 10.0, (200, 1, 1))
    near = rotation @ (np.eye(2) + 1e-12 * rng.normal(size=(200, 2, 2)))
    base = np.concatenate((general, near))
    return [np.ldexp(base, k) for k in (0, 500, -500)]


def test_closed_form_2x2_norms_match_gram_route():
    rng = np.random.default_rng(7)
    for m in _random_2x2_stacks(rng):
        logs, _ = _top_singular_2x2(*_four_sums(m))
        reference, _ = _gram_top(m)
        np.testing.assert_allclose(logs, reference, rtol=1e-15, atol=4e-15)
    # t = 0: the identity has log norm exactly 0
    logs, u = _top_singular_2x2(*_four_sums(np.eye(2)[None]), left_vectors=True)
    assert logs[0] == 0.0 and np.all(np.isfinite(u))
    flow = _Flow(Schedule.constant(rotating_pair(7.0)), shift=1.0)
    assert flow.log_norms(np.array([0.0, 0.5]), 0.5, "t_max")[0] == 0.0


def test_closed_form_2x2_slopes_match_gram_route():
    rng = np.random.default_rng(8)
    drift = rng.normal(size=(2, 2))
    for m in _random_2x2_stacks(rng):
        sigma = np.linalg.svd(m, compute_uv=False)
        separated = sigma[:, 0] > (1.0 + 1e-6) * sigma[:, 1]
        assert 300 <= np.count_nonzero(separated) < len(m)
        _, u = _top_singular_2x2(*_four_sums(m[separated]), left_vectors=True)
        _, reference = _gram_top(m[separated])
        # the vectors agree up to sign, so their projectors agree
        projector = u[:, :, None] * u[:, None, :]
        expected = reference[:, :, None] * reference[:, None, :]
        np.testing.assert_allclose(projector, expected, atol=1e-9)
        well = sigma[separated, 0] > 1.5 * sigma[separated, 1]
        np.testing.assert_allclose(projector[well], expected[well], atol=1e-14)
        slopes = np.einsum("ni,ij,nj->n", u, drift, u)
        np.testing.assert_allclose(slopes, np.einsum("ni,ij,nj->n", reference, drift, reference),
                                   atol=1e-9)


def test_2d_curves_and_constants_make_no_eigensolver_call(monkeypatch):
    pair = rotating_pair(7.0)
    schedule = split_schedule(rotating_pair(11.0), 0.1434)

    def refuse(*args, **kwargs):
        raise AssertionError("a 2x2 norm went through the symmetric eigensolver")

    monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
    monkeypatch.setattr(np.linalg, "eigh", refuse)
    norm_curve(pair, 8.0, 256)
    norm_curve(schedule, 8.0, 256, rate=1.0)
    assert sharp_constant(pair, 1.0) == pytest.approx(np.sqrt(4.0 / 3.0), rel=1e-14)
    assert sharp_constant(schedule, 1.0) > 1.0


_GOLDEN = 0.5 * (np.sqrt(5.0) - 1.0)


def _golden_section(objective, a, b, steps=60):
    # scalar golden-section maximisation, the reference for peak refinement
    x1, x2 = b - _GOLDEN * (b - a), a + _GOLDEN * (b - a)
    f1, f2 = objective(x1), objective(x2)
    for _ in range(steps):
        if f1 < f2:
            a, x1, f1 = x1, x2, f2
            x2 = a + _GOLDEN * (b - a)
            f2 = objective(x2)
        else:
            b, x2, f2 = x2, x1, f1
            x1 = b - _GOLDEN * (b - a)
            f1 = objective(x1)
    return (x1, f1) if f1 >= f2 else (x2, f2)


def _kink_schedule(switch):
    # slow symmetric decay (the weighted norm rises at slope 0.95), then a
    # pair dissipating along the grown direction (slope -1 right after the
    # switch): the weighted norm has a corner maximum at the switch
    cov = Covariance(np.eye(2))
    slow = make_pair(cov, np.diag([0.05, 1.95]), np.zeros((2, 2)))
    damped = make_pair(cov, np.diag([2.0, 0.0]), np.array([[0.0, 3.0], [-3.0, 0.0]]))
    return Schedule([slow, damped], [switch])


@pytest.mark.parametrize("case", ["smooth", "kink", "straddle"])
def test_peak_refinement_matches_golden_section_and_mpmath(case):
    mpmath = pytest.importorskip("mpmath")
    rate = 1.0
    if case == "smooth":      # peaks of the mu = 11 rotation, before and after its switch
        switch, schedule = 0.1, split_schedule(rotating_pair(11.0), 0.1)
        grid = np.array([0.13, 0.14, 0.15, 0.55, 0.56, 0.57])
    elif case == "kink":      # the corner at the switch lies between grid points
        switch = 0.3
        schedule = _kink_schedule(switch)
        grid = np.array([0.297, 0.299, 0.304])
    else:                     # a smooth peak at t = 0.1533, the bracket holds the switch at 0.14
        switch, schedule = 0.14, split_schedule(rotating_pair(11.0), 0.14)
        grid = np.array([0.135, 0.15, 0.16])
    flow = _Flow(schedule, shift=rate)
    values = flow.log_norms(grid, grid[-1], "t_max")
    centres = np.arange(1, len(grid), 3)
    peak_t, peak_v = _refine_peaks(flow, grid, values, centres)

    def objective(t):
        return flow.log_norms(np.array([t]), grid[-1], "t_max")[0]

    drifts = [mpmath.matrix(p.whitened_drift.tolist()) for p in schedule.pairs]
    for c, t, v in zip(centres, peak_t, peak_v):
        golden_t, golden_v = _golden_section(objective, grid[c - 1], grid[c + 1])
        # the golden section locates a smooth peak to about sqrt(eps) only
        assert abs(t - golden_t) <= 1e-7
        assert golden_v <= v + 1e-15
        assert abs(v - golden_v) <= 1e-13
        with mpmath.workdps(40):
            t_mp = mpmath.mpf(float(t))
            if t < switch:
                product = mpmath.expm(-t_mp * drifts[0])
            else:
                product = (mpmath.expm(-(t_mp - switch) * drifts[1])
                           * mpmath.expm(-mpmath.mpf(switch) * drifts[0]))
            exact = float(rate * t_mp + mpmath.log(max(mpmath.svd_r(product, compute_uv=False))))
        assert abs(v - exact) <= 1e-13 * abs(exact)
    if case == "kink":
        assert abs(peak_t[0] - switch) <= 1e-14
    if case == "straddle":
        assert switch < peak_t[0] < grid[2]


# ---------------------------------------------------------- split evaluation

@pytest.fixture
def split(three_blas_threads):
    """The number of threads that share out ``_Flow.log_norms`` across the
    CPUs, with OpenBLAS set to 3 threads."""
    threads = propagator._share_plan()
    if not threads:
        pytest.skip("one CPU: log_norms runs serially")
    return threads


def constructed_pair(dim):
    return construct_optimal(Covariance(np.geomspace(1.0, 10.0, dim)), 2.0)


@pytest.mark.parametrize("dim", [8, 32, 64])
def test_split_log_norms_equal_the_serial_loop(split, monkeypatch, dim):
    cert = constructed_pair(dim)
    flow = _Flow(Schedule.constant(cert.pair), shift=cert.rate)
    times = np.linspace(0.0, 20.0 / cert.rate, 3 * _CHUNK_ELEMENTS // dim**2 + 5)
    shares, run = [], propagator._run_shares

    def counted_run(work, parts):
        shares.append(len(parts))
        return run(work, parts)

    monkeypatch.setattr(propagator, "_run_shares", counted_run)
    logs, slopes = flow.log_norms(times, times[-1], "t_max", slopes=True)
    only_logs = flow.log_norms(times, times[-1], "t_max")
    assert shares == [split] * 2
    assert blas_threads() == 3 and hold_is_free()
    monkeypatch.setattr(propagator, "_share_plan", lambda: None)
    serial_logs, serial_slopes = flow.log_norms(times, times[-1], "t_max", slopes=True)
    assert np.array_equal(logs, serial_logs) and np.array_equal(slopes, serial_slopes)
    assert np.array_equal(only_logs, flow.log_norms(times, times[-1], "t_max"))


def test_serial_log_norms_run_on_one_blas_thread(three_blas_threads, monkeypatch):
    # an evaluation that does not split takes the hold too: under a BLAS
    # pool the caller's threads oversubscribe, it ran 70 to 100 times slower
    monkeypatch.setattr(propagator, "_share_plan", lambda: None)
    cert = constructed_pair(16)
    flow = _Flow(Schedule.constant(cert.pair), shift=cert.rate)
    times = np.linspace(0.0, 20.0 / cert.rate, 197)
    eigvalsh, counts = np.linalg.eigvalsh, []

    def eigvalsh_counting_threads(gram):
        counts.append(blas_threads())
        return eigvalsh(gram)

    monkeypatch.setattr(np.linalg, "eigvalsh", eigvalsh_counting_threads)
    flow.log_norms(times, times[-1], "t_max")
    assert counts and set(counts) == {1}
    assert blas_threads() == 3 and hold_is_free()


@pytest.mark.parametrize("failing", ["worker", "caller"])
def test_split_raises_a_share_failure_once_every_share_is_done(split, monkeypatch, failing):
    flow = _Flow(Schedule.constant(constructed_pair(16).pair))
    times = np.linspace(0.0, 5.0, 4 * _CHUNK_ELEMENTS // 16**2)
    eigvalsh, raised, calls = np.linalg.eigvalsh, [], []

    def eigvalsh_failing_in_one_thread(gram):
        in_worker = threading.current_thread().name.startswith("fpopt-flow")
        if in_worker == (failing == "worker"):
            raised.append(np.linalg.LinAlgError(f"no convergence in the {failing}"))
            raise raised[-1]
        time.sleep(0.02)
        calls.append(gram)
        return eigvalsh(gram)

    monkeypatch.setattr(np.linalg, "eigvalsh", eigvalsh_failing_in_one_thread)
    with pytest.raises(np.linalg.LinAlgError, match=failing) as caught:
        flow.log_norms(times, times[-1], "t_max")
    finished = len(calls)
    time.sleep(0.1)
    assert any(caught.value is exc for exc in raised)   # re-raised as it was
    assert finished == len(calls) > 0                   # no share still running
    assert blas_threads() == 3 and hold_is_free()


def test_user_threads_at_once_get_the_single_thread_curves(split, monkeypatch):
    # more user threads than CPUs and frequent switches, so that the calls
    # contend for the split in every order
    cert = constructed_pair(16)
    users = 4
    barrier, curves, failures = threading.Barrier(users), [None] * users, []

    def draw(i):
        barrier.wait()
        try:
            curves[i] = norm_curve(cert.pair, rate=cert.rate)
        except BaseException as exc:
            failures.append(exc)

    threads = [threading.Thread(target=draw, args=(i,)) for i in range(users)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads) and not failures
    assert blas_threads() == 3 and hold_is_free()
    monkeypatch.setattr(propagator, "_share_plan", lambda: None)
    serial = norm_curve(cert.pair, rate=cert.rate)
    for curve in curves:
        assert curve.sharp_constant == serial.sharp_constant
        assert np.array_equal(curve.times, serial.times)
        assert np.array_equal(curve.values, serial.values)


@pytest.mark.parametrize("missing", ["second CPU", "thread limit"])
def test_log_norms_run_serially_without_a_second_cpu_or_the_thread_limit(monkeypatch, missing):
    cert = constructed_pair(16)
    reference = norm_curve(cert.pair, rate=cert.rate)
    # a fresh cache, which the monkeypatch drops again after the test
    monkeypatch.setattr(propagator, "_share_plan",
                        functools.cache(propagator._share_plan.__wrapped__))
    if missing == "second CPU":
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    else:
        monkeypatch.setattr(propagator, "_openblas_thread_limit", lambda: None)
    curve = norm_curve(cert.pair, rate=cert.rate)
    assert propagator._share_plan() is None
    assert curve.sharp_constant == reference.sharp_constant
    assert np.array_equal(curve.values, reference.values)


def fork_curve(pair, split=None):
    """Fork a child that sends back its OpenBLAS thread count (with a
    ``split`` plan) and its ``norm_curve`` of ``pair``; returns what it
    sent, after a 60 s bound on the child."""
    context = multiprocessing.get_context("fork")
    receive, send = context.Pipe(duplex=False)
    child = context.Process(target=lambda: send.send(
        (split and blas_threads(), norm_curve(pair), propagator._share_plan() is None)))
    child.start()
    try:   # read before joining: a curve fills the pipe's buffer
        sent = receive.recv() if receive.poll(60) else None
    finally:
        child.join(60)
        if child.is_alive():
            child.kill()
            child.join()
    assert child.exitcode == 0 and sent is not None
    return sent


def test_forked_child_evaluates_after_the_parent_split():
    # the split's worker threads do not survive a fork; the child must
    # evaluate on its own
    pair = constructed_pair(16).pair
    curve = norm_curve(pair)
    _, child_curve, serial = fork_curve(pair)
    assert child_curve.sharp_constant == curve.sharp_constant
    assert serial == (propagator._share_plan() is None)


def test_fork_waits_for_a_split_under_way(split, monkeypatch):
    # one worker share blocks until a timer releases it, so the split is
    # under way when the fork starts; the fork waits for it to end, and the
    # child gets the count from before the split, not the split's one thread
    pair = constructed_pair(16).pair
    curve = norm_curve(pair)
    flow = _Flow(Schedule.constant(pair))
    times = np.linspace(0.0, 5.0, 4 * _CHUNK_ELEMENTS // 16**2)
    eigvalsh, started, release = np.linalg.eigvalsh, threading.Event(), threading.Event()

    def eigvalsh_held_in_a_worker(gram):
        if threading.current_thread().name.startswith("fpopt-flow") and not release.is_set():
            started.set()
            release.wait(30)
        return eigvalsh(gram)

    monkeypatch.setattr(np.linalg, "eigvalsh", eigvalsh_held_in_a_worker)
    user = threading.Thread(target=flow.log_norms, args=(times, times[-1], "t_max"))
    user.start()
    try:
        assert started.wait(30)
        threading.Timer(0.2, release.set).start()
        count, child_curve, _ = fork_curve(pair, split)
    finally:
        release.set()
        user.join(60)
    assert not user.is_alive()
    assert count == 3
    assert child_curve.sharp_constant == curve.sharp_constant
    assert np.array_equal(child_curve.values, curve.values)
    assert hold_is_free()


def test_fork_inside_a_hold_inherits_one_thread(split):
    # the holding thread's fork re-enters the hold rather than waiting for
    # it, so the child starts with the lowered count and evaluates under it
    pair = constructed_pair(16).pair
    curve = norm_curve(pair)
    with propagator._one_blas_thread():
        count, child_curve, _ = fork_curve(pair, split)
    assert count == 1
    assert np.array_equal(child_curve.values, curve.values)
    assert blas_threads() == 3 and hold_is_free()


def test_hold_is_reentrant_and_restores_the_count(three_blas_threads):
    with propagator._one_blas_thread():
        assert blas_threads() == 1 and not hold_is_free()
        with propagator._one_blas_thread():
            assert blas_threads() == 1
        assert blas_threads() == 1 and not hold_is_free()
    assert blas_threads() == 3 and hold_is_free()
    with pytest.raises(KeyboardInterrupt):
        with propagator._one_blas_thread():
            raise KeyboardInterrupt
    assert blas_threads() == 3 and hold_is_free()


def test_hold_does_nothing_without_the_thread_limit(three_blas_threads, monkeypatch):
    monkeypatch.setattr(propagator, "_openblas_thread_limit", lambda: None)
    with propagator._one_blas_thread():
        assert blas_threads(three_blas_threads) == 3 and hold_is_free()


def test_import_leaves_the_thread_pool_unloaded():
    # the split runs on plain threads (ctypes, which it also uses, is loaded
    # by numpy itself)
    src = os.path.dirname(os.path.dirname(propagator.__file__))
    code = "import sys, fpopt.cli; print('concurrent.futures' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "False"


# ---------------------------------------------------------------- norm curve

def count_evaluations(monkeypatch):
    """Record every time the flow evaluates: one list per segment's
    factored exponential (``kernel.expm_2x2`` at d = 2, else
    ``kernel.expm_stack``), of arrays of times since the segment's start.
    A list is added at its factor's first evaluation, so only the flow's
    factors count: the one that ``spectral_gap`` takes in 2D is read for
    its gap and never evaluated.  The flow evaluates its segments in order,
    each prefix on the way, so the lists come in segment order.  A lock
    keeps split evaluations, whose shares run on several threads, from
    adding one list twice."""
    stacks, lock = [], threading.Lock()

    def counting(factor):
        def counting_factor(a):
            exp, evaluated = factor(a), []

            @functools.wraps(exp)   # and its attributes
            def counted(t):
                with lock:
                    if not evaluated:
                        stacks.append(evaluated)
                    evaluated.append(np.array(t, dtype=float))
                return exp(t)
            return counted
        return counting_factor

    for name in ("expm_2x2", "expm_stack"):
        monkeypatch.setattr(kernel, name, counting(getattr(kernel, name)))
    return stacks


def assert_each_grid_point_once(stacks, curve, starts=(0.0,)):
    """The scan evaluates the grid and the refinement a few off-grid points
    per peak, the first tangency among them; the curve evaluates no more.
    Returns the number of times evaluated."""
    ends = starts[1:] + (np.inf,)
    for start, end, evaluated in zip(starts, ends, stacks, strict=True):
        times, counts = np.unique(np.concatenate(evaluated), return_counts=True)
        assert np.all(counts == 1)
        on_segment = curve.times[(start <= curve.times) & (curve.times < end)]
        assert np.all(np.isin(on_segment - start, times))
    return sum(len(t) for evaluated in stacks for t in evaluated)


def test_norm_curve_evaluates_each_grid_point_once(monkeypatch):
    # the default curve at a rate shares the envelope scan's grid
    rng = np.random.default_rng(48)
    cert = construct_optimal(random_covariance(rng, 6), 2.0)
    stacks = count_evaluations(monkeypatch)
    curve = norm_curve(cert.pair, 20.0 / cert.rate, rate=cert.rate)
    total = assert_each_grid_point_once(stacks, curve)
    assert total - len(curve.times) < 0.02 * len(curve.times)   # the peak refinement's


def test_norm_curve_default_horizon_is_the_scans():
    # with no switch the scan's horizon is 20 / rate
    pair = construct_optimal(Covariance(np.array([20.0, 1.0])), 1.5).pair
    default, explicit = norm_curve(pair), norm_curve(pair, 20.0 / spectral_gap(pair))
    assert default.sharp_constant == explicit.sharp_constant
    assert np.array_equal(default.times, explicit.times)
    assert np.array_equal(default.values, explicit.values)


def test_norm_curve_default_horizon_follows_a_late_switch(monkeypatch):
    # a last switch at 30 / rate puts the scan's horizon, and the default
    # curve's, at 120 / rate; every grid point is still evaluated once
    pair = construct_optimal(Covariance(np.array([20.0, 1.0])), 1.5).pair
    switch = 30.0 / spectral_gap(pair)
    stacks = count_evaluations(monkeypatch)
    curve = norm_curve(Schedule([pair, pair], [switch]))
    assert curve.times[-1] == 4.0 * switch
    assert_each_grid_point_once(stacks, curve, starts=(0.0, switch))


def test_norm_curve_default_rate_is_the_spectral_gap():
    rng = np.random.default_rng(49)
    for source in (construct_optimal(Covariance(np.array([20.0, 1.0])), 1.5).pair,
                   split_schedule(rotating_pair(11.0), 0.1),
                   construct_optimal(random_covariance(rng, 5), 2.0).pair):
        default = norm_curve(source, 7.0, 300)
        explicit = norm_curve(source, 7.0, 300,
                              rate=spectral_gap(_as_schedule(source).asymptotic_pair))
        assert default.rate == explicit.rate
        assert default.sharp_constant == explicit.sharp_constant
        assert np.array_equal(default.times, explicit.times)
        assert np.array_equal(default.values, explicit.values)


def count_spectra(monkeypatch):
    """Count the calls of ``np.linalg.eig`` and ``np.linalg.eigvals``."""
    calls = dict.fromkeys(("eig", "eigvals"), 0)

    def counting(name, solve):
        def counted(*args, **kwargs):
            calls[name] += 1
            return solve(*args, **kwargs)
        return counted

    for name in calls:
        monkeypatch.setattr(np.linalg, name, counting(name, getattr(np.linalg, name)))
    return calls


def test_one_eigensolve_per_segment(monkeypatch):
    # each segment's factor is its one spectrum: the scan refuses a rate
    # from the final factor's gap, with no eigensolve of its own, and only
    # norm_curve's default rate, the final pair's gap, takes one eigvals
    cov = Covariance(np.geomspace(1.0, 10.0, 3))
    first, last = construct_optimal(cov, 1.5), construct_optimal(cov, 2.0)
    schedule = Schedule([first.pair, last.pair], [1.0])
    calls = count_spectra(monkeypatch)
    sharp_constant(schedule, last.rate)
    assert calls == {"eig": 2, "eigvals": 0}
    norm_curve(schedule)
    assert calls == {"eig": 4, "eigvals": 1}
    # no 2D query makes either call
    calls.update(eig=0, eigvals=0)
    pair, two = rotating_pair(7.0), split_schedule(rotating_pair(11.0), 0.1)
    sharp_constant(two, 1.0)
    tangency_time(two, 1.0)
    norm_curve(two)
    spectral_gap(pair)
    validate_pair(pair)
    best_constant_2d(pair)
    assert calls == {"eig": 0, "eigvals": 0}


def test_norm_curve_rate_must_be_positive_and_finite():
    # no decay, no envelope: the default rate must be positive like any other
    cov = Covariance(np.eye(2))
    with pytest.raises(ValueError, match="rate must be positive"):
        norm_curve(CoefficientPair(cov, np.diag([1.0, 0.0]), np.diag([1.0, 0.0])), 1.0, 16)
    with pytest.raises(ValueError, match="rate must be positive and finite"):
        norm_curve(rotating_pair(7.0), 1.0, 16, rate=np.inf)
    # nor may t_max be infinite, even where the time scale sets no cap
    _, balanced = max_initial_decay(Covariance(np.array([1.0, 2.0])))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="t_max must be positive and finite"):
            norm_curve(balanced, np.inf, 4)


@pytest.mark.parametrize("kwargs, message", [
    ({"samples": 2.5}, "samples must be an integer"),
    ({"samples": True}, "samples must be an integer"),
    ({"samples": "64"}, "samples must be an integer"),
    ({"samples": 1}, "samples must be an integer"),
    ({"samples": 10**19}, "samples 10000000000000000000 is too large"),
    ({"samples": 2**62}, "is too large"),
    ({"samples": 2**63 - 1}, "is too large"),   # numpy's linspace fails with an IndexError
    ({"rate": 0.0}, "rate must be positive"),
    ({"rate": np.nan}, "rate must be positive"),
    ({"t_max": -1.0}, "t_max must be positive"),
], ids=["float", "bool", "str", "one", "1e19", "2**62", "2**63-1", "rate-0", "rate-nan",
        "tmax-neg"])
def test_norm_curve_refuses_a_bad_rate_horizon_or_grid_size(kwargs, message):
    # one error class, a ValueError too, that the CLI maps to exit 2
    assert issubclass(InvalidArgument, FpoptError) and issubclass(InvalidArgument, ValueError)
    with pytest.raises(InvalidArgument, match=message):
        norm_curve(rotating_pair(7.0), **{"t_max": 8.0, **kwargs})


def test_norm_curve_grid_size_defaults_and_takes_numpy_integers():
    pair = rotating_pair(7.0)
    default = norm_curve(pair, 8.0)
    assert np.array_equal(default.times, norm_curve(pair, 8.0, None).times)
    assert np.array_equal(default.times, norm_curve(pair, 8.0, propagator.DEFAULT_SAMPLES).times)
    assert np.array_equal(norm_curve(pair, 8.0, np.int64(16)).times,
                          norm_curve(pair, 8.0, 16).times)


def test_scan_refuses_a_horizon_that_overflows_before_building_its_grid():
    # 20 / 1e-320 is inf: refused against the flow's cap, with no warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for query in (sharp_constant, tangency_time,
                      lambda pair, rate: norm_curve(pair, rate=rate)):
            with pytest.raises(InvalidInterval, match="envelope horizon inf exceeds"):
                query(rotating_pair(7.0), 1e-320)


@pytest.mark.parametrize("dim", [2, 8, 16])
def test_curve_constant_and_tangency_agree_with_the_scan_queries(dim):
    # the scan's grid is fixed, so a curve's grid size moves neither its
    # constant nor its inserted tangency point, not even by an ulp
    cert = construct_optimal(Covariance(np.geomspace(1.0, 10.0, dim)), 2.0)
    constant = sharp_constant(cert.pair, cert.rate)
    first = tangency_time(cert.pair, cert.rate)
    for samples in (2, 64, 4096, 10000):
        curve = norm_curve(cert.pair, samples=samples, rate=cert.rate)
        assert curve.sharp_constant == constant
        assert first in curve.times


def test_horizons_are_capped_by_the_problem_time_scale():
    # the cap is 1 / (eps ||C~ - rate I||_F): below it the weighted flow
    # cannot overflow and the values are exact zeros past the underflow;
    # beyond it the curve and the envelope scan refuse instead of printing nan
    pair = construct_optimal(Covariance(np.array([20.0, 1.0])), 1.5).pair
    cap = 1.0 / (np.finfo(float).eps * np.linalg.norm(pair.whitened_drift - np.eye(2)))
    assert 1e15 < cap < 1e18
    curve = norm_curve(pair, 0.999 * cap, 50)
    far = curve.times > 1e3
    assert np.count_nonzero(far) == 49 and np.all(curve.values[far] == 0.0)
    assert curve.sharp_constant == norm_curve(pair, 8.0, 50).sharp_constant
    with pytest.raises(InvalidInterval, match="t_max"):
        norm_curve(pair, 1.001 * cap, 50)
    with pytest.raises(InvalidInterval, match="envelope horizon"):
        sharp_constant(Schedule([pair, pair], [cap / 3.0]), 1.0)
    with pytest.raises(InvalidInterval, match="envelope horizon"):
        norm_curve(Schedule([pair, pair], [cap / 3.0]), 8.0, 50)
    # a drift equal to rate * I has no time scale and no cap
    _, balanced = max_initial_decay(Covariance(np.array([1.0, 2.0])))
    assert np.all(norm_curve(balanced, 1e300, 4).values[1:] == 0.0)


def test_norm_curve_symmetric_pair_explicit():
    cov = Covariance(np.array([1.0, 2.0]))
    pair = CoefficientPair(cov, cov.inv, np.eye(2))
    curve = norm_curve(pair, 4.0, 200, rate=0.5)
    assert curve.values[0] == 1.0
    assert np.abs(curve.values - np.exp(-0.5 * curve.times)).max() <= 1e-12
    assert curve.sharp_constant == pytest.approx(1.0, abs=1e-9)


def test_norm_curve_values_in_unit_interval():
    curve = norm_curve(split_schedule(rotating_pair(11.0), 0.1), 6.0, 400)
    assert np.all(curve.values <= 1.0 + 1e-12)
    assert np.all(curve.values > 0.0)
    assert curve.values[0] == 1.0


def test_norm_curve_initial_slope_matches_diffusion_floor():
    # symmetric start: slope -eps; balanced start: slope -2 eps/(1+eps)
    for pair, slope in [(symmetric_pair(), 0.05),
                        (case_pairs()["fp3"], 0.1 / 1.05)]:
        h = 1e-6
        drop = (1.0 - np.linalg.norm(expm(pair.whitened_drift, h), 2)) / h
        assert drop == pytest.approx(slope, rel=1e-4)
        assert initial_slope(pair) == pytest.approx(slope, rel=1e-12)


def test_norm_curve_stays_below_envelope():
    pair = rotating_pair(7.0)
    curve = norm_curve(pair, 8.0, 600, rate=1.0)
    envelope = curve.envelope
    assert np.all(curve.values <= envelope + 1e-10)
    # the bound is attained on the grid (tangency points are inserted)
    assert np.min(envelope / curve.values) <= 1.0 + 1e-6


def test_norm_curve_csv_format():
    curve = norm_curve(rotating_pair(7.0), 1.0, 5, rate=1.0)
    buffer = io.StringIO()
    curve.write_csv(buffer)
    lines = buffer.getvalue().strip().split("\n")
    assert lines[0] == "t,norm,envelope"
    first = lines[1].split(",")
    assert float(first[0]) == 0.0
    assert float(first[1]) == 1.0
    assert float(first[2]) == pytest.approx(curve.sharp_constant)
    # rows match a per-row numpy-scalar loop, special values included
    big = np.finfo(float).max
    special = np.array([0.0, -0.0, 5e-324, -2.2e-308, big, -big, np.nan, np.inf, -np.inf, 0.1])
    odd = NormCurve(special, special[::-1].copy(), rate=0.0, sharp_constant=-1.0)
    buffer = io.StringIO()
    with np.errstate(all="ignore"):  # the envelope meets 0 * inf
        odd.write_csv(buffer)
        envelope = odd.envelope
    rows = [f"{t:.17g},{v:.17g},{e:.17g}" for t, v, e in zip(odd.times, odd.values, envelope)]
    assert buffer.getvalue() == "\n".join(["t,norm,envelope", *rows]) + "\n"
    # the same formatting serves the two-column envelope files of `reproduce`
    buffer = io.StringIO()
    write_columns(buffer, "t,value", special, special[::-1].copy())
    rows = [f"{t:.17g},{v:.17g}" for t, v in zip(special, special[::-1])]
    assert buffer.getvalue() == "\n".join(["t,value", *rows]) + "\n"


def _percent_17g_rows(header, *columns):
    """The reference: one ``%.17g`` per value, as Python formats it."""
    rows = [",".join(f"{float(v):.17g}" for v in row) for row in zip(*columns)]
    return "\n".join([header, *rows]) + "\n"


def _written(*columns):
    buffer = io.StringIO()
    write_columns(buffer, "h", *columns)
    return buffer.getvalue()


def test_write_columns_matches_percent_17g_on_any_double():
    hypothesis = pytest.importorskip("hypothesis")
    from hypothesis import strategies as st

    doubles = st.one_of(st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
                        st.floats(1e-6, 1e18), st.integers(0, 2**60).map(float))

    @hypothesis.settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @hypothesis.given(st.integers(1, 4), st.lists(doubles, max_size=40))
    def check(ncols, values):
        table = np.array(values[:len(values) - len(values) % ncols]).reshape(-1, ncols)
        assert _written(*table.T) == _percent_17g_rows("h", *table.T)

    check()


def test_write_columns_edge_table(monkeypatch):
    module = importlib.import_module("fpopt.text")
    edge = []
    for k in range(-323, 309):   # powers of ten and their neighbours, subnormals included
        p = float(f"1e{k}")
        edge += [p, float(np.nextafter(p, np.inf)), float(np.nextafter(p, -np.inf))]
    carries = [9.99999999999999995e-5, 9.9999999999999999e16, 0.99999999999999999,
               99999999999999999.0, 9.9999999999999998e-249]
    # exact ties at the 17th digit, rounded half to even
    ties = [2000000000000000.25, 2000000000000000.75, 100000000000000.125, 100000000000000.375]
    integers = [float(v) for v in range(10**16 - 40, 10**16 + 40, 2)]
    integers += [float(10**17 + 16 * k) for k in range(-8, 8)]
    extremes = [0.0, -0.0, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
                np.inf, -np.inf, np.nan, 0.5, 1e-5, 1.2e-5, 0.0001, 99999.5]
    values = np.array(edge + carries + ties + integers + extremes)
    values = np.concatenate((values, -values))
    assert _written(values) == _percent_17g_rows("h", values)
    assert [f"{v:.17g}" for v in ties] == ["2000000000000000.2", "2000000000000000.8",
                                           "100000000000000.12", "100000000000000.38"]

    # the ties and the values beyond the tables, and only those, take the
    # per-value % path
    module._decimal_tables()
    fallback = []
    words = module._words
    monkeypatch.setattr(module, "_words", lambda strings, width: (
        fallback.extend(strings), words(strings, width))[1])
    mild = np.array([1.0, 0.1, 1e16, 1e17 - 16, 9.99999999999999995e-5, 123.456, 1e-250, 1e249])
    assert _written(mild, -mild) == _percent_17g_rows("h", mild, -mild)
    assert fallback == []
    odd = np.array([2000000000000000.75, 5e-324, 1e-300, 1e300])
    assert _written(odd) == _percent_17g_rows("h", odd)
    assert fallback == [f"{v:.17g}" for v in odd]


def test_write_columns_splits_rows_across_chunks():
    rows = 3 * _FORMAT_CHUNK + 7
    index = np.arange(rows, dtype=float)
    columns = (index, np.sqrt(index) * 1e-7, -index * 1e13)
    text = _written(*columns)
    assert text == _percent_17g_rows("h", *columns)
    assert text.count("\n") == rows + 1


# ------------------------------------------------------------ sharp constant

def test_sharp_constant_of_optimal_pairs_equals_budget():
    cov = Covariance(np.array([20.0, 1.0]))
    for budget in (1.5, 2.0, 3.0):
        cert = construct_optimal(cov, budget)
        measured = sharp_constant(cert.pair, 1.0)
        assert measured == pytest.approx(budget, abs=1e-4)


def test_sharp_constant_symmetric_pair_is_one():
    cov = Covariance(np.array([1.0, 2.0]))
    pair = CoefficientPair(cov, cov.inv, np.eye(2))
    assert sharp_constant(pair, 0.5) == pytest.approx(1.0, abs=1e-9)
    # a flat weighted curve touches its envelope at t = 0
    assert tangency_time(symmetric_pair(), spectral_gap(symmetric_pair())) == 0.0


def test_sharp_constant_split_schedule_at_tangency():
    fast = rotating_pair(11.0)
    switch = tangency_time(fast, 1.0)
    constant = sharp_constant(split_schedule(fast, switch), 1.0)
    assert constant == pytest.approx(np.sqrt(6.0 / 5.0), abs=1e-3)


def test_curve_adds_no_tangency_a_rounding_from_the_switch():
    # fig4's fp5 schedule switches at its first pair's tangency; switched
    # one ulp later, its own refined tangency lies a rounding from the
    # switch time, not on it
    fast = rotating_pair(11.0)
    switch = np.nextafter(tangency_time(fast, 1.0), np.inf)
    schedule = split_schedule(fast, switch)
    first = tangency_time(schedule, 1.0)
    assert first != switch and abs(first - switch) <= _REFINE_RTOL * first
    curve = norm_curve(schedule, 8.0, rate=1.0)
    assert switch in curve.times and first not in curve.times
    assert np.diff(curve.times).min() > _REFINE_RTOL * curve.times[-1]
    touch = curve.values * np.exp(curve.times) / curve.sharp_constant
    assert touch.max() == pytest.approx(1.0, rel=4 * np.finfo(float).eps)


def test_sharp_constant_below_budget_across_dimensions():
    # the certificate is an upper bound for every budget and dimension;
    # sharpness is only established in 2D
    rng = np.random.default_rng(45)
    for d in (2, 3, 4):
        cov = random_covariance(rng, d)
        for budget in (1.1, 1.5, 2.0, 3.0):
            cert = construct_optimal(cov, budget)
            assert sharp_constant(cert.pair, cert.rate) <= budget + 1e-6


def test_weighted_curve_touches_high_rotation_limit():
    # at full half-rotations the propagator is an exact scalar decay, so the
    # curve touches exp(-t) from above, periodically
    mu = 7.0
    pair = rotating_pair(mu)
    omega = np.sqrt(mu**2 - 1.0)
    for k in (1, 2, 3):
        t = k * np.pi / omega
        assert np.exp(t) * np.linalg.norm(expm(pair.whitened_drift, t), 2) \
            == pytest.approx(1.0, abs=1e-10)


@pytest.mark.parametrize("t_max", [370.0, 500.0, 5000.0])
def test_sharp_constant_holds_at_long_horizons(t_max):
    # the weighted flow keeps exp(t) ||T(t)|| of order one at any horizon;
    # a switch between identical pieces at t_max / 4 puts the scan's there
    pair = rotating_pair(7.0)
    assert sharp_constant(Schedule([pair, pair], [t_max / 4.0]), 1.0) \
        == pytest.approx(np.sqrt(4.0 / 3.0), rel=1e-12)


def test_sharp_constant_rejects_unsustainable_rate():
    with pytest.raises(RateTooLarge):
        sharp_constant(rotating_pair(7.0), 3.0)


def test_sharp_constant_at_a_slow_rate_survives_underflow():
    # at rate 0.01 the weighted curve of the mu = 7 rotation falls like
    # exp(-0.99 t) over the 2000-long horizon and underflows to a log of
    # -inf; the peak test compares those values without a warning
    assert sharp_constant(rotating_pair(7.0), 0.01) == pytest.approx(1.0, rel=1e-12)


@pytest.mark.parametrize("s", [1.0, 1e-10])
def test_sharp_constant_rate_check_is_scale_free(s):
    # the rate may exceed the spectral gap by 1e-8 relative, at any time scale
    pair = time_scaled_pair(ROTATION, s)
    gap = spectral_gap(pair)
    with pytest.raises(RateTooLarge):
        sharp_constant(pair, 1.001 * gap)
    assert sharp_constant(pair, gap) == pytest.approx(np.sqrt(4.0 / 3.0), rel=1e-9)


#: Seeded random pairs refused at their gap, though the supremum is finite:
#: each has a simple real boundary eigenvalue with cond(V) <= 3.1, so the
#: weighted curve rises to its limit past the half-horizon and the peak-height
#: guard reads that as divergence.
REFUSED_AT_THE_GAP = {(2, 8), (2, 9), (3, 0)}


@pytest.mark.parametrize("dim, seed, scale", [
    pytest.param(dim, seed, scale, marks=[pytest.mark.xfail(
        strict=True, raises=RateTooLarge, reason="false refusal of a finite supremum")]
        if scale == 1.0 and (dim, seed) in REFUSED_AT_THE_GAP else [])
    for dim in (2, 3, 4) for seed in range(12) for scale in (1.0, 0.9)])
def test_random_pair_constant_bounds_a_dense_grid(dim, seed, scale):
    # the constant is at least the maximum of the same weighted flow on a
    # grid five times as dense over the scan's horizon, and it is the closed
    # form for a 2D complex pair at its gap
    rng = np.random.default_rng([601, dim, seed])
    pair = random_admissible_pair(rng, random_covariance(rng, dim))
    rate = scale * spectral_gap(pair)
    constant = sharp_constant(pair, rate)
    horizon = 20.0 / rate
    flow = _Flow(Schedule.constant(pair), shift=rate)
    dense = np.exp(flow.log_norms(np.linspace(0.0, horizon, 20001), horizon, "t_max").max())
    assert constant >= dense * (1.0 - 1e-9)
    if dim == 2 and scale == 1.0 and kernel.expm_2x2(pair.whitened_drift).delta2 < 0.0:
        assert constant == pytest.approx(best_constant_2d(pair), rel=1e-12, abs=0)


#: Seeded random schedules whose constant misses an early peak: d = 2 seed 1
#: has gap 0.00486 and horizon 4,116, and its weighted curve at the gap
#: reaches 1.00081 near t = 0.27, inside the scan's first grid cell, 1.005
#: wide, so the scan returns 1.0 from t = 0 (and 1.0 against 1.00069 at
#: 0.9 x gap).
MISSED_EARLY_PEAK = {(2, 1)}


@pytest.mark.parametrize("dim, seed, scale", [
    pytest.param(dim, seed, scale, marks=[pytest.mark.xfail(
        strict=True, raises=AssertionError, reason="the horizon thins the grid past an early peak")]
        if (dim, seed) in MISSED_EARLY_PEAK else [])
    for dim in (2, 3, 4) for seed in range(12) for scale in (1.0, 0.9)])
def test_random_schedule_constant_bounds_a_dense_grid(dim, seed, scale):
    # two or three random pieces on one equilibrium, switched after 0.2 to
    # 2 of the final pair's time scales each: the constant is at least the
    # maximum of the same weighted flow on a grid five times as dense over
    # the scan's horizon, plus the switch times
    rng = np.random.default_rng([602, dim, seed])
    cov = random_covariance(rng, dim)
    pairs = [random_admissible_pair(rng, cov) for _ in range(2 + seed % 2)]
    gap = spectral_gap(pairs[-1])
    switches = np.cumsum(rng.uniform(0.2, 2.0, len(pairs) - 1) / gap)
    schedule = Schedule(pairs, switches)
    rate = scale * gap
    constant = sharp_constant(schedule, rate)
    horizon = max(20.0 / rate, 4.0 * switches[-1])
    times = np.union1d(np.linspace(0.0, horizon, 20001), switches)
    flow = _Flow(schedule, shift=rate)
    dense = np.exp(flow.log_norms(times, horizon, "t_max").max())
    assert constant >= dense * (1.0 - 1e-9)


# ---------------------------------------------------------- 2D closed form

def test_best_constant_2d_rotating_family():
    # alpha = 1/mu, hence c_min = sqrt((mu+1)/(mu-1))
    for mu in (3.0, 7.0, 11.0):
        pair = rotating_pair(mu)
        assert best_constant_2d(pair) == pytest.approx(np.sqrt((mu + 1) / (mu - 1)), rel=1e-12)


def test_best_constant_2d_normal_drift_gives_one():
    cov = Covariance(np.eye(2))
    pair = make_pair(cov, np.eye(2), np.array([[0.0, 1.0], [-1.0, 0.0]]))
    assert best_constant_2d(pair) == pytest.approx(1.0, abs=1e-12)


def test_best_constant_2d_agrees_with_envelope_supremum():
    cov = Covariance(np.array([20.0, 1.0]))
    cert = construct_optimal(cov, np.sqrt(2.0))
    assert best_constant_2d(cert.pair) == pytest.approx(sharp_constant(cert.pair, 1.0), abs=1e-4)


def test_best_constant_2d_preconditions():
    cov = Covariance(np.array([1.0, 2.0]))
    unequal = CoefficientPair(cov, cov.inv, np.eye(2))  # gaps 0.5 and 1.0
    with pytest.raises(NotApplicable2D):
        best_constant_2d(unequal)
    cov3 = Covariance(np.eye(3))
    with pytest.raises(NotApplicable2D):
        best_constant_2d(CoefficientPair(cov3, np.eye(3), np.eye(3)))


@pytest.mark.parametrize("mu", [7.0] + [1.0 + 10.0**-k for k in (1, 3, 6, 9, 12, 14)])
def test_best_constant_2d_near_defective_matches_mpmath(mu):
    # near a defective drift, eigenvectors in doubles lose up to half the
    # digits (1.7e-7 relative at 1 + 1e-9); the closed form keeps them all
    pytest.importorskip("mpmath")
    pair = rotating_pair(mu)
    assert best_constant_2d(pair) == pytest.approx(exact_constant_2d(pair.whitened_drift),
                                                   rel=4 * np.finfo(float).eps, abs=0)


def test_2x2_paths_call_no_matrix_library(monkeypatch):
    # the closed forms need no eigendecomposition, eigenvalues, condition
    # number, inverse or scipy
    def refuse(*args, **kwargs):
        raise AssertionError("a matrix library call on a 2x2 path")

    for name in ("eig", "eigvals", "cond", "inv"):
        monkeypatch.setattr(np.linalg, name, refuse)
    monkeypatch.setitem(sys.modules, "scipy", None)   # an import of scipy fails
    pair = rotating_pair(1.0 + 1e-9)
    assert np.all(np.isfinite(kernel.expm_2x2(pair.whitened_drift)(np.array([0.0, 1.0]))))
    flow = _Flow(split_schedule(pair, 0.1), shift=1.0)
    assert np.all(np.isfinite(flow.log_norms(np.linspace(0.0, 1.0, 9), 1.0, "t_max")))
    assert best_constant_2d(pair) > 1.0
    # the defective rotation still has no supremum at its gap
    with pytest.raises(RateTooLarge):
        sharp_constant(rotating_pair(1.0), spectral_gap(rotating_pair(1.0)))


@pytest.mark.parametrize("s", [1.0, 1e-10])
def test_best_constant_2d_is_scale_free(s):
    # equal real parts are judged relative to the eigenvalues' own size
    with pytest.raises(NotApplicable2D):
        best_constant_2d(time_scaled_pair(REAL_SPLIT, s))
    assert best_constant_2d(time_scaled_pair(ROTATION, s)) \
        == pytest.approx(np.sqrt(4.0 / 3.0), rel=1e-12)


# ------------------------------------------------------------- initial slope

def test_initial_slope_rank_one_certificate_is_zero():
    cov = Covariance(np.array([1.0, 2.0]))
    cert = construct_optimal(cov, 2.0)
    assert abs(initial_slope(cert.pair)) <= 1e-12


def test_initial_slope_symmetric_pair():
    cov = Covariance(np.array([20.0, 1.0]))
    pair = CoefficientPair(cov, cov.inv, np.eye(2))
    assert initial_slope(pair) == pytest.approx(0.05, rel=1e-12)


def test_initial_slope_finite_difference_oracle():
    rng = np.random.default_rng(43)
    cov = random_covariance(rng, 3)
    pair = random_admissible_pair(rng, cov)
    expected = initial_slope(pair)
    estimates = []
    for h in (1e-3, 5e-4):
        estimates.append((1.0 - np.linalg.norm(expm(pair.whitened_drift, h), 2)) / h)
    # Richardson extrapolation kills the O(h) error term
    extrapolated = 2.0 * estimates[1] - estimates[0]
    assert extrapolated == pytest.approx(expected, abs=5e-6)


def test_max_initial_decay_closed_form():
    cov = Covariance(np.array([20.0, 1.0]))
    rate, pair = max_initial_decay(cov)
    assert rate == pytest.approx(2.0 / 21.0, abs=1e-15)
    assert np.abs(pair.drift - rate * np.eye(2)).max() <= 1e-15
    assert pair.trace_diffusion == pytest.approx(2.0, abs=1e-12)
    assert validate_pair(pair).passed
    assert initial_slope(pair) == pytest.approx(rate, rel=1e-12)


def test_max_initial_decay_identity_covariance():
    rate, pair = max_initial_decay(Covariance(np.eye(3)))
    assert rate == 1.0
    assert np.array_equal(pair.drift, np.eye(3))
    assert np.array_equal(pair.diffusion, np.eye(3))


def test_max_initial_decay_dominates_random_pairs():
    rng = np.random.default_rng(44)
    cov = Covariance(np.array([20.0, 1.0]))
    bound, _ = max_initial_decay(cov)
    for _ in range(100):
        pair = random_admissible_pair(rng, cov)
        assert initial_slope(pair) <= bound + 1e-9


# -------------------------------------------------------------- tangencies

def test_tangency_time_fast_rotation():
    pair = rotating_pair(11.0)
    t = tangency_time(pair, 1.0)
    assert t == pytest.approx(np.pi / (2.0 * np.sqrt(120.0)), abs=1e-4)
    assert t == pytest.approx(0.1434, abs=1e-3)


def test_tangency_time_faster_rotation_matches_bundled_switch():
    pair = rotating_pair(13.8)
    assert tangency_time(pair, 1.0) == pytest.approx(0.11413, abs=1e-4)


def test_tangency_recurrence_period():
    mu = 11.0
    pair = rotating_pair(mu)
    period = np.pi / np.sqrt(mu**2 - 1.0)
    first = tangency_time(pair, 1.0)
    # oracle: locate the second supremum with a dense local grid search
    centre = first + period
    ts = np.linspace(centre - 0.02, centre + 0.02, 801)
    vals = [np.exp(t) * np.linalg.norm(expm(pair.whitened_drift, t), 2) for t in ts]
    second = ts[int(np.argmax(vals))]
    assert second - first == pytest.approx(period, abs=1e-3)


# ---------------------------------------------------------------- rankings

def test_compare_schedules_switching_study():
    pairs = case_pairs()
    labels = ["fp1", "fp2", "fp3", "fp4", "fp5"]
    schedules = [split_schedule(pairs[label], 0.1) for label in labels]
    rows = compare_schedules(schedules, 1.0, labels=labels)
    order = [row.label for row in rows]
    constants = {row.label: row.sharp_constant for row in rows}
    assert order[0] == "fp5"
    assert order[1] == "fp1"
    assert constants["fp1"] == pytest.approx(np.sqrt(4.0 / 3.0), abs=1e-4)
    assert constants["fp5"] < constants["fp1"]
    for slower in ("fp2", "fp3", "fp4"):
        assert constants[slower] > constants["fp1"]


def test_compare_schedules_single_entry():
    schedule = Schedule.constant(rotating_pair(7.0))
    rows = compare_schedules([schedule], 1.0, labels=["only"])
    assert len(rows) == 1
    assert rows[0].label == "only"
    assert rows[0].drift_norms == (pytest.approx(np.sqrt(986.45)),)


def test_compare_schedules_rejects_mixed_equilibria():
    cov = Covariance([10.0, 1.0])   # another equilibrium
    other = CoefficientPair(cov, cov.inv, np.eye(2))
    with pytest.raises(MixedEquilibria):
        compare_schedules([Schedule.constant(rotating_pair(7.0)), Schedule.constant(other)],
                          1.0, ["a", "b"])


def test_spectral_gap_of_rotating_pairs():
    # their half-trace, exactly: the 2x2 gap is the closed form's mu
    for mu in (7.0, 11.0, 13.8):
        assert spectral_gap(rotating_pair(mu)) == 1.0
