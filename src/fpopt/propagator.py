"""Exact decay curves, envelopes, and sharp constants.

The solution operator of the drift ODE ``dx/dt = -C~(t) x`` carries the full
decay information of the corresponding drift-diffusion evolution: the
operator norms agree for every time interval.  For piecewise-constant
coefficients the operator is a finite product of matrix exponentials, so
curves like ``t -> ||T(t, 0)||`` and their sharp exponential envelopes are
computable to working precision rather than merely estimable.  This module
provides the schedule object, the one evaluator of ``T(t, 0)`` (the private
``_Flow``, with its horizon cap and finiteness guard), sampled norm curves
with CSV export, the sharp multiplicative constant at a given rate
(supremum of ``exp(rate t) ||T(t, 0)||`` over a fixed grid, with
slope-driven peak refinement), the 2D closed form for that constant,
initial decay rates, and the pair of maximum initial decay.
"""

from __future__ import annotations

import os
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence, Union

import numpy as np

from . import kernel
from .equilibrium import CoefficientPair, Covariance, same_equilibrium, spectral_gap
from .errors import (
    InvalidArgument,
    InvalidInterval,
    MixedEquilibria,
    NotApplicable2D,
    RateTooLarge,
)
from .text import write_columns

#: Default number of uniform samples for curve grids, and the number the
#: envelope scan always takes.
DEFAULT_SAMPLES = 4096

#: Refined peaks within this log-slack of the grid maximum are candidates
#: for the true supremum (covers the coarse grid's undershoot at a peak).
_PEAK_SLACK = 0.05

#: Cap on the lockstep peak-refinement steps.  A smooth peak takes about
#: five secant steps; a kink is bisected, about 45 steps from a grid bracket
#: down to the relative width below.
_REFINE_STEPS = 200

#: Relative bracket width (and step size) at which a refined peak is done;
#: also the rounding level of the log norms, below which two are tied.
_REFINE_RTOL = 8.0 * np.finfo(float).eps

#: Matrix entries per stacked evaluation, summed over the threads that
#: evaluate at once, which bounds the working memory of a curve at large d
#: (2**16 doubles, 512 KiB, of propagators in flight).
_CHUNK_ELEMENTS = 2**16

class Schedule:
    """Piecewise-constant-in-time coefficient pairs sharing one equilibrium.

    ``pairs[0]`` is active from time 0 to ``switch_times[0]``, ``pairs[i]``
    from ``switch_times[i-1]`` to ``switch_times[i]``, and the last pair runs
    forever; ``switch_times`` are strictly increasing and positive.  A
    single pair with no switch times is the constant-coefficient case.  All
    pairs must share the same covariance, otherwise the notion of one decay
    problem breaks down.
    """

    def __init__(self, pairs: Sequence[CoefficientPair], switch_times: Sequence[float] = ()):
        pairs = list(pairs)
        if not pairs:
            raise ValueError("a schedule needs at least one pair")
        switch_times = [float(s) for s in switch_times]
        if len(switch_times) != len(pairs) - 1:
            raise ValueError("need exactly one switch time between consecutive pairs")
        previous = 0.0
        for s in switch_times:
            if not np.isfinite(s) or s <= previous:
                raise ValueError("switch times must be finite, positive and strictly increasing")
            previous = s
        covariance = pairs[0].covariance
        for p in pairs[1:]:
            if not same_equilibrium(p.covariance, covariance):
                raise MixedEquilibria("all pairs of a schedule must share the equilibrium")
        self.pairs = tuple(pairs)
        self.switch_times = tuple(switch_times)
        self.covariance = covariance

    @classmethod
    def constant(cls, pair: CoefficientPair) -> "Schedule":
        return cls([pair])

    @property
    def dim(self) -> int:
        return self.covariance.dim

    @property
    def asymptotic_pair(self) -> CoefficientPair:
        return self.pairs[-1]

    def __repr__(self):
        return f"Schedule(pieces={len(self.pairs)}, switch_times={list(self.switch_times)})"


def _as_schedule(source: Union[Schedule, CoefficientPair]) -> Schedule:
    if isinstance(source, Schedule):
        return source
    if isinstance(source, CoefficientPair):
        return Schedule.constant(source)
    raise TypeError(f"expected a Schedule or CoefficientPair, got {type(source).__name__}")


class _Flow:
    """The package's one evaluator of T(t, 0), over arrays of times.

    The flow runs on the shifted whitened drifts ``C~_i - shift I``, so
    what it evaluates is the weighted propagator
    ``M(t) = exp(shift t) T(t, 0)``, and
    ``log ||T(t, 0)|| = -shift t + log ||M(t)||``.  With the shift at the
    decay rate of interest, ``M`` stays of order one over any horizon, so
    nothing it feeds (norms, their logarithms, the envelope scan) ever
    sees a number near underflow.  Each segment's shifted drift is
    factored once, by :func:`kernel.expm_stack`, which serves every time
    in that segment with one stacked expression.  Prefix products ``M(s)``
    are cached at the switch times.  Norms come from
    :func:`_log_top_singular`, in closed form for 2x2 stacks and from the
    Gram matrices ``M^T M`` otherwise, taken in stacks of at most
    ``_CHUNK_ELEMENTS`` matrix entries.

    ``cap`` is the longest horizon the problem's own time scale allows.
    The eigenvalues of each shifted drift ``a`` are rounded by about
    ``eps ||a||`` times their condition number, which makes the weights
    ``exp(-t Re lambda)`` of :func:`kernel.expm_stack` overflow near
    ``t ||a|| = 1e18``.  The cap ``1 / (eps max_i ||a_i||_F)`` keeps the
    rounding's move of those exponents within about the condition number,
    which the factored path bounds by ``kernel.EIG_COND_MAX``; a drift
    equal to ``shift I`` has no time scale and no cap.

    For ``d > 2`` a call of two or more chunks runs on every CPU (see
    :class:`_Split`): the calling thread takes the first contiguous share of
    the chunks and the split's worker threads the others, each writing its
    own slices of the output.  A chunk's values do not depend on the thread
    that computes them, so the result is the serial loop's bit for bit.
    The chunks then hold ``_CHUNK_ELEMENTS`` entries over all threads, not
    each.  With one CPU, or no thread limit in numpy's OpenBLAS, the chunks
    run one after another in the calling thread.
    """

    def __init__(self, schedule: Schedule, shift: float = 0.0):
        self.starts = (0.0,) + schedule.switch_times
        self.dim = schedule.dim
        self.drifts = np.array([p.whitened_drift - float(shift) * np.eye(self.dim)
                                for p in schedule.pairs])
        scale = max(np.linalg.norm(a) for a in self.drifts)
        self.cap = 1.0 / (np.finfo(float).eps * scale) if scale else np.inf
        prefixes = [np.eye(self.dim)]
        with np.errstate(all="ignore"):   # a prefix that overflows shows in log_norms
            self.exps = [kernel.expm_stack(a) for a in self.drifts]
            for exp, lo, hi in zip(self.exps, self.starts, self.starts[1:]):
                prefixes.append(exp(np.array([hi - lo]))[0] @ prefixes[-1])
        self.prefixes = prefixes

    def at(self, times: np.ndarray, segment: Optional[np.ndarray] = None) -> np.ndarray:
        """Stack of the weighted M(t) for a 1-D array of times ``t >= 0``;
        ``segment`` is each time's segment, found here if not given."""
        if segment is None:
            segment = np.searchsorted(self.starts[1:], times, side="right")
        out = np.empty((len(times), self.dim, self.dim))
        for i in np.unique(segment):
            hit = segment == i
            m = self.exps[i](times[hit] - self.starts[i])
            if i > 0:   # the first segment's prefix is the identity
                m = (m.reshape(-1, self.dim) @ self.prefixes[i]).reshape(m.shape)
            out[hit] = m
        return out

    def check_horizon(self, horizon: float, name: str) -> None:
        """Refuse an infinite ``horizon``, or one beyond ``cap``, by name."""
        if not horizon < np.inf or horizon > self.cap:
            raise InvalidInterval(
                f"{name} {horizon:.6g} exceeds {self.cap:.6g}, the longest horizon "
                "this problem's time scale allows (1 / (eps ||C~ - rate I||_F))")

    def log_norms(self, times: np.ndarray, horizon: float, name: str, slopes: bool = False):
        """``log ||M(t)||`` for a 1-D array of times in ``[0, horizon]``,
        and with ``slopes`` also its time derivative ``-u^T (C~ - shift I) u``.

        ``u`` is the top left singular vector of ``M(t)``.  At a switch time
        the slope is the right derivative, and where the top two singular
        values cross it is the slope of the branch that
        :func:`_log_top_singular` picks.  Refuses a ``horizon`` as
        :meth:`check_horizon` does, and a weighted propagator that is not
        finite (scaling and squaring on a nearly defective drift can
        overflow below the cap), with :class:`InvalidInterval` naming the
        horizon ``name``, not a warning.
        """
        self.check_horizon(horizon, name)
        segment = np.searchsorted(self.starts[1:], times, side="right")
        logs = np.empty(len(times))
        grads = np.empty(len(times)) if slopes else None
        split = _splitter() if self.dim > 2 else None
        step = max(1, _CHUNK_ELEMENTS // ((split.threads if split else 1) * self.dim**2))
        chunks = range(0, len(times), step)

        def fill(share):
            with np.errstate(all="ignore"):   # per thread: workers do not inherit it
                for k in share:
                    part = slice(k, k + step)
                    m = self.at(times[part], segment[part])
                    logs[part], u = _log_top_singular(m, left_vectors=slopes)
                    if slopes:
                        grads[part] = -np.einsum("ni,nij,nj->n", u, self.drifts[segment[part]], u)

        if split and len(chunks) > 1:
            split.run(fill, np.array_split(chunks, min(split.threads, len(chunks))))
        else:
            fill(chunks)
        if not (logs < np.inf).all():   # nan or +inf; -inf is a norm underflowed to 0
            raise InvalidInterval(f"{name} {horizon:.6g} is too long for this problem: "
                                  "the weighted propagator is not finite within it")
        return (logs, grads) if slopes else logs


class _Split:
    """Worker threads that share out the chunks of a ``d > 2`` flow evaluation.

    ``threads`` counts the evaluating threads: the caller and one pool
    worker per further CPU.  They only gain if each runs OpenBLAS on one
    thread; with its default pool, OpenBLAS's own threads spin between
    calls and the evaluating threads wait for each other.  The limit is
    ``openblas_set_num_threads_local`` of the OpenBLAS that numpy loaded.
    Despite its name it sets the process-wide count in OpenBLAS's pthreads
    builds, which numpy's wheels are.  So :meth:`run` holds it at one thread
    while any split call is under way, and the last call to finish puts
    back the count that the first one found.
    """

    def __init__(self, threads: int, set_blas_threads):
        from concurrent.futures import ThreadPoolExecutor

        self.threads = threads
        self.pool = ThreadPoolExecutor(threads - 1, thread_name_prefix="fpopt-flow")
        self.set_blas_threads = set_blas_threads
        self.lock = threading.Lock()
        self.holders = 0      # split calls under way
        self.saved = 0        # the BLAS thread count the first of them found

    @contextmanager
    def one_blas_thread(self):
        with self.lock:
            if not self.holders:
                self.saved = self.set_blas_threads(1)
            self.holders += 1
        try:
            yield
        finally:
            with self.lock:
                self.holders -= 1
                if not self.holders:
                    self.set_blas_threads(self.saved)

    def run(self, work, shares):
        """Call ``work(share)`` for each share, the first in this thread and
        the others on the pool.  Returns once all have finished, re-raising
        the first failure: this thread's, else the earliest share's."""
        from concurrent.futures import wait

        with self.one_blas_thread():
            futures = [self.pool.submit(work, share) for share in shares[1:]]
            try:
                work(shares[0])
            finally:
                wait(futures)
        for future in futures:
            future.result()


def _openblas_thread_limit():
    """``openblas_set_num_threads_local`` of the OpenBLAS in numpy's wheel,
    which sets the count and returns the previous one, or ``None``."""
    import ctypes
    import glob

    libraries = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                       "numpy.libs", "*openblas*"))
    if len(libraries) != 1:
        return None
    try:
        function = ctypes.CDLL(libraries[0]).openblas_set_num_threads_local
    except (OSError, AttributeError):
        return None
    function.argtypes, function.restype = [ctypes.c_int], ctypes.c_int
    return function


#: The :class:`_Split`, built on first use; ``False`` where it cannot run
#: (one CPU, or no thread limit found), ``None`` before the first use.
_split = None
_split_lock = threading.Lock()


def _splitter():
    global _split
    with _split_lock:
        if _split is None:
            cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
            limit = _openblas_thread_limit() if cpus > 1 else None
            _split = _Split(cpus, limit) if limit else False
    return _split


def _forget_split():
    """In a forked child: the pool's threads did not survive the fork, so
    the next split call builds a new one, and a hold taken by a call in
    another thread of the parent is released."""
    global _split, _split_lock
    if _split and _split.holders:
        _split.set_blas_threads(_split.saved)
    _split, _split_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_split)


def _log_top_singular(m: np.ndarray, left_vectors: bool = False):
    """``log`` of the top singular value of each matrix in the stack ``m``,
    and with ``left_vectors`` the top left singular vectors (else ``None``).

    A 2x2 stack ``[[a, b], [c, d]]`` is done in closed form, with no
    LAPACK call: the top singular value is
    ``(hypot(a + d, b - c) + hypot(a - d, b + c)) / 2``, a sum of
    non-negative terms, and the top left singular vector is
    ``(cos phi, sin phi)`` with
    ``phi = atan2(2 (a c + b d), a^2 + b^2 - c^2 - d^2) / 2``, whose
    arguments are formed from the same four sums as
    ``(a + d)(b + c) - (a - d)(b - c)`` and
    ``(a + d)(a - d) + (b - c)(b + c)``.  Other stacks take the top
    eigenpair of the Gram matrices ``M^T M``, and ``u = M v / ||M v||``
    from its eigenvector ``v``.
    """
    if m.shape[-1] == 2:
        a, b, c, d = m[:, 0, 0], m[:, 0, 1], m[:, 1, 0], m[:, 1, 1]
        plus, minus, skew, sym = a + d, a - d, b - c, b + c
        logs = np.log(0.5 * (np.hypot(plus, skew) + np.hypot(minus, sym)))
        if not left_vectors:
            return logs, None
        phi = 0.5 * np.arctan2(plus * sym - minus * skew, plus * minus + skew * sym)
        return logs, np.stack((np.cos(phi), np.sin(phi)), axis=1)
    gram = np.swapaxes(m, 1, 2) @ m
    if not left_vectors:
        return 0.5 * np.log(np.linalg.eigvalsh(gram)[:, -1]), None
    eigenvalues, vectors = np.linalg.eigh(gram)
    u = (m @ vectors[:, :, -1:])[:, :, 0]
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    return 0.5 * np.log(eigenvalues[:, -1]), u


@dataclass(frozen=True)
class NormCurve:
    """Sampled decay curve ``t -> ||T(t, 0)||`` with its sharp envelope.

    ``values`` always start at 1 and stay in (0, 1]; they oscillate below
    the envelope ``sharp_constant * exp(-rate t)`` rather than decreasing
    monotonically.  ``sharp_constant`` is the value of
    :func:`sharp_constant` at ``rate``: exact for the periodic 2D curves, a
    lower bound in higher dimension.  The grid contains the first refined
    tangency point whenever it falls inside the horizon, so the envelope
    touches the curve on the grid itself.  A tangency point within rounding
    (``_REFINE_RTOL`` relative) of a switch time, as on a schedule switched
    at its first pair's tangency, is not added: the switch time stands in
    for it, and the grid holds no two points an ulp apart.
    """

    times: np.ndarray
    values: np.ndarray
    rate: float
    sharp_constant: float

    @property
    def envelope(self) -> np.ndarray:
        return self.sharp_constant * np.exp(-self.rate * self.times)

    def write_csv(self, target) -> None:
        """Write ``t,norm,envelope`` rows as :func:`write_columns` does."""
        write_columns(target, "t,norm,envelope", self.times, self.values, self.envelope)


def norm_curve(source: Union[Schedule, CoefficientPair], t_max: Optional[float] = None,
               samples: Optional[int] = None, rate: Optional[float] = None) -> NormCurve:
    """Sample the propagator norm on ``[0, t_max]`` with its sharp envelope.

    The grid is uniform with ``samples`` points, by default
    ``DEFAULT_SAMPLES``, plus the schedule's interior switch times.  The
    envelope rate is ``rate``, by default the spectral gap of the final
    pair.  Its constant is computed as by :func:`sharp_constant` (exact for
    the periodic 2D curves, a lower bound in higher dimension), and the
    first tangency point, if it falls inside ``[0, t_max]`` and not within
    rounding of a switch time, is added to the grid.

    Every grid point is evaluated once.  The curve reuses the envelope
    scan's values at every time the scan evaluated, its grid and its
    refined peaks: at the default ``t_max``, the scan's horizon
    ``max(20 / rate, 4 * last switch)``, and the default ``samples``, the
    scan's own grid size, that is the whole grid, the tangency point
    included.  The scan's grid is fixed, so ``samples`` moves no constant
    and no tangency point.  The values come from the flow weighted at the
    rate, so they keep their relative accuracy down to the smallest normal
    double.

    Raises
    ------
    InvalidArgument
        A ``ValueError`` too: ``rate`` or ``t_max`` is not positive and
        finite, or ``samples`` is not an integer >= 2 or a grid numpy can
        allocate.
    RateTooLarge
        As :func:`sharp_constant`; with the default rate, when the final
        pair's boundary eigenvalue is defective.
    InvalidInterval
        If ``t_max`` or the scan's horizon exceeds the cap of the problem's
        time scale (:class:`_Flow`), or the weighted propagator is not
        finite up to it.
    """
    schedule = _as_schedule(source)
    if t_max is not None and not 0.0 < t_max < np.inf:
        raise InvalidArgument("t_max must be positive and finite")
    samples = DEFAULT_SAMPLES if samples is None else samples
    if isinstance(samples, bool) or not isinstance(samples, (int, np.integer)) or samples < 2:
        raise InvalidArgument(f"samples must be an integer >= 2, got {samples!r}")
    rate = float(spectral_gap(schedule.asymptotic_pair) if rate is None else rate)
    scan = _scan_envelope(schedule, rate)
    t_max = scan.horizon if t_max is None else float(t_max)
    try:
        grid = np.linspace(0.0, t_max, samples)
    except (ValueError, IndexError, MemoryError):   # numpy's refusals, by size
        raise InvalidArgument(f"samples {samples} is too large: numpy cannot "
                              "allocate a grid of that many points") from None
    extra = [s for s in schedule.switch_times if 0.0 < s < t_max]
    if 0.0 < scan.first_t < t_max and not any(
            abs(scan.first_t - s) <= _REFINE_RTOL * scan.first_t for s in extra):
        extra.append(scan.first_t)
    if extra:
        grid = np.unique(np.concatenate((grid, np.asarray(extra))))
    # reuse the scan's values wherever it has them
    at = np.minimum(np.searchsorted(scan.times, grid), len(scan.times) - 1)
    fresh = scan.times[at] != grid
    log_weighted = np.empty(len(grid))
    log_weighted[~fresh] = scan.log_norms[at[~fresh]]
    log_weighted[fresh] = scan.flow.log_norms(grid[fresh], t_max, "t_max")
    values = np.exp(log_weighted - rate * grid)
    return NormCurve(times=grid, values=values, rate=rate,
                     sharp_constant=float(np.exp(scan.log_sup)))


class _ScanResult(NamedTuple):
    log_sup: float      # log of the supremum of exp(rate t) ||T(t, 0)||
    first_t: float      # earliest refined peak attaining the supremum
    times: np.ndarray   # every time evaluated: the grid and the refined peaks, sorted
    log_norms: np.ndarray   # log(exp(rate t) ||T(t, 0)||) at those times
    flow: _Flow         # the evaluator, weighted at the rate
    horizon: float      # max(20 / rate, 4 * last switch); norm_curve's default t_max


def _refine_peaks(flow: _Flow, grid: np.ndarray, values: np.ndarray, centres: np.ndarray):
    """Maximise ``log ||M(t)||`` near each grid peak ``grid[centres]``.

    ``values`` are the log norms on ``grid``.  Each peak is bracketed by
    its grid neighbours, where the slope is taken to be positive on the
    left and negative on the right, and all brackets run one safeguarded
    root-find on the analytic slope in lockstep, one stacked evaluation per
    step, on the brackets still open.  The first step is a Newton step from
    the vertex of the parabola through the three grid values, with that
    parabola's curvature; later steps are secant steps through the last
    two iterates.  As in Brent's method, a step that would leave its
    bracket, or is not under half the step before last, bisects instead,
    so the sign bisection also closes on a kink, where the top two
    singular values cross or at a switch time.
    Returns the arrays of maximisers and maxima: the best point evaluated
    in each bracket, the grid peak included, ties within rounding going to
    the later iterate.
    """
    lo, mid, hi = grid[centres - 1], grid[centres], grid[centres + 1]
    f_lo, f_mid, f_hi = values[centres - 1], values[centres], values[centres + 1]
    left, right = (f_mid - f_lo) / (mid - lo), (f_hi - f_mid) / (hi - mid)
    curvature = 2.0 * (right - left) / (hi - lo)
    with np.errstate(divide="ignore", invalid="ignore"):
        x = 0.5 * (mid + hi) - right / curvature
    x = np.where((lo < x) & (x < hi), x, mid)
    a, b = lo.copy(), hi.copy()
    best_t, best_f = mid.copy(), f_mid.copy()
    x_prev, g_prev = np.full_like(x, np.nan), np.full_like(x, np.nan)
    moved, moved_before = np.full_like(x, np.inf), np.full_like(x, np.inf)
    open_ = np.ones(len(x), dtype=bool)
    for _ in range(_REFINE_STEPS):
        k = np.flatnonzero(open_)
        if not k.size:
            break
        xk = x[k]
        f, g = flow.log_norms(xk, grid[-1], "envelope horizon", slopes=True)
        # within rounding of the best value so far, the later iterate is the
        # better location: the root-finder converges, f is flat at a peak
        better = f >= best_f[k] - _REFINE_RTOL
        best_t[k[better]], best_f[k[better]] = xk[better], f[better]
        rising = g > 0
        a[k] = np.where(rising, xk, a[k])
        b[k] = np.where(rising, b[k], xk)
        with np.errstate(divide="ignore", invalid="ignore"):
            dg = np.where(np.isnan(x_prev[k]), curvature[k], (g - g_prev[k]) / (xk - x_prev[k]))
            step = -g / dg
        tol = _REFINE_RTOL * b[k]
        inside = (a[k] < xk + step) & (xk + step < b[k])
        open_[k] = (g != 0) & (b[k] - a[k] > tol) & (np.abs(step) > tol)
        bisect = ~inside | (np.abs(step) > 0.5 * moved_before[k])
        new = np.where(bisect, 0.5 * (a[k] + b[k]), xk + step)
        moved_before[k], moved[k] = moved[k], np.abs(new - xk)
        x_prev[k], g_prev[k], x[k] = xk, g, new
    return best_t, best_f


def _scan_envelope(schedule: Schedule, rate: float) -> _ScanResult:
    if not 0.0 < rate < np.inf:
        raise InvalidArgument("rate must be positive and finite")
    # A rate beyond the asymptotic decay of the schedule makes the weighted
    # curve diverge, so its supremum does not exist.  The asymptotic decay
    # rate is the spectral gap of the final pair (the curves here are not
    # monotone, but their envelope decays exactly at that gap unless the
    # boundary eigenvalue is defective, which the window check below covers).
    gap = spectral_gap(schedule.asymptotic_pair)
    if rate > gap + 1e-8 * max(rate, abs(gap)):
        raise RateTooLarge(
            f"rate {rate:.6g} exceeds the asymptotic decay {gap:.6g} of the schedule")
    last_switch = schedule.switch_times[-1] if schedule.switch_times else 0.0
    horizon = max(20.0 / rate, 4.0 * last_switch)   # inf for a rate near underflow
    # weighted at the rate, the flow's log norms are log(exp(rate t) ||T||)
    flow = _Flow(schedule, shift=rate)
    flow.check_horizon(horizon, "envelope horizon")
    grid = np.linspace(0.0, horizon, DEFAULT_SAMPLES)
    if schedule.switch_times:   # all of them lie within the horizon
        grid = np.unique(np.concatenate((grid, schedule.switch_times)))
    logg = flow.log_norms(grid, horizon, "envelope horizon")

    # Genuine local maxima only: a rise below the noise floor of the log
    # values is sampling noise on a flat stretch, not a peak worth refining.
    # (Compared, not subtracted: an underflowed norm logs as -inf.)
    inner = logg[1:-1]
    brackets = 1 + np.flatnonzero((inner > logg[:-2] + 1e-12) & (inner >= logg[2:])
                                  & (inner >= logg.max() - _PEAK_SLACK))
    i_best = int(np.argmax(logg))
    if 0 < i_best < len(grid) - 1:
        brackets = np.union1d(brackets, [i_best])
    peak_t, peak_v = _refine_peaks(flow, grid, logg, brackets)
    ts = np.concatenate(([grid[0], grid[-1]], peak_t))
    vs = np.concatenate(([logg[0], logg[-1]], peak_v))

    # Backup divergence guard for the defective-boundary case the spectral
    # test cannot see: sustained growth of the refined peak heights across
    # dyadic windows.  The threshold is coarse on purpose; for sustainable
    # rates the peaks of the quasi-periodic weighted curve may keep creeping
    # toward the supremum, which is approach, not divergence.
    half = 0.5 * horizon
    if vs[ts >= half].max() > vs[ts <= half].max() + np.log(1.05):
        raise RateTooLarge(
            f"rate {rate:.6g} is not sustained by the schedule "
            "(weighted curve keeps growing)")

    log_sup = vs.max()
    evaluated = np.concatenate((grid, peak_t))
    order = np.argsort(evaluated, kind="stable")
    return _ScanResult(log_sup=log_sup, first_t=ts[vs >= log_sup - 1e-9].min(),
                       times=evaluated[order], log_norms=np.concatenate((logg, peak_v))[order],
                       flow=flow, horizon=horizon)


def sharp_constant(source: Union[Schedule, CoefficientPair], rate: float) -> float:
    """Minimal ``c`` with ``||T(t, 0)|| <= c exp(-rate t)`` for all ``t >= 0``.

    Computed as the supremum of ``exp(rate t) ||T(t, 0)||`` over
    ``DEFAULT_SAMPLES`` points on ``[0, max(20/rate, 4 * last switch)]``
    (plus the switch times) with a safeguarded root-find on the analytic
    slope around each competitive local maximum, so it depends only on the
    schedule and the rate.  The weighted curve is evaluated as such, so the
    horizon may be any multiple of ``1/rate`` up to the cap of
    :class:`_Flow`.

    The result is exact when the weighted curve is periodic after the last
    switch, as for the 2D rotating pairs and the schedules ending in one:
    the horizon then holds whole periods.  In higher dimension the weighted
    curve is quasi-periodic, its supremum can lie beyond any finite horizon,
    and the result is a lower bound.

    Raises
    ------
    InvalidArgument
        If the rate is not positive and finite.
    RateTooLarge
        If the rate exceeds the asymptotic decay of the schedule (the
        spectral gap of its final pair), or the weighted curve keeps
        growing across the horizon; either way the supremum diverges.
    InvalidInterval
        If the horizon is too long for the problem's time scale, or the
        weighted propagator is not finite up to it.
    """
    scan = _scan_envelope(_as_schedule(source), float(rate))
    return float(np.exp(scan.log_sup))


def tangency_time(source: Union[Schedule, CoefficientPair], rate: float) -> float:
    """Earliest ``t >= 0`` where ``exp(rate t) ||T(t, 0)||`` attains its supremum.

    The first tangency of the decay curve with its sharp envelope, found
    by the scan of :func:`sharp_constant`; for the 2D rotating pairs the
    tangencies recur with the half-period of the rotation.  A weighted
    curve that never rises above its start, such as that of a symmetric
    pair at its spectral gap, touches its envelope at ``t = 0``, and the
    result is ``0.0``.
    """
    scan = _scan_envelope(_as_schedule(source), float(rate))
    return float(scan.first_t)


def best_constant_2d(pair: CoefficientPair) -> float:
    """Closed-form sharp envelope constant for a 2x2 pair.

    Valid when the whitened drift is diagonalisable with both eigenvalues on
    the same vertical line (equal real parts, the generic situation for the
    constructed pairs).  With ``alpha`` the modulus of the Hermitian inner
    product of the two normalised eigenvectors, the minimal constant is
    ``sqrt((1 + alpha) / (1 - alpha))``.
    """
    if pair.dim != 2:
        raise NotApplicable2D("closed form requires dimension 2")
    ct = pair.whitened_drift
    eigenvalues, vectors = np.linalg.eig(ct)
    scale = float(np.abs(eigenvalues).max())
    if abs(eigenvalues[0].real - eigenvalues[1].real) > 1e-9 * scale:
        raise NotApplicable2D("eigenvalues must share their real part")
    v1 = vectors[:, 0] / np.linalg.norm(vectors[:, 0])
    v2 = vectors[:, 1] / np.linalg.norm(vectors[:, 1])
    alpha = abs(np.vdot(v1, v2))
    if alpha >= 1.0 - 1e-12:
        raise NotApplicable2D("whitened drift is not diagonalisable")
    return float(np.sqrt((1.0 + alpha) / (1.0 - alpha)))


def initial_decay_rate(pair: CoefficientPair) -> float:
    """Slope of the norm curve at time zero.

    The curve expands as ``1 - m t + O(t^2)`` with ``m`` the smallest
    eigenvalue of the symmetric part of the whitened drift, which for an
    admissible pair equals the whitened diffusion.  Rank-deficient
    diffusions therefore start flat: ``1 + O(t^2)``.
    """
    ct = pair.whitened_drift
    return float(np.linalg.eigvalsh(0.5 * (ct + ct.T))[0])


def max_initial_decay(covariance: Covariance):
    """The largest achievable initial decay rate and the pair attaining it.

    The optimum over all admissible pairs is ``d / Tr(K)``, reached by the
    symmetric pair ``C = d/Tr(K) I`` and ``D = d/Tr(K) K``, which spends the
    whole trace budget (``Tr(D) = d``).  Returns ``(rate, pair)``.
    """
    d = covariance.dim
    rate = float(d / np.trace(covariance.matrix))
    pair = CoefficientPair(covariance, rate * np.eye(d), rate * covariance.matrix)
    return rate, pair


class ScheduleRanking(NamedTuple):
    label: str
    sharp_constant: float
    drift_norms: tuple


def compare_schedules(schedules: Sequence[Schedule], rate: float,
                      labels: Sequence[str]) -> list[ScheduleRanking]:
    """Rank schedules sharing one equilibrium by their sharp constant.

    All schedules decay at the same asymptotic rate once they agree for
    large times, so the multiplicative constant of the sharp envelope is the
    comparison that stays meaningful; pointwise-in-time comparison does not,
    since an initial-layer change has a nonlocal effect on the whole curve.
    Rows, one per label, also record ``||C||_F`` per piece and come back
    sorted ascending (best first).
    """
    schedules = list(schedules)
    if not schedules:
        raise ValueError("nothing to compare")
    labels = [str(x) for x in labels]
    if len(labels) != len(schedules):
        raise ValueError("need one label per schedule")
    reference = schedules[0].covariance
    for s in schedules[1:]:
        if not same_equilibrium(s.covariance, reference):
            raise MixedEquilibria("schedules must share the same equilibrium")
    rows = [
        ScheduleRanking(
            label=label,
            sharp_constant=sharp_constant(s, rate),
            drift_norms=tuple(float(np.linalg.norm(p.drift)) for p in s.pairs),
        )
        for label, s in zip(labels, schedules)
    ]
    rows.sort(key=lambda row: row.sharp_constant)
    return rows
