"""Reference computations for the benchmark's correctness checks.

Nothing here imports fpopt: every number is recomputed from the raw
matrices with numpy and scipy, so a check that passes says the package
agrees with an independent computation, not with itself.

The propagator of the whitened drift ODE ``dx/dt = -C~ x`` is evaluated
through an eigendecomposition ``C~ = V diag(lam) V^{-1}``, so that
``T(t) = V diag(exp(-lam t)) V^{-1}``.  This is accurate to about
``cond(V) * eps``; the pairs the benchmark builds have ``cond(V) < 2``.
"""

from __future__ import annotations

import numpy as np
import scipy.optimize

#: Relative agreement required between a reported norm and the oracle.
NORM_RTOL = 1e-8

#: Relative slack allowed when one exact value must not exceed another.
ORDER_RTOL = 1e-9

#: Rows of each curve compared with the oracle, spread over the grid.
CHECKED_ROWS = 25

#: Times evaluated per stacked batch (bounds the oracle's memory at d = 64).
BATCH = 256


class CheckFailure(AssertionError):
    """A workload output disagrees with the independent computation."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailure(message)


def sym_sqrt(k: np.ndarray):
    """Principal square root of an SPD matrix and of its inverse."""
    w, v = np.linalg.eigh(k)
    return (v * np.sqrt(w)) @ v.T, (v / np.sqrt(w)) @ v.T


def whiten(k: np.ndarray, drift: np.ndarray) -> np.ndarray:
    """The whitened drift ``K^{-1/2} C K^{1/2}``."""
    root, inv_root = sym_sqrt(k)
    return inv_root @ drift @ root


class Flow:
    """Exact ``T(t, 0)`` for piecewise-constant whitened drifts.

    ``drifts[i]`` is active on ``[starts[i], starts[i+1])``; the last one
    runs forever.  Evaluation is vectorised over a batch of times.
    """

    def __init__(self, drifts, switch_times=()):
        self.starts = np.concatenate(([0.0], np.asarray(switch_times, dtype=float)))
        self.factors = []
        for ct in drifts:
            lam, vec = np.linalg.eig(np.asarray(ct, dtype=float))
            self.factors.append((lam, vec, np.linalg.inv(vec)))
        self.prefixes = [np.eye(len(self.factors[0][0]))]
        for i in range(1, len(self.starts)):
            step = self._segment(i - 1, np.array([self.starts[i] - self.starts[i - 1]]))[0]
            self.prefixes.append(step @ self.prefixes[-1])

    def _segment(self, i, dt):
        lam, vec, inv = self.factors[i]
        scaled = vec[None, :, :] * np.exp(-np.outer(dt, lam))[:, None, :]
        return np.real(scaled @ inv)

    def norms(self, times) -> np.ndarray:
        """Spectral norms ``||T(t, 0)||`` at every time in ``times``."""
        times = np.asarray(times, dtype=float)
        index = np.searchsorted(self.starts, times, side="right") - 1
        out = np.empty(times.shape)
        for i in range(len(self.starts)):
            sel = np.nonzero(index == i)[0]
            for lo in range(0, sel.size, BATCH):
                part = sel[lo:lo + BATCH]
                mats = self._segment(i, times[part] - self.starts[i]) @ self.prefixes[i]
                out[part] = np.linalg.svd(mats, compute_uv=False)[:, 0]
        return out

    def weighted_sup(self, rate: float, horizon: float) -> float:
        """Supremum of ``exp(rate t) ||T(t, 0)||`` over ``[0, horizon]``.

        A dense grid (ten times finer than the package's 2048-point scan in
        2D, twice as fine above) finds the competitive local maxima; each one
        is then polished with a bounded scalar search on the exact values.
        """
        points = 20001 if len(self.factors[0][0]) <= 2 else 4001
        grid = np.linspace(0.0, horizon, points)
        grid = np.unique(np.concatenate((grid, self.starts[self.starts < horizon])))
        weighted = np.exp(rate * grid) * self.norms(grid)
        best = float(weighted.max())
        interior = np.nonzero((weighted[1:-1] >= weighted[:-2])
                              & (weighted[1:-1] >= weighted[2:])
                              & (weighted[1:-1] >= best * (1.0 - 1e-3)))[0] + 1

        def negative(t):
            return -float(np.exp(rate * t) * self.norms(np.array([t]))[0])

        for i in interior:
            found = scipy.optimize.minimize_scalar(
                negative, bounds=(grid[i - 1], grid[i + 1]), method="bounded",
                options={"xatol": 1e-13})
            best = max(best, -found.fun)
        return best


def closed_form_constant_2d(ct: np.ndarray) -> float:
    """``sqrt((1 + alpha) / (1 - alpha))`` with ``alpha`` the modulus of the
    inner product of the normalised eigenvectors of a 2x2 whitened drift."""
    _, vec = np.linalg.eig(ct)
    v1 = vec[:, 0] / np.linalg.norm(vec[:, 0])
    v2 = vec[:, 1] / np.linalg.norm(vec[:, 1])
    alpha = abs(np.vdot(v1, v2))
    return float(np.sqrt((1.0 + alpha) / (1.0 - alpha)))


def check_curve(label, flow: Flow, times, values, envelope, rate, constant,
                horizon) -> None:
    """The checks every sampled decay curve with a sharp envelope must pass.

    - norms at :data:`CHECKED_ROWS` spread-out rows match the oracle;
    - no value lies above the envelope;
    - where a row touches the envelope, the oracle there gives the constant;
    - the oracle's supremum over ``[0, horizon]`` equals the constant.
    """
    times = np.asarray(times)
    values = np.asarray(values)
    rows = np.unique(np.linspace(0, times.size - 1, CHECKED_ROWS).astype(int))
    exact = flow.norms(times[rows])
    err = float(np.max(np.abs(values[rows] - exact) / exact))
    require(err <= NORM_RTOL, f"{label}: norm differs from the oracle by {err:.2e} (relative)")
    over = float(np.max(values / envelope - 1.0))
    require(over <= ORDER_RTOL, f"{label}: curve exceeds its envelope by {over:.2e}")
    touch = int(np.argmax(values / envelope))
    if values[touch] / envelope[touch] >= 1.0 - ORDER_RTOL:
        attained = float(np.exp(rate * times[touch]) * flow.norms(times[touch:touch + 1])[0])
        require(abs(attained - constant) <= NORM_RTOL * constant,
                f"{label}: oracle at the tangency t={times[touch]:.6g} gives {attained:.12g},"
                f" reported constant {constant:.12g}")
    check_constant(label, flow, rate, constant, horizon)


def check_constant(label, flow: Flow, rate, constant, horizon) -> None:
    """The reported sharp constant is the oracle's supremum on the horizon."""
    sup = flow.weighted_sup(rate, horizon)
    require(sup <= constant * (1.0 + ORDER_RTOL),
            f"{label}: oracle reaches {sup:.12g} above the reported constant {constant:.12g}")
    require(sup >= constant * (1.0 - NORM_RTOL),
            f"{label}: reported constant {constant:.12g} is never attained (oracle sup {sup:.12g})")


def hypoelliptic_pbh(ct: np.ndarray, dt: np.ndarray) -> bool:
    """Popov-Belevitch-Hautus test for a rank-one diffusion.

    The pair is hypoelliptic iff no left eigenvector of ``C~`` is orthogonal
    to the range of ``D~``.  Working with unit eigenvectors keeps the test
    free of the powers ``C~^k`` that make the Kalman matrix ill-conditioned.
    The smallest overlap of the benchmark's pairs is about 1/sqrt(d), far
    above the 1e-8 cut.
    """
    u = np.linalg.svd(dt)[0][:, 0]
    _, left = np.linalg.eig(ct.T)
    left = left / np.linalg.norm(left, axis=0)
    return bool(np.min(np.abs(left.conj().T @ u)) > 1e-8)


def check_certificate(label, doc: dict, budget: float) -> None:
    """Recompute every identity an optimal certificate claims.

    Stationarity ``C K + K C^T = 2 D``, ``Tr D = d``, ``rank D = 1``,
    ``rate = 1 / lambda_min(K)``, the whitened Lyapunov identity
    ``J~ Q - Q J~ + Q D~ + D~ Q = 2 r Q`` and ``sqrt(kappa(P)) = c``.
    """
    k = np.asarray(doc["K"], dtype=float)
    c = np.asarray(doc["C"], dtype=float)
    d = np.asarray(doc["D"], dtype=float)
    q = np.asarray(doc["Q"], dtype=float)
    p = np.asarray(doc["P"], dtype=float)
    rate = float(doc["lambda_opt"])
    dim = k.shape[0]
    ck = c @ k
    scale = np.linalg.norm(c) * np.linalg.norm(k) + np.linalg.norm(d)
    stat = np.linalg.norm(ck + ck.T - 2.0 * d) / scale
    require(stat <= 1e-12, f"{label}: stationarity residual {stat:.2e}")
    require(abs(np.trace(d) - dim) <= 1e-12 * dim, f"{label}: Tr D = {np.trace(d):.15g}, not {dim}")
    sv = np.linalg.svd(d, compute_uv=False)
    require(sv[1] <= 1e-12 * sv[0], f"{label}: D is not rank one (s2/s1 = {sv[1] / sv[0]:.2e})")
    lam_min = float(np.linalg.eigvalsh(k)[0])
    require(abs(rate * lam_min - 1.0) <= 1e-9, f"{label}: rate {rate!r} is not 1/lambda_min(K)")
    _, inv_root = sym_sqrt(k)
    skew = 0.5 * (ck - ck.T)
    jt = inv_root @ skew @ inv_root
    dt = inv_root @ d @ inv_root
    lyap = jt @ q - q @ jt + q @ dt + dt @ q - 2.0 * rate * q
    size = np.linalg.norm(q) * (np.linalg.norm(jt) + np.linalg.norm(dt) + rate)
    require(np.linalg.norm(lyap) <= 1e-9 * size,
            f"{label}: Lyapunov residual {np.linalg.norm(lyap) / size:.2e}")
    pe = np.linalg.eigvalsh(0.5 * (p + p.T))
    require(abs(np.sqrt(pe[-1] / pe[0]) - budget) <= 1e-9 * budget,
            f"{label}: sqrt(kappa(P)) = {np.sqrt(pe[-1] / pe[0])!r}, budget {budget}")
