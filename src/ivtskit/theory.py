"""Surrogate-risk bound calculators and an offset Rademacher estimator.

For an auxiliary loss with Lipschitz constant ``ell`` and caps ``c_A``
(weight rows), ``c_B`` (biases), ``c_Z`` (features), the conditional excess
surrogate risk of any capped linear hypothesis is bounded by
``2 ell (c_A c_Z + c_B)`` pointwise, and the difference between two
hypotheses by twice that.  The offset (quadratically penalized) Rademacher
complexity of the induced excess-risk class obeys

    (1 + logN) / (2 varrho n) + g (1 + varrho g),    g = 4 ell (c_A c_Z + c_B),

where ``logN`` is the log of the expected empirical sup-metric covering
number, supplied by the caller.  The excess-risk bound is four times this
expression evaluated at ``varrho = 1 / g``.

The Monte-Carlo estimator targets the complexity of the capped linear class
itself: for each Rademacher sign vector it maximizes the penalized average by
projected gradient ascent and averages the per-draw suprema.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from . import classify


def lipschitz_constant(kind: str) -> float:
    """Lipschitz constant ell of an auxiliary loss (classify.LOSSES)."""
    return classify.loss_entry(kind).lipschitz


def _require_positive(**values: float) -> None:
    for name, v in values.items():
        if not 0.0 < v < math.inf:
            raise ValueError(f"{name} must be finite and positive, got {v}")


def _g(
    ell: float, c_A: float, c_B: float, c_Z: float,
    *, varrho: float = 1.0, n: int = 1, log_covering: float = 0.0,
) -> float:
    """g = 4 ell (c_A c_Z + c_B), after checking, in this order, that ell, the
    caps and varrho are finite and positive, that 1 <= n <= the largest
    float and that log_covering is finite and >= 0.  The offset bound passes
    its own varrho, n and log_covering; the other callers leave the defaults,
    which pass.  A g that overflows, or underflows so far that 1 / g is not
    finite, is a ValueError naming ell and the caps, not an infinite bound or
    a varrho of 0.0 or inf."""
    _require_positive(ell=ell, c_A=c_A, c_B=c_B, c_Z=c_Z, varrho=varrho)
    if n < 1:
        raise ValueError(f"sample count n must be >= 1, got {n}")
    if n > sys.float_info.max:  # the bound would convert it to a float
        raise ValueError(f"sample count n must be at most {sys.float_info.max!r}, got {n}")
    if not 0.0 <= log_covering < math.inf:
        raise ValueError(f"log_covering must be finite and >= 0, got {log_covering}")
    g = 4.0 * ell * (c_A * c_Z + c_B)
    if not (math.isfinite(g) and g > 0.0 and math.isfinite(1.0 / g)):
        way = "overflows" if g > 1.0 else "underflows"
        raise ValueError(
            f"g = 4 ell (c_A c_Z + c_B) {way} at ell={ell}, c_A={c_A}, c_B={c_B}, c_Z={c_Z}"
        )
    return g


def g_bounds(ell: float, c_A: float, c_B: float, c_Z: float) -> tuple[float, float]:
    """(single, pair) pointwise bounds: 2 ell (c_A c_Z + c_B) and twice that."""
    _g(ell, c_A, c_B, c_Z)
    single = 2.0 * ell * (c_A * c_Z + c_B)  # not g / 2, which rounds twice when subnormal
    return single, 2.0 * single


def offset_rademacher_bound(
    ell: float, c_A: float, c_B: float, c_Z: float, n: int, log_covering: float, varrho: float
) -> float:
    """(1 + logN) / (2 varrho n) + g (1 + varrho g) with g = 4 ell (c_A c_Z + c_B).

    ``log_covering`` is logN = log E N_inf(delta, F, S_n); the covering number
    is an input because no refinement of it is attempted here.  A bound that
    overflows is a ValueError naming varrho, n and logN.
    """
    g = _g(ell, c_A, c_B, c_Z, varrho=varrho, n=n, log_covering=log_covering)
    bound = (1.0 + log_covering) / (2.0 * varrho * n) + g * (1.0 + varrho * g)
    if not math.isfinite(bound):
        raise ValueError(
            f"the bound overflows at varrho={varrho}, n={n}, log_covering={log_covering}"
        )
    return bound


def optimal_varrho(ell: float, c_A: float, c_B: float, c_Z: float) -> float:
    """The offset parameter the excess-risk bound fixes: 1 / (4 ell (c_A c_Z + c_B))."""
    return 1.0 / _g(ell, c_A, c_B, c_Z)


def excess_risk_bound(
    ell: float, c_A: float, c_B: float, c_Z: float, n: int, log_covering: float
) -> float:
    """Four times the offset-complexity bound at the fixed offset parameter."""
    varrho = optimal_varrho(ell, c_A, c_B, c_Z)
    bound = 4.0 * offset_rademacher_bound(ell, c_A, c_B, c_Z, n, log_covering, varrho)
    if not math.isfinite(bound):
        raise ValueError(
            f"the bound overflows at varrho={varrho}, n={n}, log_covering={log_covering}"
        )
    return bound


@dataclass(frozen=True)
class RademacherEstimate:
    """Monte-Carlo estimate of an offset Rademacher complexity.

    ``stderr`` is the standard error of ``value``: the sample standard
    deviation (ddof = 1) of the per-draw values over sqrt(mc_draws), and NaN
    for a single draw.
    """

    value: float
    mc_draws: int
    inner_steps: int
    stderr: float = math.nan

    def __post_init__(self) -> None:
        if self.mc_draws < 1:
            raise ValueError("mc_draws must be >= 1")


def _draws(
    X: np.ndarray,
    c_A: float,
    c_B: float,
    varrho: float,
    inner_steps: int,
    seed: int,
    draws: range,
) -> np.ndarray:
    """The per-draw suprema of the draws in `draws`, one ascent over all of
    them at once.

    Each product is written in stacked matrix-vector form (np.matmul against
    a trailing axis of length 1), which numpy sends to the gemv kernel of the
    one-draw products ``X @ a``, ``X.T @ resid`` and ``a.dot(a)``; the means
    are row sums over n.  Every draw therefore gets the bytes it would get
    alone.
    """
    n, p = X.shape
    tau = np.stack(
        [np.random.default_rng([seed, d]).integers(0, 2, size=n) * 2.0 - 1.0 for d in draws]
    )
    A = np.zeros((len(draws), p))
    B = np.zeros(len(draws))
    step = 1.0 / (2.0 * varrho + 1.0)
    best = np.zeros(len(draws))  # objective of the zero function
    # F holds each draw's current fit; the one computed after each update
    # scores that update and drives the next step.
    F = np.matmul(X, A[:, :, None])[:, :, 0] + B[:, None]
    for _ in range(inner_steps):
        R = tau - 2.0 * varrho * F
        A = A + step * np.matmul(X.T, R[:, :, None])[:, :, 0] / n
        norm = np.sqrt(np.matmul(A[:, None, :], A[:, :, None])[:, 0, 0])
        over = norm > c_A
        if over.any():
            A[over] *= (c_A / norm[over])[:, None]
        B = np.clip(B + step * (R.sum(axis=1) / n), -c_B, c_B)
        F = np.matmul(X, A[:, :, None])[:, :, 0] + B[:, None]
        obj = (tau * F - varrho * F * F).sum(axis=1) / n
        np.maximum(best, obj, out=best, where=obj > best)
    return best


def empirical_offset_rademacher(
    features,
    c_A: float,
    c_B: float,
    varrho: float,
    mc_draws: int = 256,
    inner_steps: int = 200,
    seed: int = 0,
    threads: int = 1,
) -> RademacherEstimate:
    """Estimate E sup_f (1/n) sum_i tau_i f(z_i) - varrho f(z_i)^2 over the
    capped linear class f(z) = a^T z + b, ||a|| <= c_A, |b| <= c_B.

    The inner supremum is approximated by projected gradient ascent from the
    zero function with step 1/(2 varrho + 1), keeping the best iterate, so
    every per-draw value is >= 0.  Draws use seeds derived from
    (seed, draw index) and are averaged in index order.  The draws run as
    one array computation in blocks of bounded size; `threads` is accepted
    for compatibility and ignored, so the result never depends on it.
    """
    X = np.asarray(features, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] < 1:
        raise ValueError("features must be a nonempty (n, p) array")
    if not (0.0 <= c_A < math.inf and 0.0 <= c_B < math.inf):
        raise ValueError(f"caps must be finite and nonnegative, got c_A={c_A}, c_B={c_B}")
    _require_positive(varrho=varrho)
    if mc_draws < 1 or inner_steps < 0:
        raise ValueError("mc_draws must be >= 1 and inner_steps >= 0")

    # each (draws, max(n, p)) float64 temporary within classify.BLOCK_BYTES
    block = max(1, classify.BLOCK_BYTES // 8 // max(X.shape))
    values = np.concatenate([
        _draws(X, c_A, c_B, varrho, inner_steps, seed, range(start, min(start + block, mc_draws)))
        for start in range(0, mc_draws, block)
    ])
    stderr = math.nan if mc_draws == 1 else float(np.std(values, ddof=1) / math.sqrt(mc_draws))
    return RademacherEstimate(
        value=float(np.mean(values)), mc_draws=mc_draws, inner_steps=inner_steps, stderr=stderr
    )
