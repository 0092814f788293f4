"""Proper losses built from concave univariate forms.

A loss over (forecast, outcome) pairs is proper exactly when it can be
written as

    loss(p, y) = f(p) + <g_p, e_y - p>

for a concave function f on the simplex and a subgradient g_p of f at p.
Here f is the "univariate form" (the expected loss of forecasting p when the
outcome truly follows p) and the two-argument "bivariate form" is
reconstructed from f and its subgradient.  Each loss class below supplies
``univariate`` and ``subgradient``.  ``outcome_losses(p)``, the table of
loss(p, y) over every outcome y at once, is the layer's one arithmetic:
``bivariate(p, y)`` reads entry y of it, and the validators and the
benchmark cost read the whole table.  The greedy adversary reads none:
f(p) - <g_p, p> is the same for every y, so the outcome of largest loss is
the argmax of g_p, the lowest index on exact ties of g_p.

Shipped losses
--------------
``SquaredLoss(scale)``   scale * ||p - y||^2, univariate scale * (1 - ||p||^2).
                         scale=1 matches the minimax game; scale=1/2 is the
                         Brier score with range [0, 1].
``SphericalLoss``        -<p, y> / ||p||, univariate -||p||; sqrt(K)-Lipschitz.
``VShapedLoss``          univariate -1/2 sum_i |p_i - 1/K|; bivariate is a
                         step function of the forecast, hence not Lipschitz.
``TsallisLoss(alpha)``   univariate -c * sum_i p_i^alpha for alpha > 1; not
                         Lipschitz for alpha in (1, 2) but with controlled
                         second-derivative growth.  Default c = 1/alpha keeps
                         the bivariate range inside [-1, 1].
``MixtureLoss``          exact affine combination of two proper losses.
``CustomLoss``           build a candidate loss from user-supplied univariate
                         and subgradient rules; pair with ``check_proper`` and
                         ``check_concavity`` to validate it numerically.

All evaluation methods are vectorized: ``p`` may be a single length-K vector
or an (..., K) stack of them, and outcome indices broadcast against the
leading dimensions.  Every sum over the K axis (``<g, p>`` and the
univariate forms) is ``core.row_sum``, which equals ``sum(axis=-1)`` bit for
bit but adds whole columns where numpy's per-row reduce would dominate.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .core import row_sum, uniform_point, validate_integer


def _as_points(p) -> np.ndarray:
    p = np.asarray(p, dtype=float)
    if p.ndim < 1:
        raise ValueError("forecast must have at least one axis")
    return p


def _finite_parameter(value, parameter: str) -> float:
    value = float(value)
    if not np.isfinite(value):
        raise ValueError(f"{parameter} must be finite, got {value}")
    return value


def _take_outcome(values: np.ndarray, y) -> np.ndarray:
    """values[..., y] with integer indices y broadcast against the leading axes of values."""
    y = np.asarray(y)
    if y.size and y.dtype.kind not in "iu":  # as numpy indexing does, refuse 1.7 and True
        raise ValueError(f"outcome index must be an integer, got dtype {y.dtype}")
    y = y.astype(np.int64, copy=False)
    if y.size and (y.min() < 0 or y.max() >= values.shape[-1]):
        raise ValueError("outcome index out of range")
    # take_along_axis broadcasts the leading axes once both have the same count
    ndim = max(values.ndim, y.ndim + 1)
    values = values.reshape((1,) * (ndim - values.ndim) + values.shape)
    y = y.reshape((1,) * (ndim - 1 - y.ndim) + y.shape + (1,))
    return np.take_along_axis(values, y, axis=-1)[..., 0]


class ProperLoss:
    """Base class: a loss defined by its concave univariate form."""

    name = "proper"

    #: declared bivariate range (lo, hi); losses outside [-1, 1] are flagged
    #: by validators rather than failed.
    range_bound: tuple[float, float] = (-1.0, 1.0)

    def univariate(self, p) -> np.ndarray:
        """f(p): expected loss of forecasting p under outcomes drawn from p."""
        raise NotImplementedError

    def subgradient(self, p) -> np.ndarray:
        """A subgradient of the univariate form at p, shape (..., K)."""
        raise NotImplementedError

    def bivariate(self, p, y) -> np.ndarray:
        """loss(p, y) for outcome index y: entry y of ``outcome_losses(p)``."""
        return _take_outcome(self.outcome_losses(p), y)

    def outcome_losses(self, p) -> np.ndarray:
        """loss(p, y) = f(p) + <g_p, e_y - p> for every outcome y at once, shape (..., K).

        The one place a loss is computed, and ``bivariate`` reads it.  A
        subclass overrides it only for a direct form (spherical) or an exact
        combination of tables (mixture).
        """
        p = _as_points(p)
        g = self.subgradient(p)
        table = self.univariate(p)[..., None] + g
        table -= row_sum(g * p)[..., None]  # in place: one (..., K) temporary fewer
        return table

    def __repr__(self):
        return f"<{type(self).__name__} {self.name}>"


class SquaredLoss(ProperLoss):
    """scale * ||p - y||^2 with univariate scale * (1 - ||p||^2)."""

    def __init__(self, scale: float = 1.0):
        self.scale = _finite_parameter(scale, "scale")
        if self.scale <= 0:
            raise ValueError("scale must be positive")
        self.name = f"squared:{self.scale:g}"
        self.range_bound = (0.0, 2.0 * self.scale)

    def univariate(self, p):
        p = _as_points(p)
        return self.scale * (1.0 - row_sum(p * p))

    def subgradient(self, p):
        return -2.0 * self.scale * _as_points(p)


class SphericalLoss(ProperLoss):
    """-<p, y> / ||p||, the spherical score, with univariate -||p||."""

    name = "spherical"
    range_bound = (-1.0, 0.0)

    def univariate(self, p):
        p = _as_points(p)
        return -np.sqrt(row_sum(p * p))

    def subgradient(self, p):
        p = _as_points(p)
        return -p / np.sqrt(row_sum(p * p))[..., None]

    def outcome_losses(self, p):
        # direct form: loss(p, y) = -p_y / ||p|| is the subgradient itself
        return self.subgradient(p)


class VShapedLoss(ProperLoss):
    """Univariate -1/2 sum_i |p_i - 1/K|; subgradient entries -1/2 sign(p_i - 1/K).

    sign(0) = 0, so a forecast sitting exactly on a kink contributes nothing.
    The bivariate form only depends on which side of 1/K each coordinate
    falls, which makes it a bounded step function: the extreme values
    -(K-1)/K and +(K-1)/K are attained at a vertex and at the opposite face
    centroid respectively.
    """

    name = "vshaped"

    def univariate(self, p):
        p = _as_points(p)
        k = p.shape[-1]
        return -0.5 * row_sum(np.abs(p - 1.0 / k))

    def subgradient(self, p):
        p = _as_points(p)
        k = p.shape[-1]
        return -0.5 * np.sign(p - 1.0 / k)


class TsallisLoss(ProperLoss):
    """Loss induced by the concave power form -scale * sum_i p_i^alpha, alpha > 1.

    The induced bivariate form is
        scale * ((alpha - 1) * sum_i p_i^alpha - alpha * p_y^(alpha - 1)).
    For alpha in (1, 2) it is not Lipschitz near the boundary, but the
    per-coordinate second derivative grows no faster than
    alpha*(alpha-1)*max(1/p, 1/(1-p)), which is what ``check_hessian_growth``
    verifies.  The default scale 1/alpha keeps values inside [-1, 1]
    (|(1-alpha) sum p^alpha + alpha p_y^(alpha-1)| <= alpha on the simplex).
    """

    def __init__(self, alpha: float, scale: float | None = None):
        self.alpha = _finite_parameter(alpha, "alpha")
        if not self.alpha > 1:
            raise ValueError("alpha must exceed 1")
        self.scale = _finite_parameter(scale, "scale") if scale is not None else 1.0 / self.alpha
        if self.scale <= 0:
            raise ValueError("scale must be positive")
        if scale is None:
            self.name = f"tsallis:{self.alpha:g}"
        else:
            self.name = f"tsallis:{self.alpha:g},{self.scale:g}"

    def univariate(self, p):
        p = _as_points(p)
        return -self.scale * row_sum(p ** self.alpha)

    def subgradient(self, p):
        p = _as_points(p)
        # p^(alpha-1) -> 0 as p -> 0 for alpha > 1, so entries stay finite
        return -self.scale * self.alpha * p ** (self.alpha - 1.0)


class MixtureLoss(ProperLoss):
    """weight * loss1 + (1 - weight) * loss2, an exact affine combination.

    Affine combinations of proper losses are proper (the univariate forms and
    subgradients combine affinely), and ``outcome_losses`` is computed as the
    affine combination of the component tables so the identity holds exactly
    in floating point.
    """

    def __init__(self, loss1: ProperLoss, loss2: ProperLoss, weight: float):
        if not 0.0 <= weight <= 1.0:
            raise ValueError("mixture weight must lie in [0, 1]")
        self.loss1 = loss1
        self.loss2 = loss2
        self.weight = float(weight)
        self.name = f"mix({loss1.name},{loss2.name},{self.weight:g})"
        lo1, hi1 = loss1.range_bound
        lo2, hi2 = loss2.range_bound
        w = self.weight
        self.range_bound = (w * lo1 + (1 - w) * lo2, w * hi1 + (1 - w) * hi2)

    def univariate(self, p):
        w = self.weight
        return w * self.loss1.univariate(p) + (1 - w) * self.loss2.univariate(p)

    def subgradient(self, p):
        w = self.weight
        return w * self.loss1.subgradient(p) + (1 - w) * self.loss2.subgradient(p)

    def outcome_losses(self, p):
        w = self.weight
        return w * self.loss1.outcome_losses(p) + (1 - w) * self.loss2.outcome_losses(p)


class CustomLoss(ProperLoss):
    """A candidate loss from user-supplied univariate and subgradient rules.

    Nothing is assumed about the supplied form; run ``check_concavity`` and
    ``check_proper`` to test whether it actually defines a proper loss.
    A rule that returns NaN or an infinity raises ``ValueError``.
    """

    def __init__(self, univariate_fn, subgradient_fn, name: str = "custom",
                 range_bound: tuple[float, float] = (-1.0, 1.0)):
        self._univariate_fn = univariate_fn
        self._subgradient_fn = subgradient_fn
        self.name = name
        self.range_bound = range_bound

    def univariate(self, p):
        return self._finite(self._univariate_fn(_as_points(p)), "univariate")

    def subgradient(self, p):
        return self._finite(self._subgradient_fn(_as_points(p)), "subgradient")

    def _finite(self, values, rule: str) -> np.ndarray:
        values = np.asarray(values, dtype=float)
        if not np.isfinite(values).all():
            raise ValueError(f"loss {self.name!r}: the {rule} rule returned non-finite values")
        return values


@dataclass
class LossValidationReport:
    """Tallies from the numerical loss validators."""

    loss_name: str
    properness_violations: int = 0
    max_violation: float = 0.0


def random_simplex_points(k: int, n: int, rng: np.random.Generator) -> np.ndarray:
    """n points drawn uniformly from the simplex over k outcomes."""
    return rng.dirichlet(np.ones(k), size=n)


def simplex_mesh(k: int, resolution: int) -> np.ndarray:
    """All grid points with coordinates i/resolution summing to 1.

    Exhaustive only for small k; the validators fall back to random sampling
    for k > 3 where the mesh size blows up combinatorially.
    """
    k, resolution = validate_integer(k, "k", 1), validate_integer(resolution, "resolution", 1)
    # stars and bars: k - 1 bars among resolution + k - 1 places, in lexicographic order
    places = resolution + k - 1
    bars = np.array(list(combinations(range(places), k - 1)), dtype=np.int64)
    return (np.diff(bars, axis=1, prepend=-1, append=places) - 1) / resolution


#: Uniform random points in ``validation_points``' grid; ``ucal validate`` caps its draw by it.
VALIDATION_RANDOM_POINTS = 10_000


def validation_points(loss_k: int, rng: np.random.Generator,
                      n_random: int = VALIDATION_RANDOM_POINTS,
                      mesh_resolution: int = 50) -> np.ndarray:
    """Dense evaluation grid: simplex mesh (k <= 3) plus uniform random points."""
    pts = [random_simplex_points(loss_k, n_random, rng)]
    if loss_k <= 3:
        pts.append(simplex_mesh(loss_k, mesh_resolution))
    return np.concatenate(pts, axis=0)


def check_proper(loss: ProperLoss, sample_pairs, tol: float = 1e-9) -> LossValidationReport:
    """Test E_{y~p}[loss(p, y)] <= E_{y~p}[loss(p', y)] on the given pairs.

    ``sample_pairs`` is a pair (P, Q) of equal-shaped (n, K) arrays.
    Violations beyond ``tol`` are counted and the worst gap recorded; they
    are data, not exceptions.
    """
    p_arr, q_arr = (np.asarray(a, dtype=float) for a in sample_pairs)
    if p_arr.shape != q_arr.shape:
        raise ValueError("pair arrays must have identical shapes")
    lhs = row_sum(p_arr * loss.outcome_losses(p_arr))
    rhs = row_sum(p_arr * loss.outcome_losses(q_arr))
    gaps = lhs - rhs
    return LossValidationReport(loss_name=loss.name,
                                properness_violations=int(np.sum(gaps > tol)),
                                max_violation=float(max(gaps.max(initial=0.0), 0.0)))


def check_concavity(loss: ProperLoss, sample_pairs, tol: float = 1e-9) -> int:
    """Count midpoint-concavity violations of the univariate form.

    For each pair (p, p') requires f((p+p')/2) >= (f(p)+f(p'))/2 - tol.
    Sampling is the practical surrogate for symbolic concavity analysis; a
    concave univariate form is what makes the derived bivariate loss proper.
    """
    p_arr, q_arr = (np.asarray(a, dtype=float) for a in sample_pairs)
    mid = 0.5 * (p_arr + q_arr)
    f_mid = loss.univariate(mid)
    f_avg = 0.5 * (loss.univariate(p_arr) + loss.univariate(q_arr))
    return int(np.sum(f_mid < f_avg - tol))


def check_range(loss: ProperLoss, points: np.ndarray, tol: float = 1e-9) -> tuple[float, float, bool]:
    """(min, max, within_declared_bound) of the bivariate form over ``points``."""
    values = loss.outcome_losses(points)
    lo, hi = float(values.min()), float(values.max())
    blo, bhi = loss.range_bound
    ok = lo >= blo - tol and hi <= bhi + tol
    return lo, hi, ok


def check_hessian_growth(loss: TsallisLoss, grid, c: float) -> bool:
    """Test |d^2/dp^2 (-p^alpha)| <= c * max(1/p, 1/(1-p)) on interior grid points.

    The left side is alpha*(alpha-1)*p^(alpha-2) for the unscaled
    per-coordinate form.  Controlled growth of this kind is what gives
    follow-the-leader logarithmic regret even without Lipschitzness.
    Requires alpha in (1, 2]; grid points must lie strictly inside (0, 1).
    """
    if not isinstance(loss, TsallisLoss):
        raise TypeError("hessian growth check applies to TsallisLoss only")
    alpha = loss.alpha
    if not 1.0 < alpha <= 2.0:
        raise ValueError("alpha must lie in (1, 2]")
    g = np.asarray(grid, dtype=float)
    if np.any(g <= 0.0) or np.any(g >= 1.0):
        raise ValueError("boundary point")
    second = alpha * (alpha - 1.0) * g ** (alpha - 2.0)
    bound = c * np.maximum(1.0 / g, 1.0 / (1.0 - g))
    return bool(np.all(second <= bound))


def estimate_lipschitz(loss: ProperLoss, k: int, samples: int,
                       rng: np.random.Generator) -> float:
    """Max of |loss(p,y) - loss(p',y)| / ||p - p'|| over sampled triples.

    A lower estimate of the true Lipschitz constant.  Three sampling regimes
    are mixed so that non-Lipschitz losses are caught: independent uniform
    pairs, shrinking segments between random points, and shrinking segments
    through the barycenter (where kinks of symmetric losses concentrate).
    For a step-discontinuous loss the last regime makes the estimate blow up
    as the pair distance shrinks.
    """
    n_each = max(1, validate_integer(samples, "samples", 1) // 3)
    p1 = random_simplex_points(k, n_each, rng)
    q1 = random_simplex_points(k, n_each, rng)

    # segments p -> q shrunk by log-spaced factors
    theta = np.logspace(-6, 0, n_each)[:, None]
    p2 = random_simplex_points(k, n_each, rng)
    q2 = (1 - theta) * p2 + theta * random_simplex_points(k, n_each, rng)

    # short segments straddling the barycenter
    center = uniform_point(k)
    theta3 = np.logspace(-6, -1, n_each)[:, None]
    a3 = random_simplex_points(k, n_each, rng)
    b3 = random_simplex_points(k, n_each, rng)
    p3 = (1 - theta3) * center + theta3 * a3
    q3 = (1 - theta3) * center + theta3 * b3

    ps = np.concatenate([p1, p2, p3], axis=0)
    qs = np.concatenate([q1, q2, q3], axis=0)
    ys = rng.integers(0, k, size=ps.shape[0])
    num = np.abs(loss.bivariate(ps, ys) - loss.bivariate(qs, ys))
    den = np.linalg.norm(ps - qs, axis=-1)
    mask = den > 0
    if not np.any(mask):
        return 0.0
    return float(np.max(num[mask] / den[mask]))
