"""Protocol runner and regret/calibration measurements.

``run_game`` plays T rounds of forecast-then-outcome and returns a
transcript; against an oblivious adversary it plays them as one vectorized
block.  Regret for a proper loss compares the forecaster's cumulative
bivariate loss against the mean-of-outcomes benchmark, which is the
empirical risk minimizer for every proper loss simultaneously, so no
numerical minimization is needed (a brute-force grid minimizer survives in
the tests as an independent oracle).

On top of single transcripts the module estimates two aggregate errors over
a finite loss family by Monte Carlo:

    pucal = max over losses of (mean over trials of regret)
    ucal  = mean over trials of (max over losses of regret)

pucal <= ucal always holds up to sampling noise.  ``sup_regret_mixture``
evaluates the sup over the two-loss mixture family on a grid of mixture
weights (regret is affine in the weight, so the exact sup sits at an
endpoint), ``check_high_prob_bound`` measures tail exceedance frequencies of
the sqrt(KT)-scale bound, and ``exact_binomial_mad`` computes the exact mean
absolute deviation of a binomial count, the quantity behind the matching
regret lower bound for the step-shaped loss.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass

import numpy as np

from .adversaries import Adversary
from .core import RngStream, mean_of_counts
from .forecasters import Forecaster
from .losses import ProperLoss

CSV_HEADER = "experiment,forecaster,adversary,loss,K,T,trial,seed,regret"


@dataclass
class Transcript:
    """Per-round record of one game: forecasts, outcomes, final counts."""

    k: int
    horizon: int
    forecasts: np.ndarray  # (T, K)
    outcomes: np.ndarray   # (T,) int
    final_counts: np.ndarray  # (K,) int


@dataclass
class RegretRecord:
    loss_id: str
    algorithm_cost: float
    benchmark_cost: float
    regret: float


@dataclass
class CalibrationEstimate:
    pucal: float
    ucal: float
    per_loss_mean: dict
    trials: int
    std_error: float  # standard error of the per-trial sup values


def _plays_in_one_block(adversary: Adversary) -> bool:
    """Whether the adversary's ``outcomes`` is at least as specific as its ``next_outcome``.

    A subclass that overrides only ``next_outcome`` (to react to the
    forecasts, or just to watch them) is played round by round.
    """
    mro = type(adversary).__mro__

    def owner(name):
        return next((i for i, cls in enumerate(mro) if name in vars(cls)), len(mro))

    return owner("outcomes") <= owner("next_outcome")


def run_game(forecaster: Forecaster, adversary: Adversary, horizon: int,
             rng: np.random.Generator) -> Transcript:
    """Play ``horizon`` rounds; each forecast is committed before its outcome.

    The game reads ``rng`` in one fixed layout: first the forecaster's whole
    (horizon, K) noise block, then the adversary's outcomes.  An oblivious
    adversary draws all outcomes at once, and every forecast comes from one
    ``forecaster.rule`` call on the integer prefix counts.  Any other
    adversary is played round by round: round t applies the same rule to
    row t of the noise block and the counts so far, then asks the adversary,
    which sees forecasts 1..t-1 only.  Both ways give the same transcript.
    """
    if forecaster.k != adversary.k:
        raise ValueError(f"dimension mismatch: forecaster k={forecaster.k}, adversary k={adversary.k}")
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    if forecaster.horizon - forecaster.t + 1 < horizon:
        raise ValueError("forecaster horizon shorter than the game")
    k = forecaster.k
    noise = forecaster.noise(horizon, rng)
    if _plays_in_one_block(adversary):
        outcomes = np.asarray(adversary.outcomes(horizon, rng), dtype=np.int64)
        if outcomes.shape != (horizon,) or outcomes.min() < 0 or outcomes.max() >= k:
            raise ValueError(f"adversary outcomes must be {horizon} indices in [0, {k})")
        # counts before round t: the outcome of round t first shows in row t + 1
        prefix = np.zeros((horizon, k), dtype=np.int64)
        prefix[np.arange(1, horizon), outcomes[:-1]] = 1
        np.cumsum(prefix, axis=0, out=prefix)
        prefix += forecaster.counts
        forecasts = forecaster.rule(prefix, noise)
        forecaster.counts[:] = prefix[-1]
        forecaster.counts[outcomes[-1]] += 1
        forecaster.t += horizon
    else:
        forecasts = np.empty((horizon, k))
        outcomes = np.empty(horizon, dtype=np.int64)
        for t in range(horizon):
            forecasts[t] = forecaster.rule(forecaster.counts[None, :], noise[t:t + 1])[0]
            y = adversary.next_outcome(t + 1, forecasts[:t], rng)
            forecaster.observe(y)
            outcomes[t] = y
    final_counts = np.bincount(outcomes, minlength=k).astype(np.int64)
    return Transcript(k=k, horizon=horizon, forecasts=forecasts,
                      outcomes=outcomes, final_counts=final_counts)


def benchmark_cost(transcript: Transcript, loss: ProperLoss, point=None) -> float:
    """Cumulative loss of a fixed forecast (default: the mean of outcomes)."""
    beta = mean_of_counts(transcript.final_counts) if point is None else np.asarray(point, float)
    per_outcome = loss.bivariate(beta, np.arange(transcript.k))
    return float(np.dot(transcript.final_counts, per_outcome))


def regret(transcript: Transcript, loss: ProperLoss) -> RegretRecord:
    """Cumulative loss of the played forecasts minus the benchmark cost."""
    alg = float(np.sum(loss.bivariate(transcript.forecasts, transcript.outcomes)))
    bench = benchmark_cost(transcript, loss)
    return RegretRecord(loss_id=loss.name, algorithm_cost=alg,
                        benchmark_cost=bench, regret=alg - bench)


def run_trials(forecaster_factory, adversary: Adversary, losses, horizon: int,
               trials: int, base_seed: int) -> np.ndarray:
    """Regret matrix of shape (trials, len(losses)); trial i uses stream (base_seed, i)."""
    losses = list(losses)
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if not losses:
        raise ValueError("need at least one loss")
    out = np.empty((trials, len(losses)))
    for trial in range(trials):
        rng = RngStream(base_seed, trial).generator()
        tr = run_game(forecaster_factory(), adversary, horizon, rng)
        out[trial] = [regret(tr, loss).regret for loss in losses]
    return out


def estimate_calibration(forecaster_factory, adversary: Adversary, losses,
                         horizon: int, trials: int, base_seed: int) -> CalibrationEstimate:
    """Monte Carlo pucal/ucal over a finite loss family.

    ``forecaster_factory`` is a zero-argument callable returning a fresh
    forecaster; each trial gets its own RNG stream so results do not depend
    on execution order.
    """
    losses = list(losses)
    regrets = run_trials(forecaster_factory, adversary, losses, horizon, trials, base_seed)
    per_loss = regrets.mean(axis=0)
    sup_per_trial = regrets.max(axis=1)
    std_error = 0.0
    if trials > 1:
        std_error = float(sup_per_trial.std(ddof=1) / np.sqrt(trials))
    return CalibrationEstimate(
        pucal=float(per_loss.max()),
        ucal=float(sup_per_trial.mean()),
        per_loss_mean={loss.name: float(m) for loss, m in zip(losses, per_loss)},
        trials=trials,
        std_error=std_error,
    )


def mixture_weight_grid(eps: float) -> np.ndarray:
    """The weights {0, eps, 2*eps, ..., 1}; both endpoints are always included."""
    if not 0.0 < eps <= 1.0:
        raise ValueError("eps must lie in (0, 1]")
    steps = int(np.floor(1.0 / eps + 1e-12))
    grid = np.arange(steps + 1) * eps
    grid = grid[grid < 1.0]
    return np.append(grid, 1.0)


def sup_regret_mixture(transcript: Transcript, loss1: ProperLoss, loss2: ProperLoss,
                       eps: float) -> tuple[float, float]:
    """Sup of regret over mixtures w*loss1 + (1-w)*loss2.

    Returns (sup over the weight grid of spacing eps, exact sup).  Regret is
    affine in the mixture weight, so the exact sup is the larger endpoint
    regret, and a grid containing 0 and 1 attains it.
    """
    r1 = regret(transcript, loss1).regret
    r2 = regret(transcript, loss2).regret
    grid = mixture_weight_grid(eps)
    grid_values = grid * r1 + (1.0 - grid) * r2
    return float(grid_values.max()), float(max(r1, r2))


def check_high_prob_bound(regrets, k: int, horizon: int, delta: float) -> float:
    """Fraction of trial regrets exceeding 4*sqrt(KT) + sqrt(2T log(1/delta))."""
    if not 0.0 < delta <= 1.0:
        raise ValueError("delta must lie in (0, 1]")
    threshold = 4.0 * np.sqrt(k * horizon) + np.sqrt(2.0 * horizon * np.log(1.0 / delta))
    regrets = np.asarray(regrets, dtype=float)
    return float(np.mean(regrets > threshold))


def exact_binomial_mad(trials: int, p: float) -> float:
    """Exact E|X - n p| for X ~ Binomial(n, p), by de Moivre's closed form.

    E|X - n p| = 2 m C(n, m) p^m (1 - p)^(n - m + 1) with m = floor(n p) + 1
    (Diaconis & Zabell 1991); m <= n because p < 1.  Up to n = 10^4 the
    form is evaluated in exact integer arithmetic on the float ``p`` as a
    ratio a/d and rounded once; beyond, through ``lgamma`` (relative error
    about 1e-9 at n = 10^6).
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if not 0.0 < p < 1.0:
        raise ValueError("p must lie in (0, 1)")
    n = trials
    a, d = float(p).as_integer_ratio()
    m = n * a // d + 1
    if n <= 10_000:
        return 2 * m * math.comb(n, m) * a ** m * (d - a) ** (n - m + 1) / d ** (n + 1)
    log_mad = (math.log(2 * m) + math.lgamma(n + 1) - math.lgamma(m + 1)
               - math.lgamma(n - m + 1) + m * math.log(p) + (n - m + 1) * math.log1p(-p))
    return math.exp(log_mad)


def format_float(x: float) -> str:
    """Render a float at 12 significant digits for CSV output."""
    return f"{x:.12g}"


def write_csv(rows, fileobj=None) -> str:
    """Write experiment rows (dicts keyed like CSV_HEADER) as CSV text.

    Rows are sorted by (T, trial, loss) so concurrent trial execution cannot
    change the bytes.  Returns the CSV body; also writes to ``fileobj`` when
    given.
    """
    header_fields = CSV_HEADER.split(",")
    ordered = sorted(rows, key=lambda r: (r["T"], r["trial"], r["loss"]))
    buf = io.StringIO()
    buf.write(CSV_HEADER + "\n")
    for row in ordered:
        rendered = []
        for field in header_fields:
            value = row[field]
            rendered.append(format_float(value) if isinstance(value, float) else str(value))
        buf.write(",".join(rendered) + "\n")
    text = buf.getvalue()
    if fileobj is not None:
        fileobj.write(text)
    return text
