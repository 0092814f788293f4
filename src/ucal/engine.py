"""Protocol runner and regret/calibration measurements.

A forecaster carries its game: K and the horizon T are fixed when it is
made, and it keeps no per-game state, so every call below takes the
forecaster itself and reads T from ``forecaster.horizon``.
``run_game`` plays T rounds of forecast-then-outcome and returns a
transcript.  ``play_games`` plays n games of one forecaster, each from zero
counts, and holds the engine's one block path and one round loop.  An
adversary that has ``outcomes`` is oblivious, and its game is played as one
vectorized block; any other is adaptive, and the trials of its game run in
lockstep, one (trials, K) step per round with one ``next_outcomes`` call.
``run_trials`` is the one trial runner: it plays trial i on stream
(base_seed, i), oblivious trials one at a time, adaptive trials in blocks
of at most ``BLOCK_CELLS`` cells, and scores each with ``regret``.
``trial_jobs`` plans how those trials split across workers: it cuts each
horizon's trials between blocks (or, when there are fewer blocks than
workers, into about trials/workers pieces) and orders the pieces longest
first.  ``run_experiment`` runs a whole experiment, one forecaster per
horizon: it maps that plan's jobs through ``run_trials``, in one process
pool when there is more than one worker, and puts each job's regrets back
at its trial rows, so the result does not depend on the worker count.

Regret for a proper loss compares the forecaster's cumulative bivariate
loss against the mean-of-outcomes benchmark, which is the empirical risk
minimizer for every proper loss simultaneously, so no numerical
minimization is needed (a brute-force grid minimizer survives in the tests
as an independent oracle).

On top of single transcripts the module estimates two aggregate errors over
a finite loss family by Monte Carlo:

    pucal = max over losses of (mean over trials of regret)
    ucal  = mean over trials of (max over losses of regret)

pucal <= ucal always holds up to sampling noise.  ``summarize`` turns a
regret matrix into both, each with its own standard error.
``sup_regret_mixture`` evaluates the sup over the two-loss mixture family on
a grid of mixture weights (regret is affine in the weight, so the exact sup
sits at an endpoint), ``check_high_prob_bound`` measures tail exceedance
frequencies of the sqrt(KT)-scale bound, and ``exact_binomial_mad``
computes the exact mean absolute deviation of a binomial count, the
quantity behind the matching regret lower bound for the step-shaped loss.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from functools import cached_property
from itertools import repeat

import numpy as np

from .adversaries import Adversary
from .core import RngStream, mean_of_counts, validate_integer
from .forecasters import Forecaster
from .losses import ProperLoss


@dataclass
class Transcript:
    """Per-round record of one game: forecasts and outcomes."""

    forecasts: np.ndarray  # (T, K)
    outcomes: np.ndarray   # (T,) int

    @cached_property
    def final_counts(self) -> np.ndarray:
        """How often each of the K outcomes occurred, as int64 (K,)."""
        return np.bincount(self.outcomes, minlength=self.forecasts.shape[1]).astype(np.int64)


@dataclass
class RegretRecord:
    algorithm_cost: float
    benchmark_cost: float
    regret: float


@dataclass
class CalibrationEstimate:
    pucal: float
    ucal: float
    per_loss_mean: dict
    trials: int
    std_error: float  # standard error of the per-trial sup values, the error bar of ucal
    pucal_se: float   # standard error of the per-trial regrets of the loss attaining pucal


#: Largest game, in horizon * K cells, that the engine plays.  A game holds
#: its (T, K) noise block, prefix counts and forecasts at once, and scoring
#: adds a few (T, K) temporaries: about 40 bytes a cell at peak, so the cap
#: of 2^24 cells bounds one game near 0.7 GiB.  A larger game is refused
#: before anything is drawn.
MAX_GAME_CELLS = 1 << 24

#: Cell budget n * T * K of one lockstep block of adaptive trials; a block
#: holds ``max(1, BLOCK_CELLS // (T * K))`` trials (8 MiB of forecasts).
BLOCK_CELLS = 1 << 20


def check_game_size(k: int, horizon: int) -> None:
    """Refuse a game of ``horizon`` rounds over ``k`` outcomes above ``MAX_GAME_CELLS`` cells."""
    if validate_integer(horizon, "horizon") < 1:
        raise ValueError("horizon must be >= 1")
    if horizon * k > MAX_GAME_CELLS:
        raise ValueError(f"a game of T={horizon} rounds over K={k} outcomes has {horizon * k} "
                         f"cells, above the cap of {MAX_GAME_CELLS} (2^24) cells per game")


def _oblivious(adversary: Adversary) -> bool:
    """Whether the adversary is oblivious: it draws a game's outcomes in one ``outcomes`` call."""
    return hasattr(adversary, "outcomes")


def lockstep_block(adversary: Adversary, horizon: int) -> int:
    """Trials per lockstep block at ``horizon``: 1 for an oblivious adversary."""
    if _oblivious(adversary):
        return 1
    return max(1, BLOCK_CELLS // (horizon * adversary.k))


def trial_jobs(adversary: Adversary, horizons, trials: int, workers: int) -> list:
    """(horizon, trial range) jobs covering every horizon's trials once, longest first.

    Each horizon's ``trials`` form ceil(trials / ``lockstep_block``) blocks
    of near-equal size, and the horizon is cut into at most ``workers``
    contiguous pieces only between those blocks: at small widths a lockstep
    round costs about the same at any width, so splitting a block would
    double its rounds.  When all horizons together have fewer blocks than
    workers, each horizon is instead cut into min(workers, trials) pieces of
    about trials/workers trials, so every worker gets a share: at large
    widths a round's cost grows with the width.  For an oblivious adversary
    (blocks of one trial) both rules give the same pieces.  Jobs come in
    non-increasing order of cost, T times the number of blocks the job
    plays, so a pool that takes them in order starts the longest first.
    """
    if trials < 1 or workers < 1:
        raise ValueError("trials and workers must be >= 1")
    block = {horizon: lockstep_block(adversary, horizon) for horizon in horizons}
    blocks = {horizon: -(-trials // block[horizon]) for horizon in horizons}
    split = sum(blocks.values()) < workers
    costed = []
    for horizon in horizons:
        units = trials if split else blocks[horizon]  # the pieces are cut between units
        pieces = min(workers, units)
        cuts = [trials * (units * i // pieces) // units for i in range(pieces + 1)]
        costed += [(horizon * -(-(b - a) // block[horizon]), horizon, range(a, b))
                   for a, b in zip(cuts, cuts[1:])]
    costed.sort(key=lambda job: -job[0])  # stable: ties keep horizon and trial order
    return [(horizon, piece) for _, horizon, piece in costed]


def _bad_outcomes(horizon, k):
    return ValueError(f"adversary outcomes must be {horizon} indices in [0, {k})")


def play_games(forecaster: Forecaster, adversary: Adversary, rngs) -> list[Transcript]:
    """Play ``len(rngs)`` games of ``forecaster.horizon`` rounds against ``adversary``.

    Each game starts from zero counts and reads its own ``rng`` in one
    fixed layout: first the forecaster's whole (horizon, K) noise block,
    then the adversary's outcomes.  Against an oblivious adversary (one that
    has ``outcomes``) each game's outcomes are drawn at once, and every
    forecast comes from one ``rule`` call on the integer prefix counts (the
    block path).  Against any other adversary the n games run in lockstep
    (the round loop): round t applies the rule once to the stacked counts
    (n, K) and noise rows (n, K), then asks ``next_outcomes`` for all n
    replies, which see forecasts 1..t-1 only.  Each game's transcript is the one it would get
    played alone.
    """
    k, horizon, n = forecaster.k, forecaster.horizon, len(rngs)
    if k != adversary.k:
        raise ValueError(f"dimension mismatch: forecaster k={k}, adversary k={adversary.k}")
    check_game_size(k, horizon)
    noise = np.stack([forecaster.noise(horizon, rng) for rng in rngs], axis=1)  # (T, n, K)
    if _oblivious(adversary):
        outcomes = np.stack([np.asarray(adversary.outcomes(horizon, rng), dtype=np.int64)
                             for rng in rngs], axis=1)
        if outcomes.shape != (horizon, n) or outcomes.min() < 0 or outcomes.max() >= k:
            raise _bad_outcomes(horizon, k)
        # counts before round t: the outcome of round t first shows in row t + 1
        prefix = np.zeros((horizon, n, k), dtype=np.int64)
        prefix[np.arange(1, horizon)[:, None], np.arange(n), outcomes[:-1]] = 1
        np.cumsum(prefix, axis=0, out=prefix)
        forecasts = forecaster.rule(prefix.reshape(-1, k),
                                    noise.reshape(-1, k)).reshape(horizon, n, k)
    else:
        forecasts = np.empty((horizon, n, k))
        outcomes = np.empty((horizon, n), dtype=np.int64)
        counts = np.zeros((n, k), dtype=np.int64)
        eye = np.eye(k, dtype=np.int64)  # row y adds one outcome y to a count vector
        for t in range(horizon):
            forecasts[t] = forecaster.rule(counts, noise[t])
            outcomes[t] = adversary.next_outcomes(t + 1, forecasts[:t], rngs)
            try:
                counts += eye[outcomes[t]]
            except IndexError as exc:
                raise _bad_outcomes(horizon, k) from exc
        if outcomes.min() < 0:  # a negative index wraps instead of raising
            raise _bad_outcomes(horizon, k)
    return [Transcript(np.ascontiguousarray(forecasts[:, i]), outcomes[:, i].copy())
            for i in range(n)]


def run_game(forecaster: Forecaster, adversary: Adversary,
             rng: np.random.Generator) -> Transcript:
    """Play ``forecaster.horizon`` rounds; each forecast is committed before its outcome.

    One game through ``play_games``: an oblivious adversary's game is played
    as one block, any other round by round (the lockstep loop with n = 1),
    and both give the same transcript from one ``rng``.
    """
    return play_games(forecaster, adversary, [rng])[0]


def benchmark_cost(transcript: Transcript, loss: ProperLoss, point=None) -> float:
    """Cumulative loss of a fixed forecast (default: the mean of outcomes)."""
    beta = mean_of_counts(transcript.final_counts) if point is None else np.asarray(point, float)
    return float(np.dot(transcript.final_counts, loss.outcome_losses(beta)))


def regret(transcript: Transcript, loss: ProperLoss) -> RegretRecord:
    """Cumulative loss of the played forecasts minus the benchmark cost."""
    alg = float(np.sum(loss.bivariate(transcript.forecasts, transcript.outcomes)))
    bench = benchmark_cost(transcript, loss)
    return RegretRecord(algorithm_cost=alg, benchmark_cost=bench, regret=alg - bench)


def run_trials(forecaster: Forecaster, adversary: Adversary, losses, trials,
               base_seed: int) -> np.ndarray:
    """Regret matrix of shape (len(trials), len(losses)); trial i uses stream (base_seed, i).

    ``trials`` is a count or a ``range`` of trial indices, so a worker can
    run one contiguous block of a larger experiment.  ``forecaster`` plays
    every trial at its horizon.  Oblivious trials are played, scored and
    released one at a time; adaptive trials run in lockstep blocks of at most
    ``BLOCK_CELLS`` cells.  Either way row j is the regret the trial would
    get played alone.
    """
    trials = trials if isinstance(trials, range) else range(trials)
    losses = list(losses)
    if len(trials) < 1:
        raise ValueError("trials must be >= 1")
    if not losses:
        raise ValueError("need at least one loss")
    horizon = forecaster.horizon
    check_game_size(forecaster.k, horizon)
    block = lockstep_block(adversary, horizon)
    out = np.empty((len(trials), len(losses)))
    for start in range(0, len(trials), block):
        rngs = [RngStream(base_seed, trial).generator() for trial in trials[start:start + block]]
        games = play_games(forecaster, adversary, rngs)
        for row, transcript in enumerate(games, start):
            out[row] = [regret(transcript, loss).regret for loss in losses]
    return out


def run_experiment(forecasters, adversary: Adversary, losses, trials: int, base_seed: int,
                   workers: int = 1) -> list[np.ndarray]:
    """One regret matrix of shape (trials, len(losses)) per forecaster, each at its horizon.

    The forecasters' horizons must differ.  ``workers`` is capped at the CPU
    count, and the ``trial_jobs`` plan for that many workers goes through one
    pool of min(workers, CPU count, jobs) processes, longest job first; there
    is no pool when that is 1.  Trial i of every horizon plays on stream
    (base_seed, i), and each job's regrets land at its trial rows, so the
    matrices are the per-horizon ``run_trials`` matrices at any worker count.
    """
    forecasters, losses = list(forecasters), list(losses)
    horizons = [forecaster.horizon for forecaster in forecasters]
    if len(set(horizons)) < len(horizons):
        raise ValueError(f"forecaster horizons {horizons} repeat")
    workers = min(workers, os.cpu_count() or 1)
    plan = trial_jobs(adversary, horizons, trials, workers)
    by_horizon = dict(zip(horizons, forecasters))
    jobs = ([by_horizon[horizon] for horizon, _ in plan], repeat(adversary), repeat(losses),
            [piece for _, piece in plan], repeat(base_seed))
    workers = min(workers, len(plan))
    if workers == 1:
        parts = map(run_trials, *jobs)
    else:
        from concurrent.futures import ProcessPoolExecutor  # a one-worker run never imports it

        with ProcessPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(run_trials, *jobs))
    matrices = {horizon: np.empty((trials, len(losses))) for horizon in horizons}
    for (horizon, piece), part in zip(plan, parts):
        matrices[horizon][piece.start:piece.stop] = part
    return list(matrices.values())


def summarize(regrets: np.ndarray, losses) -> CalibrationEstimate:
    """pucal, ucal and their standard errors from a (trials, losses) regret matrix."""
    regrets = np.asarray(regrets, dtype=float)
    trials = regrets.shape[0]
    if trials < 1:
        raise ValueError("need at least one trial")
    if regrets.shape[1] < 1:
        raise ValueError("need at least one loss")
    per_loss = regrets.mean(axis=0)
    sup_per_trial = regrets.max(axis=1)
    worst = int(np.argmax(per_loss))

    def std_error(values):
        return float(values.std(ddof=1) / np.sqrt(trials)) if trials > 1 else 0.0

    return CalibrationEstimate(
        pucal=float(per_loss[worst]),
        ucal=float(sup_per_trial.mean()),
        per_loss_mean={loss.name: float(m) for loss, m in zip(losses, per_loss)},
        trials=trials,
        std_error=std_error(sup_per_trial),
        pucal_se=std_error(regrets[:, worst]),
    )


def estimate_calibration(forecaster: Forecaster, adversary: Adversary, losses,
                         trials: int, base_seed: int) -> CalibrationEstimate:
    """Monte Carlo pucal/ucal over a finite loss family at ``forecaster.horizon``.

    Each trial gets its own RNG stream, so results do not depend on
    execution order.
    """
    losses = list(losses)
    regrets = run_trials(forecaster, adversary, losses, trials, base_seed)
    return summarize(regrets, losses)


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
    regrets = np.asarray(regrets, dtype=float)
    if regrets.size < 1:
        raise ValueError("need at least one trial")
    threshold = 4.0 * np.sqrt(k * horizon) + np.sqrt(2.0 * horizon * np.log(1.0 / delta))
    return float(np.mean(regrets > threshold))


def exact_binomial_mad(trials: int, p: float) -> float:
    """Exact E|X - n p| for X ~ Binomial(n, p), by de Moivre's closed form.

    E|X - n p| = 2 m C(n, m) p^m (1 - p)^(n - m + 1) with m = floor(n p) + 1
    (Diaconis & Zabell 1991); m <= n because p < 1.  Up to n = 10^4 the
    form is evaluated in exact integer arithmetic on the float ``p`` as a
    ratio a/d and rounded once; beyond, through ``lgamma`` (relative error
    about 1e-9 at n = 10^6).
    """
    n = validate_integer(trials, "trials")
    if n < 1:
        raise ValueError("trials must be >= 1")
    if not 0.0 < p < 1.0:
        raise ValueError("p must lie in (0, 1)")
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
