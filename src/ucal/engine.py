"""Protocol runner and regret/calibration measurements.

A forecaster carries its game: K and the horizon T are fixed when it is
made, and it keeps no per-game state, so every call below takes the
forecaster itself and reads T from ``forecaster.horizon``.
One kernel, ``_play``, plays every game: a block of games at one or more
horizons, longest first, kept game-major as forecasts (n, T, K) and
outcomes (n, T), each game's noise drawn as float64 into the rows its
forecasts later overwrite (exact for integer noise below 2^53).  Against
an adversary that has ``outcomes`` (oblivious) a horizon's forecasts come
from one ``rule`` call on its prefix counts.  Against any other (adaptive)
the games run in lockstep, one ``next_outcomes`` call a round, as a
staircase: a game drops out when its horizon ends, so a block of horizons
H runs max(H) rounds, and adjacent running horizons that keep the leader
rule, ``Forecaster.rule``, step in one call a round.  Every block's
forecasts must lie on the simplex, whatever rule made them.  ``play_games``
and ``run_game`` play one horizon's games and return transcripts that are
views of their block.
``trial_jobs`` plans an experiment as jobs, each one block: a trial range at
a group of horizons, an oblivious one within ``SCORE_CELLS`` and an adaptive
one within ``BLOCK_CELLS`` cells, or one trial if that is more.
``run_experiment``, one forecaster per horizon, maps them through one trial
runner, ``_run_block``, in one process pool when there is more than one
worker and job.  The runner plays its job in one ``_play`` call, scores
each horizon's games straight from the block and puts the regrets back at
their trial rows, so the result does not depend on the worker count: trial
i plays on stream (base_seed, i) at every horizon.  ``run_trials`` is the
one-forecaster case.

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
import mmap
import os
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate, repeat

import numpy as np

from .adversaries import Adversary
from .core import (SIMPLEX_TOL, RngStream, mean_of_counts, row_sum, validate_integer,
                   validate_simplex)
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

#: Cell budget of one lockstep block: n trials at horizons H over K outcomes
#: play n * sum(H) * K cells, and a block plays at most 2^20 of them (8 MiB
#: of forecasts), unless one trial at its one horizon is already more.
BLOCK_CELLS = 1 << 20

#: Cell budget of one scoring chunk: whole games, at least one, of at most
#: 2^14 forecast cells (128 KiB), and of one oblivious block: whole trials at
#: a group of horizons, padded to the longest, at least one.  Each loss
#: builds a few float temporaries of the chunk's size, so a larger chunk
#: shows in peak RSS: on the 8-trial K = 3 sweep over T = 64..4096 it read
#: about 0.5 MB more at 2^15 and 2 MB more at 2^16, with no CPU to show for it.
SCORE_CELLS = 1 << 14


def check_game_size(k: int, horizon: int) -> None:
    """Refuse a game of ``horizon`` rounds over ``k`` outcomes above ``MAX_GAME_CELLS`` cells."""
    if validate_integer(horizon, "horizon", 1) * k > MAX_GAME_CELLS:
        raise ValueError(f"a game of T={horizon} rounds over K={k} outcomes has {horizon * k} "
                         f"cells, above the cap of {MAX_GAME_CELLS} (2^24) cells per game")


def _check_game(forecaster: Forecaster, adversary: Adversary) -> None:
    """Refuse a forecaster and adversary of different K, or a game above the size cap."""
    if forecaster.k != adversary.k:
        raise ValueError(f"dimension mismatch: forecaster k={forecaster.k}, "
                         f"adversary k={adversary.k}")
    check_game_size(forecaster.k, forecaster.horizon)


def _oblivious(adversary: Adversary) -> bool:
    """Whether the adversary is oblivious: it draws a game's outcomes in one ``outcomes`` call."""
    return hasattr(adversary, "outcomes")


def _cut(trials: range, pieces: int) -> list:
    """``trials`` cut into ``pieces`` contiguous ranges of near-equal size."""
    n = len(trials)
    return [trials[n * i // pieces:n * (i + 1) // pieces] for i in range(pieces)]


def trial_jobs(adversary: Adversary, horizons, trials: int, workers: int) -> list:
    """(horizons, trial range) jobs that play every trial at every horizon once.

    A job is one block, which ``_run_block`` plays in one ``_play`` call:
    a trial range at a group of horizons.  Horizons are grouped longest
    first, and a horizon joins the group before it only while the grown
    group fits a budget.  An oblivious block is filled whole, each game
    padded to the longest, so one trial at horizons H holds
    len(H) * max(H) * K cells, and one trial at the group fits
    ``SCORE_CELLS``.  An adaptive block is a lockstep staircase whose
    unplayed corner never becomes resident, so one trial plays sum(H) * K
    cells, and all trials at the group fit ``BLOCK_CELLS``: a horizon whose
    trials need more blocks is a group of its own, since merging it would
    cut the shorter horizons into as many blocks, each repeating their rule
    calls.  Either way a group's trials are cut into the fewest near-equal
    blocks of at most budget // (one trial's cells) trials, at least one.
    The pool takes oblivious blocks as they come.  An adaptive block goes
    to a worker whole unless it holds at least as many games as it runs
    rounds, since each part repeats the round loop; only then is it cut
    into min(workers, n) near-equal ranges.  Jobs come longest round loop
    first, then largest first, so a pool starts the longest first.
    """
    if trials < 1 or workers < 1:
        raise ValueError("trials and workers must be >= 1")
    oblivious = _oblivious(adversary)
    share, budget = (1, SCORE_CELLS) if oblivious else (trials, BLOCK_CELLS)  # trials it holds
    size = (lambda group: len(group) * group[0]) if oblivious else sum  # rows of one trial
    groups = []
    for horizon in sorted(horizons, reverse=True):
        if groups and share * size(groups[-1] + [horizon]) * adversary.k <= budget:
            groups[-1].append(horizon)
        else:
            groups.append([horizon])
    jobs = []
    for group in groups:
        per_block = max(1, budget // (size(group) * adversary.k))
        for block in _cut(range(trials), -(-trials // per_block)):
            wide = not oblivious and len(block) * len(group) >= group[0]  # games >= rounds
            jobs += [(tuple(group), piece)
                     for piece in _cut(block, min(workers, len(block)) if wide else 1)]
    jobs.sort(key=lambda job: (-job[0][0], -len(job[1])))  # stable: ties keep trial order
    return jobs


def _bad_outcomes(horizon, k):
    return ValueError(f"adversary outcomes must be {horizon} indices in [0, {k})")


def _indices(reply, shape, horizon, k) -> np.ndarray:
    """An adversary's ``reply`` as an integer array of ``shape``; anything else is refused."""
    reply = np.asarray(reply)
    # 1.7 would be truncated to outcome 1, and a scalar broadcast to every game
    if reply.dtype.kind not in "iu" or reply.shape != shape:
        raise _bad_outcomes(horizon, k)
    return reply


def _noise(forecaster: Forecaster, rng) -> np.ndarray:
    """``forecaster``'s noise block of one game on ``rng``: (T, K) of bool, integers or floats.

    The leader, ``Forecaster.rule``, plays simplex points only on finite
    noise >= 0, so a forecaster that keeps it may draw no other noise.
    """
    draw = np.asarray(forecaster.noise(forecaster.horizon, rng))
    if draw.shape != (forecaster.horizon, forecaster.k):
        raise ValueError(f"forecaster noise must have shape (T, K) = ({forecaster.horizon}, "
                         f"{forecaster.k}), got {draw.shape}")
    if draw.dtype.kind not in "biuf":
        raise ValueError(f"forecaster noise must be bool, integer or float, got {draw.dtype}")
    if forecaster.rule is Forecaster.rule and not 0 <= draw.min() <= draw.max() < math.inf:
        raise ValueError(f"the leader's noise must be finite and >= 0, got "
                         f"{type(forecaster).__name__} noise in [{draw.min()}, {draw.max()}]")
    return draw


def _play(forecasters, adversary: Adversary, rngs) -> list:
    """The one game kernel: play the games of ``rngs[g]`` at ``forecasters[g].horizon``.

    The forecasters come longest horizon first, and their games make one
    block, kept game-major: n games of max T rounds, float64 forecasts, then
    int64 outcomes.  Each game draws its noise into the float64 rows its
    forecasts later overwrite, then, against an oblivious adversary, its
    outcomes into its int64 rows.  An oblivious block then fills each
    horizon's rows with one ``rule`` call on their prefix counts.  An
    adaptive block runs the round loop, a staircase: round t steps the
    running games, each reading row t as its noise just before its forecast
    lands there, then asks ``next_outcomes`` once for all of them, which see
    their forecasts of rounds 1..t-1 as a strided (t-1, n_running, K) view.
    A horizon's games drop out when it ends, always the last rows, so each
    run of adjacent horizons that keep the leader rule, whatever their noise
    dtype, steps in one ``Forecaster.rule`` call a round; a horizon whose
    class overrides ``rule`` steps in a call of its own.  An adaptive block
    lives in an anonymous ``mmap``, so a staircase's unplayed corner never
    becomes resident; an oblivious one is filled whole, on the heap.  A
    horizon whose forecasts are not all finite, >= 0 and in rows summing to
    1 within ``SIMPLEX_TOL`` is refused, whatever rule made them.
    Returns one (forecasts (n, T, K), outcomes (n, T)) pair of views per
    forecaster, each game's rows contiguous and games strided by max T.
    """
    k, horizons, oblivious = adversary.k, [f.horizon for f in forecasters], _oblivious(adversary)
    stops = list(accumulate(map(len, rngs)))
    n, rounds = stops[-1], horizons[0]
    cells, size = n * rounds * k, n * rounds * (k + 1)
    # counts before each round (when oblivious, a whole prefix table) lie below the block on the
    # heap, so the scorer reuses their hole; above it, they would be trimmed and faulted back
    counts = np.zeros((n, rounds, k) if oblivious else (n, k), dtype=np.int64)
    memory = np.empty(size) if oblivious else np.frombuffer(mmap.mmap(-1, size * 8))
    games = memory[:cells].reshape(n, rounds, k)
    moves = memory[cells:].view(np.int64).reshape(n, rounds)
    spans = []  # (rule, first game, stop): adjacent leader horizons pooled
    for forecaster, horizon, group, a, b in zip(forecasters, horizons, rngs, [0] + stops, stops):
        for game, rng in enumerate(group, a):
            games[game, :horizon] = _noise(forecaster, rng)
            if oblivious:  # then its outcomes, from the same stream
                moves[game, :horizon] = _indices(adversary.outcomes(horizon, rng), (horizon,),
                                                 horizon, k)
        if forecaster.rule is Forecaster.rule and spans and spans[-1][0] is Forecaster.rule:
            a = spans.pop()[1]  # the leader reads only its arguments: one call
        spans.append((forecaster.rule, a, b))
    forecasts, outcomes = games.transpose(1, 0, 2), moves.T  # the loop's (max T, n, ...) views
    every_rng = [rng for group in rngs for rng in group]
    eye = np.eye(k, dtype=np.int64)  # row y adds one outcome y to a count vector
    begin = 0
    # the rounds the first `running` horizons play; an oblivious block plays none
    for running in range(0 if oblivious else len(forecasters), 0, -1):
        width, end = stops[running - 1], horizons[running - 1]
        steps = [(rule, counts[a:min(b, width)], forecasts[:, a:min(b, width)])
                 for rule, a, b in spans if a < width]  # each span's running games
        past, played, live, shown = (forecasts[:, :width], outcomes[:, :width], counts[:width],
                                     every_rng[:width])
        for t in range(begin, end):
            for rule, own_counts, own_rows in steps:
                own_rows[t] = rule(own_counts, own_rows[t])  # row t's noise, then its forecast
            # a misshapen reply is refused as the first game's, which got it too
            played[t] = _indices(adversary.next_outcomes(t + 1, past[:t], shown), (width,),
                                 horizons[0], k)
            try:
                live += eye[played[t]]
            except IndexError as exc:
                bad = int(np.argmax((played[t] < 0) | (played[t] >= k)))  # first game out of range
                raise _bad_outcomes(horizons[bisect_right(stops, bad)], k) from exc
        begin = end
    blocks = []
    for forecaster, horizon, start, stop in zip(forecasters, horizons, [0] + stops, stops):
        played, seen = games[start:stop, :horizon], moves[start:stop, :horizon]
        if seen.min() < 0 or seen.max() >= k:  # not yet refused: negatives, oblivious outcomes
            raise _bad_outcomes(horizon, k)
        if oblivious:  # counts before round t: the outcome of round t first shows in row t + 1
            prefix = counts[start:stop, :horizon]
            prefix[np.arange(stop - start)[:, None], np.arange(1, horizon), seen[:, :-1]] = 1
            np.cumsum(prefix, axis=1, out=prefix)
            played[...] = forecaster.rule(prefix.reshape(-1, k),
                                          played.reshape(-1, k)).reshape(played.shape)
        sums = row_sum(played)  # every rule: an override bypasses the leader's noise check
        if not (0 <= played.min() <= played.max() < math.inf
                and 1 - SIMPLEX_TOL <= sums.min() <= sums.max() <= 1 + SIMPLEX_TOL):
            raise ValueError(f"{type(forecaster).__name__} forecasts at T={horizon} must be "
                             f"finite, >= 0 and sum to 1 within {SIMPLEX_TOL}")
        blocks.append((played, seen))
    return blocks


def play_games(forecaster: Forecaster, adversary: Adversary, rngs) -> list[Transcript]:
    """Play ``len(rngs)`` games of ``forecaster.horizon`` rounds against ``adversary``.

    The games are one ``_play`` block.  Each starts from zero counts and
    reads its own ``rng`` in one fixed layout: the forecaster's whole
    (horizon, K) noise block, then an oblivious adversary's outcomes; an
    adaptive one's replies see forecasts 1..t-1 only.  Each transcript is
    the one its game would get played alone, and its arrays are views of
    the block's memory, which lives as long as any of them.
    """
    _check_game(forecaster, adversary)
    if len(rngs) < 1:
        raise ValueError("need at least one game")
    return [Transcript(*game) for game in zip(*_play([forecaster], adversary, [rngs])[0])]


def run_game(forecaster: Forecaster, adversary: Adversary,
             rng: np.random.Generator) -> Transcript:
    """Play ``forecaster.horizon`` rounds; each forecast is committed before its outcome.

    One game through ``play_games``, a block of one game: an oblivious
    adversary's with one ``rule`` call and no round loop, any other's round
    by round, and both give the same transcript from one ``rng``.
    """
    return play_games(forecaster, adversary, [rng])[0]


def benchmark_cost(transcript: Transcript, loss: ProperLoss, point=None) -> float:
    """Cumulative loss of a fixed point on the simplex (default: the mean of outcomes)."""
    beta = mean_of_counts(transcript.final_counts) if point is None else validate_simplex(point)
    return float(np.dot(transcript.final_counts, loss.outcome_losses(beta)))


def regret(transcript: Transcript, loss: ProperLoss) -> RegretRecord:
    """Cumulative loss of the played forecasts minus the benchmark cost."""
    alg = float(np.sum(loss.bivariate(transcript.forecasts, transcript.outcomes)))
    bench = benchmark_cost(transcript, loss)
    return RegretRecord(algorithm_cost=alg, benchmark_cost=bench, regret=alg - bench)


def _score(forecasts: np.ndarray, outcomes: np.ndarray, losses) -> np.ndarray:
    """Regret matrix (n, len(losses)) of n games' forecasts (n, T, K) and outcomes (n, T).

    Row i is ``regret`` of game i at each loss, bit for bit.  Games are
    scored whole, at least one and within ``SCORE_CELLS`` cells at a time.
    A game's cost sums its own contiguous row of ``bivariate``, as ``np.sum``
    does its transcript's; its benchmark is a ``matmul`` of its counts with
    the loss table at its mean, which equals the per-game ``np.dot``.
    """
    n, horizon, k = forecasts.shape
    step = max(1, SCORE_CELLS // (horizon * k))
    regrets = np.empty((n, len(losses)))
    for start in range(0, n, step):
        played, seen = forecasts[start:start + step], outcomes[start:start + step]
        counts = np.bincount((seen + k * np.arange(len(seen))[:, None]).ravel(),
                             minlength=len(seen) * k).reshape(-1, k)
        means = counts / counts.sum(axis=1, keepdims=True)
        for j, loss in enumerate(losses):
            bench = np.matmul(counts[:, None], loss.outcome_losses(means)[..., None])[:, 0, 0]
            regrets[start:start + step, j] = loss.bivariate(played, seen).sum(axis=-1) - bench
    return regrets


def _run_block(forecasters, adversary: Adversary, losses, trials: range,
               base_seed: int) -> list[np.ndarray]:
    """One regret matrix (len(trials), len(losses)) per forecaster, longest horizon first.

    Trial i plays on stream (base_seed, i) at every horizon.  The job is one
    ``_play`` block, which ``trial_jobs`` sized, scored a horizon at a time.
    """
    rngs = [[RngStream(base_seed, trial).generator() for trial in trials] for _ in forecasters]
    return [_score(*block, losses) for block in _play(forecasters, adversary, rngs)]


def run_trials(forecaster: Forecaster, adversary: Adversary, losses, trials: int,
               base_seed: int) -> np.ndarray:
    """Regret matrix of shape (trials, len(losses)); trial i uses stream (base_seed, i).

    ``run_experiment`` with one forecaster and one worker: row i is the
    regret trial i would get played alone.
    """
    return run_experiment([forecaster], adversary, losses, trials, base_seed)[0]


def run_experiment(forecasters, adversary: Adversary, losses, trials: int, base_seed: int,
                   workers: int = 1) -> list[np.ndarray]:
    """One regret matrix of shape (trials, len(losses)) per forecaster, each at its horizon.

    The forecasters' horizons must differ, and every input is checked
    before any game is played, ``base_seed`` against ``RngStream``'s range.
    ``workers`` is capped at the CPU count, and the ``trial_jobs`` plan for
    that many workers goes through one pool of min(workers, CPU count, jobs)
    processes, longest job first; there is no pool when that is 1.  So an
    adaptive sweep that fits one block plays every horizon in one staircase
    of max T rounds, in this process.  Trial i of every horizon plays on
    stream (base_seed, i), and each job's regrets land at its trial rows, so
    a horizon's matrix does not depend on the worker count or on the other
    horizons.
    """
    forecasters, losses = list(forecasters), list(losses)
    trials, workers = validate_integer(trials, "trials"), validate_integer(workers, "workers")
    RngStream(base_seed)  # refuses a seed outside [-2^63, 2^63)
    if not forecasters or not losses:
        raise ValueError("need at least one forecaster and one loss")
    for forecaster in forecasters:
        _check_game(forecaster, adversary)
    horizons = [forecaster.horizon for forecaster in forecasters]
    if len(set(horizons)) < len(horizons):
        raise ValueError(f"forecaster horizons {horizons} repeat")
    workers = min(workers, os.cpu_count() or 1)
    plan = trial_jobs(adversary, horizons, trials, workers)
    by_horizon = dict(zip(horizons, forecasters))
    jobs = ([[by_horizon[horizon] for horizon in group] for group, _ in plan], repeat(adversary),
            repeat(losses), [piece for _, piece in plan], repeat(base_seed))
    workers = min(workers, len(plan))
    if workers == 1:
        parts = map(_run_block, *jobs)
    else:
        from concurrent.futures import ProcessPoolExecutor  # a one-worker run never imports it

        with ProcessPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(_run_block, *jobs))
    matrices = {horizon: np.empty((trials, len(losses))) for horizon in horizons}
    for (group, piece), part in zip(plan, parts):
        for horizon, matrix in zip(group, part):
            matrices[horizon][piece.start:piece.stop] = matrix
    return list(matrices.values())


def summarize(regrets: np.ndarray, losses) -> CalibrationEstimate:
    """pucal, ucal and their standard errors from a (trials, losses) regret matrix."""
    regrets, losses = np.asarray(regrets, dtype=float), list(losses)
    if regrets.ndim != 2 or regrets.shape[1] != len(losses):
        raise ValueError(f"regrets must have shape (trials, {len(losses)}), got {regrets.shape}")
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
    """The weights {0, eps, 2*eps, ..., 1}: both endpoints, and at most ``MAX_GAME_CELLS``."""
    if not 0.0 < eps <= 1.0:
        raise ValueError("eps must lie in (0, 1]")
    steps = int(np.floor(1.0 / eps + 1e-12))
    points = steps + 1 + (steps * eps < 1.0)  # the multiples of eps below 1, then 1
    if points > MAX_GAME_CELLS:
        raise ValueError(f"eps={eps} makes a grid of {points} weights, above the cap of "
                         f"{MAX_GAME_CELLS} (2^24)")
    return np.append(np.arange(points - 1) * eps, 1.0)


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
    if validate_integer(k, "K") < 2:
        raise ValueError("need at least 2 outcomes")
    validate_integer(horizon, "horizon", 1)
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
    n = validate_integer(trials, "trials", 1)
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
