"""Protocol runner and regret/calibration measurements.

A forecaster carries its game: K and the horizon T are fixed when it is
made, and it keeps no per-game state, so every call below takes the
forecaster itself and reads T from ``forecaster.horizon``.
``run_game`` plays T rounds of forecast-then-outcome and returns a
transcript.  ``play_games`` plays n games of one forecaster, each from zero
counts, as one game-major block: forecasts (n, T, K) and outcomes (n, T),
each game's rows contiguous, and each transcript a view of the block.  An
adversary that has ``outcomes`` is oblivious, and its games are played as
one vectorized kernel (the block path); any other is adaptive, and its
games run in lockstep through the engine's one round loop, with one
``next_outcomes`` call per round.  That loop plays a staircase: games at
several horizons, longest first, and a game drops out when its horizon
ends, so a block of horizons H runs max(H) rounds.  Adjacent running
horizons that keep the leader rule, ``Forecaster.rule``, with int64 noise
step in one call a round, since that rule reads only its two arguments; a
horizon whose class overrides ``rule``, or whose noise has another dtype,
keeps a call of its own.  ``trial_jobs`` plans an experiment as blocks: one
trial range at a group of horizons, within ``BLOCK_CELLS`` played cells,
handed to a worker whole unless it holds at least as many games as it runs
rounds.  Horizons share a block only when all trials at all of them fit
one, so a sweep too large for one block plays each horizon's blocks on
their own.  ``run_experiment`` runs a whole experiment, one forecaster per
horizon, and ``run_trials`` is its one-forecaster case.  It maps the plan's
blocks through one trial runner, in one process pool when there is more
than one worker and job, scores each block's games straight from its
arrays, a few whole games at a time, and puts the regrets back at their
trial rows, so the result does not depend on the worker count.  Trial i
plays on stream (base_seed, i) at every horizon.

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
from itertools import accumulate, chain, repeat

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

#: Cell budget of one lockstep block: n trials at horizons H over K outcomes
#: play n * sum(H) * K cells, and a block plays at most 2^20 of them (8 MiB
#: of forecasts), unless one trial at its one horizon is already more.
BLOCK_CELLS = 1 << 20

#: Cell budget of one scoring chunk: whole games, at least one, of at most
#: 2^14 forecast cells (128 KiB).  Each loss builds a few float temporaries
#: of the chunk's size, so a larger chunk shows in peak RSS: on the 8-trial
#: K = 3 sweep over T = 64..4096 it read about 0.5 MB more at 2^15 and 2 MB
#: more at 2^16, with no CPU to show for it.
SCORE_CELLS = 1 << 14


def check_game_size(k: int, horizon: int) -> None:
    """Refuse a game of ``horizon`` rounds over ``k`` outcomes above ``MAX_GAME_CELLS`` cells."""
    if validate_integer(horizon, "horizon") < 1:
        raise ValueError("horizon must be >= 1")
    if horizon * k > MAX_GAME_CELLS:
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

    A job is a block: one trial range played at a group of horizons, longest
    first.  An oblivious adversary's games are played one at a time, with
    no round loop, so its one block is every trial at every horizon, cut
    into min(workers, trials) near-equal pieces.  An adaptive block is one
    lockstep staircase: n trials at horizons H are n * len(H) games that
    run max(H) rounds and play n * sum(H) * K cells, at most
    ``BLOCK_CELLS``.  Horizons are grouped longest first, and a horizon
    joins the group before it only if all trials at the grown group still
    fit one block.  So a group of several horizons is one block, which
    plays each of them once in max(H) rounds, and a horizon whose trials
    need more than one block is a group of its own, cut into the fewest
    near-equal blocks within budget: merging it would cut the shorter
    horizons into as many blocks, each repeating their rule calls.  So no
    plan makes more rule calls or runs more rounds than one horizon per
    block.  A block goes to a worker whole unless it holds at least as many
    games as it runs rounds: each piece repeats the whole round loop, so
    only then is the block cut into min(workers, n) near-equal pieces.
    Jobs come longest round loop first, then largest first, so a pool that
    takes them in order starts the longest first.
    """
    if trials < 1 or workers < 1:
        raise ValueError("trials and workers must be >= 1")
    horizons = sorted(horizons, reverse=True)
    if _oblivious(adversary):  # no round loop
        blocks = [(tuple(horizons), range(trials), 0)]
    else:
        groups = []
        for horizon in horizons:
            if groups and trials * (sum(groups[-1]) + horizon) * adversary.k <= BLOCK_CELLS:
                groups[-1].append(horizon)
            else:
                groups.append([horizon])
        blocks = []
        for group in groups:
            per_block = max(1, BLOCK_CELLS // (sum(group) * adversary.k))
            blocks += [(tuple(group), block, group[0])
                       for block in _cut(range(trials), -(-trials // per_block))]
    jobs = []
    for group, block, rounds in blocks:
        pieces = min(workers, len(block)) if len(block) * len(group) >= rounds else 1
        jobs += [(group, piece, rounds) for piece in _cut(block, pieces)]
    jobs.sort(key=lambda job: (-job[2], -len(job[1])))  # stable: ties keep trial order
    return [(group, piece) for group, piece, _ in jobs]


def _bad_outcomes(horizon, k):
    return ValueError(f"adversary outcomes must be {horizon} indices in [0, {k})")


def _noise(forecaster: Forecaster, rng) -> np.ndarray:
    """``forecaster``'s noise block of one game on ``rng``, refused unless it is (T, K)."""
    draw = np.asarray(forecaster.noise(forecaster.horizon, rng))
    if draw.shape != (forecaster.horizon, forecaster.k):
        raise ValueError(f"forecaster noise must have shape (T, K) = ({forecaster.horizon}, "
                         f"{forecaster.k}), got {draw.shape}")
    return draw


def _noises(forecaster: Forecaster, rngs):
    """Each game's noise block on ``rngs``, in order, refused unless all share one dtype.

    A block's noise is stored in one array, so a dtype that differs from the
    first game's would be cast on the way in.
    """
    first = None
    for rng in rngs:
        draw = _noise(forecaster, rng)
        first = draw.dtype if first is None else first
        if draw.dtype != first:
            raise ValueError(f"forecaster noise dtypes differ across a block's games: "
                             f"{first} and {draw.dtype}")
        yield draw


def _noise_rows(forecaster: Forecaster, rngs, shared: np.ndarray) -> np.ndarray:
    """The (horizon, n, K) noise of ``forecaster``'s games on ``rngs``, one draw per game.

    int64 noise, the kind every shipped forecaster draws, lands in
    ``shared``, which is then returned; noise of any other dtype keeps its
    dtype in an array of its own, so the rule reads what the forecaster drew.
    """
    draws = _noises(forecaster, rngs)
    first = next(draws)
    rows = (shared if first.dtype == np.int64
            else np.empty((forecaster.horizon, len(rngs), forecaster.k), first.dtype))
    for game, draw in enumerate(chain([first], draws)):
        rows[:, game] = draw
    return rows


def _lockstep(forecasters, adversary: Adversary, rngs) -> list:
    """The round loop: play the games of ``rngs[g]`` at ``forecasters[g].horizon`` as one staircase.

    The forecasters come longest horizon first.  The block is stored
    game-major in one anonymous ``mmap``, n games of max T rounds, so a
    staircase's unplayed corner is never touched and never resident.  Each
    game draws its whole noise block before round 1, into the rows its
    forecasts later overwrite when it is int64 (``_noise_rows``).  Round t
    steps the running games, then asks ``next_outcomes`` once for all of
    them, which see their forecasts of rounds 1..t-1 as a strided
    (t-1, n_running, K) view; a horizon's games drop out when it ends, and
    they are always the last rows.  The running games are thus the first
    rows, so adjacent horizons that keep the leader rule and whose noise
    lies in those shared rows step in one ``Forecaster.rule`` call on their
    joint rows: a sweep of FTL or either FTPL makes one call a round.  Any
    other horizon, one whose class overrides ``rule`` or whose noise is not
    int64, steps in a call of its own.
    Returns one (forecasts (n, T, K), outcomes (n, T)) pair of views per
    forecaster, with each game's rows contiguous and games strided by max T.
    """
    k, horizons = adversary.k, [forecaster.horizon for forecaster in forecasters]
    stops = list(accumulate(map(len, rngs)))
    n, rounds = stops[-1], horizons[0]
    memory = mmap.mmap(-1, n * rounds * (k + 1) * 8)
    games = np.frombuffer(memory, np.float64, n * rounds * k).reshape(n, rounds, k)
    moves = np.frombuffer(memory, np.int64, n * rounds, n * rounds * k * 8).reshape(n, rounds)
    forecasts, outcomes = games.transpose(1, 0, 2), moves.T  # the loop's (max T, n, ...) views
    shared = forecasts.view(np.int64)  # noise row t is read just before forecast row t lands
    spans = []  # (rule, first game, stop, noise rows): adjacent leader horizons pooled
    for forecaster, group, a, b in zip(forecasters, rngs, [0] + stops, stops):
        slab = shared[:forecaster.horizon, a:b]
        rows = _noise_rows(forecaster, group, slab)
        if forecaster.rule is not Forecaster.rule or rows is not slab:
            spans.append((forecaster.rule, a, b, rows))
            continue
        if spans and spans[-1][3] is None:  # the leader reads only its arguments: one call
            a = spans.pop()[1]
        spans.append((Forecaster.rule, a, b, None))
    spans = [(rule, a, b, shared[:, a:b] if rows is None else rows) for rule, a, b, rows in spans]
    every_rng = [rng for group in rngs for rng in group]
    counts = np.zeros((n, k), dtype=np.int64)
    eye = np.eye(k, dtype=np.int64)  # row y adds one outcome y to a count vector
    begin = 0
    for running in range(len(forecasters), 0, -1):  # the rounds the first `running` horizons play
        width, end = stops[running - 1], horizons[running - 1]
        steps = []  # each span's running games, the first `width` rows
        for rule, a, b, rows in spans:
            if a < width:
                b = min(b, width)
                steps.append((rule, counts[a:b], rows[:, :b - a], forecasts[:, a:b]))
        past, played, live, shown = (forecasts[:, :width], outcomes[:, :width], counts[:width],
                                     every_rng[:width])
        for t in range(begin, end):
            for rule, own_counts, own_noise, own_forecasts in steps:
                own_forecasts[t] = rule(own_counts, own_noise[t])
            reply = np.asarray(adversary.next_outcomes(t + 1, past[:t], shown))
            # 1.7 would be truncated to outcome 1, and a scalar broadcast to every game
            if reply.dtype.kind not in "iu" or reply.shape != (width,):
                raise _bad_outcomes(horizons[0], k)  # the first game's reply is bad too
            played[t] = reply
            try:
                live += eye[played[t]]
            except IndexError as exc:
                bad = int(np.argmax((reply < 0) | (reply >= k)))  # the first game out of range
                raise _bad_outcomes(horizons[bisect_right(stops, bad)], k) from exc
        begin = end
    blocks = []
    for horizon, start, stop in zip(horizons, [0] + stops, stops):
        if moves[start:stop, :horizon].min() < 0:  # a negative index wraps instead of raising
            raise _bad_outcomes(horizon, k)
        blocks.append((games[start:stop, :horizon], moves[start:stop, :horizon]))
    return blocks


def _play(forecaster: Forecaster, adversary: Adversary, rngs) -> tuple:
    """(forecasts (n, T, K), outcomes (n, T)) of one block of ``len(rngs)`` games, game-major.

    An adaptive adversary's games run through ``_lockstep``.  An oblivious
    one's are one kernel: each game's noise and outcomes stacked on axis 0,
    their integer prefix counts summed along axis 1, and one ``rule`` call.
    """
    if not _oblivious(adversary):
        return _lockstep([forecaster], adversary, [rngs])[0]
    k, horizon, n = forecaster.k, forecaster.horizon, len(rngs)
    noise = np.stack(list(_noises(forecaster, rngs)))  # (n, T, K)
    outcomes = np.stack([np.asarray(adversary.outcomes(horizon, rng)) for rng in rngs])
    if (outcomes.shape != (n, horizon) or outcomes.dtype.kind not in "iu"
            or outcomes.min() < 0 or outcomes.max() >= k):
        raise _bad_outcomes(horizon, k)
    outcomes = outcomes.astype(np.int64, copy=False)
    # counts before round t: the outcome of round t first shows in row t + 1
    prefix = np.zeros((n, horizon, k), dtype=np.int64)
    prefix[np.arange(n)[:, None], np.arange(1, horizon), outcomes[:, :-1]] = 1
    np.cumsum(prefix, axis=1, out=prefix)
    forecasts = forecaster.rule(prefix.reshape(-1, k), noise.reshape(-1, k))
    return forecasts.reshape(n, horizon, k), outcomes


def play_games(forecaster: Forecaster, adversary: Adversary, rngs) -> list[Transcript]:
    """Play ``len(rngs)`` games of ``forecaster.horizon`` rounds against ``adversary``.

    Each game starts from zero counts and reads its own ``rng`` in one
    fixed layout: first the forecaster's whole (horizon, K) noise block,
    then the adversary's outcomes.  Against an oblivious adversary (one that
    has ``outcomes``) each game's outcomes are drawn at once, and every
    forecast comes from one ``rule`` call on the integer prefix counts (the
    block path).  Against any other adversary the n games run in lockstep
    (the round loop, a staircase of one horizon): round t applies the rule
    once to the stacked counts (n, K) and noise rows (n, K), then asks
    ``next_outcomes`` for all n replies, which see forecasts 1..t-1 only.
    Each game's transcript is the one it would get played alone; its arrays
    are views of one block's memory, which lives as long as any of them.
    """
    _check_game(forecaster, adversary)
    if len(rngs) < 1:
        raise ValueError("need at least one game")
    return [Transcript(*game) for game in zip(*_play(forecaster, adversary, rngs))]


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

    Trial i plays on stream (base_seed, i) at every horizon.  Oblivious
    games are played, scored and released one at a time; adaptive ones run
    as one ``_lockstep`` staircase, and each horizon's games are scored
    from its memory.
    """
    if _oblivious(adversary):
        return [np.concatenate([_score(*_play(forecaster, adversary,
                                              [RngStream(base_seed, trial).generator()]), losses)
                                for trial in trials]) for forecaster in forecasters]
    rngs = [[RngStream(base_seed, trial).generator() for trial in trials] for _ in forecasters]
    return [_score(*block, losses) for block in _lockstep(forecasters, adversary, rngs)]


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
    if validate_integer(k, "K") < 2:
        raise ValueError("need at least 2 outcomes")
    if validate_integer(horizon, "horizon") < 1:
        raise ValueError("horizon must be >= 1")
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
