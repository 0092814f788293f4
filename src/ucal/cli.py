"""Command-line entry point.

Subcommands:

    run       play forecaster-vs-adversary games, emit one CSV row per
              (trial, loss), and print a pucal/ucal summary
    sweep     like run, but iterating the horizon over a geometric grid
    minimax   exact value of the binary squared-loss game (DP and/or closed
              form), optional sandwich-bound checks and CSV dump
    validate  numerical validation suite for a shipped loss

Component specs are NAME or NAME:ARGS, e.g. ``ftl``, ``static:0.5,0.5``,
``tsallis:1.5``, ``fixed:outcomes.txt``, ``greedy:vshaped``; a spec with
arguments its component does not take, or with too many, is a usage error.  Each
``key=value`` line of a ``--config`` file becomes ``--key=value`` ahead of
the explicit flags, so the parser checks it like a flag and an explicit flag
wins; a config ``loss`` is dropped when the command line has a ``--loss``.
A config may set any option that takes a value, not a switch such as
``--check-bounds``; an unknown key is a usage error.  Flags and keys are
spelled in full: ``--tri`` or a config ``trial=3`` is a usage error, not
``--trials``.
Exit codes: 0 success, 1 validation or assertion failure (or an ``--output``
that fails while it is written), 2 usage error, refused before any trial or
output (among them ``--K`` below 2, ``--T``, ``--T-start`` or ``--workers``
below 1, a ``sweep --T-factor`` that is not finite or not above 1, a game
above ``engine.MAX_GAME_CELLS``, ``minimax --check-bounds`` below T = 2, a
DP above ``minimax.DP_MAX_HORIZON``, a closed form above
``minimax.CLOSED_FORM_MAX_HORIZON``, a ``validate --tol`` that is negative
or not finite, a ``validate`` draw above ``engine.MAX_GAME_CELLS`` (the
larger of ``--samples`` and ``losses.VALIDATION_RANDOM_POINTS`` points, times
K), a ``--seed`` outside [-2^63, 2^63), which ``core.RngStream``
would otherwise alias modulo 2^64, and an ``--output`` in a missing
directory or naming a directory).
``run`` and ``sweep`` resolve every spec once, one forecaster per horizon,
and hand them to ``engine.run_experiment``.  It plays each block, one
trial range at a group of horizons, in one kernel call (against an adaptive
adversary a lockstep staircase, split across workers only when it holds at
least as many games as rounds) and starts a pool only for more than one
job.  They stream one CSV row per (T, trial, loss) through ``csv.writer``:
horizons in grid order, trials in order, and each trial's losses sorted by
name (a stable sort, so duplicate names keep their ``--loss`` order); a
field that holds a comma, such as ``static:0.2,0.8``, is quoted.  Results
are byte-identical regardless of worker count because every trial owns its
own RNG stream.
"""

from __future__ import annotations

import argparse
import csv
import math
import os
import sys

import numpy as np

from . import engine, minimax
from .adversaries import Adversary, Alternating, FixedSequence, GreedyAdaptive, IidUniform
from .core import RngStream, one_hot, validate_integer
from .forecasters import (FollowTheLeader, Forecaster, PerturbedLeaderGeometric,
                          PerturbedLeaderUniform, StaticForecaster)
from .losses import (VALIDATION_RANDOM_POINTS, ProperLoss, SphericalLoss, SquaredLoss,
                     TsallisLoss, VShapedLoss, check_concavity, check_hessian_growth,
                     check_proper, check_range, estimate_lipschitz, random_simplex_points,
                     validation_points)

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2


class UsageError(ValueError):
    pass


def _split_spec(spec: str) -> tuple[str, str]:
    name, _, args = spec.partition(":")
    return name.strip().lower(), args


def _float_args(spec: str, args: str, most: int) -> list[float]:
    """The comma-separated numbers of ``spec``; more than ``most`` of them is a usage error."""
    tokens = args.split(",") if args else []
    if len(tokens) > most:
        allowed = f"at most {most}" if most else "none"
        raise UsageError(f"{spec!r} has {len(tokens)} argument(s); {allowed} allowed")
    try:
        return [float(tok) for tok in tokens]
    except ValueError as exc:
        raise UsageError(f"bad numeric arguments {args!r}") from exc


def make_loss(spec: str) -> ProperLoss:
    name, args = _split_spec(spec)
    try:
        if name == "squared":
            return SquaredLoss(*_float_args(spec, args, 1))
        if name == "tsallis":
            vals = _float_args(spec, args, 2)
            if not vals:
                raise UsageError("tsallis needs an alpha, e.g. tsallis:1.5")
            return TsallisLoss(*vals)
        no_args = {"brier": lambda: SquaredLoss(0.5), "spherical": SphericalLoss,
                 "vshaped": VShapedLoss}
        if name in no_args:
            _float_args(spec, args, 0)
            return no_args[name]()
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    raise UsageError(f"unknown loss {spec!r} (try squared, brier, spherical, vshaped, tsallis:ALPHA)")


def make_forecaster(spec: str, k: int, horizon: int) -> Forecaster:
    name, args = _split_spec(spec)
    no_args = {"ftl": FollowTheLeader, "ftpl-geometric": PerturbedLeaderGeometric,
             "ftpl-uniform": PerturbedLeaderUniform}
    if name in no_args:
        _float_args(spec, args, 0)
        return no_args[name](k, horizon)
    if name == "static":
        point = _float_args(spec, args, k)
        if len(point) != k:
            raise UsageError(f"static forecaster needs {k} probabilities, got {len(point)}")
        return StaticForecaster(point, horizon)
    raise UsageError(f"unknown forecaster {spec!r} (try ftl, ftpl-geometric, ftpl-uniform, static:P1,...,PK)")


def make_adversary(spec: str, k: int) -> Adversary:
    name, args = _split_spec(spec)
    no_args = {"alternating": Alternating, "iid-uniform": IidUniform}
    if name in no_args:
        _float_args(spec, args, 0)
        return no_args[name](k)
    if name == "fixed":
        if not args:
            raise UsageError("fixed adversary needs a path, e.g. fixed:outcomes.txt")
        try:
            return FixedSequence.from_file(k, args)
        except (OSError, ValueError) as exc:
            raise UsageError(f"cannot load fixed sequence: {exc}") from exc
    if name == "greedy":
        if not args:
            raise UsageError("greedy adversary needs a loss, e.g. greedy:vshaped")
        return GreedyAdaptive(k, make_loss(args))
    raise UsageError(f"unknown adversary {spec!r} (try alternating, iid-uniform, fixed:PATH, greedy:LOSS)")


def _seed(text: str) -> int:
    """An ``--seed`` value: an integer in ``RngStream``'s range [-2^63, 2^63)."""
    try:
        return RngStream(int(text)).seed
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _check_output(path) -> None:
    """Refuse an ``--output`` that cannot be created: its directory is missing or it is one."""
    if not path:
        return
    parent = os.path.dirname(os.path.abspath(path))
    if os.path.isdir(path):
        raise UsageError(f"cannot write --output {path}: it is a directory")
    if not os.path.isdir(parent):
        raise UsageError(f"cannot write --output {path}: no directory {parent}")


def _write_output(path, write) -> None:
    """Open ``path`` for writing and call ``write(fh)``; an OSError becomes a failure (exit 1)."""
    try:
        with open(path, "w") as fh:
            write(fh)
    except OSError as exc:
        raise ValueError(f"cannot write --output {path}: {exc.strerror or exc}") from exc


def _resolve(args, horizons) -> tuple[list[ProperLoss], Adversary, list[Forecaster]]:
    """The losses, the adversary and one forecaster per horizon, all checked before any trial."""
    try:
        specs = [s for chunk in args.loss for s in chunk.split(";") if s]
        if not specs:
            raise ValueError("need at least one --loss")
        losses = [make_loss(s) for s in specs]
        validate_integer(args.trials, "--trials", 1)
        validate_integer(args.workers, "--workers", 1)
        _check_output(args.output)
        adversary = make_adversary(args.adversary, args.K)
        forecasters = []
        for horizon in horizons:
            engine.check_game_size(args.K, horizon)
            forecasters.append(make_forecaster(args.forecaster, args.K, horizon))
            if isinstance(adversary, FixedSequence) and len(adversary.sequence) < horizon:
                raise ValueError(f"fixed sequence has {len(adversary.sequence)} outcomes, "
                                 f"horizon is {horizon}")
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    return losses, adversary, forecasters


def _play(args, horizons) -> tuple[list[ProperLoss], list]:
    """Play every horizon and write its CSV rows; returns the losses and one regret matrix per horizon."""
    losses, adversary, forecasters = _resolve(args, horizons)
    matrices = engine.run_experiment(forecasters, adversary, losses, args.trials, args.seed,
                                     args.workers)
    order = sorted(range(len(losses)), key=lambda j: losses[j].name)

    def write(fh):
        rows = csv.writer(fh, lineterminator="\n")
        rows.writerow(("experiment", "forecaster", "adversary", "loss", "K", "T", "trial",
                       "seed", "regret"))
        for horizon, regrets in zip(horizons, matrices):
            for trial, regret in enumerate(regrets.tolist()):
                rows.writerows((args.experiment, args.forecaster, args.adversary,
                                losses[j].name, args.K, horizon, trial, args.seed,
                                engine.format_float(regret[j])) for j in order)

    if args.output:
        _write_output(args.output, write)
    else:
        write(sys.stdout)
    return losses, matrices


def cmd_run(args) -> int:
    losses, (regrets,) = _play(args, [args.T])
    est = engine.summarize(regrets, losses)
    summary = (f"pucal={engine.format_float(est.pucal)} "
               f"ucal={engine.format_float(est.ucal)} "
               f"pucal_se={engine.format_float(est.pucal_se)} "
               f"ucal_se={engine.format_float(est.std_error)} trials={est.trials}")
    print(summary, file=sys.stdout if args.output else sys.stderr)
    return EXIT_OK


def cmd_sweep(args) -> int:
    # All refused before the grid is built, which a factor near 1 builds one
    # step at a time.
    if args.K < 2:
        raise UsageError("need at least 2 outcomes")
    if args.T_start < 1:
        raise UsageError("--T-start must be >= 1")
    if args.T_stop * args.K > engine.MAX_GAME_CELLS:
        raise UsageError(f"--T-stop {args.T_stop} at K={args.K} is above the cap of "
                         f"{engine.MAX_GAME_CELLS} (2^24) cells per game")
    if not (math.isfinite(args.T_factor) and args.T_factor > 1):
        raise UsageError(f"--T-factor must be finite and above 1, got {args.T_factor}")
    horizons = []
    horizon = args.T_start
    while horizon <= args.T_stop:
        horizons.append(horizon)
        # past T_stop any next horizon ends the grid; the cap keeps a huge factor finite
        nxt = int(round(min(horizon * args.T_factor, args.T_stop + 1)))
        horizon = nxt if nxt > horizon else horizon + 1
    if not horizons:
        raise UsageError("empty horizon grid; check --T-start/--T-stop/--T-factor")
    _play(args, horizons)
    print(f"swept T={horizons} trials={args.trials}", file=sys.stdout if args.output else sys.stderr)
    return EXIT_OK


def cmd_minimax(args) -> int:
    t = args.T
    if t < 1:
        raise UsageError("--T must be >= 1")
    if args.check_bounds and t < 2:
        raise UsageError("--check-bounds needs --T >= 2 (the sandwich bounds use log T > 0)")
    needs_closed = args.mode in ("closed", "both") or args.check_bounds or args.output
    if needs_closed and t > minimax.CLOSED_FORM_MAX_HORIZON:
        raise UsageError(f"--T {t} is above the closed form's cap of "
                         f"{minimax.CLOSED_FORM_MAX_HORIZON} (2^24) rounds")
    if args.mode in ("dp", "both") and t > minimax.DP_MAX_HORIZON:
        raise UsageError(f"--T {t} is above the DP's limit of {minimax.DP_MAX_HORIZON} rounds; "
                         f"--mode closed has no such limit")
    _check_output(args.output)
    value_dp = value_closed = None
    seqs = None
    if args.mode in ("dp", "both"):
        table = minimax.dp_value(t)
        value_dp = table.value
        print(f"dp value V(T={t}) = {engine.format_float(value_dp)} "
              f"(max child gap {table.max_abs_gap:.6f}, clamped branches {table.outer_branch_states})")
        if table.outer_branch_states > 0 or table.max_abs_gap > 2.0 + 1e-9:
            print("FAIL: a backward step left the interior branch", file=sys.stderr)
            return EXIT_FAIL
    if needs_closed:
        seqs = minimax.closed_form(t)
        value_closed = seqs.value
        if args.mode in ("closed", "both"):
            print(f"closed-form value v[T={t}] = {engine.format_float(value_closed)}")
    if args.mode == "both":
        gap = abs(value_dp - value_closed)
        if gap > 1e-8:
            print(f"FAIL: dp and closed form disagree by {gap:.3e}", file=sys.stderr)
            return EXIT_FAIL
        print(f"agreement |dp - closed| = {gap:.3e} <= 1e-08")
    if args.check_bounds:
        upper_violation, lower_violation = minimax.check_a_bounds(t, seqs)
        floor = minimax.value_lower_bound(t)
        ok = upper_violation <= 1e-12 and lower_violation <= 1e-12 and seqs.value >= floor
        print(f"sandwich violations: above={upper_violation:.3e} below={lower_violation:.3e}; "
              f"value {engine.format_float(seqs.value)} >= floor {engine.format_float(floor)}: "
              f"{seqs.value >= floor}")
        if not ok:
            print("FAIL: sandwich bounds violated", file=sys.stderr)
            return EXIT_FAIL
    if args.output:
        _write_output(args.output, lambda fh: minimax.write_sequences_csv(seqs, fh))
    return EXIT_OK


def cmd_validate(args) -> int:
    loss = make_loss(args.loss)
    k = args.K
    if k < 2:
        raise UsageError("--K must be >= 2")
    if args.samples < 1:
        raise UsageError("--samples must be >= 1")
    if not (math.isfinite(args.tol) and args.tol >= 0):
        raise UsageError(f"--tol must be finite and >= 0, got {args.tol}")
    points = max(args.samples, VALIDATION_RANDOM_POINTS)  # the largest draw, in points of K cells
    if points * k > engine.MAX_GAME_CELLS:
        raise UsageError(f"a draw of {points} points at K={k} has {points * k} cells, above "
                         f"the cap of {engine.MAX_GAME_CELLS} (2^24) cells")
    rng = RngStream(args.seed, 0).generator()
    failures = []

    pairs = (random_simplex_points(k, args.samples, rng),
             random_simplex_points(k, args.samples, rng))
    report = check_proper(loss, pairs, tol=args.tol)
    print(f"properness: {report.properness_violations} violations "
          f"(max {report.max_violation:.3e}) over {args.samples} pairs")
    if report.properness_violations:
        failures.append("properness")

    concavity = check_concavity(loss, pairs, tol=args.tol)
    print(f"concavity (midpoint): {concavity} violations")
    if concavity:
        failures.append("concavity")

    grid = validation_points(k, rng)
    lo, hi, ok = check_range(loss, grid, tol=args.tol)
    blo, bhi = loss.range_bound
    print(f"range: observed [{lo:.6f}, {hi:.6f}] within declared [{blo:g}, {bhi:g}]: {ok}")
    if not ok:
        failures.append("range")
    if blo < -1.0 - 1e-9 or bhi > 1.0 + 1e-9:
        print(f"flag: declared range [{blo:g}, {bhi:g}] exceeds [-1, 1]")

    lips = estimate_lipschitz(loss, k, args.samples, rng)
    print(f"lipschitz estimate: {lips:.6g}")

    if isinstance(loss, TsallisLoss):
        c = loss.alpha * (loss.alpha - 1.0)
        hessian_grid = np.linspace(1e-3, 1.0 - 1e-3, 999)
        ok = check_hessian_growth(loss, hessian_grid, c)
        print(f"hessian growth with c = alpha*(alpha-1) = {c:g}: {ok}")
        if not ok:
            failures.append("hessian-growth")

    if isinstance(loss, VShapedLoss):
        lo_val = float(loss.bivariate(one_hot(0, k), 0))
        face = np.full(k, 1.0 / (k - 1))
        face[0] = 0.0
        hi_val = float(loss.bivariate(face, 0))
        extreme = (k - 1) / k
        ok = abs(lo_val + extreme) <= 1e-12 and abs(hi_val - extreme) <= 1e-12
        print(f"extremes: min {lo_val:.6f} max {hi_val:.6f} vs +/-{extreme:.6f}: {ok}")
        if not ok:
            failures.append("extremes")

    if failures:
        print(f"FAIL: {', '.join(failures)}", file=sys.stderr)
        return EXIT_FAIL
    print("ok")
    return EXIT_OK


def _config_argv(argv: list) -> list:
    """``argv`` with the ``key=value`` lines of its --config file put ahead of the explicit flags.

    Each line becomes ``--key=value``, so the parser checks it and an explicit flag wins.
    """
    pre = argparse.ArgumentParser(prog="ucal", usage=argparse.SUPPRESS, add_help=False,
                                  allow_abbrev=False)
    pre.add_argument("--config")
    given, explicit = pre.parse_known_args(argv[1:])
    if given.config is None:
        return argv
    try:
        with open(given.config) as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        raise UsageError(f"cannot read config: {exc}") from exc
    has_loss = any(arg == "--loss" or arg.startswith("--loss=") for arg in explicit)
    flags = []
    for line in lines:
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise UsageError(f"bad config line {line!r} (expected key=value)")
        flag = "--" + key.strip().replace("_", "-")
        if flag == "--config":
            raise UsageError("a config file cannot name another config file")
        if not (flag == "--loss" and has_loss):
            flags.append(f"{flag}={value.strip()}")
    return argv[:1] + flags + explicit


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="ucal", allow_abbrev=False,
                                     description="Online forecasting experiments under proper losses")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", help="key=value defaults file; flags override")
        p.add_argument("--forecaster", required=True)
        p.add_argument("--adversary", required=True)
        p.add_argument("--loss", action="append", default=[],
                       help="loss spec; repeat or separate with ';' for a family")
        p.add_argument("--K", type=int, required=True)
        p.add_argument("--trials", type=int, default=1)
        p.add_argument("--seed", type=_seed, default=0)
        p.add_argument("--output", help="CSV path (default: stdout)")
        p.add_argument("--workers", type=int, default=1,
                       help="trial workers; capped by the CPU count")

    p_run = sub.add_parser("run", help="play games and report regrets", allow_abbrev=False)
    add_common(p_run)
    p_run.add_argument("--T", type=int, required=True)
    p_run.add_argument("--experiment", default="run")
    p_run.set_defaults(func=cmd_run)

    p_sweep = sub.add_parser("sweep", help="regret-vs-horizon scaling data", allow_abbrev=False)
    add_common(p_sweep)
    p_sweep.add_argument("--T-start", dest="T_start", type=int, required=True)
    p_sweep.add_argument("--T-stop", dest="T_stop", type=int, required=True)
    p_sweep.add_argument("--T-factor", dest="T_factor", type=float, default=2.0)
    p_sweep.add_argument("--experiment", default="sweep")
    p_sweep.set_defaults(func=cmd_sweep)

    p_mm = sub.add_parser("minimax", help="exact binary squared-loss game value", allow_abbrev=False)
    p_mm.add_argument("--config", help="key=value defaults file; flags override")
    p_mm.add_argument("--T", type=int, required=True)
    p_mm.add_argument("--mode", choices=["dp", "closed", "both"], default="both")
    p_mm.add_argument("--check-bounds", dest="check_bounds", action="store_true")
    p_mm.add_argument("--output", help="CSV of r,u_r,v_r,a_r,upper_bound,lower_bound")
    p_mm.set_defaults(func=cmd_minimax)

    p_val = sub.add_parser("validate", help="numerical loss validation suite", allow_abbrev=False)
    p_val.add_argument("--config", help="key=value defaults file; flags override")
    p_val.add_argument("--loss", required=True, help="loss spec, e.g. tsallis:1.5")
    p_val.add_argument("--K", type=int, default=3)
    p_val.add_argument("--samples", type=int, default=10_000)
    p_val.add_argument("--seed", type=_seed, default=0)
    p_val.add_argument("--tol", type=float, default=1e-9)
    p_val.set_defaults(func=cmd_validate)

    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        args = build_parser().parse_args(_config_argv(argv))
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
