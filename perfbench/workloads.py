"""The three benchmark workloads: which `ucal` commands they run, and their checks.

Each workload is a fixed list of CLI commands run one after another, in a
fresh interpreter each, as a single client would (a closed loop).  The seed
is passed to the CLI as ``--seed``; `minimax` takes no seed, so that workload
is the same for every seed.  ``SIZES["tiny"]`` shrinks every command so the
benchmark's own tests finish in seconds; the benchmark itself runs "full".
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import checks

MC_LOSSES = "vshaped;squared:0.5;spherical;tsallis:1.5"
SWEEP_LOSSES = "vshaped;squared:0.5;spherical"

SIZES = {
    # mc: K, T, trials; sweep: K, T_start, T_stop, trials; minimax: small T, dump T
    "full": {"mc": (5, 4096, 48), "sweep": (3, 64, 4096, 8), "minimax": (4096, 250_000)},
    "tiny": {"mc": (5, 64, 3), "sweep": (3, 64, 256, 2), "minimax": (64, 2000)},
}


@dataclass(frozen=True)
class Command:
    """One CLI invocation and the check its outputs must pass."""

    argv: list            # arguments after `python -m ucal.cli`
    output: Path | None   # file the command writes, if any
    check: object         # check(stdout_text, output) -> None, raises CheckError


@dataclass(frozen=True)
class Plan:
    """What one iteration of a workload runs, for a given seed and size."""

    commands: list         # timed commands, run in order
    rounds: int            # game rounds (or minimax horizon rounds) per iteration
    reference: Command | None = None  # run once per invocation, untimed
    parallel: tuple | None = None     # (workers=1, workers=2) commands for the speed-up probe

    def serial(self) -> list:
        """The timed commands as run in-process: trial workers forced to 1."""
        return [Command(_with_workers(c.argv, 1), c.output, c.check) for c in self.commands]


def _with_workers(argv, workers):
    if "--workers" not in argv:
        return list(argv)
    out = list(argv)
    out[out.index("--workers") + 1] = str(workers)
    return out


def horizons(t_start, t_stop):
    """The CLI's default factor-2 horizon grid."""
    grid, t = [], t_start
    while t <= t_stop:
        grid.append(t)
        t *= 2
    return grid


def mc_oblivious(seed, size, out_dir):
    k, t, trials = SIZES[size]["mc"]
    out = out_dir / f"mc-oblivious-s{seed}.csv"
    argv = ["run", "--forecaster", "ftpl-geometric", "--adversary", "iid-uniform",
            "--loss", MC_LOSSES, "--K", str(k), "--T", str(t), "--trials", str(trials),
            "--seed", str(seed), "--workers", "1", "--output", str(out)]
    n_losses = len(MC_LOSSES.split(";"))

    def check(stdout, csv_path):
        checks.check_run(csv_path, stdout, k=k, horizon=t, trials=trials, losses=n_losses)

    command = Command(argv, out, check)
    return Plan(commands=[command], rounds=trials * t,
                parallel=(command, Command(_with_workers(argv, 2), out, check)))


def sweep_adaptive(seed, size, out_dir):
    k, t_start, t_stop, trials = SIZES[size]["sweep"]
    grid = horizons(t_start, t_stop)
    n_losses = len(SWEEP_LOSSES.split(";"))

    def argv(workers, out):
        return ["sweep", "--forecaster", "ftpl-uniform", "--adversary", "greedy:squared",
                "--loss", SWEEP_LOSSES, "--K", str(k), "--T-start", str(t_start),
                "--T-stop", str(t_stop), "--trials", str(trials), "--seed", str(seed),
                "--workers", str(workers), "--output", str(out)]

    def check(stdout, csv_path):
        checks.check_sweep(csv_path, stdout, k=k, horizons=grid, trials=trials, losses=n_losses)

    out = out_dir / f"sweep-adaptive-s{seed}.csv"
    ref_out = out_dir / f"sweep-adaptive-s{seed}-workers1.csv"
    timed, serial = Command(argv(2, out), out, check), Command(argv(1, ref_out), ref_out, check)
    return Plan(commands=[timed], rounds=trials * sum(grid), reference=serial,
                parallel=(serial, timed))


def minimax_dump(seed, size, out_dir):
    t_small, t_dump = SIZES[size]["minimax"]
    out = out_dir / f"minimax-dump-s{seed}.csv"
    both = ["minimax", "--T", str(t_small), "--mode", "both", "--check-bounds"]
    dump = ["minimax", "--T", str(t_dump), "--mode", "closed", "--check-bounds",
            "--output", str(out)]
    return Plan(commands=[
        Command(both, None, lambda stdout, _: checks.check_minimax(stdout, horizon=t_small)),
        Command(dump, out, lambda stdout, path: checks.check_minimax_dump(stdout, path,
                                                                          horizon=t_dump)),
    ], rounds=t_small + t_dump)


WORKLOADS = {
    "mc-oblivious": mc_oblivious,
    "sweep-adaptive": sweep_adaptive,
    "minimax-dump": minimax_dump,
}
