"""Benchmark of the `ucal` command line, end to end and layer by layer.

    python3 perfbench/run.py --workload mc-oblivious --seed 1 --seconds 40 --trace 0

Run from anywhere inside a source checkout; the package is used from
``src`` (PYTHONPATH), not installed.  One client runs one
``python -m ucal.cli ...`` command at a time, each in a fresh process, and
starts the next when it has finished (a closed loop); the only parallelism
is the CLI's own ``--workers 2`` on sweep-adaptive, so never more processes
than the two cores this benchmark was sized on.

``--trace 0`` repeats the workload's commands for up to ``--seconds`` and
reports the end-to-end metrics named in BENCHMARK.json, with its times
taken to a reference host speed (hostspeed.py).  ``--trace 1`` instead plays
the workload in this process with workers=1, alternating untraced and traced
iterations, and reports the per-layer metrics (see spans.py).  Every command's
outputs are checked (checks.py); a failed command or check counts in
``failed``.  The last stdout line is the JSON result; a fuller record, with
machine facts and every sample, goes to .perfbench_out/.  Without the
package sources the benchmark exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path
from statistics import fmean, median

import checks
import hostspeed
import workloads

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"
HARD_LIMIT_S = 165.0  # a run must end within 180 s; commands still running then are killed
SETUP_PROBES = 5      # fresh-interpreter set-up probes per run, inside its --seconds


class PreflightError(Exception):
    """The package cannot be run at all; no result is printed."""


@dataclass
class Sample:
    wall: float
    cpu: float
    rss_mb: float
    speed: float  # host speed factor measured around it (hostspeed.py)
    error: str | None
    stdout: str = ""


class Budget:
    """The run's own deadline (--seconds) and the hard one that keeps it under 180 s."""

    def __init__(self, seconds):
        self.begin = time.monotonic()
        self.soft = self.begin + min(seconds, HARD_LIMIT_S)
        self.hard = self.begin + HARD_LIMIT_S

    def spent(self, last_iteration_s):
        """True when another iteration as long as the last would end past --seconds."""
        return time.monotonic() + last_iteration_s >= self.soft


class Tally:
    """Program invocations attempted and failed, with the first few reasons."""

    def __init__(self):
        self.attempted = self.failed = 0
        self.errors = []

    def add(self, what, error):
        self.attempted += 1
        if error:
            self.failed += 1
            if len(self.errors) < 20:
                self.errors.append(f"{what}: {error}")


def _kill_group(pid):
    with contextlib.suppress(ProcessLookupError):
        os.killpg(pid, signal.SIGKILL)


def _env():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.pop("UCAL_THREADS", None)  # it would cap --workers
    return env


def spawn(args, tag, budget):
    """Run ``python args...`` to completion; wall, user+sys and peak RSS of it and its children.

    The host speed factor is measured right before and after the process runs.
    """
    out_path, err_path = OUT / f"{tag}.stdout", OUT / f"{tag}.stderr"
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [(os.POSIX_SPAWN_OPEN, 1, str(out_path), flags, 0o644),
               (os.POSIX_SPAWN_OPEN, 2, str(err_path), flags, 0o644)]

    def run():
        t0 = time.perf_counter()
        pid = os.posix_spawn(sys.executable, [sys.executable, *args], _env(),
                             file_actions=actions, setsid=True)
        killer = threading.Timer(max(0.0, budget.hard - time.monotonic()), _kill_group, (pid,))
        killer.start()
        try:
            _, status, usage = os.wait4(pid, 0)
        finally:
            killer.cancel()
        return time.perf_counter() - t0, status, usage

    (wall, status, usage), speed = hostspeed.timed(run)
    code = os.waitstatus_to_exitcode(status)
    error = None
    if code != 0:
        tail = err_path.read_text(errors="replace").strip().splitlines()[-1:]
        error = f"exit code {code} {tail}"
    return Sample(wall=wall, cpu=usage.ru_utime + usage.ru_stime,
                  rss_mb=usage.ru_maxrss / 1024.0, speed=speed, error=error,
                  stdout=out_path.read_text(errors="replace"))


def _digest(path, stdout):
    digest = hashlib.sha256()
    if path is None:
        digest.update(stdout.encode())
        return digest.hexdigest()
    with open(path, "rb") as fh:
        while chunk := fh.read(1 << 20):
            digest.update(chunk)
    return digest.hexdigest()


def _verify(cmd, stdout, index, expected):
    """Run the command's check; outputs must also repeat byte for byte within a run.

    A checked output file is removed, so that every run of a command starts
    from the same files (no earlier output to truncate); a failing one stays.
    """
    try:
        cmd.check(stdout, cmd.output)
    except checks.CheckError as exc:
        return str(exc)
    digest = _digest(cmd.output, stdout)
    if expected.setdefault(index, digest) != digest:
        return "output bytes differ from an earlier run at the same seed"
    if cmd.output is not None:
        cmd.output.unlink()
    return None


def run_command(cmd, index, tag, budget, tally, expected):
    sample = spawn(["-m", "ucal.cli", *cmd.argv], tag, budget)
    if sample.error is None:
        sample.error = _verify(cmd, sample.stdout, index, expected)
    tally.add(" ".join(cmd.argv[:1] + cmd.argv[1:3]), sample.error)
    return sample


def probe(plan, tag, budget, tally):
    """Fresh interpreter: import ucal.cli and resolve the first command's specs."""
    sample = spawn([str(Path(__file__).with_name("probe.py")), *plan.commands[0].argv],
                   tag, budget)
    tally.add("set-up probe", sample.error)
    if sample.error is not None:
        return sample, None
    return sample, json.loads(sample.stdout.strip().splitlines()[-1])


def end_to_end(name, plan, budget, tally):
    expected = {}
    if probe(plan, f"{name}-warmup", budget, tally)[1] is None:
        raise PreflightError("the set-up probe failed; see .perfbench_out/*-warmup.stderr")
    if plan.reference is not None:
        run_command(plan.reference, 0, f"{name}-reference", budget, tally, expected)
    setup = [probe(plan, f"{name}-probe", budget, tally)[0] for _ in range(SETUP_PROBES)]
    iterations, last = [], 0.0
    while not (iterations and budget.spent(last)):
        t0 = time.monotonic()
        iterations.append([run_command(cmd, i, f"{name}-cmd{i}", budget, tally, expected)
                           for i, cmd in enumerate(plan.commands)])
        last = time.monotonic() - t0
    samples = {
        "wall_s": [sum(s.wall for s in runs) for runs in iterations],
        "cpu_s": [sum(s.cpu for s in runs) for runs in iterations],
        "rss_mb": [max(s.rss_mb for s in runs) for runs in iterations],
        "speed": [s.speed for runs in iterations for s in runs],
        "setup_s": [s.wall for s in setup],
        "setup_speed": [s.speed for s in setup],
    }
    # Host slowdowns scale times, so they cancel in a run's mean time over its
    # mean factor; a median over the mean factor cancelled them worse.
    speed = fmean(samples["speed"])
    wall = hostspeed.at_reference(fmean(samples["wall_s"]), speed)
    metrics = {
        "wall_s": wall,
        "rounds_per_s": plan.rounds / wall,
        "cpu_s": hostspeed.at_reference(fmean(samples["cpu_s"]), speed),
        "peak_rss_mb": max(samples["rss_mb"]),
        "setup_s": median(hostspeed.at_reference(s.wall, s.speed) for s in setup),
    }
    return metrics, samples


def _play(cli, commands, tally, expected):
    """One in-process iteration; returns its wall time (checks run outside the timing)."""
    wall, results = 0.0, []
    for cmd in commands:
        out = io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            try:
                code = cli.main(cmd.argv)
            except SystemExit as exc:  # argparse usage errors
                code = exc.code
            except Exception as exc:  # a crash is a failed command, not a benchmark crash
                code = f"{type(exc).__name__}: {exc}"
        wall += time.perf_counter() - t0
        results.append((code, out.getvalue()))
    for i, (cmd, (code, stdout)) in enumerate(zip(commands, results)):
        error = f"exit code {code}" if code != 0 else _verify(cmd, stdout, i, expected)
        tally.add("in-process " + cmd.argv[0], error)
    return wall


def traced(name, plan, budget, tally):
    import spans  # only the traced run needs it

    imports, resolves = [], []
    for _ in range(3):
        _, timing = probe(plan, f"{name}-probe", budget, tally)
        if timing is None:
            raise PreflightError("the set-up probe failed; see .perfbench_out/*-probe.stderr")
        imports.append(timing["import_s"])
        resolves.append(timing["resolve_s"])
    speedup = 0.0  # 0 where the workload has no trial workers to compare
    if plan.parallel is not None:
        expected = {}
        w1, w2 = (run_command(cmd, 0, f"{name}-workers{i + 1}", budget, tally, expected)
                  for i, cmd in enumerate(plan.parallel))
        speedup = w1.wall / w2.wall

    sys.path.insert(0, str(ROOT / "src"))
    from ucal import cli

    commands = plan.serial()
    expected, untraced_walls, traced_walls, totals = {}, [], [], {}
    tracer = spans.Tracer()
    kept = None
    while not (traced_walls and budget.spent(untraced_walls[-1] + traced_walls[-1])):
        untraced_walls.append(_play(cli, commands, tally, expected))
        tracer.install()
        try:
            traced_walls.append(_play(cli, commands, tally, expected))
        finally:
            tracer.uninstall()
        if kept is None:
            kept = tracer.arrays()
        tracer.fold(totals)
    spans.write_spans(OUT / f"{name}.spans.tsv", tracer.names, kept)

    metrics = spans.layer_metrics(totals, len(traced_walls))
    metrics["cli.import_s"] = median(imports)
    metrics["cli.resolve_ms"] = median(resolves) * 1e3
    metrics["cli.parallel_speedup"] = speedup
    metrics["trace.overhead_frac"] = median(traced_walls) / median(untraced_walls) - 1.0
    samples = {"untraced_s": untraced_walls, "traced_s": traced_walls,
               "import_s": imports, "resolve_s": resolves, "span_totals": totals}
    return metrics, samples


def _version(dist):
    try:
        return metadata.version(dist)
    except metadata.PackageNotFoundError:
        return None


def _loadavg():
    try:
        return Path("/proc/loadavg").read_text().split()[:3]
    except OSError:
        return None


def _git_sha():
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def _src_digest():
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def machine_facts():
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "loadavg_start": _loadavg(),
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "git_sha": _git_sha(),
        "src_sha256": _src_digest(),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(workloads.SIZES), default="full",
                        help="'tiny' shrinks every command; for the benchmark's own tests")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = spec["per_layer"] if args.trace else spec["end_to_end"]
    if not (ROOT / "src" / "ucal" / "cli.py").is_file():
        print("error: no package sources at src/ucal", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    facts = machine_facts()
    budget, tally = Budget(args.seconds), Tally()
    plan = workloads.WORKLOADS[args.workload](args.seed, args.size, OUT)
    measure = traced if args.trace else end_to_end
    try:
        metrics, samples = measure(args.workload, plan, budget, tally)
    except PreflightError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    facts["loadavg_end"] = _loadavg()
    # a floor under peak_rss_mb: a spawned child inherits this process's high-water mark
    facts["bench_peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    facts["elapsed_s"] = time.monotonic() - budget.begin

    mismatch = {m["name"] for m in names} ^ set(metrics)
    if mismatch:
        raise RuntimeError(f"metrics and BENCHMARK.json disagree on {sorted(mismatch)}")
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in names},
    }
    record = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, size=args.size, facts=facts, errors=tally.errors,
                  samples=samples)
    (OUT / f"{args.workload}-s{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    for error in tally.errors:
        print(f"failed: {error}", file=sys.stderr)
    print("facts: " + json.dumps(facts))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
