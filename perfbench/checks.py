"""Output checks for the benchmark's CLI commands.

Every check tests a property of the outputs, never their exact bytes, so a
change to the RNG draw layout that keeps the results statistically sound
still passes.  Each check raises ``CheckError`` with the reason on failure.
"""

from __future__ import annotations

import csv
import io
import math
import re
import statistics

FLOAT = r"([-+0-9.eEinfa]+)"


class CheckError(Exception):
    pass


def _require(cond, message):
    if not cond:
        raise CheckError(message)


def _number(pattern, text, what):
    match = re.search(pattern, text)
    _require(match is not None, f"missing {what} line")
    try:
        return [float(g) for g in match.groups()]
    except ValueError as exc:
        raise CheckError(f"unparsable {what} line: {match.group(0)!r}") from exc


def _close(a, b):
    return abs(a - b) <= 1e-9 * max(1.0, abs(a), abs(b))


def regret_rows(csv_path, *, k, expected_rows):
    """Parse the experiment CSV; every row must have K, a finite regret, and the count must match."""
    _require(csv_path is not None and csv_path.is_file(), "no CSV output")
    reader = csv.DictReader(io.StringIO(csv_path.read_text()))
    needed = {"loss", "K", "T", "trial", "regret"}
    _require(reader.fieldnames and needed <= set(reader.fieldnames),
             f"CSV header {reader.fieldnames} lacks {sorted(needed)}")
    rows = []
    for line, row in enumerate(reader, start=2):
        try:
            parsed = (row["loss"], int(row["K"]), int(row["T"]), int(row["trial"]),
                      float(row["regret"]))
        except (TypeError, ValueError) as exc:
            raise CheckError(f"CSV line {line} is malformed: {row}") from exc
        _require(parsed[1] == k, f"CSV line {line} has K={parsed[1]}, expected {k}")
        _require(math.isfinite(parsed[4]), f"CSV line {line} has a non-finite regret")
        rows.append(parsed)
    _require(len(rows) == expected_rows, f"CSV has {len(rows)} rows, expected {expected_rows}")
    keys = {(loss, horizon, trial) for loss, _, horizon, trial, _ in rows}
    _require(len(keys) == len(rows), "CSV repeats a (loss, T, trial) row")
    return rows


def check_run(csv_path, stdout, *, k, horizon, trials, losses):
    """`ucal run`: trials x losses finite rows, the sqrt(KT) pucal ceiling, and a matching summary."""
    rows = regret_rows(csv_path, k=k, expected_rows=trials * losses)
    _require(all(r[2] == horizon for r in rows), f"CSV has a row with T != {horizon}")
    by_loss, by_trial = {}, {}
    for loss, _, _, trial, value in rows:
        by_loss.setdefault(loss, []).append(value)
        by_trial.setdefault(trial, []).append(value)
    _require(len(by_loss) == losses and len(by_trial) == trials,
             f"CSV covers {len(by_loss)} losses x {len(by_trial)} trials, "
             f"expected {losses} x {trials}")
    means = {loss: statistics.fmean(v) for loss, v in by_loss.items()}
    worst = max(means, key=means.get)
    pucal = means[worst]
    ucal = statistics.fmean(max(v) for v in by_trial.values())
    se = statistics.stdev(by_loss[worst]) / math.sqrt(trials) if trials > 1 else 0.0
    ceiling = 4.0 * math.sqrt(k * horizon) + 3.0 * se
    _require(pucal <= ceiling, f"pucal {pucal} above 4 sqrt(KT) + 3 se = {ceiling}")
    printed_pucal, printed_ucal, printed_trials = _number(
        rf"pucal={FLOAT} ucal={FLOAT} .*trials=(\d+)", stdout, "pucal/ucal summary")
    _require(_close(printed_pucal, pucal), f"printed pucal {printed_pucal} != CSV pucal {pucal}")
    _require(_close(printed_ucal, ucal), f"printed ucal {printed_ucal} != CSV ucal {ucal}")
    _require(printed_trials == trials, f"printed trials {printed_trials} != {trials}")


def check_sweep(csv_path, stdout, *, k, horizons, trials, losses):
    """`ucal sweep`: horizons x trials x losses finite rows over exactly the grid, and its summary."""
    rows = regret_rows(csv_path, k=k, expected_rows=len(horizons) * trials * losses)
    seen = sorted({r[2] for r in rows})
    _require(seen == sorted(horizons), f"CSV horizons {seen} != grid {horizons}")
    match = re.search(r"swept T=\[([0-9, ]*)\] trials=(\d+)", stdout)
    _require(match is not None, "missing sweep summary line")
    printed = [int(x) for x in match.group(1).split(",") if x.strip()]
    _require(printed == list(horizons) and int(match.group(2)) == trials,
             f"sweep summary {match.group(0)!r} does not match grid {horizons} x {trials}")


def _check_sandwich(stdout):
    above, below, value, floor = _number(
        rf"sandwich violations: above={FLOAT} below={FLOAT}; value {FLOAT} >= floor {FLOAT}",
        stdout, "sandwich")
    _require(above == 0.0 and below == 0.0, f"sandwich violated: above={above} below={below}")
    _require(value >= floor, f"value {value} below floor {floor}")
    return value


def check_minimax(stdout, *, horizon):
    """`minimax --mode both --check-bounds`: dp and closed form agree, sandwich holds."""
    (dp,) = _number(rf"dp value V\(T={horizon}\) = {FLOAT}", stdout, "dp value")
    (closed,) = _number(rf"closed-form value v\[T={horizon}\] = {FLOAT}", stdout,
                        "closed-form value")
    (gap,) = _number(rf"agreement \|dp - closed\| = {FLOAT}", stdout, "agreement")
    _require(gap <= 1e-8, f"reported |dp - closed| = {gap} > 1e-8")
    # the printed values carry 12 significant digits, so they agree to that
    _require(_close(dp, closed), f"dp value {dp} != closed-form value {closed}")
    value = _check_sandwich(stdout)
    _require(_close(value, closed), f"sandwich value {value} != closed-form value {closed}")


def check_minimax_dump(stdout, dump_path, *, horizon):
    """`minimax --mode closed --check-bounds --output`: sandwich holds, dump has T data rows.

    The dump is read in chunks: at T = 250000 it is ~23 MB, and holding it
    would raise this process's peak RSS, which its children then inherit
    in ``ru_maxrss``.
    """
    (closed,) = _number(rf"closed-form value v\[T={horizon}\] = {FLOAT}", stdout,
                        "closed-form value")
    _require(_close(_check_sandwich(stdout), closed), "sandwich value != closed-form value")
    _require(dump_path is not None and dump_path.is_file(), "no dump output")
    with open(dump_path, "rb") as fh:
        header, first = fh.readline().decode(), fh.readline().decode()
        lines, tail = 2, b""
        while chunk := fh.read(1 << 20):
            lines += chunk.count(b"\n")
            tail = (tail + chunk)[-4096:]
    fields = header.rstrip("\n").split(",")
    _require(fields[:4] == ["r", "u_r", "v_r", "a_r"], f"bad dump header {header!r}")
    _require(first.endswith("\n") and (not tail or tail.endswith(b"\n")),
             "dump does not end with a newline")
    rows = lines - 1
    _require(rows == horizon, f"dump has {rows} data rows, expected {horizon}")
    last = (tail.decode().splitlines() or [first])[-1]
    first, last = first.rstrip("\n").split(","), last.split(",")
    _require(first[0] == "0" and last[0] == str(horizon - 1),
             f"dump rows run {first[0]}..{last[0]}, expected 0..{horizon - 1}")
    _require(len(first) == len(last) == len(fields), "dump row width != header width")
    try:
        finite = all(math.isfinite(float(x)) for x in first + last)
    except ValueError as exc:
        raise CheckError("dump has a non-numeric entry") from exc
    _require(finite, "dump has non-finite entries")
