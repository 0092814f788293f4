"""Each output check accepts real CLI output and rejects corrupted outputs."""

import contextlib
import io

import pytest

import checks
import workloads
from ucal import cli


def _run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(argv) == 0
    return out.getvalue()


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    """Real tiny-size outputs of every workload command: {workload: [(command, stdout)]}."""
    out_dir = tmp_path_factory.mktemp("cli")
    got = {}
    for name, make in workloads.WORKLOADS.items():
        got[name] = [(cmd, _run(cmd.argv)) for cmd in make(7, "tiny", out_dir).serial()]
    return got


def _rewrite(path, edit):
    path.write_text(edit(path.read_text()))


def _drop_last_row(text):
    return "".join(text.splitlines(keepends=True)[:-1])


def _nan_regret(text):
    lines = text.splitlines(keepends=True)
    fields = lines[1].rstrip("\n").split(",")
    lines[1] = ",".join(fields[:-1] + ["nan"]) + "\n"
    return "".join(lines)


def _bump_pucal(stdout):
    head, _, rest = stdout.partition("pucal=")
    value, _, tail = rest.partition(" ")
    return f"{head}pucal={float(value) + 0.5:.12g} {tail}"


def _without(prefix):
    return lambda stdout: "".join(line for line in stdout.splitlines(keepends=True)
                                  if not line.startswith(prefix))


CORRUPTIONS = {
    # workload, command index -> {what: (stdout edit or None, output file edit or None)}
    ("mc-oblivious", 0): {
        "dropped row": (None, _drop_last_row),
        "non-finite regret": (None, _nan_regret),
        "mismatched summary": (_bump_pucal, None),
        "missing summary": (_without("pucal="), None),
    },
    ("sweep-adaptive", 0): {
        "dropped row": (None, _drop_last_row),
        "non-finite regret": (None, _nan_regret),
        "mismatched summary": (lambda s: s.replace("trials=2", "trials=3"), None),
        "missing summary": (_without("swept"), None),
    },
    ("minimax-dump", 0): {
        "missing agreement line": (_without("agreement"), None),
        "mismatched summary": (lambda s: s.replace("closed-form value v[T=64] = ",
                                                   "closed-form value v[T=64] = 1"), None),
        "sandwich violation": (lambda s: s.replace("above=0.000e+00", "above=1.000e-15"), None),
    },
    ("minimax-dump", 1): {
        "dropped row": (None, _drop_last_row),
        "missing sandwich line": (_without("sandwich"), None),
        "mismatched summary": (lambda s: s.replace("closed-form value v[T=2000] = ",
                                                   "closed-form value v[T=2000] = 1"), None),
    },
}


@pytest.mark.parametrize("key", sorted(CORRUPTIONS))
def test_check_accepts_real_output(outputs, key):
    cmd, stdout = outputs[key[0]][key[1]]
    cmd.check(stdout, cmd.output)


@pytest.mark.parametrize("key,what", [(k, w) for k in sorted(CORRUPTIONS) for w in CORRUPTIONS[k]])
def test_check_rejects_corruption(outputs, tmp_path, key, what):
    cmd, stdout = outputs[key[0]][key[1]]
    edit_stdout, edit_output = CORRUPTIONS[key][what]
    output = cmd.output
    if cmd.output is not None:
        output = tmp_path / cmd.output.name
        output.write_text(cmd.output.read_text())
        if edit_output:
            _rewrite(output, edit_output)
    if edit_stdout:
        stdout = edit_stdout(stdout)
    with pytest.raises(checks.CheckError):
        cmd.check(stdout, output)


def test_run_check_enforces_the_sqrt_kt_ceiling(tmp_path):
    rows = ["experiment,forecaster,adversary,loss,K,T,trial,seed,regret"]
    rows += [f"run,f,a,vshaped,2,8,{trial},0,100" for trial in range(2)]
    path = tmp_path / "run.csv"
    path.write_text("\n".join(rows) + "\n")
    summary = "pucal=100 ucal=100 std_error=0 trials=2\n"
    with pytest.raises(checks.CheckError, match="above 4 sqrt"):
        checks.check_run(path, summary, k=2, horizon=8, trials=2, losses=1)
