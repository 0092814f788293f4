"""Set-up probe: import `ucal.cli` and resolve one command's specs, playing no round.

Run in a fresh interpreter as ``python perfbench/probe.py <cli args...>`` with
``src`` on PYTHONPATH.  Prints one JSON line with the import time and the
resolve time; the caller times the whole process for ``setup_s``.
"""

import json
import sys
import time

t0 = time.perf_counter()
from ucal import cli  # noqa: E402

t1 = time.perf_counter()
args = cli.build_parser().parse_args(sys.argv[1:])
if args.command in ("run", "sweep"):
    for spec in ";".join(args.loss).split(";"):
        if spec:
            cli.make_loss(spec)
    cli.make_adversary(args.adversary, args.K)
    last = args.T if args.command == "run" else args.T_stop
    cli.make_forecaster(args.forecaster, args.K, last)
t2 = time.perf_counter()
print(json.dumps({"import_s": t1 - t0, "resolve_s": t2 - t1}))
