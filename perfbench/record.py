"""Record the reference outputs the oracles compare against.

    python3 perfbench/record.py

Writes perfbench/reference/cli_defaults.json (every subcommand of the
cli-defaults sweep; seed-dependent ones at each CLI seed) and
perfbench/reference/ball_cold.json (the ball-cold base points with their
kept counts at R=10).  The committed files were recorded from discforms
0.1.0 at git commit 288a8d0; re-record only when a change is meant to alter
these outputs, and say so in the change log.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from discforms import cli, group  # noqa: E402

import workloads as wls  # noqa: E402


def _outcome(argv):
    try:
        code, text = wls.run_cli(argv)
    except TypeError as exc:
        # Report serialisation failure: keep what the command computed, as
        # the reference for a version that serialises it.
        original = cli._jsonable

        def jsonable(obj):
            return bool(obj) if isinstance(obj, np.bool_) else original(obj)
        cli._jsonable = jsonable
        try:
            code, text = wls.run_cli(argv)
        finally:
            cli._jsonable = original
        return {"raises": type(exc).__name__, "exit_if_serialisable": code,
                "report_if_serialisable": json.loads(text)["report"]}
    return {"exit": code, "report": json.loads(text)["report"]}


def record_cli():
    commands = {}
    for sub, extra in wls.CLI_SWEEP:
        seeds = range(wls.CLI_SEEDS) if sub in wls.SEEDED else (0, 1)
        outcomes = {str(s): _outcome(wls.cli_argv(sub, extra, s))
                    for s in seeds}
        if sub not in wls.SEEDED:
            if outcomes["0"] != outcomes["1"]:
                raise SystemExit(f"{sub} depends on --seed; add it to SEEDED")
            outcomes = {"any": outcomes["0"]}
        commands[sub] = {"argv": wls.cli_argv(sub, extra, "SEED"),
                         "outcomes": outcomes}
        print(sub, file=sys.stderr, flush=True)
    return {"library": "discforms 0.1.0 at git 288a8d0",
            "commands": commands}


def record_ball_cold():
    pool = wls.ball_cold_pool()
    kept = [[len(group.enumerate_ball(group.load_group(wls.PRESET), complex(x),
                                      wls.COLD_RADIUS)) for x in row]
            for row in pool]
    return {"library": "discforms 0.1.0 at git 288a8d0",
            "radius": wls.COLD_RADIUS,
            "base_points": [[[x.real, x.imag] for x in row] for row in pool],
            "kept": kept}


def main():
    wls.REFERENCE.mkdir(exist_ok=True)
    for name, build in (("cli_defaults", record_cli),
                        ("ball_cold", record_ball_cold)):
        doc = build()
        with open(wls.REFERENCE / f"{name}.json", "w") as fh:
            json.dump(doc, fh, indent=1, sort_keys=True)
            fh.write("\n")


if __name__ == "__main__":
    main()
