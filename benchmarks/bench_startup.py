"""Cold start: wall time of CLI commands in fresh interpreters.

A user's ``repro check`` pays for interpreter start and for every module
the command imports before it pays for the decision procedure, which on
the paper's Figure 1 cells takes milliseconds.  This script times whole
commands, each sample one fresh ``python`` process:

* ``python -c pass`` — the bare interpreter, the floor;
* ``import repro.cli`` — what the CLI costs before it parses arguments;
* ``repro check``, ``repro lint`` and ``repro validate`` on the
  ``examples/`` mapping and document.

Commands run the way the ``repro`` console script runs them
(``from repro.cli import main``).  Every round times each command once
per arm, and the arms alternate within the round, so a slow spell of a
shared host lands on both.  ``--before CHECKOUT`` adds an arm for another
checkout (a ``git archive`` of the parent commit, say), journaled under
``before``::

    python benchmarks/bench_startup.py --before /tmp/parent

Two series are journaled into ``BENCH_startup.json``:
``no-bytecode-cache`` compiles every loaded module in every interpreter
(as with ``PYTHONDONTWRITEBYTECODE=1`` and no ``__pycache__``), and
``bytecode-cache`` reads the bytecode that one untimed warm-up run wrote
under a private ``PYTHONPYCACHEPREFIX``.  Each entry is the median and
IQR in milliseconds over the samples.  ``--rounds`` sets the sample
count (at least 11).

The deterministic half, which modules each command loads, is tested in
``tests/test_startup.py`` (``make startup-smoke``).
"""

from __future__ import annotations

import argparse
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

if True:  # make both `pytest benchmarks` and direct execution work
    _here = Path(__file__).resolve().parent
    if str(_here) not in sys.path:
        sys.path.insert(0, str(_here))

from harness import REPO_ROOT, emit_json

#: Fresh interpreters per command, arm and series.
ROUNDS = 15

_MAIN = "import sys; from repro.cli import main; sys.exit(main(sys.argv[1:]))"

#: The timed commands: name -> python arguments (run from the repo root).
COMMANDS = {
    "python -c pass": ["-c", "pass"],
    "import repro.cli": ["-c", "import repro.cli"],
    "repro check": ["-c", _MAIN, "check", "examples/mappings/university.xsm"],
    "repro lint": ["-c", _MAIN, "lint", "examples/mappings/university.xsm"],
    "repro validate": [
        "-c", _MAIN, "validate", "--dtd", "examples/documents/university.dtd",
        "examples/documents/university.xml",
    ],
}


def _environment(src: Path, pycache: Path | None) -> dict[str, str]:
    env = dict(os.environ, PYTHONPATH=str(src))
    env.pop("PYTHONPYCACHEPREFIX", None)
    if pycache is None:
        env["PYTHONDONTWRITEBYTECODE"] = "1"
    else:
        env.pop("PYTHONDONTWRITEBYTECODE", None)
        env["PYTHONPYCACHEPREFIX"] = str(pycache)
    return env


def _run(arguments: list[str], env: dict[str, str]) -> float:
    """Wall seconds of one fresh interpreter running *arguments*."""
    started = time.perf_counter()
    completed = subprocess.run(
        [sys.executable, *arguments], cwd=REPO_ROOT, env=env,
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
    )
    elapsed = time.perf_counter() - started
    if completed.returncode != 0:
        raise RuntimeError(
            f"{arguments[2:] or arguments} exited {completed.returncode}: "
            f"{completed.stderr.decode(errors='replace').strip()}"
        )
    return elapsed


def _median_iqr_ms(seconds: list[float]) -> dict:
    quartiles = statistics.quantiles(seconds, n=4)
    return {
        "median_ms": 1000 * statistics.median(seconds),
        "iqr_ms": 1000 * (quartiles[2] - quartiles[0]),
        "samples": len(seconds),
    }


def run_series(arms: dict[str, Path], rounds: int, cached: bool) -> dict:
    """``{arm: {command: median/IQR}}`` over *rounds* interleaved rounds."""
    scratch = Path(tempfile.mkdtemp(prefix="repro-startup-")) if cached else None
    try:
        envs = {
            arm: _environment(src, None if scratch is None else scratch / arm)
            for arm, src in arms.items()
        }
        if cached:
            for arm, env in envs.items():  # write the bytecode once, untimed
                for arguments in COMMANDS.values():
                    _run(arguments, env)
        seconds: dict[str, dict[str, list[float]]] = {
            arm: {command: [] for command in COMMANDS} for arm in arms
        }
        order = list(arms)
        for round_index in range(rounds):
            for command, arguments in COMMANDS.items():
                # alternate which arm goes first
                for arm in order if round_index % 2 == 0 else order[::-1]:
                    seconds[arm][command].append(_run(arguments, envs[arm]))
    finally:
        if scratch is not None:
            shutil.rmtree(scratch, ignore_errors=True)
    return {
        arm: {command: _median_iqr_ms(series) for command, series in rows.items()}
        for arm, rows in seconds.items()
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--before", type=Path, metavar="CHECKOUT",
                        help="also time this checkout (journaled under 'before')")
    parser.add_argument("--rounds", type=int, default=ROUNDS,
                        help=f"fresh interpreters per command and arm (default {ROUNDS})")
    args = parser.parse_args(argv)
    if args.rounds < 11:
        parser.error("--rounds must be at least 11")
    arms = {"after": REPO_ROOT / "src"}
    if args.before is not None:
        arms["before"] = args.before.resolve() / "src"
    for series, cached in (("no-bytecode-cache", False), ("bytecode-cache", True)):
        record = run_series(arms, args.rounds, cached)
        for command, row in record["after"].items():
            line = f"[startup] {series:<17} {command:<16}: "
            if "before" in record:
                old = record["before"][command]
                line += f"{old['median_ms']:6.1f} ms (IQR {old['iqr_ms']:5.1f}) -> "
            print(f"{line}{row['median_ms']:6.1f} ms (IQR {row['iqr_ms']:5.1f})")
        emit_json("startup", series, record)
    emit_json("startup", None, None, meta={
        "commands": {name: " ".join(arguments) for name, arguments in COMMANDS.items()},
        "bytecode": "no-bytecode-cache: PYTHONDONTWRITEBYTECODE=1, so every "
        "interpreter compiles every module it loads; bytecode-cache: "
        "PYTHONPYCACHEPREFIX at a private directory that one untimed run "
        "of each command filled first",
        "samples": f"{args.rounds} fresh interpreters per command, arm and "
        "series; each round runs every command once per arm, the arm "
        "order alternating from round to round",
        "spread": "median and IQR of wall time per command (ms), "
        "measured around the subprocess from the parent",
    })
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
