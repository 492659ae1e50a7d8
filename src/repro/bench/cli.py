"""The one CLI: ``python -m repro.bench <suite> [--scale S] [flags]``.

    python -m repro.bench all                      # the five paper artifacts
    python -m repro.bench figure5 --scale medium --dataset laghos
    python -m repro.bench table3 --trace --trace-out t3.json
    python -m repro.bench join --scale smoke --query q12 --seed 1
    python -m repro.bench snapshot --check BENCH_39.json

One parser, built from the suite registry: every suite takes ``--scale``
(its own scale names) plus exactly the flags it declares, so a flag a
suite does not know is a usage error (exit 2) from the same place for
every suite.  ``python -m repro.bench --help`` lists the suites;
``python -m repro.bench <suite> --help`` lists a suite's scales and
flags.  Stdout is the suite's ``render(doc)`` and nothing else.  The
exit status is 1 when an invariant the suite declares is false in the
doc (``snapshot --check`` finding violations is one such invariant).
"""

from __future__ import annotations

import argparse
from typing import List, Optional

from repro.bench import snapshot
from repro.bench.registry import SUITES, Doc, Gate, Suite, select, suite
from repro.errors import ConfigError

__all__ = ["COMMANDS", "build_parser", "main"]

#: ``all`` regenerates the paper's own evidence, in the paper's order.
PAPER_ARTIFACTS = ("figure5", "figure6", "table2", "table3", "lossy")


def _run_all(scale: str) -> Doc:
    artifacts = [SUITES[name] for name in PAPER_ARTIFACTS]
    return {
        each.name: each.run(scale if scale in each.scales else each.default_scale)
        for each in artifacts
    }


def _render_all(doc: Doc) -> str:
    return "\n\n".join(SUITES[name].render(section) for name, section in doc.items())


#: Everything the CLI dispatches: the registry, plus the two commands
#: that loop over it instead of measuring something themselves.
COMMANDS = {
    **SUITES,
    "all": Suite(
        name="all",
        default_scale="small",
        run=_run_all,
        render=_render_all,
        doc="The five paper artifacts (figure5, figure6, table2, table3, "
        "lossy), one after another.",
    ),
    "snapshot": suite(
        snapshot,
        "smoke",
        flags=(
            (
                "--out",
                {"metavar": "PATH", "help": "write the fresh snapshot to PATH"},
            ),
            (
                "--check",
                {
                    "metavar": "BASELINE",
                    "help": "compare the fresh snapshot against a committed "
                    "baseline; exit 1 on regression",
                },
            ),
        ),
        # Declared for the exit status only: ``snapshot`` is not in SUITES,
        # so ``collect`` never sees this gate (or recurses into itself).
        gate=Gate(invariants=("clean",)),
    ),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Regenerate the paper's evaluation artifacts, the "
        "extension benches and the per-PR snapshot gate.",
    )
    commands = parser.add_subparsers(dest="suite", metavar="suite", required=True)
    for command in COMMANDS.values():
        sub = commands.add_parser(
            command.name,
            help=command.doc.partition("\n")[0],
            description=command.doc,
            formatter_class=argparse.RawDescriptionHelpFormatter,
        )
        sub.add_argument(
            "--scale", choices=command.scales, default=command.default_scale,
            help="default: %(default)s",
        )
        for flag, keywords in command.flags:
            sub.add_argument(flag, **keywords)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = vars(parser.parse_args(argv))
    command = COMMANDS[args.pop("suite")]
    try:
        doc = command.run(**args)
    except ConfigError as exc:
        # A flag combination the suite rejects is a usage error like any other.
        parser.error(str(exc))
    print(command.render(doc))
    invariants = select(doc, command.gate.invariants) if command.gate else {}
    return 0 if all(value is True for value in invariants.values()) else 1
