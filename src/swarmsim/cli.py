"""Command line front end: run scenarios, verify transcripts, emit scenarios.

Exit codes map run outcomes one-to-one so shell callers can branch on them:
0 settled correctly (or verification accepted), 2 aborted, 3 settled
fraudulently, 4 stuck, 1 usage or validation error.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import sys

from . import harness, scenario


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors by default; the contract reserves 2
    # for ABORTED, so usage errors become exit 1
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="swarmsim",
        description="Deterministic multi-agent auction settlement simulator.",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    run_p = sub.add_parser(
        "run", help="run a scenario to quiescence and classify the outcome"
    )
    run_p.add_argument("scenario", help="scenario JSON file")
    run_p.add_argument(
        "--transcript", metavar="PATH", help="write the JSONL transcript as the run goes"
    )
    run_p.add_argument("--report", metavar="PATH", help="write the JSON run report")

    ver_p = sub.add_parser(
        "verify", help="replay a scenario and diff the stored transcript against it"
    )
    ver_p.add_argument("transcript", help="transcript JSONL file")
    ver_p.add_argument("scenario", help="scenario JSON file")

    # Scenario flags carry no argparse defaults: only the flags given reach
    # build_scenario_dict, whose signature states every default once.
    gen_p = sub.add_parser(
        "gen",
        help="emit a schema-valid scenario JSON",
        argument_default=argparse.SUPPRESS,
    )
    gen_p.add_argument("--seed", type=int)
    gen_p.add_argument("--bidders", type=int, help="generated bidder count")
    gen_p.add_argument("--items", type=int, help="identical items for sale")
    gen_p.add_argument("--agents", type=int)
    gen_p.add_argument("--threshold", type=int, help="multisig threshold m")
    gen_p.add_argument(
        "--dist", help="bid distribution, uniform:LO,HI or pareto:SCALE,SHAPE"
    )
    gen_p.add_argument("--window", help="funding window START,END")
    gen_p.add_argument(
        "--height-spread",
        type=int,
        help="heights used by the generator, from window start (default: whole window)",
    )
    gen_p.add_argument("--net-seed", type=int, help="default: --seed")
    gen_p.add_argument("--delay", help="message delay MIN,MAX ticks")
    gen_p.add_argument("--drop-rate", type=float)
    gen_p.add_argument(
        "--fault",
        action="append",
        metavar="IDX:KIND[:ARG]",
        help="inject a fault, e.g. 0:crash:12 or 1:wrong_root:5 (repeatable)",
    )
    gen_p.add_argument("--r-max", type=int)
    gen_p.add_argument("--round-timeout", type=int)
    gen_p.add_argument("--max-time", type=int)
    gen_p.add_argument(
        "--out", metavar="PATH", default=None, help="write here instead of stdout"
    )
    return parser


@contextlib.contextmanager
def _replace_on_success(path: str):
    """Open a sibling of `path` for writing and move it onto `path` once the
    block succeeds; on any error remove it, so a failed run leaves no file."""
    part = path + ".part"
    fh = open(part, "w", encoding="utf-8")
    try:
        with fh:
            yield fh
        os.replace(part, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(part)
        raise


def _cmd_run(args) -> int:
    try:
        data, raw = scenario.load_scenario(args.scenario)
    except OSError as exc:
        print(f"cannot read scenario: {exc}", file=sys.stderr)
        return 1
    # parsed before any output opens; only the Scenario reaches the run
    sc = scenario.parse_scenario(data, raw)
    del data, raw
    # both outputs are opened before the run, so an unwritable path fails at
    # once and a failed run leaves neither; without a transcript path the
    # body still streams, to a file that keeps nothing. No output or .part
    # sibling may name the scenario or another, however spelled or linked.
    path = args.transcript
    files = [args.scenario] + [p + s for p in (path, args.report) if p for s in ("", ".part")]
    if len({os.path.realpath(f) for f in files}) < len(files):
        print("cannot write output: an output names the scenario or another one", file=sys.stderr)
        return 1
    out = _replace_on_success(path) if path else open(os.devnull, "w", encoding="utf-8")
    kept = _replace_on_success(args.report) if args.report else contextlib.nullcontext()
    with out as fh, kept as report_fh:
        report = harness._run(sc, fh.write)[1]
        if report_fh is not None:
            json.dump(report.to_dict(), report_fh, indent=2)
            report_fh.write("\n")
    for line in report.summary_lines():
        print(line)
    return harness.EXIT_CODES[report.outcome]


def _cmd_verify(args) -> int:
    try:
        result = harness.verify_transcript(args.transcript, args.scenario)
    except harness.SchemaMismatch as exc:
        print(f"schema mismatch: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"cannot read input: {exc}", file=sys.stderr)
        return 1
    if result.accepted:
        print(f"accept: transcript reproduced, outcome {result.outcome}")
        return 0
    print(f"reject: {result.reason}")
    if result.line_number is not None:
        print(f"  first divergence at line {result.line_number}")
        print(f"  stored:   {result.got}")
        print(f"  replayed: {result.expected}")
    return 1


def _pair(text: str, flag: str) -> tuple[int, int]:
    parts = text.split(",")
    try:
        a, b = (int(p) for p in parts)
    except ValueError:
        raise scenario.InvalidFlags(
            f"{flag}: expected two comma-separated integers"
        ) from None
    return a, b


def _cmd_gen(args) -> int:
    flags = {k: v for k, v in vars(args).items() if k not in ("command", "out")}
    try:
        for name in ("window", "delay"):
            if name in flags:
                flags[name] = _pair(flags[name], f"--{name}")
        if "fault" in flags:
            flags["faults"] = tuple(flags.pop("fault"))
        data = scenario.build_scenario_dict(**flags)
    except scenario.InvalidFlags as exc:
        print(f"invalid flags: {exc}", file=sys.stderr)
        return 1
    text = json.dumps(data, indent=2) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # --help exits 0, usage errors exit 1; surface either as a return
        return int(exc.code or 0)
    command = {"run": _cmd_run, "verify": _cmd_verify, "gen": _cmd_gen}[args.command]
    # A run and its verify replay build no reference cycles (tests/test_golden.py
    # checks it), so the cyclic collector would only walk their heap and free
    # nothing; it is paused for the command and left as the caller had it.
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        return command(args)
    except scenario.InvalidScenario as exc:
        for problem in exc.problems:
            print(f"invalid scenario: {problem}", file=sys.stderr)
        return 1
    except OSError as exc:  # the commands report their own read errors
        print(f"cannot write output: {exc}", file=sys.stderr)
        return 1
    finally:
        if gc_was_enabled:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
