"""Command-line interface: assess, compare, oracle, treering-dump.

Exit codes: 0 success, 1 validation/usage error, 2 numerical failure.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

from .errors import NumericalError, ValidationError
from .scenario import RiskReport, load_scenario, run_assess, run_oracle
from .treering import derive_position_moments, dubins_system

__all__ = ["main", "dump_treering"]


def dump_treering(order: int) -> str:
    """Deterministic plain-text listing of the unicycle moment expressions."""
    if order not in (2, 4):
        raise ValidationError(f"unsupported order {order}; choose 2 or 4")
    sys_, graph = dubins_system()
    dyn = derive_position_moments(sys_, graph, order)
    header = (
        "# planar unicycle position moment update expressions\n"
        f"# order: {order}\n"
        f"# expressions: {len(dyn.expressions)}\n"
    )
    return header + dyn.dump()


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; the contract here is exit 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise ValidationError(message)


def _count(text: str):
    """An int, or a float such as 1e6; `mc.sampling_args` checks it is integral."""
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number, got {text!r}") from None


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--scenario", required=True, help="scenario JSON file")
    p.add_argument("--mc-samples", type=_count, default=10**5,
                   help="sample count for mc (default 1e5)")
    p.add_argument("--seed", type=int, default=0, help="mc seed (default 0)")
    p.add_argument("--tol", type=float, default=1e-8,
                   help="imhof integration tolerance (default 1e-8)")
    p.add_argument("--halfspaces", type=int, default=12,
                   help="half-space count for chebyshev-halfspace (default 12)")
    p.add_argument("--sos-degree", type=int, choices=(2, 4, 6), default=4,
                   help="degree used when a bare 'sos' method is requested")
    p.add_argument("--out", help="write the report here instead of stdout")
    p.add_argument("--format", choices=("json", "csv"), default="json")


def _build_parser() -> _Parser:
    parser = _Parser(prog="trajrisk",
                     description="Probabilistic collision risk along planned trajectories")
    sub = parser.add_subparsers(dest="command", required=True)

    p_assess = sub.add_parser("assess", help="evaluate selected methods on a scenario")
    _add_common(p_assess)
    p_assess.add_argument("--methods", required=True,
                          help="comma-separated: imhof,ltz,chebyshev-quad,"
                               "chebyshev-halfspace,sos[-d{2,4,6}],mc")

    p_cmp = sub.add_parser("compare", help="method totals and timing table")
    _add_common(p_cmp)
    p_cmp.add_argument("--methods", required=True, help="comma-separated method list")

    p_oracle = sub.add_parser("oracle", help="Monte Carlo reference only")
    _add_common(p_oracle)

    p_dump = sub.add_parser("treering-dump", help="print moment update expressions")
    p_dump.add_argument("--order", type=int, required=True, choices=(2, 4))
    p_dump.add_argument("--out", help="write the dump here instead of stdout")
    return parser


def _parse_methods(spec: str, sos_degree: int) -> List[str]:
    methods = []
    for raw in spec.split(","):
        name = raw.strip()
        if not name:
            continue
        if name == "sos":
            name = f"sos-d{sos_degree}"
        methods.append(name)
    return methods


def _emit(report: RiskReport, out: Optional[str], fmt: str) -> None:
    if out:
        report.write(out, format=fmt)
    else:
        sys.stdout.write(report.to_json() if fmt == "json" else report.to_csv())


def _compare_table(report: RiskReport) -> str:
    agents = sorted({r.agent for r in report.totals})
    lines = []
    head = f"{'method':22s}" + "".join(f"agent{a:>2d} total " for a in agents) + "time (ms)"
    lines.append(head)
    lines.append("-" * len(head))
    for method in report.methods:
        cells = []
        for a in agents:
            val = next(r.value for r in report.totals if r.agent == a and r.method == method)
            cells.append(f"{val:13.6f} ")
        lines.append(f"{method:22s}" + "".join(cells) + f"{report.timings_ms[method]:9.2f}")
    return "\n".join(lines) + "\n"


def main(argv: Optional[List[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "treering-dump":
            text = dump_treering(args.order)
            if args.out:
                with open(args.out, "w", encoding="utf-8") as fh:
                    fh.write(text)
            else:
                sys.stdout.write(text)
            sys.stdout.flush()
            return 0

        scenario = load_scenario(args.scenario)
        if args.command == "oracle":
            report = run_oracle(scenario, mc_samples=args.mc_samples, seed=args.seed)
        else:
            methods = _parse_methods(args.methods, args.sos_degree)
            report = run_assess(
                scenario,
                methods,
                mc_samples=args.mc_samples,
                seed=args.seed,
                tol=args.tol,
                n_halfspaces=args.halfspaces,
            )
        if args.command == "compare":
            sys.stdout.write(_compare_table(report))
            if args.out:
                report.write(args.out, format=args.format)
        else:
            _emit(report, args.out, args.format)
        # Flush inside the except scope so a reader that closed the pipe
        # surfaces as BrokenPipeError here, not at interpreter shutdown.
        sys.stdout.flush()
        return 0
    except BrokenPipeError:
        # Downstream reader (e.g. `... | head`) closed the pipe; exit
        # quietly like other line tools instead of reporting an error.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (ValidationError, OSError, MemoryError) as e:
        # OSError covers unreadable scenario files and unwritable --out paths,
        # MemoryError a --mc-samples too large to allocate.
        print(f"error: {e}", file=sys.stderr)
        return 1
    except NumericalError as e:
        print(f"numerical failure: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
