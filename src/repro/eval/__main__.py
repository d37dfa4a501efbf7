"""Regenerate the paper's evaluation from the command line.

One subcommand per evaluation mode, sharing ``--out-dir``/``--arch``/
``--seed``::

    python -m repro.eval figures                # all figures
    python -m repro.eval figures fig11 fig15
    python -m repro.eval profile                # perfmodel calibration
    python -m repro.eval conformance --self-check
    python -m repro.eval bench-smoke --out-dir bench_artifacts
    python -m repro.eval serve-bench --requests 200
    python -m repro.eval graph-bench            # executed network bench
    python -m repro.eval tuner-bench            # tune-all fleet benchmark

``python -m repro.eval <command> --help`` documents each subcommand.
"""

from __future__ import annotations

import argparse
import sys


def _common_parser(out_dir: bool = False) -> argparse.ArgumentParser:
    """The options every subcommand shares."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--arch", default="ampere",
                        help="target architecture (default: ampere)")
    common.add_argument("--seed", type=int, default=0,
                        help="RNG seed for generated problem data")
    if out_dir:
        common.add_argument(
            "--out-dir", dest="out_dir",
            default="bench_artifacts", metavar="DIR",
            help="artifact output directory (default: bench_artifacts)",
        )
    return common


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.eval",
        description="Regenerate the paper's evaluation.",
    )
    sub = parser.add_subparsers(dest="command", metavar="command",
                                required=True)
    plain, with_out = _common_parser(), _common_parser(out_dir=True)

    p = sub.add_parser("figures", parents=[plain],
                       help="print evaluation figure tables")
    p.add_argument("names", nargs="*", metavar="figure",
                   help="figure names (default: all)")

    sub.add_parser("profile", parents=[plain],
                   help="perfmodel calibration report (measured vs modelled)")

    p = sub.add_parser("conformance", parents=[plain],
                       help="emulated CUDA vs simulator vs numpy")
    p.add_argument("cases", nargs="*", metavar="case",
                   help="case names (default: all)")
    p.add_argument("--self-check", action="store_true",
                   help="also run the stride-mutation negative control")

    p = sub.add_parser("bench-smoke", parents=[with_out],
                       help="profiled smoke benchmarks per kernel family")
    p.add_argument("figures", nargs="*", metavar="figure",
                   help="family names, e.g. fig09 (default: all)")

    p = sub.add_parser("serve-bench", parents=[with_out],
                       help="captured-graph serving benchmark")
    p.add_argument("families", nargs="*", metavar="family",
                   help="request families (default: all)")
    p.add_argument("--requests", type=int, default=120,
                   help="number of requests (default: 120)")
    p.add_argument("--workers", type=int, default=4,
                   help="serving worker threads (default: 4)")

    p = sub.add_parser(
        "graph-bench", parents=[with_out],
        help="execute the Figure 15 networks end to end via repro.graph",
    )
    p.add_argument("networks", nargs="*", metavar="network",
                   help="network names (default: all five + decode)")
    p.add_argument("--no-tune", action="store_true",
                   help="skip the autotuner gate for GEMM tiles")

    p = sub.add_parser(
        "tuner-bench", parents=[with_out],
        help="tune-all fleet benchmark (serial vs parallel vs transfer)",
    )
    p.add_argument("--workers", type=int, default=None,
                   help="process-fleet width (default: cpu count, min 2)")
    p.add_argument("--quick", action="store_true",
                   help="reduced smoke roster")

    return parser


def _cmd_figures(args) -> int:
    from .figures import ALL_FIGURES

    names = args.names or sorted(ALL_FIGURES)
    unknown = [n for n in names if n not in ALL_FIGURES]
    if unknown:
        print(f"unknown figures: {unknown}; available: "
              f"{sorted(ALL_FIGURES)}")
        return 2
    for name in names:
        print(ALL_FIGURES[name]().format_table())
        print()
    return 0


def _cmd_profile(args) -> int:
    from ..perfmodel import calibrate

    report = calibrate(args.arch)
    print(report.format_table())
    return 0 if report.passed else 1


def _cmd_conformance(args) -> int:
    from ..codegen.cuda import CudaGenerator
    from ..conformance import (
        default_cases, format_report, mutate_index_stride, run_case,
    )

    cases = default_cases(args.seed)
    if args.cases:
        unknown = set(args.cases) - {c.name for c in cases}
        if unknown:
            print(f"unknown cases: {sorted(unknown)}; available: "
                  f"{[c.name for c in cases]}")
            return 2
        cases = [c for c in cases if c.name in args.cases]
    results = [run_case(c) for c in cases]
    print(format_report(results))
    ok = all(r.passed for r in results)
    if args.self_check:
        # Negative control: every case must FAIL once a read stride in
        # its generated source is mutated, or the harness has no teeth.
        undetected = []
        for case in cases:
            source = mutate_index_stride(
                CudaGenerator(case.arch).generate(case.kernel)
            )
            if run_case(case, source=source).passed:
                undetected.append(case.name)
        if undetected:
            print(f"self-check FAILED: mutants survived in {undetected}")
            ok = False
        else:
            print(f"self-check: all {len(cases)} injected stride "
                  f"mutants caught")
    return 0 if ok else 1


def _cmd_bench_smoke(args) -> int:
    from .bench_smoke import run_bench_smoke

    try:
        paths = run_bench_smoke(figures=args.figures or None,
                                arch=args.arch, outdir=args.out_dir,
                                seed=args.seed)
    except (KeyError, RuntimeError) as exc:
        print(exc)
        return 1
    for path in paths:
        print(f"wrote {path}")
    return 0


def _cmd_serve_bench(args) -> int:
    from .serve_bench import run_serve_bench

    try:
        path = run_serve_bench(n_requests=args.requests, seed=args.seed,
                               outdir=args.out_dir,
                               max_workers=args.workers,
                               families=args.families or None)
    except (KeyError, RuntimeError) as exc:
        print(exc)
        return 1
    print(f"wrote {path}")
    return 0


def _cmd_graph_bench(args) -> int:
    from .graph_bench import run_graph_bench

    try:
        path = run_graph_bench(networks=args.networks or None,
                               arch=args.arch, seed=args.seed,
                               tune=not args.no_tune, outdir=args.out_dir)
    except (KeyError, RuntimeError) as exc:
        print(exc)
        return 1
    print(f"wrote {path}")
    return 0


def _cmd_tuner_bench(args) -> int:
    from .tuner_bench import run_tuner_bench

    try:
        path = run_tuner_bench(arch=args.arch, workers=args.workers,
                               outdir=args.out_dir, quick=args.quick,
                               seed=args.seed)
    except (KeyError, RuntimeError) as exc:
        print(exc)
        return 1
    print(f"wrote {path}")
    return 0


_COMMANDS = {
    "figures": _cmd_figures,
    "profile": _cmd_profile,
    "conformance": _cmd_conformance,
    "bench-smoke": _cmd_bench_smoke,
    "serve-bench": _cmd_serve_bench,
    "graph-bench": _cmd_graph_bench,
    "tuner-bench": _cmd_tuner_bench,
}


def main(argv) -> int:
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
