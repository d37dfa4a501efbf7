"""Command-line autotuner with a ranked leaderboard.

Usage::

    python -m repro.tuner gemm --arch sm86 --m 5376 --n 5376 --k 2048
    python -m repro.tuner layernorm --rows 12288 --hidden 1024
    python -m repro.tuner mlp --m 4096 --hidden 128 --layers 20
    python -m repro.tuner fmha --batch-heads 16 --seq 512 --head-dim 64

The whole-roster sweep (serial / parallel fleet / parallel+transfer)
is ``python -m repro.eval tuner-bench``; see :mod:`repro.eval.tuner_bench`.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from . import SPACES, TuningError, get_space, resolve_arch, tune
from .verify import GateError


def _parse_tile(text: str):
    try:
        parts = tuple(int(p) for p in text.lower().split("x"))
    except ValueError:
        parts = ()
    if len(parts) not in (2, 3):
        raise argparse.ArgumentTypeError(
            f"expected MxN or MxNxK tile, got {text!r}"
        )
    return parts


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.tuner",
        description="Search a kernel family's Graphene decomposition "
        "space; rank with the performance model; verify the winners in "
        "the functional simulator.",
    )
    parser.add_argument("family", choices=sorted(SPACES))
    parser.add_argument("--arch", default="sm86",
                        help="ampere/sm86 or volta/sm70 (default sm86)")
    parser.add_argument("--m", type=int, help="GEMM/MLP/LSTM rows")
    parser.add_argument("--n", type=int, help="GEMM columns")
    parser.add_argument("--k", type=int, help="GEMM reduction depth")
    parser.add_argument("--rows", type=int, help="layernorm/softmax rows")
    parser.add_argument("--cols", type=int, help="softmax columns")
    parser.add_argument("--hidden", type=int, help="layernorm/MLP width")
    parser.add_argument("--layers", type=int, help="MLP layer count")
    parser.add_argument("--batch-heads", type=int,
                        help="FMHA batch x heads product")
    parser.add_argument("--seq", type=int, help="FMHA sequence length")
    parser.add_argument("--head-dim", type=int, help="FMHA head dimension")
    parser.add_argument("--search", choices=("beam", "exhaustive"),
                        default="beam")
    parser.add_argument("--beam", type=int, default=6,
                        help="surviving coarse groups in beam search")
    parser.add_argument("--top", type=int, default=3,
                        help="candidates the correctness gate executes")
    parser.add_argument("--workers", type=int, default=1,
                        help="process-fleet width for evaluation and the "
                        "gate (1 = serial)")
    parser.add_argument("--transfer", action="store_true",
                        help="seed the search from the nearest cached "
                        "shapes (cross-shape transfer)")
    parser.add_argument("--rows-shown", type=int, default=10,
                        help="leaderboard rows to print")
    parser.add_argument("--cache", default=None,
                        help="tuning-cache path (default "
                        ".graphene_tuner_cache.json or $GRAPHENE_TUNER_CACHE)")
    parser.add_argument("--no-cache", action="store_true",
                        help="neither read nor write the tuning cache")
    parser.add_argument("--force", action="store_true",
                        help="re-tune even when the cache has this key")
    parser.add_argument("--seed", type=int, default=0,
                        help="verification-problem RNG seed")
    parser.add_argument("--block-tiles", type=str, default=None,
                        help="restrict GEMM block tiles, e.g. "
                        "'128x128x32,64x64x32'")
    return parser


#: The paper's Figure 9 problem sizes (and roster-scale sizes for the
#: families the paper benchmarks at one shape), used when shape flags
#: are omitted.
_DEFAULT_SHAPES = {
    ("gemm", "ampere"): {"m": 5376, "n": 5376, "k": 2048},
    ("gemm", "volta"): {"m": 5120, "n": 5120, "k": 2048},
    ("gemm", "hopper"): {"m": 5376, "n": 5376, "k": 2048},
    ("gemm_epilogue", None): {"m": 2048, "n": 2048, "k": 512},
    ("gemm_naive", None): {"m": 512, "n": 512, "k": 128},
    ("gemm_parametric", None): {"m": 1000, "n": 256, "k": 128},
    ("layernorm", None): {"rows": 12288, "hidden": 1024},
    ("mlp", None): {"m": 4096, "hidden": 128, "layers": 12},
    ("lstm", None): {"m": 1024, "n": 1024, "k": 256},
    ("softmax", None): {"rows": 4096, "cols": 1024},
    ("fmha", None): {"batch_heads": 16, "seq": 512, "head_dim": 64},
    ("moves", None): {},
    ("gemm_fp8", None): {"m": 4096, "n": 4096, "k": 2048},
    ("gemm_sparse24", None): {"m": 4096, "n": 4096, "k": 2048},
}


def _shape_from_args(args, arch) -> dict:
    defaults = (
        _DEFAULT_SHAPES.get((args.family, arch.key))
        or _DEFAULT_SHAPES.get((args.family, None), {})
    )
    provided = {
        "m": args.m, "n": args.n, "k": args.k,
        "rows": args.rows, "cols": args.cols,
        "hidden": args.hidden, "layers": args.layers,
        "batch_heads": args.batch_heads, "seq": args.seq,
        "head_dim": args.head_dim,
    }
    shape = dict(defaults)
    shape.update({k: v for k, v in provided.items() if v is not None})
    return shape


def _format_leaderboard(result, rows_shown: int) -> str:
    gate_status = {
        tuple(sorted(r.candidate.params.items())): r.status
        for r in result.gate_results
    }
    header = (
        f"{'rank':>4}  {'config':<56} {'time_us':>10} {'tflops':>8} "
        f"{'dram_MB':>9} {'conflicts':>9} {'launches':>8}  gate"
    )
    lines = [header, "-" * len(header)]
    for rank, rc in enumerate(result.ranked[:rows_shown], start=1):
        status = gate_status.get(
            tuple(sorted(rc.candidate.params.items())), ""
        )
        lines.append(
            f"{rank:>4}  {rc.label:<56} "
            f"{rc.score_seconds * 1e6:>10.1f} "
            f"{rc.cost.tflops():>8.1f} "
            f"{rc.cost.dram_bytes / 1e6:>9.1f} "
            f"{rc.cost.smem_bank_conflicts:>8.1f}x "
            f"{rc.launches:>8d}  {status}"
        )
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        arch = resolve_arch(args.arch)
        space_kwargs = {}
        if args.family == "gemm" and args.block_tiles:
            space_kwargs["block_tiles"] = [
                _parse_tile(t) for t in args.block_tiles.split(",")
            ]
        space = get_space(args.family, **space_kwargs)
        shape = _shape_from_args(args, arch)

        cache = False if args.no_cache else args.cache
        result = tune(
            args.family, shape, arch, space=space, cache=cache,
            search=args.search, beam=args.beam, top_k=args.top,
            seed=args.seed, force=args.force, workers=args.workers,
            transfer=args.transfer,
        )
    except (TuningError, GateError, ValueError,
            argparse.ArgumentTypeError) as exc:
        print(f"tuning failed: {exc}", file=sys.stderr)
        return 1

    dims = ", ".join(f"{k}={v}" for k, v in sorted(shape.items()))
    print(f"{args.family} on {arch.name} ({dims})")
    if result.cache_hit:
        print(f"served from tuning cache: {result.winner.label} "
              f"(modelled {result.score_seconds * 1e6:.1f}us)")
    else:
        stats = result.search_stats
        print(
            f"searched {stats['evaluated']} of "
            f"{stats['total_candidates']} candidates "
            f"({stats['pruned']} beam-pruned, {stats['skipped']} skipped)"
        )
        if result.transferred:
            print(f"transfer-seeded from: "
                  f"{', '.join(result.seeded_from)}")
        print()
        print(_format_leaderboard(result, args.rows_shown))
        print()
        print(f"winner: {result.winner.label} "
              f"(modelled {result.score_seconds * 1e6:.1f}us, "
              f"verified in repro.sim)")
    if result.cache_stats is not None:
        print(
            f"cache: {result.cache_stats['hits']} hits, "
            f"{result.cache_stats['misses']} misses, "
            f"{result.cache_stats['entries']} entries"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
