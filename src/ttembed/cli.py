"""Command-line surface.

Exit codes: 0 success, 1 usage error, 2 validation/data error.  All
floats print with 17 significant digits so they round-trip exactly.
With --porcelain every result line becomes ``key<TAB>value`` for
machine consumption.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import analysis, training
from .fileformat import FileFormatError, load_dmat, load_tt, save_dmat, save_tt
from .layers import TTEmbedding
from .linalg import ShapeError
from .planning import FactorizationPlan, factorize_balanced, plan_embedding
from .trmatrix import random_tr
from .ttmatrix import TTMatrix, glorot_tt, tt_svd

USAGE_EXIT = 1
DATA_EXIT = 2


def fmt(x) -> str:
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return f"{float(x):.17g}"


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(USAGE_EXIT)


class Printer:
    def __init__(self, porcelain: bool):
        self.porcelain = porcelain

    def kv(self, key, value):
        if self.porcelain:
            print(f"{key}\t{fmt(value) if not isinstance(value, str) else value}")
        else:
            print(f"{key} {fmt(value) if not isinstance(value, str) else value}")


def _parse_ranks(text: str):
    """Comma-separated ranks; a single value is an int, shared by every bond."""
    ranks = tuple(int(r) for r in text.split(","))
    return ranks if len(ranks) > 1 else ranks[0]


def _parse_int_list(text: str):
    return [int(v) for v in text.split(",")]


def _build_parser() -> _Parser:
    p = _Parser(prog="ttembed", description="tensorized embedding toolkit")
    p.add_argument("--porcelain", action="store_true", help="tab-separated key/value output")
    sub = p.add_subparsers(dest="command", required=True)

    q = sub.add_parser("factorize", help="balanced factorization of an integer")
    q.add_argument("--size", type=int, required=True)
    q.add_argument("--n", type=int, required=True)
    q.add_argument("--pad", action="store_true", help="allow product > size")

    q = sub.add_parser("init", help="create a randomly initialized model file")
    q.add_argument("--vocab", type=int, required=True)
    q.add_argument("--dim", type=int, required=True)
    q.add_argument("--n", type=int, required=True)
    q.add_argument("--ranks", type=str, required=True, help="scalar or comma list")
    q.add_argument("--seed", type=int, default=0)
    q.add_argument("--std", type=float, default=None, help="target entry std (default Glorot)")
    q.add_argument("--kind", choices=("tt", "tr"), default="tt")
    q.add_argument("--ring-rank", type=int, default=2)
    q.add_argument("--out", required=True)

    q = sub.add_parser("compress", help="TT-SVD a dense DMAT matrix into a model file")
    q.add_argument("--in", dest="infile", required=True)
    q.add_argument("--n", type=int, required=True)
    q.add_argument("--ranks", type=str, required=True)
    q.add_argument("--out", required=True)

    q = sub.add_parser("reconstruct", help="materialize a model file to DMAT")
    q.add_argument("--in", dest="infile", required=True)
    q.add_argument("--out", required=True)

    q = sub.add_parser("lookup", help="print embedding rows")
    q.add_argument("--in", dest="infile", required=True)
    q.add_argument("--indices", type=str, required=True, help="comma list")

    q = sub.add_parser("stats", help="parameter counts and compression ratios")
    q.add_argument("--in", dest="infile", required=True)

    q = sub.add_parser("gradcheck", help="finite-difference audit of the backward pass")
    q.add_argument("--in", dest="infile", required=True)
    q.add_argument("--seed", type=int, default=0)
    q.add_argument("--batch", type=int, default=4)

    q = sub.add_parser("rankcheck", help="full-rank check of random initializations")
    q.add_argument("--vocab", type=int, required=True)
    q.add_argument("--dim", type=int, required=True)
    q.add_argument("--n", type=int, required=True)
    q.add_argument("--rank", type=int, required=True)
    q.add_argument("--seeds", type=int, default=10)
    q.add_argument("--tol", type=float, default=1e-9)

    q = sub.add_parser("initstats", help="initializer statistics over a rank ladder")
    q.add_argument("--vocab", type=int, required=True)
    q.add_argument("--dim", type=int, required=True)
    q.add_argument("--n", type=int, required=True)
    q.add_argument("--ranks", type=str, default="1,2,4,8,16")
    q.add_argument("--draws", type=int, default=8)
    q.add_argument("--sigma", type=float, default=1.0)

    q = sub.add_parser("table", help="compression-vs-rank table")
    q.add_argument("--vocab", type=int, required=True)
    q.add_argument("--dim", type=int, required=True)
    q.add_argument("--n", type=int, required=True)
    q.add_argument("--ranks", type=str, default="1,2,4,8,16,32,64")

    q = sub.add_parser("train-demo", help="run a training demo from a config file")
    q.add_argument("--config", required=True)
    return p


def _load_config(path: str) -> dict:
    cfg = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value")
            key, value = line.split("=", 1)
            cfg[key.strip()] = value.strip()
    return cfg


def _cmd_factorize(args, out: Printer) -> int:
    factors = factorize_balanced(args.size, args.n, allow_padding=args.pad)
    if out.porcelain:
        out.kv("factors", ",".join(map(str, factors)))
    else:
        print(" ".join(map(str, factors)))
    return 0


def _cmd_init(args, out: Printer) -> int:
    plan = plan_embedding(args.vocab, args.dim, args.n, _parse_ranks(args.ranks))
    if args.kind == "tt":
        m = glorot_tt(plan, args.seed, std=args.std)
    else:
        std = args.std if args.std is not None else 0.3
        m = random_tr(plan, args.ring_rank, std, args.seed)
    save_tt(args.out, m)
    out.kv("written", args.out)
    out.kv("parameters", m.stats().tt_params)
    return 0


def _cmd_compress(args, out: Printer) -> int:
    dense = load_dmat(args.infile)
    vocab, dim = dense.shape
    plan = plan_embedding(vocab, dim, args.n, _parse_ranks(args.ranks))
    if plan.padded_rows > vocab:
        dense = np.vstack([dense, np.zeros((plan.padded_rows - vocab, dim))])
    m = tt_svd(dense, plan)
    save_tt(args.out, m)
    out.kv("written", args.out)
    out.kv("ranks", ",".join(map(str, m.bond_ranks)))
    return 0


def _cmd_reconstruct(args, out: Printer) -> int:
    m = load_tt(args.infile)
    dense = m.materialize()[: m.plan.requested_rows]
    save_dmat(args.out, dense)
    out.kv("written", args.out)
    return 0


def _cmd_lookup(args, out: Printer) -> int:
    m = load_tt(args.infile)
    layer = TTEmbedding(m)
    rows = layer.forward(_parse_int_list(args.indices))
    for row in rows:
        print(" ".join(fmt(v) for v in row))
    return 0


def _cmd_stats(args, out: Printer) -> int:
    m = load_tt(args.infile)
    s = m.stats()
    out.kv("kind", "tr" if m.closed else "tt")
    out.kv("vocab", m.plan.requested_rows)
    out.kv("padded_rows", m.plan.padded_rows)
    out.kv("cols", m.plan.cols)
    out.kv("tt_params", s.tt_params)
    out.kv("dense_params", s.dense_params)
    out.kv("ratio", s.ratio)
    out.kv("tied_ratio", s.tied_ratio)
    return 0


def _cmd_gradcheck(args, out: Printer) -> int:
    if args.batch < 1:
        raise ValueError(f"--batch must be >= 1, got {args.batch}")
    m = load_tt(args.infile)
    layer = TTEmbedding(m)
    rng = np.random.default_rng(args.seed)
    idx = rng.integers(0, layer.vocab, size=args.batch)
    upstream = rng.standard_normal((args.batch, layer.dim))
    worst = analysis.gradient_audit(layer, idx, upstream)
    out.kv("max_rel_error", worst)
    return 0 if worst < 1e-5 else DATA_EXIT


def _cmd_rankcheck(args, out: Printer) -> int:
    plan = plan_embedding(args.vocab, args.dim, args.n, args.rank)
    reports = analysis.check_full_rank(plan, range(args.seeds), args.tol)
    ok = True
    for r in reports:
        out.kv(
            r.label,
            f"rank={r.numerical_rank}/{r.max_possible_rank} full={fmt(r.full_rank)}",
        )
        ok = ok and r.full_rank
    out.kv("all_full_rank", ok)
    return 0 if ok else DATA_EXIT


def _cmd_initstats(args, out: Printer) -> int:
    plan = plan_embedding(args.vocab, args.dim, args.n, 1)
    ladder = _parse_int_list(args.ranks)
    for r in analysis.init_statistics(plan, ladder, args.draws, sigma=args.sigma):
        out.kv(
            f"rank_{r.rank}",
            f"mean={fmt(r.mean)} var={fmt(r.variance)} exkurt={fmt(r.excess_kurtosis)}",
        )
    return 0


def _cmd_table(args, out: Printer) -> int:
    ladder = _parse_int_list(args.ranks)
    rows = analysis.compression_table(args.vocab, args.dim, args.n, ladder)
    if out.porcelain:
        for r in rows:
            out.kv(
                f"rank_{r.rank}",
                f"tt_params={r.tt_params} ratio={fmt(r.ratio)} "
                f"tied_ratio={fmt(r.tied_ratio)} lowrank_d={r.lowrank_d} "
                f"lowrank_max_rank={r.lowrank_max_rank}",
            )
        return 0
    header = ("rank", "tt_params", "ratio", "tied_ratio", "lowrank_d", "lowrank_max_rank")
    table = [header] + [
        (
            str(r.rank),
            str(r.tt_params),
            f"{r.ratio:.4g}",
            f"{r.tied_ratio:.4g}",
            str(r.lowrank_d),
            str(r.lowrank_max_rank),
        )
        for r in rows
    ]
    widths = [max(len(row[c]) for row in table) for c in range(len(header))]
    for row in table:
        print("  ".join(v.rjust(w) for v, w in zip(row, widths)))
    return 0


# train-demo config keys besides vocab, dim, n and ranks, which make the
# plan; a key the file leaves out takes the TrainConfig default
_TRAIN_KEYS = {
    "task": str, "steps": int, "batch": int, "lr": float, "seed": int,
    "kind": str, "ring_rank": int, "lowrank_dim": int, "init_std": float,
}


def _cmd_train_demo(args, out: Printer) -> int:
    raw = _load_config(args.config)
    unknown = sorted(raw.keys() - {"vocab", "dim", "n", "ranks"} - _TRAIN_KEYS.keys())
    if unknown:
        raise ValueError(f"{args.config}: unknown config keys: {', '.join(unknown)}")
    missing = [k for k in ("vocab", "dim") if k not in raw]
    if missing:
        raise ValueError(f"{args.config}: missing config keys: {', '.join(missing)}")
    raw = {"n": "3", "ranks": "8", **raw}

    def value(key, conv):
        try:
            return conv(raw[key])
        except ValueError as exc:
            raise ValueError(f"{args.config}: {key}: {exc}") from None

    plan = plan_embedding(
        value("vocab", int), value("dim", int), value("n", int), value("ranks", _parse_ranks)
    )
    kwargs = {k: value(k, conv) for k, conv in _TRAIN_KEYS.items() if k in raw}
    try:
        cfg = training.TrainConfig(plan=plan, **kwargs)
    except ValueError as exc:
        raise ValueError(f"{args.config}: {exc}") from None
    trace = training.run(cfg)
    out.kv("steps", len(trace.losses))
    out.kv("first_loss", trace.losses[0])
    out.kv("final_loss", trace.losses[-1])
    for key, value in sorted(trace.metadata.items()):
        out.kv(key, value)
    out.kv("checksum", trace.final_checksum)
    return 0


_COMMANDS = {
    "factorize": _cmd_factorize,
    "init": _cmd_init,
    "compress": _cmd_compress,
    "reconstruct": _cmd_reconstruct,
    "lookup": _cmd_lookup,
    "stats": _cmd_stats,
    "gradcheck": _cmd_gradcheck,
    "rankcheck": _cmd_rankcheck,
    "initstats": _cmd_initstats,
    "table": _cmd_table,
    "train-demo": _cmd_train_demo,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    out = Printer(porcelain=args.porcelain)
    try:
        return _COMMANDS[args.command](args, out)
    except (
        FileFormatError, ShapeError, MemoryError, ValueError, IndexError, OSError, OverflowError
    ) as exc:
        print(f"ttembed: error: {exc}", file=sys.stderr)
        return DATA_EXIT


if __name__ == "__main__":
    sys.exit(main())
