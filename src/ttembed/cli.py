"""Command-line surface.

Exit codes: 0 success, 1 usage error, 2 validation/data error.  All
floats print with 17 significant digits so they round-trip exactly.
With --porcelain every result line becomes ``key<TAB>value`` for
machine consumption.

Each subcommand is declared once, in ``_build_parser``, where
``command()`` binds its handler; a handler takes the parsed args and
returns the exit code.  Options that several subcommands share are
declared once, as parent parsers: ``--in`` (compress, reconstruct,
lookup, stats, gradcheck) and ``--vocab/--dim/--n`` (init, rankcheck,
initstats, table).  A flag value that does not parse, such as
``--ranks 2,x``, or is out of range, such as a negative ``--seed``, a
rank below 1 or an infinite ``--std``, is a data error (exit 2) that
names the flag; a train-demo config error, divergence included, is one
that names the config file.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import analysis, training
from .fileformat import FileFormatError, load_dmat, load_tt, save_dmat, save_tt
from .layers import TTEmbedding
from .linalg import DEFAULT_RANK_TOL, ShapeError
from .planning import _positive_finite, factorize_balanced, plan_embedding
from .ttmatrix import tt_svd

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


def _kv(args, key, value):
    text = value if isinstance(value, str) else fmt(value)
    print(f"{key}\t{text}" if args.porcelain else f"{key} {text}")


def _at_least(flag: str, value: int, low: int) -> None:
    """A value below `low` is a data error (exit 2), named by its flag or
    train-demo config key."""
    if value < low:
        raise ValueError(f"{flag} must be >= {low}, got {value}")


def _named(name: str, make, *args):
    """make(*args), a ValueError it raises prefixed with `name`: the flag
    or train-demo config key its value came from."""
    try:
        return make(*args)
    except ValueError as exc:
        raise ValueError(f"{name}: {exc}") from None


def _parse_int_list(name: str, text: str) -> list:
    """Comma-separated integers; a bad entry is an error named by `name`."""
    return _named(name, lambda: [int(v) for v in text.split(",")])


def _parse_rank_list(name: str, text: str) -> list:
    """Comma-separated ranks, each >= 1."""
    ranks = _parse_int_list(name, text)
    for r in ranks:
        _at_least(name, r, 1)
    return ranks


def _parse_ranks(name: str, text: str):
    """Comma-separated ranks, each >= 1; a single value is an int, shared by
    every bond."""
    ranks = tuple(_parse_rank_list(name, text))
    return ranks if len(ranks) > 1 else ranks[0]


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


def _cmd_factorize(args) -> int:
    factors = factorize_balanced(args.size, args.n, allow_padding=args.pad)
    if args.porcelain:
        _kv(args, "factors", ",".join(map(str, factors)))
    else:
        print(" ".join(map(str, factors)))
    return 0


def _cmd_init(args) -> int:
    _at_least("--seed", args.seed, 0)
    if args.std is not None:
        _positive_finite(args.std, "--std")
    if args.kind == "tr":
        _at_least("--ring-rank", args.ring_rank, 1)
    plan = plan_embedding(args.vocab, args.dim, args.n, _parse_ranks("--ranks", args.ranks))
    # every other flag is checked by now: what can still fail is the std's scale
    m = _named("--std", training._weights, plan, args.kind, args.seed, args.std, args.ring_rank)
    save_tt(args.out, m)
    _kv(args, "written", args.out)
    _kv(args, "parameters", m.stats().tt_params)
    return 0


def _cmd_compress(args) -> int:
    dense = load_dmat(args.infile)
    vocab, dim = dense.shape
    plan = plan_embedding(vocab, dim, args.n, _parse_ranks("--ranks", args.ranks))
    if plan.padded_rows > vocab:
        dense = np.vstack([dense, np.zeros((plan.padded_rows - vocab, dim))])
    m = tt_svd(dense, plan)
    save_tt(args.out, m)
    _kv(args, "written", args.out)
    _kv(args, "ranks", ",".join(map(str, m.bond_ranks)))
    return 0


def _cmd_reconstruct(args) -> int:
    m = load_tt(args.infile)
    dense = m.materialize()[: m.plan.requested_rows]
    save_dmat(args.out, dense)
    _kv(args, "written", args.out)
    return 0


def _cmd_lookup(args) -> int:
    m = load_tt(args.infile)
    layer = TTEmbedding(m)
    rows = layer.forward(_parse_int_list("--indices", args.indices))
    for row in rows:
        print(" ".join(fmt(v) for v in row))
    return 0


def _cmd_stats(args) -> int:
    m = load_tt(args.infile)
    s = m.stats()
    _kv(args, "kind", "tr" if m.closed else "tt")
    _kv(args, "vocab", m.plan.requested_rows)
    _kv(args, "padded_rows", m.plan.padded_rows)
    _kv(args, "cols", m.plan.cols)
    _kv(args, "tt_params", s.tt_params)
    _kv(args, "dense_params", s.dense_params)
    _kv(args, "ratio", s.ratio)
    _kv(args, "tied_ratio", s.tied_ratio)
    return 0


def _cmd_gradcheck(args) -> int:
    _at_least("--batch", args.batch, 1)
    _at_least("--seed", args.seed, 0)
    m = load_tt(args.infile)
    layer = TTEmbedding(m)
    rng = np.random.default_rng(args.seed)
    idx = rng.integers(0, layer.vocab, size=args.batch)
    upstream = rng.standard_normal((args.batch, layer.dim))
    worst = analysis.gradient_audit(layer, idx, upstream)
    _kv(args, "max_rel_error", worst)
    return 0 if worst < 1e-5 else DATA_EXIT


def _cmd_rankcheck(args) -> int:
    _at_least("--seeds", args.seeds, 0)
    _at_least("--rank", args.rank, 1)
    _positive_finite(args.tol, "--tol: tol_factor")  # the flag and the library's name for it
    plan = plan_embedding(args.vocab, args.dim, args.n, args.rank)
    reports = analysis.check_full_rank(plan, range(args.seeds), args.tol)
    ok = True
    for r in reports:
        _kv(args, r.label, f"rank={r.numerical_rank}/{r.max_possible_rank} full={fmt(r.full_rank)}")
        ok = ok and r.full_rank
    _kv(args, "all_full_rank", ok)
    return 0 if ok else DATA_EXIT


def _cmd_initstats(args) -> int:
    _positive_finite(args.sigma, "--sigma")
    _at_least("--draws", args.draws, 1)
    plan = plan_embedding(args.vocab, args.dim, args.n, 1)
    ladder = _parse_rank_list("--ranks", args.ranks)
    # every other flag is checked by now: what can still fail is sigma's scale
    reports = _named("--sigma", analysis.init_statistics, plan, ladder, args.draws, args.sigma)
    for r in reports:
        stats = f"mean={fmt(r.mean)} var={fmt(r.variance)} exkurt={fmt(r.excess_kurtosis)}"
        _kv(args, f"rank_{r.rank}", stats)
    return 0


def _cmd_table(args) -> int:
    ladder = _parse_rank_list("--ranks", args.ranks)
    rows = analysis.compression_table(args.vocab, args.dim, args.n, ladder)
    if args.porcelain:
        for r in rows:
            _kv(
                args,
                f"rank_{r.rank}",
                f"tt_params={r.tt_params} ratio={fmt(r.ratio)} "
                f"tied_ratio={fmt(r.tied_ratio)} lowrank_d={r.lowrank_d} "
                f"lowrank_max_rank={r.lowrank_max_rank}",
            )
        return 0
    header = ("rank", "tt_params", "ratio", "tied_ratio", "lowrank_d", "lowrank_max_rank")
    table = [header] + [
        (str(r.rank), str(r.tt_params), f"{r.ratio:.4g}", f"{r.tied_ratio:.4g}",
         str(r.lowrank_d), str(r.lowrank_max_rank))
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


def _cmd_train_demo(args) -> int:
    raw = {"n": "3", "ranks": "8", **_load_config(args.config)}

    def value(key, conv):
        return _named(key, conv, raw[key])

    try:  # every error past the file's syntax names the file
        unknown = sorted(raw.keys() - {"vocab", "dim", "n", "ranks"} - _TRAIN_KEYS.keys())
        if unknown:
            raise ValueError(f"unknown config keys: {', '.join(unknown)}")
        missing = [k for k in ("vocab", "dim") if k not in raw]
        if missing:
            raise ValueError(f"missing config keys: {', '.join(missing)}")
        plan = plan_embedding(
            value("vocab", int), value("dim", int), value("n", int),
            _parse_ranks("ranks", raw["ranks"]),
        )
        kwargs = {k: value(k, conv) for k, conv in _TRAIN_KEYS.items() if k in raw}
        with np.errstate(all="ignore"):  # divergence is reported by the error below
            trace = training.run(training.TrainConfig(plan=plan, **kwargs))
    except (ValueError, training.DivergenceError) as exc:
        raise ValueError(f"{args.config}: {exc}") from None
    _kv(args, "steps", len(trace.losses))
    _kv(args, "first_loss", trace.losses[0])
    _kv(args, "final_loss", trace.losses[-1])
    for key, value in sorted(trace.metadata.items()):
        _kv(args, key, value)
    _kv(args, "checksum", trace.final_checksum)
    return 0


def _build_parser() -> _Parser:
    p = _Parser(prog="ttembed", description="tensorized embedding toolkit")
    p.add_argument("--porcelain", action="store_true", help="tab-separated key/value output")
    sub = p.add_subparsers(dest="command", required=True)  # subparsers are _Parser too
    infile = argparse.ArgumentParser(add_help=False)
    infile.add_argument("--in", dest="infile", required=True)
    shape = argparse.ArgumentParser(add_help=False)
    for flag in ("--vocab", "--dim", "--n"):
        shape.add_argument(flag, type=int, required=True)

    def command(name, run, help, *parents):
        q = sub.add_parser(name, help=help, parents=parents)
        q.set_defaults(run=run)
        return q

    q = command("factorize", _cmd_factorize, "balanced factorization of an integer")
    q.add_argument("--size", type=int, required=True)
    q.add_argument("--n", type=int, required=True)
    q.add_argument("--pad", action="store_true", help="allow product > size")

    q = command("init", _cmd_init, "create a randomly initialized model file", shape)
    q.add_argument("--ranks", type=str, required=True, help="scalar or comma list")
    q.add_argument("--seed", type=int, default=0)
    q.add_argument("--std", type=float, default=None, help="target entry std (default Glorot)")
    q.add_argument("--kind", choices=("tt", "tr"), default="tt")
    q.add_argument("--ring-rank", type=int, default=2)
    q.add_argument("--out", required=True)

    q = command("compress", _cmd_compress, "TT-SVD a dense DMAT matrix into a model file", infile)
    q.add_argument("--n", type=int, required=True)
    q.add_argument("--ranks", type=str, required=True)
    q.add_argument("--out", required=True)

    q = command("reconstruct", _cmd_reconstruct, "materialize a model file to DMAT", infile)
    q.add_argument("--out", required=True)

    q = command("lookup", _cmd_lookup, "print embedding rows", infile)
    q.add_argument("--indices", type=str, required=True, help="comma list")

    command("stats", _cmd_stats, "parameter counts and compression ratios", infile)

    q = command("gradcheck", _cmd_gradcheck, "finite-difference audit of the backward pass", infile)
    q.add_argument("--seed", type=int, default=0)
    q.add_argument("--batch", type=int, default=4)

    q = command("rankcheck", _cmd_rankcheck, "full-rank check of random initializations", shape)
    q.add_argument("--rank", type=int, required=True)
    q.add_argument("--seeds", type=int, default=10)
    q.add_argument("--tol", type=float, default=DEFAULT_RANK_TOL)

    q = command("initstats", _cmd_initstats, "initializer statistics over a rank ladder", shape)
    q.add_argument("--ranks", type=str, default="1,2,4,8,16")
    q.add_argument("--draws", type=int, default=8)
    q.add_argument("--sigma", type=float, default=1.0)

    q = command("table", _cmd_table, "compression-vs-rank table", shape)
    q.add_argument("--ranks", type=str, default="1,2,4,8,16,32,64")

    q = command("train-demo", _cmd_train_demo, "run a training demo from a config file")
    q.add_argument("--config", required=True)
    return p


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.run(args)
    except (
        FileFormatError, ShapeError, MemoryError, ValueError, IndexError, OSError, OverflowError
    ) as exc:
        print(f"ttembed: error: {exc}", file=sys.stderr)
        return DATA_EXIT


if __name__ == "__main__":
    sys.exit(main())
