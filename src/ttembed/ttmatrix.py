"""Tensor-train representation of a (padded_rows x cols) matrix.

A TTMatrix is a chain of 4-way cores G^(k) of shape
(R_{k-1}, I_k, J_k, R_k) with R_0 = R_N = 1.  Entry (i, j) of the
represented matrix is the chain product of the slices G^(k)[:, i_k, j_k, :]
where (i_1..i_N) and (j_1..j_N) are the mixed-radix digits of i and j
(first digit fastest).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace
from itertools import accumulate
from math import prod

import numpy as np

from .indexing import MixedRadix
from .linalg import ShapeError, r_factor, svd
from .planning import FactorizationPlan, _as_int_array, _positive_finite

DEFAULT_MATERIALIZE_CAP = 1 << 24
MATERIALIZE_CAP_ENV = "TTEMBED_MATERIALIZE_CAP"
TT_SVD_TRUNCATION_TOL = 1e-12
# entries of the largest array of a block of a call without a tape, or of
# a chunk of the slices forward gathers in the workspace
KERNEL_BLOCK = 1 << 17


def materialize_cap() -> int:
    """Entry budget for materialize(); overridable via environment."""
    raw = os.environ.get(MATERIALIZE_CAP_ENV)
    try:
        cap = int(raw) if raw else DEFAULT_MATERIALIZE_CAP
    except ValueError:
        cap = 0
    if cap < 1:
        raise ValueError(
            f"{MATERIALIZE_CAP_ENV} must be a positive integer entry count, got {raw!r}"
        )
    return cap


@dataclass(frozen=True)
class CompressionStats:
    tt_params: int
    dense_params: int
    ratio: float
    tied_ratio: float

    @classmethod
    def from_counts(cls, tt_params: int, dense_params: int) -> "CompressionStats":
        ratio = dense_params / tt_params  # int / int is correctly rounded
        return cls(tt_params, dense_params, ratio, dense_params / (2 * tt_params))


def _validate_chain(cores, plan: FactorizationPlan, ring: bool) -> None:
    if len(cores) != plan.n_cores:
        raise ShapeError(f"expected {plan.n_cores} cores, got {len(cores)}")
    for k, c in enumerate(cores):
        if c.ndim != 4:
            raise ShapeError(f"core {k} is not 4-way")
        if c.shape[1] != plan.row_factors[k] or c.shape[2] != plan.col_factors[k]:
            raise ShapeError(
                f"core {k} mode dims {c.shape[1:3]} disagree with plan "
                f"({plan.row_factors[k]}, {plan.col_factors[k]})"
            )
        if not np.all(np.isfinite(c)):
            raise ValueError(f"core {k} contains non-finite entries")
    for k, r in enumerate(plan.ranks):
        if cores[k].shape[3] != r or cores[k + 1].shape[0] != r:
            raise ShapeError(f"bond {k} between cores {k} and {k + 1} is not plan rank {r}")
    first, last = cores[0].shape[0], cores[-1].shape[3]
    if ring:
        if first != last:
            raise ShapeError(f"ring closure violated: R_0={first}, R_N={last}")
    elif first != 1 or last != 1:
        raise ShapeError(f"boundary ranks must be 1, got {first} and {last}")


def _row_digits(factors, indices) -> tuple:
    """The digits of an index array, flattened, one array per factor; an
    integer past int64 reaches the range check as itself."""
    return MixedRadix(factors).to_multi(_as_int_array(indices, "indices").ravel())


class Tape:
    """The block a chain-kernel rows() call built last, and the workspace
    its temporaries come from: every chain-kernel call builds on one.

    `block` holds the rows' digits and prefixes, the prefixes carved from
    `buffer` (None after a half-kernel call, which builds none).  When the
    caller handed the tape in, `indices` and `cores` also hold copies of
    the indices and core values the block was built for, which row_grads
    checks; a tape a call makes for itself keeps neither.  Forward's
    copies of the middle cores and the slices it gathers, and every
    temporary of row_grads, come from `work`, in regions whose lifetimes
    overlap, so backward only reads the buffer.
    Both arrays are carved by _carve: they grow to the largest block seen,
    and the core copies are made again only when the core shapes change,
    so blocks of a recurring size allocate nothing new."""

    def __init__(self):
        self.buffer, self.work, self.cores = np.empty(0), np.empty(0), []
        self.clear()

    def clear(self) -> None:
        """Drop the block and its record."""
        self.block, self.indices = None, None

    def scratch(self, *entries) -> list:
        """Flat arrays of these sizes carved from the workspace.  Each call
        hands out the same memory again, ending the arrays of the last call."""
        return _carve(self, "work", entries)

    def record(self, indices, cores) -> None:
        """Note the indices and the cores' values the block was built for."""
        if [c.shape for c in cores] != [c.shape for c in self.cores]:
            self.cores = [np.empty(c.shape) for c in cores]
        for kept, c in zip(self.cores, cores):
            np.copyto(kept, c)
        self.indices = np.ravel(indices).copy()

    def holds(self, indices, cores) -> bool:
        """Whether the block was built for these indices, of the same
        dtype, and for cores of these values (a cleared tape holds none).
        Values, not arrays, are compared, so an in-place write to a core
        since the block was built makes it stale; a NaN never compares
        equal, so a core holding one is never taken from the tape."""
        indices = np.ravel(indices)
        return (
            self.indices is not None
            and indices.dtype == self.indices.dtype
            and np.array_equal(indices, self.indices)
            and len(cores) == len(self.cores)
            and all(np.array_equal(a, b) for a, b in zip(cores, self.cores))
        )


def _carve(tape: Tape, name: str, entries) -> list:
    """Flat arrays of these sizes, carved one after another from the start
    of the tape's array `name` (its buffer or its workspace).  The array
    only grows, to fit them, and the old one is freed before the new one
    is made."""
    if sum(entries) > getattr(tape, name).size:
        setattr(tape, name, None)
        setattr(tape, name, np.empty(sum(entries)))
    flat, bounds = getattr(tape, name), [0, *accumulate(entries)]
    return [flat[s:e] for s, e in zip(bounds, bounds[1:])]


class TTMatrix:
    """Cores plus plan.  TRMatrix closes the chain into a ring; a chain is
    the ring with closure rank c = R_0 = R_N = 1, so one kernel serves both."""

    closed = False  # True on TRMatrix: R_0 == R_N may exceed 1

    def __init__(self, cores, plan: FactorizationPlan):
        self.cores = [np.asarray(c, dtype=np.float64) for c in cores]
        self.plan = plan
        _validate_chain(self.cores, plan, ring=self.closed)

    @property
    def bond_ranks(self) -> tuple:
        """Ranks R_1..R_{N-1} of the chain; the cores match plan.ranks."""
        return tuple(c.shape[3] for c in self.cores[:-1])

    @property
    def ring_rank(self) -> int:
        return self.cores[0].shape[0]

    @property
    def shape(self) -> tuple:
        return (self.plan.padded_rows, self.plan.cols)

    def element(self, i: int, j: int) -> float:
        """Entry (i, j): trace of the product of the core slices."""
        ii = MixedRadix(self.plan.row_factors).to_multi(i)
        jj = MixedRadix(self.plan.col_factors).to_multi(j)
        acc = self.cores[0][:, ii[0], jj[0], :]
        for k in range(1, len(self.cores)):
            acc = acc @ self.cores[k][:, ii[k], jj[k], :]
        return float(np.trace(acc))

    def _fill(self, digits, tape: Tape) -> tuple:
        """Clear the tape, build the rows of these digits as one block in
        its buffer and workspace, keep it on the tape, and return it: (the
        digits, their prefixes)."""
        tape.clear()
        tape.block = digits, self._prefixes(digits, tape)
        return tape.block

    def _prefix_entries(self) -> list:
        """Entries a row takes in each of its prefixes 1..N-1: what the tape
        keeps per row."""
        sizes, p = [], self.ring_rank
        for g in self.cores[:-1]:
            p *= g.shape[2]
            sizes.append(p * g.shape[3])
        return sizes

    def _row_entries(self) -> list:
        """Entries a row takes in each of its slices 1..N-1 (slice 0 when
        N = 1) and prefixes 1..N-1 (prefix 1 is slice 0): the per-row
        arrays forward builds."""
        slices = [g.size // g.shape[1] for g in self.cores[1:] or self.cores]
        return slices + self._prefix_entries()

    def _block_rows(self) -> int:
        """Rows whose largest per-row array, one of _row_entries(), fits in
        KERNEL_BLOCK entries: a block of a call without a tape, and a chunk
        of the slices a block gathers in the workspace."""
        return max(1, KERNEL_BLOCK // max(self._row_entries()))

    def _prefixes(self, digits, tape: Tape) -> list:
        """The products of each row's first k = 0..N-1 slices,
        (B, J_k..J_1 * c, R_k) with J_1 fastest of the J and the closure c
        next to R_k.  Prefixes 1..N-1 are carved from the tape's buffer in
        one call, sized by _prefix_entries().  Prefix 0 is the identity and
        prefix 1 is slice 0 itself, gathered in this order.
        Each middle core k is copied into the tape's workspace as
        (I_k, J_k, R_{k-1}, R_k); _block_rows() rows at a time gather their
        slices from it there, and one broadcast batched matmul,
        prefix_k[rows, None] @ slices, writes their products straight into
        prefix k+1, viewed as (B, J_k, P c, R_k): the product's layout.
        When R_k = 1 it runs as slices @ prefix_k^T instead, since numpy
        would send a one-column product to gemv, which sums in another
        order; either way each entry is the dot over R_{k-1} that one GEMM
        per row gives, with the same bits.  A row's result does not depend
        on the other rows of its block."""
        b, c = digits[0].size, self.ring_rank
        flats = _carve(tape, "buffer", [b * e for e in self._prefix_entries()])
        out = [np.broadcast_to(np.eye(c), (b, c, c))]
        if len(self.cores) > 1:
            first = np.ascontiguousarray(self.cores[0].transpose(1, 2, 0, 3))  # (I_1, J_1, c, R_1)
            _, j, _, r = first.shape
            # the digits are checked: clip is a no-op
            acc = np.take(first, digits[0], axis=0, out=flats[0].reshape(b, j, c, r), mode="clip")
            out.append(acc.reshape(b, j * c, r))
        step = self._block_rows()
        for g, x, flat in zip(self.cores[1:-1], digits[1:-1], flats[1:]):
            acc = out[-1]
            r, ik, jk, rk = g.shape
            nxt = flat.reshape(b, jk, acc.shape[1], rk)
            gt, sl = tape.scratch(g.size, min(b, step) * g.size // ik)
            gt = gt.reshape(ik, jk, r, rk)
            np.copyto(gt, g.transpose(1, 2, 0, 3))
            for s in range(0, b, step):
                xs = x[s : s + step]
                sls = np.take(gt, xs, axis=0, out=sl[: xs.size * g.size // ik].reshape(-1, jk, r, rk),
                              mode="clip")
                if rk > 1:
                    np.matmul(acc[s : s + step, None], sls, out=nxt[s : s + step])
                else:  # (J_k, R) @ (R, P c): a one-column product would take gemv
                    np.matmul(sls[..., 0], acc[s : s + step].transpose(0, 2, 1),
                              out=nxt[s : s + step, ..., 0])
            out.append(nxt.reshape(b, jk * acc.shape[1], rk))
        return out

    def rows(self, indices, tape: "Tape | None" = None) -> np.ndarray:
        """Rows at an index array, (B, cols), by one of two kernels.

        The chain kernel runs one batched matmul per core; the last also
        contracts c, which takes the trace.  The half kernel splits the
        chain after core s, builds the products of cores 1..s and s+1..N
        over all their digit combinations (one GEMM per core, rebuilt on
        every call), and serves each row as one
        (J_{s+1}..J_N, c R_s) @ (c R_s, J_1..J_s) product.  half_split
        picks s per call, or the chain: a split qualifies only when its
        table GEMMs plus the row products cost fewer flops than the chain
        for the batch and its tables hold at most B * cols entries, the
        size of the result; the least-flop one wins.  The kernels associate
        the products differently, so a row's last bits may differ between
        batches that take different kernels; a given config always makes
        the same choices, so its results stay bitwise reproducible.

        A tape is emptied first; a chain-kernel call then builds the batch
        as one block on it and records the indices and cores, for
        row_grads, while a half-kernel call leaves it empty.  A call given
        no tape decodes the batch once and builds it _block_rows() rows at
        a time on one tape of its own, which each block reuses and which
        records nothing.  A row does not depend on the blocking, so a tape
        changes no bit."""
        if tape is not None:
            tape.clear()
        s = half_split(self, np.size(indices))
        if s:
            return half_rows(self, indices, s)
        c = self.ring_rank
        digits = _row_digits(self.plan.row_factors, indices)
        b, mine = digits[0].size, tape is None
        tape, step = Tape() if mine else tape, self._block_rows()
        span = step if mine else max(b, 1)
        last = np.ascontiguousarray(self.cores[-1].transpose(1, 3, 0, 2))  # (I_N, c, R_{N-1}, J_N)
        r, jn = last.shape[2:]
        out = np.empty((b, self.plan.cols))
        for a in range(0, max(b, 1), span):
            d, prefixes = self._fill([x[a : a + span] for x in digits], tape)
            n, p = d[0].size, prefixes[-1].shape[1] // c
            left, res = prefixes[-1].reshape(n, p, c * r), out[a : a + span].reshape(n, jn, p)
            for s in range(0, n, step):
                xs = d[-1][s : s + step]
                g, acc = tape.scratch(xs.size * c * r * jn, xs.size * p * jn)
                np.take(last, xs, axis=0, out=g.reshape((xs.size,) + last.shape[1:]), mode="clip")
                acc = np.matmul(left[s : s + step], g.reshape(xs.size, c * r, jn),
                                out=acc.reshape(xs.size, p, jn))
                res[s : s + step] = acc.transpose(0, 2, 1)
        if not mine:
            tape.record(indices, self.cores)
        return out

    def row(self, i: int) -> np.ndarray:
        """Row i; output entry j has j_1 fastest."""
        return self.rows([i])[0]

    def row_grads(self, indices, upstream, tape: "Tape | None" = None) -> list:
        """Gradient of sum_b <upstream[b], rows(indices)[b]> w.r.t. each core,
        by reverse mode through the products rows() formed, for the whole
        batch at once.

        Cores and prefixes count from 0 here, prefix k being the product of
        slices 0..k-1; core k has column factor J and ranks (R', R), and P
        is the product of the column factors before it.  The last core:
        rows() multiplied each row's last prefix, viewed as left (P, c R'),
        by its last slice g as (c R', J).  With u the row's upstream as
        (P, J), the last core's gradient takes left^T u, and d left = u g^T
        is the gradient of that prefix.  Cores k = N-2..1: undoing
        forward's (J, P) transpose of d prefix_{k+1} gives dnext (P c, J R),
        the gradient of prefix_k times slice k; core k's gradient takes
        prefix_k^T dnext, and d prefix_k = dnext slice_k^T carries on.
        Core 0: prefix 1 is slice 0, so its gradient is d prefix_1 itself.
        No suffix products and no per-row gradients are formed.

        Each core takes its rows in the order of a stable sort of their
        digits i_k (kept when sorted already, as the last core's are for
        np.unique's rows).  Cores 1..N-1 then run two GEMMs per distinct
        digit, over that digit's rows: one adds to the core's gradient,
        the other, by the core's own slice at the digit, gives those rows'
        d prefix_k; core 0 sums by np.add.reduceat.  Each d thus comes out
        in its core's order, and the next core gathers each of its runs
        from it in one copy that also undoes forward's transpose, so dnext
        is held one run at a time.  Each gradient is allocated once, as
        zeros in its core's shape (R', I, J, R), and each digit's product
        goes straight into its slice [:, i]: in cores 1..N-2 the GEMM
        writes it there, while the last core's (c R', J) product and core
        0's (J, c, R) rows are transposed and added on the way in.  Every
        other temporary comes from the tape's workspace, and the tape's
        buffer is only read.

        It starts from the tape's block when the tape holds these indices
        and the cores' values now, as after rows(indices, tape) on the
        chain kernel with no write to the cores since; otherwise it builds
        the block again, into the tape, which then records it, or into a
        tape of its own when given none, which records nothing.  The block
        is the same either way and whatever KERNEL_BLOCK is, and so are the
        result's bits.  A call without a tape, or on a tape miss, thus
        builds the whole batch at once: on a 25000 x 256 chain of rank 16
        its prefixes and workspace take 11.3 KiB a row, 45 MiB for 4096
        rows.  `upstream` must be (B, cols) for B indices."""
        c, n = self.ring_rank, len(self.cores)
        upstream = np.asarray(upstream, dtype=np.float64)
        if upstream.shape != (np.size(indices), self.plan.cols):
            raise ShapeError(
                f"upstream shape {upstream.shape} != ({np.size(indices)}, {self.plan.cols})"
            )
        mine = tape is None
        if mine or not tape.holds(indices, self.cores):
            tape = Tape() if mine else tape
            self._fill(_row_digits(self.plan.row_factors, indices), tape)
            if not mine:
                tape.record(indices, self.cores)
        digits, prefixes = tape.block
        b, sizes, cols = digits[0].size, self._prefix_entries(), self.plan.cols
        runs = [_digit_runs(x) for x in digits]
        # rows[k]: where core k's rows, in its order, sit in d, which is in core k+1's
        rows = [_after(runs[k + 1][0], runs[k][0]) for k in range(n - 1)]
        mids = range(n - 2, 0, -1)
        longest = max((np.diff(runs[k][2]).max(initial=0) for k in mids), default=0)
        # w[0] and w[1] take turns holding d and the sorted lhs it overwrites
        # (w[0] first a sorted upstream, the last one core 0's rows); wr
        # holds u, then one run of dnext at a time; wi the gather index
        w0, w1, wr, wi = tape.scratch(
            b * max([c * c, cols] + sizes), b * max(sizes[:-1] + sizes[:1], default=0),
            max([b * cols] + [longest * sizes[k] for k in mids]),
            b * max((prefixes[k].shape[1] * self.cores[k].shape[2] for k in mids), default=0))
        w, wi = (w0, w1), wi.view(np.int64)
        grads = [np.zeros(g.shape) for g in self.cores]

        r, _, jn, _ = self.cores[-1].shape
        p = prefixes[-1].shape[1] // c
        order, vals, bounds = runs[-1]
        u = wr[: b * cols].reshape(b, p, jn)
        np.copyto(u, _take_rows(upstream, order, w0).reshape(b, jn, p).transpose(0, 2, 1))
        lhs = _take_rows(prefixes[-1].reshape(b, p, c * r), order, w0).reshape(-1, c * r)
        d = w0[: b * p * c * r].reshape(b, p, c * r)  # d prefix_{N-1}, overwrites lhs run by run
        rt = self.cores[-1].transpose(1, 2, 3, 0).reshape(-1, jn, c * r)  # (I_N, J_N, c R)
        for i, s, e in zip(vals, bounds, bounds[1:]):
            x = lhs[s * p : e * p].T @ u[s:e].reshape(-1, jn)  # (c R, J)
            grads[-1][:, i] += x.reshape(c, r, jn).transpose(1, 2, 0)
            if n > 1:
                np.matmul(u[s:e].reshape(-1, jn), rt[i], out=d[s:e].reshape(-1, c * r))
        for k in mids:
            g = self.cores[k]
            a, _, jk, rk = g.shape
            pc = prefixes[k].shape[1]
            order, vals, bounds = runs[k]
            src, at = d.reshape(-1, rk), _swap_index(rows[k], b, jk, pc, wi)
            nxt = w[(n - 1 - k) % 2]
            lhs = _take_rows(prefixes[k], order, nxt).reshape(-1, a)
            d = nxt[: b * pc * a].reshape(b, pc, a)  # d prefix_k, overwrites lhs run by run
            rt = g.transpose(1, 2, 3, 0).reshape(-1, jk * rk, a)
            for i, s, e in zip(vals, bounds, bounds[1:]):
                # this run's dnext; the index holds a permutation: clip is a no-op
                dnext = np.take(src, at[s:e].ravel(), axis=0, mode="clip",
                                out=wr[: (e - s) * pc * jk * rk].reshape(-1, rk))
                dnext = dnext.reshape(-1, jk * rk)
                np.matmul(lhs[s * pc : e * pc].T, dnext, out=grads[k].reshape(a, -1, jk * rk)[:, i])
                np.matmul(dnext, rt[i], out=d[s:e].reshape(-1, a))
            grads[k] += 0.0  # a -0.0 product lands as 0.0, as in a sum into zeros
        if n > 1:
            _, vals, bounds = runs[0]
            d = _take_rows(d.reshape(b, sizes[0]), rows[0], w[(n - 1) % 2])
            g0 = grads[0].transpose(1, 2, 0, 3)  # (I_1, J_1, c, R_1): prefix 1's layout
            g0[vals] += np.add.reduceat(d, bounds[:-1]).reshape(-1, *g0.shape[1:])
        return grads

    def materialize(self) -> np.ndarray:
        """Full dense (padded_rows x cols) matrix, C-ordered: rows over all
        padded rows, so a chain and a ring go through the row kernels.
        Guarded by the entry cap of materialize_cap()."""
        cap = materialize_cap()
        rows, cols = self.shape
        if rows * cols > cap:
            raise MemoryError(
                f"materialize of {rows}x{cols} exceeds cap of {cap} entries"
            )
        return self.rows(np.arange(rows))

    def stats(self) -> CompressionStats:
        return CompressionStats.from_counts(
            sum(c.size for c in self.cores), self.plan.padded_rows * self.plan.cols
        )


def _digit_runs(digits) -> tuple:
    """(the order of a stable sort of the digits, or None when they are
    sorted already; the distinct digits; where each one's run of rows
    starts in that order, then the row count)."""
    order = np.argsort(digits, kind="stable") if np.any(digits[1:] < digits[:-1]) else None
    counts = np.bincount(digits)
    vals = np.flatnonzero(counts)
    return order, vals.tolist(), [0] + np.cumsum(counts[vals]).tolist()


def _after(first, then):
    """Where the rows in order `then` sit among the rows in order `first`
    (either None for the batch's own order), or None when they sit in
    place."""
    if first is None:
        return then
    at = np.empty_like(first)
    at[first] = np.arange(first.size)
    return at if then is None else at[then]


def _take_rows(x, rows, out) -> np.ndarray:
    """x with its rows in order `rows`, copied into the front of the flat
    `out`; x itself when rows is None."""
    if rows is None:
        return x
    return np.take(x, rows, axis=0, out=out[: x.size].reshape(x.shape), mode="clip")


def _swap_index(rows, b, j, p, out) -> np.ndarray:
    """For b rows of x viewed as (B, J, P, R): which R-entry rows of x, in
    this order, give x with its rows in order `rows` (None keeps them) and
    J and P swapped, as (B, P, J) in the front of the flat `out`."""
    at = out[: b * p * j].reshape(b, p, j)
    rows = np.arange(b) if rows is None else rows
    np.add((rows * (j * p))[:, None, None], np.arange(j * p).reshape(j, p).T, out=at)
    return at


def _chain_row_flops(m: TTMatrix) -> int:
    """Flops of one row on the chain kernel: core k multiplies a
    (c * J_1..J_{k-1}, R_{k-1}) prefix by a (R_{k-1}, J_k * R_k) slice, and
    the last contracts c into the trace."""
    flops, p = 0, m.ring_rank
    for k, (r, _, j, rn) in enumerate(g.shape for g in m.cores):
        flops += 2 * p * r * j * (rn if k < len(m.cores) - 1 else 1)
        p *= j
    return flops


def half_split(m: TTMatrix, b: int) -> int:
    """The split s (cores 1..s | s+1..N) whose half kernel serves b rows in
    the fewest flops, or 0 for the chain kernel.  A split qualifies when
    its table GEMMs plus b row products cost fewer flops than b chain rows
    and its two tables hold at most b * cols entries."""
    shapes = [g.shape for g in m.cores]
    cols = m.plan.cols
    best, least = 0, b * _chain_row_flops(m)
    for s in range(1, len(shapes)):
        flops = 0
        left = shapes[0][0] * shapes[0][1] * shapes[0][2]  # c * I_L * J_L
        for r, i, j, rn in shapes[1:s]:
            flops += 2 * left * r * i * j * rn
            left *= i * j
        right = shapes[-1][1] * shapes[-1][2] * shapes[-1][3]  # I_R * J_R * c
        for r, i, j, rn in reversed(shapes[s:-1]):
            flops += 2 * r * i * j * rn * right
            right *= i * j
        flops += b * 2 * cols * m.ring_rank * shapes[s][0]  # the row GEMMs
        if (left + right) * shapes[s][0] <= b * cols and flops < least:
            best, least = s, flops
    return best


def _merge(a, b) -> np.ndarray:
    """Adjacent cores a (R, I_a, J_a, R') and b (R', I_b, J_b, R'') as one
    core (R, I_b * I_a, J_b * J_a, R''): one GEMM and a transpose that
    keeps a's digits fastest."""
    r, ia, ja, rb = a.shape
    _, ib, jb, rn = b.shape
    ab = (a.reshape(-1, rb) @ b.reshape(rb, -1)).reshape(r, ia, ja, ib, jb, rn)
    return ab.transpose(0, 3, 1, 4, 2, 5).reshape(r, ib * ia, jb * ja, rn)


def half_tables(m: TTMatrix, s: int) -> tuple:
    """The products of cores 1..s and s+1..N over all digit combinations
    of each half: ltab (I_L, c * R_s, J_L) and rtab (I_R, J_R, c * R_s),
    with I_L = I_1..I_s and so on.  Each half takes one merge step per
    core, from its own end: the left folds cores 1..s left to right, the
    right folds cores N..s+1 right to left."""
    left, right = m.cores[0], m.cores[-1]  # (c, I_L, J_L, R_s), (R_s, I_R, J_R, c)
    for g in m.cores[1:s]:
        left = _merge(left, g)
    for g in reversed(m.cores[s:-1]):
        right = _merge(g, right)
    a, il, jl, r = left.shape
    ltab = left.transpose(1, 0, 3, 2).reshape(il, a * r, jl)
    rtab = right.transpose(1, 2, 3, 0).reshape(right.shape[1], right.shape[2], a * r)
    return ltab, rtab


def half_rows(m: TTMatrix, indices, s: int) -> np.ndarray:
    """Rows at an index array, (B, cols), from the half tables of split s:
    row i is rtab[i_R] @ ltab[i_L], whose C-order (J_R, J_L) layout is the
    row's, j_1 fastest.  Rows are gathered and multiplied in blocks."""
    factors = m.plan.row_factors
    digits = _row_digits(factors, indices)
    il = np.ravel_multi_index(digits[:s], factors[:s], order="F")
    ir = np.ravel_multi_index(digits[s:], factors[s:], order="F")
    ltab, rtab = half_tables(m, s)
    out = np.empty((il.size, m.plan.cols))
    prods = out.reshape(il.size, rtab.shape[1], ltab.shape[2])
    step = max(1, KERNEL_BLOCK // (ltab[0].size + rtab[0].size + m.plan.cols))
    for a in range(0, il.size, step):
        blk = slice(a, a + step)
        np.matmul(np.take(rtab, ir[blk], axis=0), np.take(ltab, il[blk], axis=0), out=prods[blk])
    return out


def _random_cores(plan: FactorizationPlan, ring_rank: int, std: float, seed: int) -> list:
    """Cores with i.i.d. Normal(0, std^2) entries from a seeded generator,
    drawn core by core, and boundary ranks R_0 = R_N = ring_rank."""
    _positive_finite(std, "std")
    if ring_rank < 1:
        raise ValueError("ring_rank must be >= 1")
    rng = np.random.default_rng(seed)
    ranks = (ring_rank,) + plan.ranks + (ring_rank,)
    return [
        rng.normal(0.0, std, size=(ranks[k], plan.row_factors[k], plan.col_factors[k], ranks[k + 1]))
        for k in range(plan.n_cores)
    ]


def random_tt(plan: FactorizationPlan, std: float, seed: int) -> TTMatrix:
    """Cores with i.i.d. Normal(0, std^2) entries from a seeded generator."""
    return TTMatrix(cores=_random_cores(plan, 1, std, seed), plan=plan)


def glorot_tt(plan: FactorizationPlan, seed: int, std: float | None = None) -> TTMatrix:
    """Variance-calibrated init: materialized entries have variance std^2.

    Default std is the Glorot target sqrt(2 / (padded_rows + cols)).  The
    product of a chain of independent cores has entry variance
    (per-core variance)^N * prod(ranks), so each core gets the N-th root
    of std^2 / prod(ranks).
    """
    if std is None:
        std = float(np.sqrt(2.0 / (plan.padded_rows + plan.cols)))
    _positive_finite(std, "std")
    try:
        variance = std**2
    except OverflowError:  # std above about 1.3e154
        raise ValueError(f"std must have a finite square, got {std}") from None
    big_sigma_sq = float(prod(plan.ranks))
    core_std = (variance / big_sigma_sq) ** (1.0 / (2 * plan.n_cores))
    if core_std == 0.0:  # std below about 1e-162: the variance underflows
        raise ValueError(f"std must have a per-core std above 0.0, got {std}")
    return random_tt(plan, core_std, seed)


def delta_identity_tt(plan: FactorizationPlan) -> TTMatrix:
    """Rank-1 chain of Kronecker-delta cores; materializes to the
    rectangular identity, which has maximal matrix rank."""
    cores = []
    for ik, jk in zip(plan.row_factors, plan.col_factors):
        c = np.zeros((1, ik, jk, 1))
        d = min(ik, jk)
        c[0, range(d), range(d), 0] = 1.0
        cores.append(c)
    return TTMatrix(cores=cores, plan=replace(plan, ranks=(1,) * (plan.n_cores - 1)))


def tt_svd(dense: np.ndarray, plan: FactorizationPlan) -> TTMatrix:
    """Compress a dense (padded_rows x cols) matrix by sequential
    truncated SVDs (Oseledets 2011, Alg. 1); ranks are capped at
    plan.ranks and at the numerical rank of each unfolding (tiny singular
    values are always dropped).  The result's plan carries the ranks kept.

    Route: an unfolding ``mat`` with fewer rows than columns is factored
    through the R factor of ``mat.T = QR``, which ``r_factor`` builds
    from QRs of row blocks of ``mat.T`` (a tall-skinny QR that forms no
    Q).  ``mat = R^T Q^T`` has the left factors and singular values of
    ``R^T``, a square SVD, so no wide SVD runs.  Square and tall
    unfoldings take ``svd(mat)``.  Either way the remainder passed on is
    the projection ``u_r^T @ mat`` (equal to ``s_r vt_r`` in exact
    arithmetic), and the truncation threshold scales with
    ``max(mat.shape)`` of the unfolding, not of ``R``.
    Non-finite input raises ValueError before any LAPACK call."""
    dense = np.asarray(dense, dtype=np.float64)
    n = plan.n_cores
    if dense.shape != (plan.padded_rows, plan.cols):
        raise ShapeError(
            f"matrix shape {dense.shape} disagrees with plan "
            f"({plan.padded_rows}, {plan.cols})"
        )
    if not np.all(np.isfinite(dense)):
        raise ValueError("tt_svd input contains non-finite entries")
    t = dense.reshape(plan.row_factors + plan.col_factors, order="F")
    interleave = [ax for k in range(n) for ax in (k, n + k)]
    # rest is (r, i_k, j_k, i_k+1, j_k+1, ..., i_N, j_N)
    rest = np.transpose(t, interleave)[np.newaxis]
    cores = []
    for k in range(n - 1):
        rows = prod(rest.shape[:3])
        cols = rest.size // rows
        if rows < cols:
            # a C-ordered mat makes mat.T Fortran-ordered, as LAPACK reads it;
            # the F-order reshape only splits mat's two axes, so it is a view
            mat = np.empty((rows, cols))
            mat.reshape(rest.shape, order="F")[...] = rest
            res = svd(r_factor(mat.T).T)
        else:
            mat = rest.reshape((rows, cols), order="F")
            res = svd(mat)
        thresh = TT_SVD_TRUNCATION_TOL * res.singular_values[0] * max(mat.shape)
        nrank = int(np.count_nonzero(res.singular_values > thresh))
        # a zero unfolding keeps the chain alive with a zero rank-1 core
        u = res.u[:, : min(plan.ranks[k], nrank)] if nrank else np.zeros((rows, 1))
        cores.append(u.reshape(rest.shape[:3] + (u.shape[1],), order="F"))
        rest = (u.T @ mat).reshape((u.shape[1],) + rest.shape[3:], order="F")
    cores.append(rest[..., np.newaxis])
    kept = tuple(c.shape[3] for c in cores[:-1])
    return TTMatrix(cores=cores, plan=replace(plan, ranks=kept))
