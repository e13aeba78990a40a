import os
import struct
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from ttembed import fileformat
from ttembed.fileformat import (
    FileFormatError,
    load_dmat,
    load_tt,
    save_dmat,
    save_tt,
)
from ttembed.planning import FactorizationPlan
from ttembed.trmatrix import TRMatrix, random_tr
from ttembed.ttmatrix import TTMatrix, random_tt

DMAT_HEADER = struct.Struct("<4sBQQ")


@pytest.fixture
def tt(tmp_path):
    plan = FactorizationPlan((2, 3, 2), (3, 2, 2), 10, (2, 3))
    m = random_tt(plan, 1.0, 0)
    path = tmp_path / "m.tte"
    save_tt(path, m)
    return plan, m, path


class TestRoundTrip:
    def test_tt_bitwise(self, tt):
        plan, m, path = tt
        back = load_tt(path)
        assert isinstance(back, TTMatrix)
        assert back.plan.row_factors == plan.row_factors
        assert back.plan.col_factors == plan.col_factors
        assert back.plan.requested_rows == 10
        assert all(np.array_equal(a, b) for a, b in zip(back.cores, m.cores))

    def test_tr_bitwise(self, tmp_path):
        plan = FactorizationPlan((2, 2), (2, 2), 4, (3,))
        m = random_tr(plan, 2, 1.0, 1)
        path = tmp_path / "r.tte"
        save_tt(path, m)
        back = load_tt(path)
        assert isinstance(back, TRMatrix)
        assert back.ring_rank == 2
        assert all(np.array_equal(a, b) for a, b in zip(back.cores, m.cores))

    def test_many_cores(self, tmp_path):
        # 2**64 padded rows: the row count overflows int64
        plan = FactorizationPlan((2,) * 64, (2,) * 64, 5, (1,) * 63)
        m = random_tt(plan, 1.0, 0)
        path = tmp_path / "m.tte"
        save_tt(path, m)
        back = load_tt(path)
        assert back.plan == plan
        assert [c.tobytes() for c in back.cores] == [c.tobytes() for c in m.cores]

    def test_file_bytes_stable(self, tt, tmp_path):
        _, m, path = tt
        other = tmp_path / "again.tte"
        save_tt(other, m)
        assert path.read_bytes() == other.read_bytes()

    def test_save_load_save_identical(self, tt, tmp_path):
        _, _, path = tt
        second = tmp_path / "second.tte"
        save_tt(second, load_tt(path))
        assert second.read_bytes() == path.read_bytes()

    def test_dmat_roundtrip(self, tmp_path):
        m = np.random.default_rng(2).standard_normal((7, 5))
        path = tmp_path / "m.dmat"
        save_dmat(path, m)
        assert np.array_equal(load_dmat(path), m)

    def test_dmat_rejects_vector(self, tmp_path):
        with pytest.raises(ValueError):
            save_dmat(tmp_path / "v.dmat", np.zeros(5))

    def test_save_rejects_other_types(self, tmp_path):
        with pytest.raises(TypeError):
            save_tt(tmp_path / "x.tte", np.zeros((2, 2)))


class TestSerializationLayout:
    def test_header_fields(self, tt):
        plan, m, path = tt
        buf = path.read_bytes()
        assert buf[:4] == b"TTE1"
        kind, dtype, n = struct.unpack_from("<BBH", buf, 4)
        assert (kind, dtype, n) == (0, 0, 3)
        dims = [struct.unpack_from("<4I", buf, 8 + 16 * k) for k in range(3)]
        assert dims[0] == (1, 2, 3, 2)
        assert dims[2] == (3, 2, 2, 1)
        (vocab,) = struct.unpack_from("<Q", buf, 8 + 48)
        assert vocab == 10

    def test_payload_is_c_order_float64(self, tt):
        _, m, path = tt
        buf = path.read_bytes()
        off = 8 + 48 + 8
        want = b"".join(np.ascontiguousarray(c).tobytes() for c in m.cores)
        assert buf[off:] == want


def corrupt(path, tmp_path, mutate):
    buf = bytearray(path.read_bytes())
    buf = mutate(buf)
    out = tmp_path / "corrupt.tte"
    out.write_bytes(bytes(buf))
    return out


class TestCorruption:
    def test_bad_magic(self, tt, tmp_path):
        _, _, path = tt

        def mutate(buf):
            buf[0] = ord(b"X")
            return buf

        with pytest.raises(FileFormatError, match="bad magic"):
            load_tt(corrupt(path, tmp_path, mutate))

    def test_unsupported_dtype(self, tt, tmp_path):
        _, _, path = tt

        def mutate(buf):
            buf[5] = 1
            return buf

        with pytest.raises(FileFormatError, match="dtype"):
            load_tt(corrupt(path, tmp_path, mutate))

    def test_truncated_header(self, tt, tmp_path):
        _, _, path = tt
        with pytest.raises(FileFormatError, match="truncated"):
            load_tt(corrupt(path, tmp_path, lambda b: b[:6]))

    def test_truncated_payload(self, tt, tmp_path):
        _, _, path = tt
        with pytest.raises(FileFormatError, match="payload length mismatch"):
            load_tt(corrupt(path, tmp_path, lambda b: b[:-8]))

    def test_trailing_garbage(self, tt, tmp_path):
        _, _, path = tt
        with pytest.raises(FileFormatError, match="payload length mismatch"):
            load_tt(corrupt(path, tmp_path, lambda b: b + b"\x00" * 4))

    def test_broken_rank_chain(self, tt, tmp_path):
        _, _, path = tt

        def mutate(buf):
            # core 0 r_out lives at offset 8 + 12
            struct.pack_into("<I", buf, 8 + 12, 5)
            return buf

        with pytest.raises(FileFormatError, match="rank chain"):
            load_tt(corrupt(path, tmp_path, mutate))

    def test_bad_boundary_rank(self, tt, tmp_path):
        _, _, path = tt

        def mutate(buf):
            # set last core r_out to 2; keep payload length consistent by
            # also lying about the dtype of nothing: easiest is to append
            # the missing bytes so only the boundary check fires
            struct.pack_into("<I", buf, 8 + 2 * 16 + 12, 2)
            return buf + b"\x00" * (3 * 2 * 2 * 1 * 8)

        with pytest.raises(FileFormatError, match="boundary ranks"):
            load_tt(corrupt(path, tmp_path, mutate))

    def test_nonfinite_payload(self, tt, tmp_path):
        _, _, path = tt

        def mutate(buf):
            struct.pack_into("<d", buf, len(buf) - 8, float("nan"))
            return buf

        with pytest.raises(FileFormatError, match="non-finite"):
            load_tt(corrupt(path, tmp_path, mutate))

    def test_vocab_out_of_range(self, tt, tmp_path):
        _, _, path = tt

        def mutate(buf):
            struct.pack_into("<Q", buf, 8 + 48, 2**40)
            return buf

        with pytest.raises(FileFormatError, match="vocab"):
            load_tt(corrupt(path, tmp_path, mutate))

    def test_zero_extent(self, tt, tmp_path):
        _, _, path = tt

        def mutate(buf):
            struct.pack_into("<I", buf, 8 + 4, 0)
            return buf

        with pytest.raises(FileFormatError, match="zero extent"):
            load_tt(corrupt(path, tmp_path, mutate))

    def test_unknown_kind(self, tt, tmp_path):
        _, _, path = tt

        def mutate(buf):
            buf[4] = 7
            return buf

        with pytest.raises(FileFormatError, match="kind"):
            load_tt(corrupt(path, tmp_path, mutate))

    def test_plan_violation_is_file_format_error(self, tmp_path):
        # a well-formed N=2 chain whose core 0 has a size-1 row mode: the
        # header passes the structural checks but no plan allows it
        dims = [(1, 1, 2, 2), (2, 3, 2, 1)]
        parts = [b"TTE1", struct.pack("<BBH", 0, 0, 2)]
        parts += [struct.pack("<4I", *d) for d in dims]
        parts.append(struct.pack("<Q", 3))
        parts += [np.ones(d, dtype="<f8").tobytes() for d in dims]
        path = tmp_path / "degenerate.tte"
        path.write_bytes(b"".join(parts))
        with pytest.raises(FileFormatError, match="1-factors"):
            load_tt(path)

    def test_messages_are_distinct(self, tt, tmp_path):
        _, _, path = tt
        cases = {
            "magic": lambda b: bytearray(b"XXXX") + b[4:],
            "dtype": lambda b: b[:5] + bytearray([9]) + b[6:],
            "truncate": lambda b: b[:-8],
        }
        msgs = set()
        for mutate in cases.values():
            with pytest.raises(FileFormatError) as err:
                load_tt(corrupt(path, tmp_path, mutate))
            msgs.add(str(err.value))
        assert len(msgs) == len(cases)

    def test_dmat_corruption(self, tmp_path):
        path = tmp_path / "m.dmat"
        save_dmat(path, np.eye(3))
        buf = bytearray(path.read_bytes())
        buf[0] = ord(b"Z")
        bad = tmp_path / "bad.dmat"
        bad.write_bytes(bytes(buf))
        with pytest.raises(FileFormatError, match="bad magic"):
            load_dmat(bad)
        short = tmp_path / "short.dmat"
        short.write_bytes(path.read_bytes()[:-1])
        with pytest.raises(FileFormatError, match="payload length mismatch"):
            load_dmat(short)


class TestPayloadReader:
    @pytest.mark.parametrize("shape", [(0, 3), (3, 0), (7, 5)])
    def test_dmat_roundtrip(self, tmp_path, shape):
        m = np.random.default_rng(3).standard_normal(shape)
        path = tmp_path / "m.dmat"
        save_dmat(path, m)
        back = load_dmat(path)
        assert back.shape == shape
        assert back.tobytes() == m.tobytes()
        assert back.dtype == np.float64
        assert back.flags.c_contiguous and back.flags.writeable

    def test_tt_roundtrip(self, tt):
        _, m, path = tt
        back = load_tt(path)
        assert [c.tobytes() for c in back.cores] == [c.tobytes() for c in m.cores]
        for c in back.cores:
            assert c.dtype == np.float64
            assert c.flags.c_contiguous and c.flags.writeable

    @pytest.mark.parametrize("rows", [2**20, 2**40])
    def test_a_huge_header_allocates_nothing(self, tmp_path, rows):
        path = tmp_path / "huge.dmat"
        path.write_bytes(DMAT_HEADER.pack(b"DMAT", 0, rows, 3) + np.ones(6).tobytes())
        tracemalloc.start()
        try:
            with pytest.raises(FileFormatError, match="payload length mismatch"):
                load_dmat(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_one_trailing_byte(self, tt, tmp_path):
        _, _, path = tt
        with pytest.raises(FileFormatError, match="payload length mismatch"):
            load_tt(corrupt(path, tmp_path, lambda b: b + b"\x00"))
        save_dmat(tmp_path / "m.dmat", np.eye(3))
        grown = tmp_path / "grown.dmat"
        grown.write_bytes((tmp_path / "m.dmat").read_bytes() + b"\x00")
        with pytest.raises(FileFormatError, match="payload length mismatch"):
            load_dmat(grown)

    # a file whose size changes between the length check and the reads
    @pytest.mark.parametrize("change", [-8, 1], ids=["shrunk", "grown"])
    def test_the_reads_check_the_length_again(self, tmp_path, monkeypatch, change):
        save_dmat(tmp_path / "m.dmat", np.eye(3))
        buf = (tmp_path / "m.dmat").read_bytes()
        path = tmp_path / "changed.dmat"
        path.write_bytes(buf[:change] if change < 0 else buf + b"\x00" * change)

        def stale_fstat(fd):
            return SimpleNamespace(st_size=os.fstat(fd).st_size - change)

        monkeypatch.setattr(fileformat, "os", SimpleNamespace(fstat=stale_fstat))
        with pytest.raises(FileFormatError, match="payload length mismatch"):
            load_dmat(path)


def _fuzz_sources(tmp_path):
    """(path, header length, loader) for one saved file of each kind."""
    tt_plan = FactorizationPlan((2, 3, 2), (3, 2, 2), 10, (2, 3))
    tr_plan = FactorizationPlan((2, 2), (2, 2), 4, (3,))
    sources = []
    for name, m in [("tt", random_tt(tt_plan, 1.0, 0)), ("tr", random_tr(tr_plan, 2, 1.0, 1))]:
        path = tmp_path / f"{name}.tte"
        save_tt(path, m)
        sources.append((path, 4 + 4 + 16 * len(m.cores) + 8, load_tt))
    path = tmp_path / "m.dmat"
    save_dmat(path, np.random.default_rng(0).standard_normal((3, 4)))
    sources.append((path, 4 + 17, load_dmat))
    return sources


class TestLoaderFuzz:
    CASES_PER_FILE = 1000

    def test_only_file_format_error_escapes(self, tmp_path):
        rng = np.random.default_rng(2024)
        out = tmp_path / "fuzzed"
        for path, header, loader in _fuzz_sources(tmp_path):
            clean = path.read_bytes()
            for case in range(self.CASES_PER_FILE):
                buf = bytearray(clean)
                mode = case % 3
                if mode == 0:  # truncate at a random offset
                    buf = buf[: int(rng.integers(len(buf)))]
                else:  # overwrite 1-3 bytes in the header, or anywhere
                    span = header if mode == 1 else len(buf)
                    for pos in rng.integers(span, size=int(rng.integers(1, 4))):
                        buf[pos] = int(rng.integers(256))
                out.write_bytes(bytes(buf))
                try:
                    loader(out)
                except FileFormatError:
                    pass
                except Exception as exc:  # noqa: BLE001 - any other class is the bug
                    pytest.fail(
                        f"{path.name} case {case}: {type(exc).__name__}: {exc} "
                        f"from bytes {bytes(buf).hex()}"
                    )
