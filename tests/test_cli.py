from pathlib import Path

import numpy as np
import pytest

from ttembed.cli import fmt, main
from ttembed.fileformat import load_dmat, load_tt, save_dmat


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def porcelain(out: str) -> dict:
    return dict(line.split("\t", 1) for line in out.strip().splitlines())


class TestFmt:
    def test_floats_roundtrip(self):
        for v in (1 / 3, 1e-300, 123456.789, -0.1):
            assert float(fmt(v)) == v

    def test_int_and_bool(self):
        assert fmt(7) == "7"
        assert fmt(True) == "true"
        assert fmt(np.bool_(False)) == "false"


class TestExitCodes:
    def test_unknown_command(self, capsys):
        code, _, err = run_cli(capsys, "explode")
        assert code == 1
        assert "error" in err

    def test_missing_required_flag(self, capsys):
        code, _, err = run_cli(capsys, "factorize", "--size", "512")
        assert code == 1

    def test_data_error(self, capsys):
        code, _, err = run_cli(capsys, "factorize", "--size", "7", "--n", "2")
        assert code == 2
        assert "ttembed: error:" in err

    def test_missing_file(self, capsys):
        code, _, err = run_cli(capsys, "stats", "--in", "/nonexistent.tte")
        assert code == 2


class TestFactorize:
    def test_plain(self, capsys):
        code, out, _ = run_cli(capsys, "factorize", "--size", "512", "--n", "3")
        assert code == 0
        assert out.strip() == "8 8 8"

    def test_porcelain(self, capsys):
        code, out, _ = run_cli(
            capsys, "--porcelain", "factorize", "--size", "480", "--n", "4"
        )
        assert code == 0
        assert porcelain(out)["factors"] == "4,4,5,6"

    def test_padded(self, capsys):
        code, out, _ = run_cli(
            capsys, "factorize", "--size", "25000", "--n", "3", "--pad"
        )
        assert code == 0
        assert out.strip() == "30 30 30"

    def test_padded_large_vocabulary(self, capsys):
        code, out, _ = run_cli(
            capsys, "factorize", "--size", "30000000", "--n", "4", "--pad"
        )
        assert code == 0
        assert out.strip() == "75 75 75 75"


class TestInitStatsLookup:
    def test_init_stats_roundtrip(self, capsys, tmp_path):
        model = str(tmp_path / "m.tte")
        code, out, _ = run_cli(
            capsys, "--porcelain", "init", "--vocab", "512", "--dim", "512",
            "--n", "3", "--ranks", "16", "--seed", "0", "--out", model,
        )
        assert code == 0
        assert porcelain(out)["parameters"] == "18432"

        code, out, _ = run_cli(capsys, "--porcelain", "stats", "--in", model)
        assert code == 0
        kv = porcelain(out)
        assert kv["kind"] == "tt"
        assert kv["vocab"] == "512"
        assert kv["tt_params"] == "18432"
        assert kv["dense_params"] == "262144"
        assert float(kv["ratio"]) == pytest.approx(262144 / 18432)

    def test_init_deterministic_bytes(self, capsys, tmp_path):
        a, b = str(tmp_path / "a.tte"), str(tmp_path / "b.tte")
        for path in (a, b):
            code, _, _ = run_cli(
                capsys, "init", "--vocab", "64", "--dim", "16", "--n", "2",
                "--ranks", "4", "--seed", "9", "--out", path,
            )
            assert code == 0
        assert Path(a).read_bytes() == Path(b).read_bytes()

    def test_lookup_matches_library(self, capsys, tmp_path):
        model = str(tmp_path / "m.tte")
        run_cli(capsys, "init", "--vocab", "64", "--dim", "16", "--n", "2",
                "--ranks", "4", "--seed", "3", "--out", model)
        code, out, _ = run_cli(capsys, "lookup", "--in", model,
                               "--indices", "0,63,17")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 3
        m = load_tt(model)
        got = np.array([[float(v) for v in line.split()] for line in lines])
        want = np.stack([m.row(i) for i in (0, 63, 17)])
        assert np.array_equal(got, want)  # 17 digits round-trip exactly

    def test_lookup_oov(self, capsys, tmp_path):
        model = str(tmp_path / "m.tte")
        run_cli(capsys, "init", "--vocab", "60", "--dim", "16", "--n", "2",
                "--ranks", "2", "--out", model)
        code, _, err = run_cli(capsys, "lookup", "--in", model, "--indices", "60")
        assert code == 2

    def test_tr_init(self, capsys, tmp_path):
        model = str(tmp_path / "m.tte")
        code, _, _ = run_cli(
            capsys, "init", "--vocab", "16", "--dim", "16", "--n", "2",
            "--ranks", "2", "--kind", "tr", "--ring-rank", "3", "--out", model,
        )
        assert code == 0
        m = load_tt(model)
        assert m.ring_rank == 3


class TestCompressReconstruct:
    def test_lossless_roundtrip(self, capsys, tmp_path):
        rng = np.random.default_rng(0)
        dense = rng.standard_normal((64, 64))
        src = str(tmp_path / "in.dmat")
        save_dmat(src, dense)
        model = str(tmp_path / "m.tte")
        code, out, _ = run_cli(
            capsys, "--porcelain", "compress", "--in", src, "--n", "3",
            "--ranks", "16", "--out", model,
        )
        assert code == 0
        back = str(tmp_path / "out.dmat")
        code, _, _ = run_cli(capsys, "reconstruct", "--in", model, "--out", back)
        assert code == 0
        rec = load_dmat(back)
        assert np.linalg.norm(rec - dense) <= 1e-10 * np.linalg.norm(dense)

    def test_truncating_compress(self, capsys, tmp_path):
        rng = np.random.default_rng(1)
        dense = rng.standard_normal((64, 64))
        src = str(tmp_path / "in.dmat")
        save_dmat(src, dense)
        model = str(tmp_path / "m.tte")
        code, out, _ = run_cli(
            capsys, "--porcelain", "compress", "--in", src, "--n", "3",
            "--ranks", "2", "--out", model,
        )
        assert code == 0
        assert porcelain(out)["ranks"] == "2,2"

    def test_reconstruct_serves_requested_rows_only(self, capsys, tmp_path):
        rng = np.random.default_rng(2)
        dense = rng.standard_normal((60, 16))  # pads to 64 rows internally
        src = str(tmp_path / "in.dmat")
        save_dmat(src, dense)
        model = str(tmp_path / "m.tte")
        # full unfolding rank (32) keeps the padded compression lossless
        run_cli(capsys, "compress", "--in", src, "--n", "2", "--ranks", "32",
                "--out", model)
        back = str(tmp_path / "out.dmat")
        run_cli(capsys, "reconstruct", "--in", model, "--out", back)
        rec = load_dmat(back)
        assert rec.shape == (60, 16)
        assert np.linalg.norm(rec - dense) <= 1e-10 * np.linalg.norm(dense)


class TestChecks:
    def test_gradcheck_passes(self, capsys, tmp_path):
        model = str(tmp_path / "m.tte")
        run_cli(capsys, "init", "--vocab", "16", "--dim", "8", "--n", "2",
                "--ranks", "2", "--seed", "1", "--out", model)
        code, out, _ = run_cli(capsys, "--porcelain", "gradcheck", "--in", model)
        assert code == 0
        assert float(porcelain(out)["max_rel_error"]) < 1e-5

    def test_rankcheck_passes(self, capsys):
        code, out, _ = run_cli(
            capsys, "--porcelain", "rankcheck", "--vocab", "64", "--dim", "16",
            "--n", "2", "--rank", "4", "--seeds", "3",
        )
        assert code == 0
        kv = porcelain(out)
        assert kv["all_full_rank"] == "true"
        assert "delta-witness" in kv

    def test_initstats_output(self, capsys):
        code, out, _ = run_cli(
            capsys, "--porcelain", "initstats", "--vocab", "64", "--dim", "16",
            "--n", "2", "--ranks", "1,4", "--draws", "4",
        )
        assert code == 0
        kv = porcelain(out)
        assert set(kv) == {"rank_1", "rank_4"}
        assert "var=" in kv["rank_1"]


class TestTable:
    def test_porcelain_rows(self, capsys):
        code, out, _ = run_cli(
            capsys, "--porcelain", "table", "--vocab", "512", "--dim", "512",
            "--n", "3", "--ranks", "16",
        )
        assert code == 0
        assert "tt_params=18432" in porcelain(out)["rank_16"]

    def test_plain_has_header(self, capsys):
        code, out, _ = run_cli(
            capsys, "table", "--vocab", "512", "--dim", "512", "--n", "3",
            "--ranks", "1,16",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 3
        assert "tt_params" in lines[0]


class TestTrainDemo:
    def write_config(self, tmp_path, **kv):
        lines = ["# demo config"] + [f"{k} = {v}" for k, v in kv.items()]
        path = tmp_path / "demo.cfg"
        path.write_text("\n".join(lines) + "\n")
        return str(path)

    def test_matrix_fit(self, capsys, tmp_path):
        cfg = self.write_config(
            tmp_path, task="matrix-fit", vocab=16, dim=16, n=2, ranks=16,
            steps=200, batch=8, lr=0.05, seed=0,
        )
        code, out, _ = run_cli(capsys, "--porcelain", "train-demo", "--config", cfg)
        assert code == 0
        kv = porcelain(out)
        assert kv["steps"] == "200"
        assert float(kv["final_full_mse"]) < float(kv["initial_full_mse"])
        assert len(kv["checksum"]) == 64

    def test_deterministic(self, capsys, tmp_path):
        cfg = self.write_config(
            tmp_path, task="matrix-fit", vocab=16, dim=16, n=2, ranks=2,
            steps=20, batch=4, lr=0.05, seed=7,
        )
        _, a, _ = run_cli(capsys, "--porcelain", "train-demo", "--config", cfg)
        _, b, _ = run_cli(capsys, "--porcelain", "train-demo", "--config", cfg)
        assert a == b

    def test_zero_lr_frozen_checksum(self, capsys, tmp_path):
        base = dict(task="matrix-fit", vocab=16, dim=16, n=2, ranks=2,
                    batch=4, lr=0.0, seed=3)
        short = self.write_config(tmp_path, steps=5, **base)
        _, a, _ = run_cli(capsys, "--porcelain", "train-demo", "--config", short)
        longer = self.write_config(tmp_path, steps=50, **base)
        _, b, _ = run_cli(capsys, "--porcelain", "train-demo", "--config", longer)
        assert porcelain(a)["checksum"] == porcelain(b)["checksum"]

    def test_bad_config_line(self, capsys, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("vocab 16\n")
        code, _, err = run_cli(capsys, "train-demo", "--config", str(path))
        assert code == 2
        assert "key=value" in err

    def test_unknown_key_rejected(self, capsys, tmp_path):
        cfg = self.write_config(tmp_path, vocab=16, dim=16, n=2, ranks=2, setps=5)
        code, out, err = run_cli(capsys, "train-demo", "--config", cfg)
        assert code == 2
        assert out == ""
        assert "unknown config keys: setps" in err

    def test_toy_classify(self, capsys, tmp_path):
        cfg = self.write_config(
            tmp_path, task="toy-classify", vocab=16, dim=8, n=2, ranks=2,
            steps=50, batch=8, lr=0.5, seed=0,
        )
        code, out, _ = run_cli(capsys, "--porcelain", "train-demo", "--config", cfg)
        assert code == 0
        assert "heldout_accuracy" in porcelain(out)
