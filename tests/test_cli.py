import re
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


# every flag each subcommand accepts, the shared --in and --vocab/--dim/--n included
SUBCOMMAND_FLAGS = {
    "factorize": ("--size", "--n", "--pad"),
    "init": ("--vocab", "--dim", "--n", "--ranks", "--seed", "--std", "--kind",
             "--ring-rank", "--out"),
    "compress": ("--in", "--n", "--ranks", "--out"),
    "reconstruct": ("--in", "--out"),
    "lookup": ("--in", "--indices"),
    "stats": ("--in",),
    "gradcheck": ("--in", "--seed", "--batch"),
    "rankcheck": ("--vocab", "--dim", "--n", "--rank", "--seeds", "--tol"),
    "initstats": ("--vocab", "--dim", "--n", "--ranks", "--draws", "--sigma"),
    "table": ("--vocab", "--dim", "--n", "--ranks"),
    "train-demo": ("--config",),
}


class TestHelp:
    def test_every_subcommand_is_covered(self, capsys):
        code, out, _ = run_cli(capsys, "--help")
        assert code == 0
        listed = re.search(r"\{([\w,-]+)\}", out).group(1).split(",")
        assert sorted(listed) == sorted(SUBCOMMAND_FLAGS)

    @pytest.mark.parametrize("command", sorted(SUBCOMMAND_FLAGS))
    def test_help_lists_every_flag(self, capsys, command):
        code, out, err = run_cli(capsys, command, "--help")
        assert code == 0
        assert err == ""
        assert set(re.findall(r"--[\w-]+", out)) == {"--help", *SUBCOMMAND_FLAGS[command]}


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

    def test_huge_size(self, capsys):
        code, out, _ = run_cli(capsys, "factorize", "--size", str(10**400), "--n", "2")
        assert code == 0
        assert out.split() == [str(10**200)] * 2

    def test_huge_padded_size(self, capsys):
        code, out, _ = run_cli(
            capsys, "factorize", "--size", str(10**400), "--n", "2", "--pad"
        )
        assert code == 0
        assert out.split() == [str(10**200)] * 2

    def test_more_cores_than_the_recursion_limit(self, capsys):
        code, out, _ = run_cli(capsys, "factorize", "--size", str(2**1100), "--n", "1100")
        assert code == 0
        assert out.split() == ["2"] * 1100


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

    @pytest.mark.parametrize(
        "big", ["9223372036854775808", "99999999999999999999999", "-99999999999999999999999"])
    def test_lookup_names_an_index_past_int64(self, capsys, tmp_path, big):
        model = str(tmp_path / "m.tte")
        run_cli(capsys, "init", "--vocab", "60", "--dim", "16", "--n", "2",
                "--ranks", "2", "--out", model)
        code, out, err = run_cli(capsys, "lookup", "--in", model, "--indices", f"1,{big}")
        assert code == 2
        assert out == ""
        assert err == f"ttembed: error: index {big} outside vocabulary [0, 60)\n"

    @pytest.mark.parametrize("kind", ["tt", "tr"])
    def test_init_rejects_a_negative_seed(self, capsys, tmp_path, kind):
        model = tmp_path / "m.tte"
        code, out, err = run_cli(
            capsys, "init", "--vocab", "16", "--dim", "16", "--n", "2", "--ranks", "2",
            "--kind", kind, "--seed", "-1", "--out", str(model),
        )
        assert code == 2
        assert out == ""
        assert "--seed must be >= 0, got -1" in err
        assert not model.exists()

    @pytest.mark.parametrize("kind", ["tt", "tr"])
    @pytest.mark.parametrize("std", ["inf", "nan", "0"])
    def test_init_rejects_a_std_outside_zero_to_inf(self, capsys, tmp_path, kind, std):
        model = tmp_path / "m.tte"
        code, out, err = run_cli(
            capsys, "init", "--vocab", "16", "--dim", "16", "--n", "2", "--ranks", "2",
            "--kind", kind, "--std", std, "--out", str(model),
        )
        assert code == 2
        assert out == ""
        assert f"--std must be positive and finite, got {float(std)}" in err
        assert not model.exists()

    def test_init_names_a_std_whose_square_overflows(self, capsys, tmp_path):
        model = tmp_path / "m.tte"
        code, out, err = run_cli(
            capsys, "init", "--vocab", "16", "--dim", "16", "--n", "2", "--ranks", "2",
            "--std", "1e200", "--out", str(model),
        )
        assert code == 2
        assert out == ""
        assert err == "ttembed: error: --std: std must have a finite square, got 1e+200\n"
        assert not model.exists()

    def test_init_names_a_std_whose_core_std_underflows(self, capsys, tmp_path):
        model = tmp_path / "m.tte"
        code, out, err = run_cli(
            capsys, "init", "--vocab", "16", "--dim", "16", "--n", "2", "--ranks", "2",
            "--std", "1e-170", "--out", str(model),
        )
        assert code == 2
        assert out == ""
        assert err == "ttembed: error: --std: std must have a per-core std above 0.0, got 1e-170\n"
        assert not model.exists()

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

    def test_nonfinite_table_rejected(self, capsys, tmp_path):
        dense = np.ones((64, 64))
        dense[3, 7] = np.nan
        src = str(tmp_path / "in.dmat")
        save_dmat(src, dense)
        model = tmp_path / "m.tte"
        code, _, err = run_cli(
            capsys, "compress", "--in", src, "--n", "3", "--ranks", "4", "--out", str(model),
        )
        assert code == 2
        assert "tt_svd input contains non-finite entries" in err
        assert not model.exists()

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

    @pytest.mark.parametrize("batch", ["0", "-3"])
    def test_gradcheck_rejects_a_batch_below_one(self, capsys, tmp_path, batch):
        model = str(tmp_path / "m.tte")
        run_cli(capsys, "init", "--vocab", "16", "--dim", "8", "--n", "2",
                "--ranks", "2", "--seed", "1", "--out", model)
        code, out, err = run_cli(capsys, "gradcheck", "--in", model, "--batch", batch)
        assert code == 2
        assert out == ""
        assert f"--batch must be >= 1, got {batch}" in err

    def test_gradcheck_rejects_a_negative_seed(self, capsys, tmp_path):
        model = str(tmp_path / "m.tte")
        run_cli(capsys, "init", "--vocab", "16", "--dim", "8", "--n", "2",
                "--ranks", "2", "--seed", "1", "--out", model)
        code, out, err = run_cli(capsys, "gradcheck", "--in", model, "--seed", "-1")
        assert code == 2
        assert out == ""
        assert "--seed must be >= 0, got -1" in err

    def test_rankcheck_rejects_negative_seeds(self, capsys):
        code, out, err = run_cli(
            capsys, "rankcheck", "--vocab", "16", "--dim", "16", "--n", "2",
            "--rank", "2", "--seeds", "-3",
        )
        assert code == 2
        assert out == ""
        assert "--seeds must be >= 0, got -3" in err

    def test_rankcheck_passes(self, capsys):
        code, out, _ = run_cli(
            capsys, "--porcelain", "rankcheck", "--vocab", "64", "--dim", "16",
            "--n", "2", "--rank", "4", "--seeds", "3",
        )
        assert code == 0
        kv = porcelain(out)
        assert kv["all_full_rank"] == "true"
        assert "delta-witness" in kv

    def test_rankcheck_nan_tol_rejected(self, capsys):
        code, out, err = run_cli(
            capsys, "rankcheck", "--vocab", "16", "--dim", "16", "--n", "2",
            "--rank", "2", "--tol", "nan",
        )
        assert code == 2
        assert out == ""
        assert "tol_factor must be positive" in err

    def test_rankcheck_inf_tol_rejected(self, capsys):
        code, out, err = run_cli(
            capsys, "rankcheck", "--vocab", "16", "--dim", "16", "--n", "2",
            "--rank", "2", "--tol", "inf",
        )
        assert code == 2
        assert out == ""
        assert "tol_factor must be positive and finite, got inf" in err

    def test_initstats_output(self, capsys):
        code, out, _ = run_cli(
            capsys, "--porcelain", "initstats", "--vocab", "64", "--dim", "16",
            "--n", "2", "--ranks", "1,4", "--draws", "4",
        )
        assert code == 0
        kv = porcelain(out)
        assert set(kv) == {"rank_1", "rank_4"}
        assert "var=" in kv["rank_1"]

    @pytest.mark.parametrize("sigma", ["inf", "nan", "-1"])
    def test_initstats_rejects_a_sigma_outside_zero_to_inf(self, capsys, sigma):
        code, out, err = run_cli(
            capsys, "initstats", "--vocab", "16", "--dim", "16", "--n", "2",
            "--ranks", "1,2", "--draws", "2", "--sigma", sigma,
        )
        assert code == 2
        assert out == ""
        assert f"--sigma must be positive and finite, got {float(sigma)}" in err

    def test_initstats_names_a_sigma_whose_square_overflows(self, capsys):
        code, out, err = run_cli(
            capsys, "initstats", "--vocab", "16", "--dim", "16", "--n", "2",
            "--ranks", "1,2", "--draws", "2", "--sigma", "1e200",
        )
        assert code == 2
        assert out == ""
        assert err == "ttembed: error: --sigma: std must have a finite square, got 1e+200\n"


@pytest.mark.parametrize("argv, flag", [
    pytest.param(["init", "--vocab", "16", "--dim", "16", "--n", "2", "--ranks", "2,x",
                  "--out", "{out}"], "--ranks", id="init-ranks"),
    pytest.param(["compress", "--in", "{dmat}", "--n", "2", "--ranks", "2,x", "--out", "{out}"],
                 "--ranks", id="compress-ranks"),
    pytest.param(["lookup", "--in", "{model}", "--indices", "1,x"], "--indices",
                 id="lookup-indices"),
    pytest.param(["initstats", "--vocab", "16", "--dim", "16", "--n", "2", "--draws", "0"],
                 "--draws", id="initstats-draws"),
    pytest.param(["rankcheck", "--vocab", "16", "--dim", "16", "--n", "2", "--rank", "2",
                  "--tol", "-1"], "--tol", id="rankcheck-tol"),
    pytest.param(["init", "--vocab", "16", "--dim", "16", "--n", "2", "--ranks", "2",
                  "--kind", "tr", "--ring-rank", "0", "--out", "{out}"], "--ring-rank",
                 id="init-ring-rank"),
    pytest.param(["table", "--vocab", "16", "--dim", "16", "--n", "2", "--ranks", "0"],
                 "--ranks", id="table-ranks"),
])
def test_a_flag_error_names_its_flag(capsys, tmp_path, argv, flag):
    paths = {"dmat": tmp_path / "t.dmat", "model": tmp_path / "m.tte", "out": tmp_path / "o.tte"}
    save_dmat(paths["dmat"], np.ones((16, 16)))
    assert run_cli(capsys, "init", "--vocab", "16", "--dim", "16", "--n", "2", "--ranks", "2",
                   "--out", str(paths["model"]))[0] == 0
    code, out, err = run_cli(capsys, *(a.format(**paths) for a in argv))
    assert code == 2
    assert out == ""
    assert err.startswith(f"ttembed: error: {flag}")
    assert not paths["out"].exists()


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

    def test_missing_key_rejected(self, capsys, tmp_path):
        cfg = self.write_config(tmp_path, dim=16, steps=2)
        code, out, err = run_cli(capsys, "train-demo", "--config", cfg)
        assert code == 2
        assert out == ""
        assert "missing config keys: vocab" in err
        cfg = self.write_config(tmp_path, steps=2)
        assert "missing config keys: vocab, dim" in run_cli(capsys, "train-demo", "--config", cfg)[2]

    @pytest.mark.parametrize("kind, key", [("lowrank", "lowrank_dim"), ("tr", "ring_rank")])
    def test_rank_below_one_rejected(self, capsys, tmp_path, kind, key):
        cfg = self.write_config(tmp_path, vocab=16, dim=16, n=2, ranks=2, steps=2,
                                kind=kind, **{key: 0})
        code, out, err = run_cli(capsys, "train-demo", "--config", cfg)
        assert code == 2
        assert out == ""
        assert f"{key} must be >= 1" in err

    @pytest.mark.parametrize("key, value, why", [
        ("steps", "2.5", "invalid literal for int() with base 10: '2.5'"),
        ("vocab", "1e3", "invalid literal for int() with base 10: '1e3'"),
        ("ranks", "2,x", "invalid literal for int() with base 10: 'x'"),
        ("lr", "fast", "could not convert string to float: 'fast'"),
    ])
    def test_unparsable_value_names_the_file_and_key(self, capsys, tmp_path, key, value, why):
        kv = dict(vocab=16, dim=16, n=2, ranks=2, steps=2)
        cfg = self.write_config(tmp_path, **{**kv, key: value})
        code, out, err = run_cli(capsys, "train-demo", "--config", cfg)
        assert code == 2
        assert out == ""
        assert f"{cfg}: {key}: {why}" in err

    def test_negative_seed_names_the_file_and_key(self, capsys, tmp_path):
        cfg = self.write_config(tmp_path, vocab=16, dim=16, n=2, ranks=2, steps=2, seed=-1)
        code, out, err = run_cli(capsys, "train-demo", "--config", cfg)
        assert code == 2
        assert out == ""
        assert f"{cfg}: seed must be >= 0, got -1" in err

    def test_an_init_std_whose_square_overflows_names_the_file(self, capsys, tmp_path):
        cfg = self.write_config(tmp_path, vocab=16, dim=16, n=2, steps=2, init_std="1e200")
        code, out, err = run_cli(capsys, "train-demo", "--config", cfg)
        assert code == 2
        assert out == ""
        assert err == f"ttembed: error: {cfg}: std must have a finite square, got 1e+200\n"

    def test_an_init_std_whose_core_std_underflows_names_the_file(self, capsys, tmp_path):
        cfg = self.write_config(tmp_path, vocab=16, dim=16, n=2, steps=2, init_std="1e-170")
        code, out, err = run_cli(capsys, "train-demo", "--config", cfg)
        assert code == 2
        assert out == ""
        assert err == f"ttembed: error: {cfg}: std must have a per-core std above 0.0, got 1e-170\n"

    def test_toy_classify(self, capsys, tmp_path):
        cfg = self.write_config(
            tmp_path, task="toy-classify", vocab=16, dim=8, n=2, ranks=2,
            steps=50, batch=8, lr=0.5, seed=0,
        )
        code, out, _ = run_cli(capsys, "--porcelain", "train-demo", "--config", cfg)
        assert code == 0
        assert "heldout_accuracy" in porcelain(out)

    def test_divergence_is_one_error_line(self, capsys, tmp_path):
        # the suite turns warnings into errors, so a numpy overflow warning fails this too
        cfg = self.write_config(tmp_path, vocab=16, dim=16, n=2, ranks=2, steps=50, lr=1e12)
        code, out, err = run_cli(capsys, "train-demo", "--config", cfg)
        assert code == 2
        assert out == ""
        assert re.fullmatch(rf"ttembed: error: {re.escape(cfg)}: non-finite loss at step \d+\n", err)

    @pytest.mark.parametrize("kv, why", [
        (dict(vocab=16, dim=7), "embedding dim 7 does not factor into 3 parts >= 2"),
        (dict(task="toy-classify", vocab=1, dim=4, n=1, ranks=1),
         "toy-classify needs a vocabulary of at least 2"),
        (dict(vocab=16, dim=16, n=2, kind="lowrank", init_std="nan"),
         "init_std must be positive and finite, got nan"),
        (dict(vocab=16, dim=16, n=2, kind="tt", init_std="inf"),
         "init_std must be positive and finite, got inf"),
    ])
    def test_plan_config_and_task_errors_name_the_file(self, capsys, tmp_path, kv, why):
        cfg = self.write_config(tmp_path, steps=2, **kv)
        code, out, err = run_cli(capsys, "train-demo", "--config", cfg)
        assert code == 2
        assert out == ""
        assert err == f"ttembed: error: {cfg}: {why}\n"
