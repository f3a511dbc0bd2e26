import numpy as np
import pytest

from csop.cli import (
    ResultTable,
    emit,
    load_matrix_csv,
    main,
    parse_config,
    parse_result_table,
    run,
    save_matrix_csv,
)
from csop.errors import (
    MissingRequiredError,
    PreconditionError,
    TypeMismatchError,
    UnknownKeyError,
)


class TestParseConfig:
    def test_defaults_from_empty_text(self):
        cfg = parse_config("", "kp-fig1")
        assert cfg.params["v0_min"] == 0.5
        assert cfg.params["v0_max"] == 40.0
        assert cfg.params["n_points"] == 20
        assert cfg.format == "csv"

    def test_comments_and_blank_lines(self):
        cfg = parse_config("# comment\n\nn_points = 5  # trailing\n", "kp-fig1")
        assert cfg.params["n_points"] == 5

    def test_unknown_key_with_line_number(self):
        with pytest.raises(UnknownKeyError, match="line 2"):
            parse_config("n_points = 3\nbogus = 1\n", "kp-fig1")

    def test_type_mismatch(self):
        with pytest.raises(TypeMismatchError, match="line 1"):
            parse_config("n_points = three", "kp-fig1")

    def test_missing_required(self):
        with pytest.raises(MissingRequiredError, match="matrix"):
            parse_config("", "takagi")

    def test_precondition_named(self):
        with pytest.raises(PreconditionError, match="q must be >= 0"):
            parse_config("q = -1", "decay-bound")

    def test_gamma_list(self):
        cfg = parse_config("gamma_values = 0, 0.01, 0.02", "resonance")
        assert cfg.params["gamma_values"] == (0.0, 0.01, 0.02)


class TestEmit:
    def test_empty_table(self):
        table = ResultTable(columns=["a", "b"], rows=np.empty((0, 2)), metadata={"k": 1})
        text = emit(table, "csv").decode()
        assert text == "# k = 1\na,b\n"

    def test_json_round_trip(self):
        table = ResultTable(
            columns=["x", "y"],
            rows=np.array([[1.0, 2.5], [3.0, -0.125]]),
            metadata={"seed": 0, "name": "t"},
        )
        assert parse_result_table(emit(table, "json")) == table

    def test_float_formatting_17g(self):
        table = ResultTable(columns=["x"], rows=np.array([[1.0 / 3.0]]), metadata={})
        text = emit(table, "csv").decode()
        assert "0.33333333333333331" in text


class TestMatrixIO:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        mat = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        path = tmp_path / "m.csv"
        save_matrix_csv(path, mat)
        back = load_matrix_csv(path)
        assert np.allclose(back, mat, atol=0)

    def test_odd_columns_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1.0,2.0,3.0\n")
        with pytest.raises(TypeMismatchError):
            load_matrix_csv(path)


class TestRun:
    def test_takagi_two_by_two(self, tmp_path):
        path = tmp_path / "m.csv"
        save_matrix_csv(path, np.diag([2.0, 1.0]).astype(complex))
        cfg = parse_config(f"matrix = {path}", "takagi")
        table = run("takagi", cfg)
        assert table.columns[:2] == ["index", "sigma"]
        assert table.rows[:, 1] == pytest.approx([2.0, 1.0])
        assert table.metadata["reconstruction_residual"] < 1e-12

    def test_antilinear_lambdas_are_singular_values(self, tmp_path):
        rng = np.random.default_rng(1)
        a = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        a = 0.5 * (a + a.T)
        path = tmp_path / "m.csv"
        save_matrix_csv(path, a)
        cfg = parse_config(f"matrix = {path}\nz_re = 0.3\nz_im = 0.1", "antilinear")
        table = run("antilinear", cfg)
        sv = np.sort(np.linalg.svd(a - (0.3 + 0.1j) * np.eye(5), compute_uv=False))
        assert table.rows[:, 1] == pytest.approx(sv, abs=1e-10)

    def test_decay_bound_curve(self):
        cfg = parse_config("e_minus = 1\ne_plus = 2\nn_energies = 11\nq_frac = 0.5", "decay-bound")
        table = run("decay-bound", cfg)
        assert table.columns == ["E", "q_c", "q", "C"]
        assert table.rows.shape == (11, 4)
        assert table.metadata["qbar"] == pytest.approx(0.25)
        assert table.metadata["ebar"] == pytest.approx(1.4375)

    def test_kp_fig1_schema_and_determinism(self):
        cfg = parse_config("n_points = 3\nv0_max = 4", "kp-fig1")
        t1, t2 = run("kp-fig1", cfg), run("kp-fig1", cfg)
        assert t1.columns == ["v0", "G", "W", "G_over_W", "q_exact", "q_bound", "rel_diff"]
        assert emit(t1, "csv") == emit(t2, "csv")

    def test_kernel_scan_small_grid(self):
        text = "n = 500\nsep_min = 8\nsep_max = 16\nq_frac = 0.75"
        table = run("kernel-scan", parse_config(text, "kernel-scan"))
        assert table.columns == ["separation", "kernel_abs", "envelope", "margin"]
        assert bool(table.metadata["certificate_passed"]) is True
        assert np.all(table.rows[:, 3] > 0)


class TestMain:
    def test_unknown_subcommand_exit_1(self, capsys):
        assert main(["frobnicate"]) == 1
        assert "usage" in capsys.readouterr().err

    def test_no_args_usage(self, capsys):
        assert main([]) == 1

    def test_config_error_exit_1(self, tmp_path, capsys):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("bogus = 1\n")
        assert main(["kp-fig1", "--config", str(cfg)]) == 1

    def test_precondition_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("e_minus = 1\ne_plus = 2\nq = -3\n")
        assert main(["decay-bound", "--config", str(cfg)]) == 2

    def test_convergence_exit_3(self, tmp_path, capsys):
        # free particle has no spectral gap; kernel-scan must fail with 3
        cfg = tmp_path / "c.cfg"
        zeros = tmp_path / "flat.csv"
        xs = np.linspace(0.0, 40.0, 50)
        np.savetxt(zeros, np.column_stack([xs, np.zeros_like(xs)]), delimiter=",")
        cfg.write_text(f"n = 300\npotential = {zeros}\n")
        assert main(["kernel-scan", "--config", str(cfg)]) == 3

    def test_end_to_end_csv_deterministic(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("e_minus = 1\ne_plus = 2\nn_energies = 7\n")
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["decay-bound", "--config", str(cfg), "--output", str(out1)]) == 0
        assert main(["decay-bound", "--config", str(cfg), "--output", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        header = out1.read_text().splitlines()
        assert any(line.startswith("# e_minus = 1") for line in header)

    def test_format_flag_json(self, tmp_path, capsys):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("e_minus = 1\ne_plus = 2\nn_energies = 3\n")
        out = tmp_path / "o.json"
        assert main(["decay-bound", "--config", str(cfg), "--format", "json", "--output", str(out)]) == 0
        table = parse_result_table(out.read_bytes())
        assert table.columns == ["E", "q_c"]
