import json

import numpy as np
import pytest

from csop import antilinear, scaling, schrodinger
from csop.cli import (
    ResultTable,
    emit,
    load_matrix_csv,
    main,
    parse_config,
    run,
    save_matrix_csv,
)
from csop.errors import (
    MissingRequiredError,
    PreconditionError,
    TypeMismatchError,
    UnknownKeyError,
)
from conftest import patch_lapack


def _refuse_constant(name):
    raise ValueError(f"{name} is not JSON")


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

    @pytest.mark.parametrize("call, error, message", [
        (lambda: parse_config("n_points 5\n", "kp-fig1"), TypeMismatchError, "expected 'key = value'"),
        (lambda: emit(ResultTable(columns=["a"], rows=np.zeros((1, 1))), "xml"), TypeMismatchError,
         "unknown output format 'xml'"),
    ], ids=["line_without_equals", "unknown_format"])
    def test_outside_input_checks(self, call, error, message):
        with pytest.raises(error, match=message):
            call()


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
        payload = json.loads(emit(table, "json"))
        assert payload["columns"] == table.columns
        assert payload["metadata"] == table.metadata
        rows = np.asarray(payload["rows"])
        assert rows.shape == table.rows.shape and np.array_equal(rows, table.rows)

    def test_json_writes_null_for_non_finite_values(self):
        # JSON has no NaN or Infinity: json.dumps's bare NaN and Infinity fail a strict parser
        rows = np.array([[np.nan, 1.5], [np.inf, -np.inf]])
        table = ResultTable(columns=["a", "b"], rows=rows, metadata={"x": np.nan, "ys": [1.0, -np.inf], "k": "v"})
        payload = json.loads(emit(table, "json"), parse_constant=_refuse_constant)
        assert payload["rows"] == [[None, 1.5], [None, None]]
        assert payload["metadata"] == {"x": None, "ys": [1.0, None], "k": "v"}
        assert emit(table, "csv").decode().splitlines()[-2:] == ["nan,1.5", "inf,-inf"]

    def test_json_bytes_of_a_finite_table(self):
        table = ResultTable(columns=["x", "y"], rows=np.array([[1.0 / 3.0, -0.0], [1e300, 2.5]]),
                            metadata={"seed": 0, "gammas": [0.0, 0.5], "ok": True})
        payload = {"metadata": table.metadata, "columns": table.columns,
                   "rows": [[float(x) for x in row] for row in table.rows]}
        expected = json.dumps(payload, sort_keys=True, separators=(",", ": "), indent=1) + "\n"
        assert emit(table, "json") == expected.encode()

    def test_float_formatting_17g(self):
        table = ResultTable(columns=["x"], rows=np.array([[1.0 / 3.0]]), metadata={})
        text = emit(table, "csv").decode()
        assert "0.33333333333333331" in text

    def test_csv_matches_per_value_format(self):
        # the row format must give, byte for byte, f"{float(x) + 0.0:.17g}" per value
        tiny = np.finfo(float).tiny
        rows = np.array([
            [-0.0, np.nan, np.inf, -np.inf],
            [5e-324, -tiny / 3.0, 1e300, -1e300],
            [1.0 / 3.0, -2.5, 0.0, 123456789.0],
        ])
        table = ResultTable(columns=["a", "b", "c", "d"], rows=rows, metadata={"k": "v"})
        expected = "# k = v\na,b,c,d\n" + "".join(
            ",".join(f"{float(x) + 0.0:.17g}" for x in row) + "\n" for row in rows
        )
        assert emit(table, "csv") == expected.encode()
        assert expected.startswith("# k = v\na,b,c,d\n0,nan,inf,-inf\n")


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

    @pytest.mark.parametrize("text, message", [("", "empty matrix"), ("1,0,2,0\n", "square matrix")],
                             ids=["empty", "not_square"])
    def test_empty_or_non_square_is_a_config_error(self, tmp_path, capsys, text, message):
        path = tmp_path / "m.csv"
        path.write_text(text)
        with pytest.raises(TypeMismatchError, match=message):
            load_matrix_csv(path)
        cfg = tmp_path / "c.cfg"
        cfg.write_text(f"matrix = {path}\n")
        assert main(["takagi", "--config", str(cfg)]) == 1
        assert capsys.readouterr().err.startswith("config error:")

    @pytest.mark.parametrize("text, message", [
        ("1,0,abc,0\n0,0,1,0\n", "could not convert"),
        ("1,0,2,0\n3,0\n", "number of columns changed"),
        ("nan,0\n", "non-finite"),
        ("1,inf\n", "non-finite"),
    ], ids=["not_a_number", "ragged", "nan", "inf"])
    def test_malformed_matrix_is_a_config_error(self, tmp_path, capsys, text, message):
        path = tmp_path / "m.csv"
        path.write_text(text)
        with pytest.raises(TypeMismatchError, match=message):
            load_matrix_csv(path)
        cfg = tmp_path / "c.cfg"
        cfg.write_text(f"matrix = {path}\n")
        for subcommand in ("takagi", "antilinear"):
            assert main([subcommand, "--config", str(cfg)]) == 1
            assert capsys.readouterr().err.startswith("config error:")

    @pytest.mark.parametrize("text, message", [
        ("0\n3\n5\n", "two columns"),
        ("0,1\n20,nan\n40,1\n", "non-finite"),
        ("0,1\n30,2\n20,1\n40,1\n", "strictly increasing"),
    ], ids=["one_column", "nan", "decreasing_x"])
    def test_malformed_potential_is_a_config_error(self, tmp_path, capsys, text, message):
        path = tmp_path / "v.csv"
        path.write_text(text)
        cfg = tmp_path / "c.cfg"
        cfg.write_text(f"n = 300\npotential = {path}\n")
        assert main(["kernel-scan", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:") and message in err


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

    def test_resonance_classifies_once(self, monkeypatch):
        # the scan polishes from the located resonance instead of classifying
        # the gamma = 0 spectrum a second time
        calls = []

        def counted(*args, **kwargs):
            calls.append(1)
            return classify(*args, **kwargs)

        classify = scaling.classify_spectrum
        monkeypatch.setattr(scaling, "classify_spectrum", counted)
        table = run("resonance", parse_config("n = 200\ngamma_values = 0, 0.02, 0.04", "resonance"))
        assert len(calls) == 1
        base = complex(
            table.metadata["z_probe_re"] - table.metadata["probe_offset_re"],
            table.metadata["z_probe_im"] - table.metadata["probe_offset_im"],
        )
        assert abs(complex(*table.rows[0, 1:3]) - base) <= 1e-12 * abs(base)

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

    def test_missing_config_file_exit_1(self, tmp_path, capsys):
        assert main(["kp-fig1", "--config", str(tmp_path / "absent.cfg")]) == 1
        assert capsys.readouterr().err.startswith("config error:")

    def test_kernel_scan_empty_ball_exit_2(self, tmp_path, capsys):
        # at the default n = 2000 the grid step is 0.02, so most eps = 0.005
        # balls hold no grid point; they must not average to a kernel of 0
        cfg = tmp_path / "k.cfg"
        cfg.write_text("eps = 0.005\n")
        assert main(["kernel-scan", "--config", str(cfg), "--output", str(tmp_path / "k.csv")]) == 2
        assert capsys.readouterr().err.startswith("precondition error:")
        assert not (tmp_path / "k.csv").exists()

    def test_antilinear_nonfinite_shift_exit_2(self, tmp_path, capsys):
        # a nan shift is a precondition error, not a traceback from eigh (exit 1)
        path = tmp_path / "m.csv"
        save_matrix_csv(path, np.eye(3, dtype=complex))
        cfg = tmp_path / "c.cfg"
        cfg.write_text(f"matrix = {path}\nz_re = nan\n")
        assert main(["antilinear", "--config", str(cfg), "--output", str(tmp_path / "a.csv")]) == 2
        assert "must be finite" in capsys.readouterr().err
        assert not (tmp_path / "a.csv").exists()

    def test_precondition_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("e_minus = 1\ne_plus = 2\nq = -3\n")
        assert main(["decay-bound", "--config", str(cfg)]) == 2

    @pytest.mark.parametrize(
        "text", ["e_minus = 2\ne_plus = 1\n", "e_minus = 1\ne_plus = 2\ne_bottom = 1.5\n"],
        ids=["inverted_gap", "bottom_above_e_minus"],
    )
    def test_decay_bound_bad_gap_ordering_exit_2(self, tmp_path, capsys, text):
        cfg = tmp_path / "c.cfg"
        cfg.write_text(text)
        assert main(["decay-bound", "--config", str(cfg)]) == 2
        assert "e_bottom <= e_minus < e_plus" in capsys.readouterr().err

    @pytest.mark.parametrize("subcommand, text, key", [
        # exited 0 with C = nan on every row
        ("decay-bound", "e_minus = 1\ne_plus = 2\neps = inf\nq_frac = 0.5\n", "eps"),
        # OverflowError tracebacks from math.exp and math.gamma (exit 1)
        ("decay-bound", "e_minus = 1\ne_plus = 2\neps = 1e6\nq_frac = 0.5\n", "eps"),
        ("decay-bound", "e_minus = 1\ne_plus = 2\ndim = 400\nq_frac = 0.5\n", "dim"),
        # ValueError tracebacks from geomspace, Grid1D and the comb (exit 1)
        ("kp-fig1", "v0_max = inf\n", "v0_max"),
        ("kernel-scan", "length = inf\n", "length"),
        ("kernel-scan", "v0 = inf\n", "v0"),
        # LinAlgError traceback from ?stebz (exit 1)
        ("kernel-scan", "energy_ceiling = nan\n", "energy_ceiling"),
        # exit 2, but blamed on a singular shift
        ("resonance", "alpha = nan\n", "alpha"),
        ("resonance", "gamma_values = 0, nan\n", "gamma_values"),
        ("resolvent-map", "alpha = nan\n", "alpha"),
    ], ids=["decay_eps_inf", "decay_eps_1e6", "decay_dim_400", "fig1_v0_max_inf", "scan_length_inf",
            "scan_v0_inf", "scan_ceiling_nan", "resonance_alpha_nan", "resonance_gamma_nan", "map_alpha_nan"])
    def test_nonfinite_or_overflowing_config_exit_2(self, tmp_path, capsys, subcommand, text, key):
        cfg = tmp_path / "c.cfg"
        cfg.write_text(text)
        assert main([subcommand, "--config", str(cfg), "--output", str(tmp_path / "o.csv")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("precondition error:") and f"{key} " in err.replace("'", " ")
        assert not (tmp_path / "o.csv").exists()

    @pytest.mark.parametrize("subcommand, key, value", [
        # exit 2, blamed on a singular or non-finite shift that names no key
        ("resonance", "alpha", "inf"),
        ("resonance", "probe_offset_re", "inf"),
        ("resonance", "probe_offset_im", "-inf"),
        ("resonance", "window_re_max", "inf"),
        ("resonance", "window_im_min", "-inf"),
        ("resolvent-map", "alpha", "-inf"),
        ("resolvent-map", "re_min", "-inf"),
        ("resolvent-map", "re_max", "inf"),
        ("resolvent-map", "im_min", "-inf"),
        ("resolvent-map", "im_max", "inf"),
        ("kernel-scan", "energy", "inf"),
        ("antilinear", "z_im", "-inf"),
        ("resonance", "gamma_values", "inf"),
    ])
    def test_infinite_float_key_exit_2(self, tmp_path, capsys, subcommand, key, value):
        # refused where it is parsed, naming its line and key, before any solve
        cfg = tmp_path / "c.cfg"
        cfg.write_text(f"n = 200\n{key} = {value}\n" if subcommand != "antilinear" else f"{key} = {value}\n")
        assert main([subcommand, "--config", str(cfg), "--output", str(tmp_path / "o.csv")]) == 2
        err = capsys.readouterr().err
        line = 1 if subcommand == "antilinear" else 2
        assert err == f"precondition error: line {line}: {key} must be finite\n"
        assert not (tmp_path / "o.csv").exists()

    @pytest.mark.parametrize("text, key", [
        # ValueError: Maximum allowed size exceeded, from np.arange (exit 1)
        ("sep_max = 1e300\n", "sep_max"),
        ("sep_step = 1e-300\n", "sep_step"),
        # refused later, at the ball gate
        ("sep_max = 100\n", "sep_max"),
        # 301 separations on a grid of 300 points
        ("sep_min = 1\nsep_max = 31\nsep_step = 0.1\n", "sep_step"),
    ], ids=["sep_max_1e300", "sep_step_1e-300", "sep_max_100", "sep_count_301"])
    def test_kernel_scan_separation_count_exit_2(self, tmp_path, capsys, text, key):
        cfg = tmp_path / "k.cfg"
        cfg.write_text("n = 300\n" + text)
        assert main(["kernel-scan", "--config", str(cfg), "--output", str(tmp_path / "k.csv")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"precondition error: {key} = ")
        assert not (tmp_path / "k.csv").exists()

    def test_kernel_scan_n_separations_exit_0(self, tmp_path):
        # exactly n = 300 separations is allowed
        cfg = tmp_path / "k.cfg"
        cfg.write_text("n = 300\nsep_min = 1\nsep_max = 30.9\nsep_step = 0.1\n")
        assert main(["kernel-scan", "--config", str(cfg), "--output", str(tmp_path / "k.csv")]) == 0
        rows = [line for line in (tmp_path / "k.csv").read_text().splitlines() if not line.startswith("#")]
        assert len(rows) == 1 + 300

    def test_kernel_scan_infinite_ceiling_exit_0(self, tmp_path):
        # inf is the documented whole-spectrum ceiling, not a bad value
        cfg = tmp_path / "c.cfg"
        cfg.write_text("n = 300\nenergy_ceiling = inf\n")
        assert main(["kernel-scan", "--config", str(cfg), "--output", str(tmp_path / "k.csv")]) == 0

    def test_decay_bound_q_and_q_frac_exit_1(self, tmp_path, capsys):
        # the rows would use q while the metadata recorded q_frac as applied
        cfg = tmp_path / "c.cfg"
        cfg.write_text("e_minus = 1\ne_plus = 2\nq = 0.1\nq_frac = 0.5\n")
        assert main(["decay-bound", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "q" in err.split() and "q_frac" in err

    def test_seed_is_unknown_key_exit_1(self, tmp_path, capsys):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("seed = 1\n")
        assert main(["kp-fig1", "--config", str(cfg)]) == 1
        assert "unknown key 'seed'" in capsys.readouterr().err

    def test_kernel_scan_empty_separation_range_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "k.cfg"
        cfg.write_text("n = 300\nsep_min = 20\nsep_max = 10\n")
        assert main(["kernel-scan", "--config", str(cfg)]) == 2
        assert "sep_min" in capsys.readouterr().err

    def test_resonance_empty_gamma_values_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "r.cfg"
        cfg.write_text("n = 200\ngamma_values =\n")
        assert main(["resonance", "--config", str(cfg)]) == 2
        assert "gamma_values" in capsys.readouterr().err

    def test_convergence_exit_3(self, tmp_path, capsys):
        # free particle has no spectral gap; kernel-scan must fail with 3
        cfg = tmp_path / "c.cfg"
        zeros = tmp_path / "flat.csv"
        xs = np.linspace(0.0, 40.0, 50)
        np.savetxt(zeros, np.column_stack([xs, np.zeros_like(xs)]), delimiter=",")
        cfg.write_text(f"n = 300\npotential = {zeros}\n")
        assert main(["kernel-scan", "--config", str(cfg)]) == 3

    def test_all_pairs_lapack_failure_exit_3(self, tmp_path, monkeypatch, capsys):
        # energy_ceiling = inf takes every eigenpair from ?stemr; info > 0 from it is a convergence failure
        patch_lapack(monkeypatch, lambda name, f: f if name != "stemr" else lambda *a, **k: (*f(*a, **k)[:-1], 1))
        cfg = tmp_path / "c.cfg"
        cfg.write_text("n = 300\nenergy_ceiling = inf\n")
        assert main(["kernel-scan", "--config", str(cfg)]) == 3
        assert "?stemr" in capsys.readouterr().err

    def test_resolvent_map_wide_window_exit_0(self, tmp_path):
        # power iteration stopped at its step cap on 14 of these 144 points
        # (first at z = 1.5 - 0.1i) and the run exited 3
        cfg = tmp_path / "c.cfg"
        cfg.write_text("re_min = 0.5\nre_max = 6.0\nim_min = -1.0\nim_max = -0.01\n")
        out = tmp_path / "map.json"
        assert main(["resolvent-map", "--config", str(cfg), "--format", "json", "--output", str(out)]) == 0
        rows = np.asarray(json.loads(out.read_bytes())["rows"])
        assert rows.shape == (144, 3)
        ham = scaling.build_scaled(
            scaling.DilationPotential.alpha_r2_exp(7.5), schrodinger.Grid1D(length=40.0, n=800), 0.3j
        )
        for i in (13, 49, 100):
            z = complex(rows[i, 0], rows[i, 1])
            smin = np.linalg.svd(ham.bands.dense(z), compute_uv=False).min()
            assert rows[i, 2] == pytest.approx(1.0 / smin, rel=1e-9)

    def test_lanczos_step_cap_exit_3(self, tmp_path, monkeypatch):
        # z = 2.5 - 0.3i needs one restart under the value-only stop: cap 0 raises
        monkeypatch.setattr(antilinear, "LANCZOS_MAXITER", 0)
        cfg = tmp_path / "c.cfg"
        cfg.write_text("re_min = 2.5\nre_max = 2.5\nim_min = -0.3\nim_max = -0.3\nn_re = 1\nn_im = 1\n")
        assert main(["resolvent-map", "--config", str(cfg)]) == 3

    def test_end_to_end_csv_deterministic(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("e_minus = 1\ne_plus = 2\nn_energies = 7\n")
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["decay-bound", "--config", str(cfg), "--output", str(out1)]) == 0
        assert main(["decay-bound", "--config", str(cfg), "--output", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        header = out1.read_text().splitlines()
        assert any(line.startswith("# e_minus = 1") for line in header)

    def test_decay_bound_json_parses_strictly(self, tmp_path):
        # at the two gap edges q_c is below q = 0.1, so C is NaN there: null in JSON, nan in CSV
        cfg = tmp_path / "c.cfg"
        cfg.write_text("e_minus = 1\ne_plus = 2\nn_energies = 5\nq = 0.1\n")
        out, csv = tmp_path / "o.json", tmp_path / "o.csv"
        assert main(["decay-bound", "--config", str(cfg), "--format", "json", "--output", str(out)]) == 0
        assert main(["decay-bound", "--config", str(cfg), "--output", str(csv)]) == 0
        payload = json.loads(out.read_bytes(), parse_constant=_refuse_constant)
        c = [row[payload["columns"].index("C")] for row in payload["rows"]]
        assert c[0] is None and c[-1] is None and all(isinstance(v, float) for v in c[1:-1])
        cells = [line.split(",")[-1] for line in csv.read_text().splitlines()[-5:]]
        assert cells[0] == cells[-1] == "nan" and float(cells[2]) == c[2]

    def test_format_flag_json(self, tmp_path, capsys):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("e_minus = 1\ne_plus = 2\nn_energies = 3\n")
        out = tmp_path / "o.json"
        assert main(["decay-bound", "--config", str(cfg), "--format", "json", "--output", str(out)]) == 0
        payload = json.loads(out.read_bytes())
        assert payload["columns"] == ["E", "q_c"]
