"""Command-line front end: config parsing, dispatch, and tabular emission.

Configs are plain ``key = value`` text with ``#`` comments.  Every
subcommand produces a ResultTable that serializes deterministically to CSV
(17 significant digits, metadata as leading ``#`` lines) or JSON; identical
configs yield byte-identical output.  Nothing here reads a result back: the
JSON is plain ``{"columns", "metadata", "rows"}`` for ``json.loads``, with
null for a non-finite number, and a ResultTable compares by identity.  Exit
codes: 1 config error, 2 numerical precondition, 3 convergence failure.
Each runner imports its modules when it runs, so decay-bound and kp-fig1
load NumPy and no SciPy.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import warnings
from dataclasses import astuple, dataclass, field

import numpy as np

from . import __version__
from .errors import (
    ConfigError,
    ConvergenceError,
    MissingRequiredError,
    PreconditionError,
    TypeMismatchError,
    UnknownKeyError,
)

@dataclass
class Param:
    type: type
    default: object = None
    required: bool = False
    check: object = None        # (value) -> None or error message string


def _positive(name):
    return lambda v: None if 0 < v < np.inf else f"{name} must be > 0 and finite"


def _nonnegative(name):
    return lambda v: None if 0 <= v < np.inf else f"{name} must be >= 0 and finite"


def _finite(name):
    return lambda v: None if np.isfinite(v).all() else f"{name} must be finite"


_COMMON = {
    "format": Param(str, "csv", check=lambda v: None if v in ("csv", "json") else "format must be csv or json"),
}

SCHEMAS: dict[str, dict[str, Param]] = {
    "takagi": {
        **_COMMON,
        "matrix": Param(str, required=True),
    },
    "antilinear": {
        **_COMMON,
        "matrix": Param(str, required=True),
        "z_re": Param(float, 0.0, check=_finite("z_re")),
        "z_im": Param(float, 0.0, check=_finite("z_im")),
    },
    "decay-bound": {
        **_COMMON,
        "e_minus": Param(float, required=True, check=_positive("e_minus")),
        "e_plus": Param(float, required=True, check=_positive("e_plus")),
        "e_bottom": Param(float, 0.0, check=_nonnegative("e_bottom")),
        "n_energies": Param(int, 101, check=_positive("n_energies")),
        "eps": Param(float, 0.5, check=_positive("eps")),
        "dim": Param(int, 1, check=_positive("dim")),
        "q": Param(float, None, check=_nonnegative("q")),
        "q_frac": Param(float, None, check=_positive("q_frac")),
    },
    "kernel-scan": {
        **_COMMON,
        "v0": Param(float, 3.0, check=_positive("v0")),
        "length": Param(float, 40.0, check=_positive("length")),
        "n": Param(int, 2000, check=lambda v: None if v >= 3 else "n must be >= 3"),
        "potential": Param(str, None),
        "energy": Param(float, None, check=_finite("energy")),
        "eps": Param(float, 0.5, check=_positive("eps")),
        "q_frac": Param(float, 0.9, check=_positive("q_frac")),
        "sep_min": Param(float, 8.0, check=_positive("sep_min")),
        "sep_max": Param(float, 24.0, check=_positive("sep_max")),
        "sep_step": Param(float, 2.0, check=_positive("sep_step")),
        "energy_ceiling": Param(float, 35.0),
    },
    "kp-fig1": {
        **_COMMON,
        "v0_min": Param(float, 0.5, check=_positive("v0_min")),
        "v0_max": Param(float, 40.0, check=_positive("v0_max")),
        "n_points": Param(int, 20, check=_positive("n_points")),
    },
    "resonance": {
        **_COMMON,
        "alpha": Param(float, 7.5, check=_finite("alpha")),
        "length": Param(float, 40.0, check=_positive("length")),
        "n": Param(int, 800, check=lambda v: None if v >= 3 else "n must be >= 3"),
        "theta_im": Param(float, 0.3, check=_positive("theta_im")),
        "dtheta_im": Param(float, 0.02, check=_positive("dtheta_im")),
        "gamma_values": Param(list, (0.0,), check=lambda v: _finite("gamma_values")(v) if v else "gamma_values must not be empty"),
        "probe_offset_re": Param(float, 0.05, check=_finite("probe_offset_re")),
        "probe_offset_im": Param(float, 0.05, check=_finite("probe_offset_im")),
        "window_re_max": Param(float, 6.0, check=_finite("window_re_max")),
        "window_im_min": Param(float, -0.5, check=_finite("window_im_min")),
    },
    "resolvent-map": {
        **_COMMON,
        "alpha": Param(float, 7.5, check=_finite("alpha")),
        "length": Param(float, 40.0, check=_positive("length")),
        "n": Param(int, 800, check=lambda v: None if v >= 3 else "n must be >= 3"),
        "theta_im": Param(float, 0.3, check=_positive("theta_im")),
        "re_min": Param(float, 3.5, check=_finite("re_min")),
        "re_max": Param(float, 4.6, check=_finite("re_max")),
        "im_min": Param(float, -0.5, check=_finite("im_min")),
        "im_max": Param(float, -0.01, check=_finite("im_max")),
        "n_re": Param(int, 12, check=_positive("n_re")),
        "n_im": Param(int, 12, check=_positive("n_im")),
    },
}

SUBCOMMANDS = tuple(SCHEMAS)


@dataclass
class RunConfig:
    subcommand: str
    params: dict
    format: str = "csv"


@dataclass(eq=False)
class ResultTable:
    columns: list[str]
    rows: np.ndarray
    metadata: dict = field(default_factory=dict)


def _coerce(key: str, raw: str, param: Param, lineno: int):
    try:
        if param.type is int:
            return int(raw)
        if param.type is float:
            return float(raw)
        if param.type is list:
            return tuple(float(tok) for tok in raw.replace(",", " ").split())
        return raw
    except ValueError:
        raise TypeMismatchError(
            f"line {lineno}: value {raw!r} for key {key!r} is not a valid {param.type.__name__}"
        ) from None


def parse_config(text: str, subcommand: str) -> RunConfig:
    """Parse ``key = value`` config text against the subcommand schema.

    Unknown keys, type mismatches and missing required keys raise with the
    offending line number; numeric values are checked against the target
    module's preconditions before any heavy computation, and a NaN in any
    of them raises PreconditionError.
    """
    if subcommand not in SCHEMAS:
        raise UnknownKeyError(f"unknown subcommand {subcommand!r}")
    schema = SCHEMAS[subcommand]
    params = {k: p.default for k, p in schema.items()}

    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise TypeMismatchError(f"line {lineno}: expected 'key = value', got {stripped!r}")
        key, raw = (part.strip() for part in stripped.split("=", 1))
        if key not in schema:
            raise UnknownKeyError(f"line {lineno}: unknown key {key!r} for {subcommand}")
        value = _coerce(key, raw, schema[key], lineno)
        if schema[key].type is not str and np.isnan(value).any():
            raise PreconditionError(f"line {lineno}: value {raw!r} for key {key!r} is NaN; it must be finite or +-inf")
        check = schema[key].check
        if check is not None and value is not None:
            msg = check(value)
            if msg:
                raise PreconditionError(f"line {lineno}: {msg}")
        params[key] = value

    for key, p in schema.items():
        if p.required and params.get(key) is None:
            raise MissingRequiredError(f"missing required key {key!r} for {subcommand}")

    fmt = params.pop("format")
    return RunConfig(subcommand=subcommand, params=params, format=fmt)


def _read_csv(path: str) -> np.ndarray:
    """The float table of a CSV file; unparsable or non-finite entries raise TypeMismatchError."""
    try:
        with warnings.catch_warnings():  # loadtxt warns on an empty file, which callers refuse
            warnings.simplefilter("ignore", UserWarning)
            raw = np.loadtxt(path, delimiter=",", dtype=float, ndmin=2)
    except ValueError as exc:
        raise TypeMismatchError(f"{path}: {exc}") from None
    if not np.all(np.isfinite(raw)):
        raise TypeMismatchError(f"{path}: non-finite entry (nan or inf)")
    return raw


def load_matrix_csv(path: str) -> np.ndarray:
    """Read a complex matrix stored as interleaved real,imag column pairs."""
    raw = _read_csv(path)
    if raw.size == 0:
        raise TypeMismatchError(f"{path}: empty matrix (no entries)")
    if raw.shape[1] % 2 != 0:
        raise TypeMismatchError(f"{path}: expected an even number of columns (re,im pairs)")
    if raw.shape[1] != 2 * raw.shape[0]:
        raise TypeMismatchError(f"{path}: expected a square matrix, got {raw.shape[0]} x {raw.shape[1] // 2}")
    return raw[:, 0::2] + 1j * raw[:, 1::2]


def save_matrix_csv(path: str, matrix: np.ndarray):
    mat = np.asarray(matrix, dtype=complex)
    out = np.empty((mat.shape[0], 2 * mat.shape[1]))
    out[:, 0::2] = mat.real
    out[:, 1::2] = mat.imag
    np.savetxt(path, out, delimiter=",", fmt="%.17g")


def _table(cfg: RunConfig, columns, rows, **meta) -> ResultTable:
    """A ResultTable whose metadata is the subcommand, the version, every set config key, then `meta`."""
    base = {"subcommand": cfg.subcommand, "csop_version": __version__}
    for key, val in sorted(cfg.params.items()):
        if val is not None:
            base[key] = list(val) if isinstance(val, tuple) else val
    return ResultTable(columns=list(columns), rows=rows, metadata={**base, **meta})


def _spectrum_table(cfg: RunConfig, name: str, values, vectors, **meta) -> ResultTable:
    """Row k: index k, values[k], then Re and Im of each entry of column k of vectors."""
    n = values.size
    rows = np.empty((n, 2 + 2 * n))
    rows[:, 0] = np.arange(n)
    rows[:, 1] = values
    rows[:, 2::2] = vectors.T.real
    rows[:, 3::2] = vectors.T.imag
    columns = ["index", name] + [f"u{i}_{part}" for i in range(n) for part in ("re", "im")]
    return _table(cfg, columns, rows, **meta)


def _run_takagi(cfg: RunConfig) -> ResultTable:
    from ._blas import one_blas_thread
    from .antilinear import takagi

    mat = load_matrix_csv(cfg.params["matrix"])
    fac = takagi(mat)
    with one_blas_thread:
        recon = (fac.u * fac.sigma) @ fac.u.T
        residual = float(np.linalg.norm(recon - 0.5 * (mat + mat.T)))
    return _spectrum_table(cfg, "sigma", fac.sigma, fac.u, reconstruction_residual=residual)


def _run_antilinear(cfg: RunConfig) -> ResultTable:
    from .antilinear import antilinear_spectrum

    mat = load_matrix_csv(cfg.params["matrix"])
    z = complex(cfg.params["z_re"], cfg.params["z_im"])
    spec = antilinear_spectrum(mat, None, z)
    return _spectrum_table(cfg, "lambda", spec.lambdas, spec.vectors)


def _run_decay_bound(cfg: RunConfig) -> ResultTable:
    from .decay import BoundInputs, GapSpectrum, bound_constant, critical_q, qbar_and_ebar

    p = cfg.params
    if p["q"] is not None and p["q_frac"] is not None:
        raise ConfigError("set q or q_frac, not both")
    gap = GapSpectrum(e_minus=p["e_minus"], e_plus=p["e_plus"], e_bottom=p["e_bottom"])
    qbar, ebar, in_gap = qbar_and_ebar(gap)
    margin = 1e-9 * gap.gap
    energies = np.linspace(gap.e_minus + margin, gap.e_plus - margin, p["n_energies"])
    qcs = critical_q(gap, energies)
    cols, columns = ["E", "q_c"], [energies, qcs]
    if p["q"] is not None or p["q_frac"] is not None:
        qs = np.full_like(qcs, p["q"]) if p["q"] is not None else p["q_frac"] * qcs
        cs = [
            bound_constant(BoundInputs(gap=gap, energy=energy, q=q, eps=p["eps"], dim=p["dim"]))
            if q < qc and energy + q * q < gap.e_plus
            else np.nan
            for energy, qc, q in zip(energies, qcs, qs)
        ]
        cols, columns = cols + ["q", "C"], columns + [qs, cs]
    return _table(cfg, cols, np.column_stack(columns), qbar=qbar, ebar=ebar, ebar_in_gap=in_gap)


def _kp_hamiltonian(p):
    from .schrodinger import Grid1D, PotentialSpec, build_hamiltonian

    grid = Grid1D(length=p["length"], n=p["n"])
    if p.get("potential"):
        data = _read_csv(p["potential"])
        if data.shape[1] != 2 or not np.all(np.diff(data[:, 0]) > 0):
            raise TypeMismatchError(f"{p['potential']}: expected two columns (x, v) with x strictly increasing")
        values = np.interp(grid.points, data[:, 0], data[:, 1])
        pot = PotentialSpec.sampled(values)
    else:
        positions = np.arange(1.0, p["length"], 1.0)
        pot = PotentialSpec.delta_comb(positions, p["v0"])
    return build_hamiltonian(grid, pot)


def _run_kernel_scan(cfg: RunConfig) -> ResultTable:
    from .decay import BoundInputs, certify_bound, critical_q, qbar_and_ebar
    from .schrodinger import find_gap, resolvent_kernel_scan

    p = cfg.params
    if p["sep_min"] > p["sep_max"]:
        raise PreconditionError(f"sep_min = {p['sep_min']:g} exceeds sep_max = {p['sep_max']:g}")
    if p["sep_max"] >= p["length"]:
        raise PreconditionError(f"sep_max = {p['sep_max']:g} must be below length = {p['length']:g}")
    if (p["sep_max"] - p["sep_min"]) / p["sep_step"] + 0.5 > p["n"]:  # np.arange's count below
        raise PreconditionError(f"sep_step = {p['sep_step']:g} gives more than n = {p['n']} separations")
    ham = _kp_hamiltonian(p)
    gap = find_gap(ham, energy_ceiling=p["energy_ceiling"])
    qbar, ebar, _ = qbar_and_ebar(gap)
    energy = p["energy"] if p["energy"] is not None else ebar
    qc = critical_q(gap, energy)
    q = p["q_frac"] * qc
    seps = np.arange(p["sep_min"], p["sep_max"] + 0.5 * p["sep_step"], p["sep_step"])
    samples = resolvent_kernel_scan(ham, energy, seps, p["eps"])
    inputs = BoundInputs(gap=gap, energy=energy, q=q, eps=p["eps"], dim=1)
    report = certify_bound(samples, inputs)
    envelope = report.c_value * np.exp(-q * samples[:, 0])
    rows = np.column_stack([samples, envelope, report.margins])
    return _table(
        cfg, ["separation", "kernel_abs", "envelope", "margin"], rows,
        e_minus=gap.e_minus, e_plus=gap.e_plus, e_bottom=gap.e_bottom,
        energy=energy, q=q, q_c=qc, C=report.c_value,
        certificate_passed=report.passed,
    )


def _run_kp_fig1(cfg: RunConfig) -> ResultTable:
    from .kronig_penney import FIG1_COLUMNS, fig1_sweep

    p = cfg.params
    v0s = np.geomspace(p["v0_min"], p["v0_max"], p["n_points"])
    rows = np.asarray([astuple(r) for r in fig1_sweep(v0s)])
    return _table(cfg, FIG1_COLUMNS, rows)


def _run_resonance(cfg: RunConfig) -> ResultTable:
    from .scaling import DilationPotential, locate_resonance, perturbation_scan
    from .schrodinger import Grid1D

    p = cfg.params
    grid = Grid1D(length=p["length"], n=p["n"])
    pot = DilationPotential.alpha_r2_exp(p["alpha"], perturbation_alpha=p["alpha"])
    theta = 1j * p["theta_im"]
    window = (0.0, p["window_re_max"], p["window_im_min"], 0.0)
    base = locate_resonance(pot, grid, theta, 0.0, dtheta=1j * p["dtheta_im"], window=window)
    z_probe = base.z + complex(p["probe_offset_re"], p["probe_offset_im"])
    scan = perturbation_scan(pot, grid, theta, p["gamma_values"], z_probe, base.z)
    rows = np.column_stack([scan.gammas, scan.z_res.real, scan.z_res.imag, scan.norms, scan.bound_estimates])
    return _table(
        cfg, ["gamma", "z_res_re", "z_res_im", "resolvent_norm", "bound_estimate"], rows,
        z_probe_re=z_probe.real, z_probe_im=z_probe.imag,
        rel_bound_b=scan.rel_bound.b,
    )


def _run_resolvent_map(cfg: RunConfig) -> ResultTable:
    from .scaling import DilationPotential, build_scaled, resolvent_map
    from .schrodinger import Grid1D

    p = cfg.params
    grid = Grid1D(length=p["length"], n=p["n"])
    pot = DilationPotential.alpha_r2_exp(p["alpha"])
    ham = build_scaled(pot, grid, 1j * p["theta_im"])
    res = np.linspace(p["re_min"], p["re_max"], p["n_re"])
    ims = np.linspace(p["im_min"], p["im_max"], p["n_im"])
    norms = resolvent_map(ham, res, ims)
    rows = np.column_stack([np.repeat(res, ims.size), np.tile(ims, res.size), norms.ravel()])
    return _table(cfg, ["re_z", "im_z", "norm"], rows)


_RUNNERS = {
    "takagi": _run_takagi,
    "antilinear": _run_antilinear,
    "decay-bound": _run_decay_bound,
    "kernel-scan": _run_kernel_scan,
    "kp-fig1": _run_kp_fig1,
    "resonance": _run_resonance,
    "resolvent-map": _run_resolvent_map,
}


def run(subcommand: str, cfg: RunConfig) -> ResultTable:
    """Dispatch a parsed config to the owning module."""
    if subcommand not in _RUNNERS:
        raise UnknownKeyError(f"unknown subcommand {subcommand!r}")
    return _RUNNERS[subcommand](cfg)


def _json_value(value):
    """value, with a non-finite float, alone or in a list, as None: JSON has no NaN or Infinity."""
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, list):
        return [_json_value(v) for v in value]
    return value


def emit(table: ResultTable, fmt: str = "csv") -> bytes:
    """Serialize a ResultTable; identical tables give identical bytes.

    CSV writes a non-finite cell as nan, inf or -inf; JSON, which has no such
    numbers, writes null for a non-finite cell or metadata value.
    """
    rows = np.atleast_2d(table.rows) if table.rows.size else np.empty((0, len(table.columns)))
    if fmt == "csv":
        lines = [f"# {key} = {table.metadata[key]}" for key in sorted(table.metadata)]
        lines.append(",".join(table.columns))
        # one %-format per row, + 0.0 turning -0.0 into 0.0; converting row by
        # row keeps the table's Python floats from all being alive at once
        row_fmt = ",".join(["%.17g"] * rows.shape[1])
        lines += [row_fmt % tuple(row.tolist()) for row in rows + 0.0]
        return ("\n".join(lines) + "\n").encode()
    if fmt == "json":
        payload = {
            "metadata": {key: _json_value(val) for key, val in table.metadata.items()},
            "columns": table.columns,
            "rows": [[_json_value(float(x)) for x in row] for row in rows],
        }
        text = json.dumps(payload, sort_keys=True, separators=(",", ": "), indent=1, allow_nan=False)
        return (text + "\n").encode()
    raise TypeMismatchError(f"unknown output format {fmt!r}")


USAGE = (
    "usage: csop SUBCOMMAND [--config FILE] [--output FILE] [--format csv|json]\n"
    "subcommands: " + ", ".join(SUBCOMMANDS) + "\n"
)


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if not argv or argv[0] in ("-h", "--help"):
        sys.stderr.write(USAGE)
        return 0 if argv else 1
    subcommand = argv[0]
    if subcommand not in SUBCOMMANDS:
        sys.stderr.write(f"error: unknown subcommand {subcommand!r}\n{USAGE}")
        return 1

    parser = argparse.ArgumentParser(prog=f"csop {subcommand}", add_help=False)
    parser.add_argument("--config", default=None)
    parser.add_argument("--output", default=None)
    parser.add_argument("--format", default=None, choices=("csv", "json"))
    try:
        args = parser.parse_args(argv[1:])
    except SystemExit:
        sys.stderr.write(USAGE)
        return 1

    try:
        text = ""
        if args.config:
            with open(args.config, "r", encoding="utf-8") as fh:
                text = fh.read()
        cfg = parse_config(text, subcommand)
        if args.format:
            cfg.format = args.format
        table = run(subcommand, cfg)
        blob = emit(table, cfg.format)
    except ConfigError as exc:
        sys.stderr.write(f"config error: {exc}\n")
        return 1
    except PreconditionError as exc:
        sys.stderr.write(f"precondition error: {exc}\n")
        return 2
    except ConvergenceError as exc:
        sys.stderr.write(f"convergence error: {exc}\n")
        return 3
    except OSError as exc:
        sys.stderr.write(f"config error: {exc}\n")
        return 1

    if args.output:
        with open(args.output, "wb") as fh:
            fh.write(blob)
    else:
        sys.stdout.buffer.write(blob)
    return 0


if __name__ == "__main__":
    sys.exit(main())
