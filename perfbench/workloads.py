"""The benchmark's workloads: seeded inputs, job lists and correctness gates.

A workload is a list of jobs.  Each job calls csop's public API or runs a
CLI subcommand in process (`parse_config`, `run`, `emit`, as `csop.cli.main`
does), then checks the result against the paper's identities and raises
`CheckFailed` when one does not hold.  A job may return observations: the
SHA-256 of the bytes a CLI job emitted, or the relative difference of two
resolvent-norm engines.

Every pass of every workload starts with the warm-up jobs: one small call
into each layer that reaches every traced function, so every per-layer
metric exists on every workload.  The same jobs are the set-up warm-up.

csop functions are looked up through their module at call time
(`schrodinger.find_gap`, not an imported name) so that the tracer's
wrappers see the calls.
"""

from __future__ import annotations

import hashlib
import math
import os

import numpy as np

from csop import antilinear, cli, decay, kronig_penney, scaling, schrodinger

ALPHA = 7.5
RES_LENGTH = 40.0
RES_THETA = 0.3j
RES_NEAR = complex(4.0723, -0.19631)   # alpha = 7.5 resonance, grid-extrapolated

# workload sizes
RES_CLI_N = 300
RES_MAP_N = 800
RES_PROBE_N = 400
RES_PROBES = 4
RES_FLOOR_NS = (400, 500)
RES_LADDER_NS = (1000, 1500, 2000)

GAP_LENGTH = 40.0
GAP_N = 1500
GAP_GAMMA_N = 300
GAP_SEPS = np.arange(8.0, 25.0, 2.0)
GAP_EPS = 0.5
GAP_CEILING = 35.0
GAP_DECAY_ENERGIES = 1001
GAP_FIG1_POINTS = 200

TAKAGI_N = 200
RESOLVENT_NS = (300, 600)
RESOLVENT_SHIFTS = 2
EMBED_N = 300

PI_SQ = math.pi * math.pi


class CheckFailed(Exception):
    """A csop result violated the identity its job checks."""


def check(ok, what: str):
    if not ok:
        raise CheckFailed(what)


def rel(a, b) -> float:
    return abs(a - b) / abs(b)


def complex_symmetric(rng, n: int) -> np.ndarray:
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return 0.5 * (a + a.T)


def singular_values(mat) -> np.ndarray:
    """Ascending singular values: the oracle every antilinear check uses."""
    return np.sort(np.linalg.svd(mat, compute_uv=False))


def save_matrix(path: str, mat: np.ndarray):
    """Write the CLI matrix format: interleaved re,im column pairs, 17 digits."""
    out = np.empty((mat.shape[0], 2 * mat.shape[1]))
    out[:, 0::2] = mat.real
    out[:, 1::2] = mat.imag
    np.savetxt(path, out, delimiter=",", fmt="%.17g")


def config_text(**params) -> str:
    lines = []
    for key, value in params.items():
        if isinstance(value, (tuple, list)):
            value = ", ".join(repr(float(v)) for v in value)
        elif isinstance(value, float):
            value = repr(value)
        lines.append(f"{key} = {value}")
    return "\n".join(lines) + "\n"


def run_cli(subcommand: str, text: str):
    """What `csop SUBCOMMAND --config FILE` does, minus argument and file I/O."""
    cfg = cli.parse_config(text, subcommand)
    table = cli.run(subcommand, cfg)
    blob = cli.emit(table, cfg.format)
    return table, {"digest": hashlib.sha256(blob).hexdigest()}


def comb(length: float, v0: float):
    return schrodinger.PotentialSpec.delta_comb(np.arange(1.0, length), v0)


def boosted_sigma_min(length: float, n: int, v0: float, q: float, energy: float) -> float:
    """sigma_min(H_q - E) of the delta-comb grid operator, assembled here.

    Independent of csop's assembly: 3-point Laplacian, v0/h on the nearest
    grid site of each comb position, and 2qD with the central difference D.
    """
    h = length / (n + 1)
    v = np.zeros(n)
    sites = np.clip(np.rint(np.arange(1.0, length) / h).astype(int) - 1, 0, n - 1)
    np.add.at(v, sites, v0 / h)
    mat = np.diag(2.0 / h**2 + v - q * q - energy)
    mat += np.diag(np.full(n - 1, -1.0 / h**2 + q / h), 1)
    mat += np.diag(np.full(n - 1, -1.0 / h**2 - q / h), -1)
    return float(singular_values(mat)[0])


def check_decay_rows(table, q_frac: float):
    """q_c = F(q_c, E) on every row, q = q_frac q_c, C > 0, and qbar = max q_c = q_c(Ebar)."""
    meta = table.metadata
    e, qc, q, c = table.rows.T
    em, ep = meta["e_minus"], meta["e_plus"]
    f = np.sqrt((ep - e - qc**2) * (e - em + qc**2) / (4.0 * em))
    check(np.all(np.abs(qc - f) <= 1e-9 * qc), "q_c != F(q_c, E)")
    check(np.all(q == q_frac * qc), "q != q_frac * q_c")
    check(np.all(np.isfinite(c) & (c > 0.0)), "certificate constant not positive")
    check(qc.max() <= meta["qbar"] * (1 + 1e-9), "q_c above qbar")
    if meta["ebar_in_gap"]:
        gap = schrodinger.GapSpectrum(e_minus=em, e_plus=ep, e_bottom=meta["e_bottom"])
        check(rel(decay.critical_q(gap, meta["ebar"]), meta["qbar"]) <= 1e-9, "q_c(Ebar) != qbar")


# ---------------------------------------------------------------------------
# warm-up: one small call per layer, reaching every traced function

def warmup_jobs(workdir: str):
    rng = np.random.default_rng(20050121)
    a = complex_symmetric(rng, 8)
    m = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    z = complex(0.3, 0.2)
    path = os.path.join(workdir, "warmup_matrix.csv")
    save_matrix(path, a)
    sv_a, sv_az, sv_m = singular_values(a), singular_values(a - z * np.eye(8)), singular_values(m)
    pot = scaling.DilationPotential.alpha_r2_exp(ALPHA, perturbation_alpha=ALPHA)

    def antilinear_job(state):
        norm = sv_a[-1]
        lam = antilinear.antilinear_spectrum(a, None, z).lambdas
        check(np.max(np.abs(lam - sv_az)) <= 1e-10 * norm, "lambda != sigma")
        fac = antilinear.takagi(a)
        recon = fac.u @ np.diag(fac.sigma) @ fac.u.T
        check(np.linalg.norm(recon - a) <= 1e-10 * norm, "Takagi reconstruction")
        check(rel(antilinear.resolvent_norm(a, None, z), 1.0 / sv_az[0]) <= 1e-8, "1/min lambda")
        emb, conj = antilinear.block_embed(m)
        lam_m = antilinear.antilinear_spectrum(emb, conj).lambdas[0]
        check(abs(lam_m - sv_m[0]) <= 1e-10 * sv_m[-1], "block embedding min lambda")
        check(abs(antilinear.minmax_norm(a) - norm) <= 1e-10 * norm, "minmax norm")

    def schrodinger_job(state):
        length, n, v0, eps = 10.0, 59, 3.0, 0.25
        ham = schrodinger.build_hamiltonian(schrodinger.Grid1D(length, n), comb(length, v0))
        gap = schrodinger.find_gap(ham, energy_ceiling=GAP_CEILING, spacing_factor=3.0)
        _, ebar, in_gap = decay.qbar_and_ebar(gap)
        check(in_gap, "Ebar outside the gap")
        q = 0.5 * decay.critical_q(gap, ebar)
        norm = schrodinger.gamma_norm(ham, q, ebar, gap)
        check(rel(norm, 1.0 / boosted_sigma_min(length, n, v0, q, ebar)) <= 1e-8, "gamma_norm")
        check(np.isfinite(schrodinger.bq_norm(ham, gap, q, ebar)), "bq_norm")
        seps = np.arange(2.0, 6.5, 1.0)
        samples = schrodinger.resolvent_kernel_scan(ham, ebar, seps, eps)
        report = decay.certify_bound(samples, decay.BoundInputs(gap=gap, energy=ebar, q=q, eps=eps))
        check(report.passed, "decay certificate")
        check(np.isfinite(schrodinger.projector_decay(ham, gap, eps, seps).q_fit), "projector fit")

    def decay_job(state):
        text = config_text(e_minus=1.0, e_plus=2.0, n_energies=11, q_frac=0.5)
        table, obs = run_cli("decay-bound", text)
        check_decay_rows(table, 0.5)
        return obs

    def kronig_penney_job(state):
        row = kronig_penney.fig1_sweep([3.0])[0]
        check(row.rel_diff <= 0.15, "rel_diff > 0.15")
        edges = kronig_penney.band_edges(kronig_penney.KPModel(3.0))
        check(rel(edges.e_minus, PI_SQ) <= 1e-10, "e_minus != pi^2")

    def scaling_job(state):
        text = config_text(n=60, gamma_values=(0.0, 0.05))
        table, obs = run_cli("resonance", text)
        z_res = table.rows[:, 1] + 1j * table.rows[:, 2]
        check(np.all(z_res.imag < 0.0), "resonance not below the real axis")
        ham = scaling.build_scaled(pot, schrodinger.Grid1D(RES_LENGTH, 60), RES_THETA)
        probe = z_res[0] + complex(0.05, 0.05)
        err = rel(scaling.resolvent_norm_at(ham, probe).norm, 1.0 / scaling.sigma_min(ham, probe))
        check(err <= 1e-8, "resolvent_norm_at != 1/sigma_min")
        floor = scaling.essential_floor_check(ham, z_res[0] + 0.01)
        check(floor.floor > 0.0 and np.all(floor.below < floor.floor), "essential floor")
        return {**obs, "sigma_min_rel_err": err}

    def cli_job(state):
        table, obs = run_cli("takagi", config_text(matrix=path))
        check(np.max(np.abs(table.rows[:, 1] - sv_a[::-1])) <= 1e-10 * sv_a[-1], "takagi sigma")
        return obs

    return [
        ("warmup.antilinear", antilinear_job),
        ("warmup.schrodinger", schrodinger_job),
        ("warmup.decay", decay_job),
        ("warmup.kronig_penney", kronig_penney_job),
        ("warmup.scaling", scaling_job),
        ("warmup.cli", cli_job),
    ]


# ---------------------------------------------------------------------------
# resonance_scan: scaling, and its dense use of antilinear

def resonance_scan(rng, workdir):
    pot = scaling.DilationPotential.alpha_r2_exp(ALPHA, perturbation_alpha=ALPHA)
    gammas = (0.0,) + tuple(np.sort(rng.uniform(0.01, 0.1, 3)))
    re_min = 3.5 + rng.uniform(0.0, 0.2)
    im_max = -0.01 - rng.uniform(0.0, 0.05)
    radii = 10.0 ** rng.uniform(-2.0, -0.7, RES_PROBES) * abs(RES_NEAR)
    probes = RES_NEAR + radii * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, RES_PROBES))
    floor_offset = rng.uniform(0.005, 0.02)

    def resonance_cli(state):
        table, obs = run_cli("resonance", config_text(n=RES_CLI_N, gamma_values=gammas))
        rows = table.rows
        check(rows.shape == (len(gammas), 5) and np.all(np.isfinite(rows)), "resonance table shape")
        z_res = rows[:, 1] + 1j * rows[:, 2]
        meta = table.metadata
        base = complex(meta["z_probe_re"] - meta["probe_offset_re"], meta["z_probe_im"] - meta["probe_offset_im"])
        check(abs(z_res[0] - base) <= 1e-9 * abs(base), "gamma = 0 resonance differs from the base one")
        check(np.all((z_res.imag < 0.0) & (z_res.real > 0.0)), "resonance outside the lower half plane")
        check(np.all(rows[:, 3] > 0.0), "resolvent norm not positive")
        state["z_res"] = z_res[0]
        return obs

    def resolvent_map_cli(state):
        text = config_text(n=RES_MAP_N, re_min=re_min, im_max=im_max)
        table, obs = run_cli("resolvent-map", text)
        norms = table.rows[:, 2]
        check(table.rows.shape == (144, 3) and np.all(np.isfinite(norms) & (norms > 0.0)), "resolvent map")
        return obs

    def norm_probes(state):
        ham = scaling.build_scaled(pot, schrodinger.Grid1D(RES_LENGTH, RES_PROBE_N), RES_THETA)
        worst = 0.0
        for z in probes:
            res = scaling.resolvent_norm_at(ham, z)
            check(res.residual <= 1e-9 * ham.norm_estimate, "antilinear eigenvector residual")
            worst = max(worst, rel(res.norm, 1.0 / scaling.sigma_min(ham, z)))
        check(worst <= 1e-8, "resolvent_norm_at != 1/sigma_min")
        return {"sigma_min_rel_err": worst}

    def essential_floor(state):
        counts = []
        for n in RES_FLOOR_NS:
            grid = schrodinger.Grid1D(RES_LENGTH, n)
            z = scaling.locate_resonance(pot, grid, RES_THETA, 0.05, guess=RES_NEAR).z
            report = scaling.essential_floor_check(scaling.build_scaled(pot, grid, RES_THETA, 0.05), z + floor_offset)
            check(report.floor > 0.0 and np.all(report.below < report.floor), "floor report")
            counts.append(report.count_below)
        check(len(set(counts)) == 1, f"count below the floor not grid-stable: {counts}")

    def refinement_ladder(state):
        guess = state.get("z_res", RES_NEAR)
        zs = []
        for n in RES_LADDER_NS:
            res = scaling.locate_resonance(pot, schrodinger.Grid1D(RES_LENGTH, n), RES_THETA, guess=guess)
            check(res.sigma_min <= 1e-8 * abs(res.z), "polished z is not an eigenvalue")
            zs.append(res.z)
        spread = max(abs(a - b) for a in zs for b in zs)
        check(spread <= 1e-3 * abs(zs[-1]), "resonance moves across the refinement ladder")

    return [
        ("resonance-cli", resonance_cli),
        ("resolvent-map-cli", resolvent_map_cli),
        ("resolvent-norm-probes", norm_probes),
        ("essential-floor", essential_floor),
        ("refinement-ladder", refinement_ladder),
    ]


# ---------------------------------------------------------------------------
# gap_certificate: schrodinger on the Kronig-Penney comb, no scaling

def gap_certificate(rng, workdir):
    v0 = float(rng.uniform(2.5, 4.0))
    bq_fracs = np.sort(rng.uniform(0.2, 0.8, 2))
    q_frac = float(rng.uniform(0.5, 0.9))
    decay_q_frac = float(rng.uniform(0.3, 0.9))
    fig1_range = (float(rng.uniform(0.45, 1.0)), float(rng.uniform(6.0, 10.0)))
    # gamma_norm inputs and their oracle, fixed before timing
    small = schrodinger.build_hamiltonian(schrodinger.Grid1D(GAP_LENGTH, GAP_GAMMA_N), comb(GAP_LENGTH, v0))
    small_gap = schrodinger.find_gap(small, energy_ceiling=GAP_CEILING)
    _, small_ebar, _ = decay.qbar_and_ebar(small_gap)
    small_qs = rng.uniform(0.3, 0.9, 2) * decay.critical_q(small_gap, small_ebar)
    oracle = [1.0 / boosted_sigma_min(GAP_LENGTH, GAP_GAMMA_N, v0, q, small_ebar) for q in small_qs]

    def hamiltonian(state):
        ham = schrodinger.build_hamiltonian(schrodinger.Grid1D(GAP_LENGTH, GAP_N), comb(GAP_LENGTH, v0))
        ham.eigensystem()
        gap = schrodinger.find_gap(ham, energy_ceiling=GAP_CEILING)
        qbar, ebar, in_gap = decay.qbar_and_ebar(gap)
        check(in_gap, "Ebar outside the gap")
        check(abs(gap.e_minus - PI_SQ) <= 0.01 * PI_SQ, "grid band edge far from pi^2")
        state.update(ham=ham, gap=gap, qbar=qbar, ebar=ebar, qc=decay.critical_q(gap, ebar))

    def certificate(state):
        gap, ebar, qc = state["gap"], state["ebar"], state["qc"]
        samples = schrodinger.resolvent_kernel_scan(state["ham"], ebar, GAP_SEPS, GAP_EPS)
        for frac in (0.5, 0.75, 0.9):
            inputs = decay.BoundInputs(gap=gap, energy=ebar, q=frac * qc, eps=GAP_EPS)
            check(decay.certify_bound(samples, inputs).passed, f"certificate fails at q = {frac} q_c")

    def projector(state):
        fit = schrodinger.projector_decay(state["ham"], state["gap"], GAP_EPS, GAP_SEPS)
        check(fit.q_fit >= state["qbar"] - 0.02, "q_fit < qbar - 0.02")

    def bq(state):
        ham, gap, ebar, qc = state["ham"], state["gap"], state["ebar"], state["qc"]
        q1, q2 = bq_fracs * qc
        frozen = ebar + q2 * q2
        b1 = schrodinger.bq_norm(ham, gap, q1, ebar, frozen_shift=frozen)
        b2 = schrodinger.bq_norm(ham, gap, q2, ebar, frozen_shift=frozen)
        check(b1 > 0.0 and rel(b2 / q2, b1 / q1) <= 1e-9, "frozen-shift ||B_q|| not linear in q")
        check(np.isfinite(schrodinger.bq_norm(ham, gap, q1, ebar)), "||B_q|| not finite")

    def kernel_scan_cli(state):
        table, obs = run_cli("kernel-scan", config_text(v0=v0, n=GAP_N, q_frac=q_frac))
        meta = table.metadata
        check(meta["certificate_passed"] is True and np.all(table.rows[:, 3] >= 0.0), "kernel-scan certificate")
        check(rel(meta["q"], q_frac * meta["q_c"]) <= 1e-15, "q != q_frac q_c")
        return obs

    def decay_bound_cli(state):
        gap = state["gap"]
        text = config_text(e_minus=gap.e_minus, e_plus=gap.e_plus, e_bottom=gap.e_bottom,
                           n_energies=GAP_DECAY_ENERGIES, q_frac=decay_q_frac)
        table, obs = run_cli("decay-bound", text)
        check(table.rows.shape == (GAP_DECAY_ENERGIES, 4), "decay-bound table shape")
        check_decay_rows(table, decay_q_frac)
        return obs

    def fig1_cli(state):
        v0_min, v0_max = fig1_range
        text = config_text(v0_min=v0_min, v0_max=v0_max, n_points=GAP_FIG1_POINTS)
        table, obs = run_cli("kp-fig1", text)
        _, g, w, gw, q_exact, q_bound, rel_diff = table.rows.T
        check(np.all((q_exact > 0.0) & (q_bound > 0.0)), "decay rates not positive")
        check(np.all(gw == g / w), "G/W column")
        # criterion 6a states the 15 percent clause for G/W in (0.1, 10);
        # the 5 percent clause (criterion 6b) is a finding about the paper
        check(np.all(rel_diff[gw < 10.0] <= 0.15), "rel_diff > 0.15")
        return obs

    def gamma(state):
        ham = schrodinger.build_hamiltonian(schrodinger.Grid1D(GAP_LENGTH, GAP_GAMMA_N), comb(GAP_LENGTH, v0))
        gap = schrodinger.find_gap(ham, energy_ceiling=GAP_CEILING)
        for q, expected in zip(small_qs, oracle):
            check(rel(schrodinger.gamma_norm(ham, q, small_ebar, gap), expected) <= 1e-8, "gamma_norm != 1/sigma_min")

    return [
        ("hamiltonian", hamiltonian),
        ("certificate", certificate),
        ("projector-decay", projector),
        ("bq-norm", bq),
        ("kernel-scan-cli", kernel_scan_cli),
        ("decay-bound-cli", decay_bound_cli),
        ("kp-fig1-cli", fig1_cli),
        ("gamma-norm", gamma),
    ]


# ---------------------------------------------------------------------------
# dense_takagi: antilinear on general dense inputs, which keep the dense path

def dense_takagi(rng, workdir):
    a = complex_symmetric(rng, TAKAGI_N)
    z = complex(rng.uniform(-1.0, 1.0), rng.uniform(0.5, 1.5))
    path = os.path.join(workdir, "takagi_matrix.csv")
    save_matrix(path, a)
    sv_a = singular_values(a)
    sv_az = singular_values(a - z * np.eye(TAKAGI_N))
    shifted = []
    for n in RESOLVENT_NS:
        mat = complex_symmetric(rng, n)
        for _ in range(RESOLVENT_SHIFTS):
            zk = complex(rng.uniform(-2.0, 2.0), rng.uniform(0.5, 2.5))
            shifted.append((mat, zk, 1.0 / singular_values(mat - zk * np.eye(n))[0]))
    m = rng.standard_normal((EMBED_N, EMBED_N)) + 1j * rng.standard_normal((EMBED_N, EMBED_N))
    sv_m = singular_values(m)

    def takagi_cli(state):
        table, obs = run_cli("takagi", config_text(matrix=path))
        sigma = table.rows[:, 1]
        check(np.max(np.abs(sigma - sv_a[::-1])) <= 1e-10 * sv_a[-1], "sigma != singular values")
        u = (table.rows[:, 2::2] + 1j * table.rows[:, 3::2]).T
        recon = (u * sigma) @ u.T
        check(np.linalg.norm(recon - a) <= 1e-10 * np.linalg.norm(a), "Takagi reconstruction residual")
        return obs

    def antilinear_cli(state):
        table, obs = run_cli("antilinear", config_text(matrix=path, z_re=z.real, z_im=z.imag))
        lam = table.rows[:, 1]
        scale = sv_az[-1]
        check(np.max(np.abs(lam - sv_az)) <= 1e-10 * scale, "lambda != sigma")
        u = (table.rows[:, 2::2] + 1j * table.rows[:, 3::2]).T
        resid = (a - z * np.eye(TAKAGI_N)) @ u - np.conj(u) * lam
        check(np.linalg.norm(resid) <= 1e-9 * scale * math.sqrt(TAKAGI_N), "(A - z) u != lambda conj(u)")
        return obs

    def resolvent_norms(state):
        for mat, zk, expected in shifted:
            check(rel(antilinear.resolvent_norm(mat, None, zk), expected) <= 1e-8, "1/min lambda != dense norm")

    def embedding(state):
        emb, conj = antilinear.block_embed(m)
        lam = antilinear.antilinear_spectrum(emb, conj).lambdas
        check(abs(lam[0] - sv_m[0]) <= 1e-10 * sv_m[-1], "min lambda of diag(M, M^T) != sigma_min(M)")

    def minmax(state):
        check(abs(antilinear.minmax_norm(a) - sv_a[-1]) <= 1e-10 * sv_a[-1], "minmax norm != ||A||")

    return [
        ("takagi-cli", takagi_cli),
        ("antilinear-cli", antilinear_cli),
        ("resolvent-norm", resolvent_norms),
        ("block-embed", embedding),
        ("minmax-norm", minmax),
    ]


WORKLOADS = {
    "resonance_scan": resonance_scan,
    "gap_certificate": gap_certificate,
    "dense_takagi": dense_takagi,
}


def build(name: str, seed: int, workdir: str):
    """The workload's jobs, with inputs and oracles made from `seed`."""
    rng = np.random.default_rng([seed, list(WORKLOADS).index(name)])
    return WORKLOADS[name](rng, workdir)
