"""Acceptance gate: ten criteria, one pass/fail line each (run with -s).

Banded values (criteria 07 and 09) are the paper's reported figures,
checked on the canonical stand-in geometries built by build_single_cell
and build_hotspot_layout, since the paper's own layouts are not given.
KS checks are measured against the stand-ins' own Monte Carlo and judged
by the paper's certificate, which covers single-cell interference only.
Exact values are checked at tight tolerance.
"""

import math

import mpmath as mp
import numpy as np
import pytest
from scipy.special import erfc, ndtr

from ulfit.bound import (
    BoundParams,
    delta0,
    delta1,
    epsilon1,
    epsilon2,
    epsilon3,
    erfc_fourier,
    l_stats,
    total_bound,
)
from ulfit.channel import ChannelParams, FadingModel, fading_moments
from ulfit.cli import main
from ulfit.fit import PowerLognormalFit, power_lognormal_fit, powln_cdf_db, powln_mean
from ulfit.geometry import Disk, UeDensity
from ulfit.montecarlo import simulate_aggregate, simulate_cell
from ulfit.samples import EmpiricalCdf, dkw_slack, ks_distance
from ulfit.scenario import (
    DEFAULT_CHANNEL,
    Cell,
    Scenario,
    build_hotspot_layout,
    build_single_cell,
    save_scenario,
)

ZETA = 10.0 / math.log(10.0)
DEFAULTS = BoundParams()
RADII = (0.01, 0.02, 0.04)
KINDS = ("uniform", "inverse_radial")
FADINGS = (
    ("none", FadingModel("none")),
    ("rician10", FadingModel("rician", 10.0)),
    ("rayleigh", FadingModel("rayleigh")),
)


def _verdict(num, ok, detail):
    print(f"criterion {num:02d}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num:02d}: {detail}"


@pytest.fixture(scope="module")
def sweep():
    """Bound, fit, and n=1e6 empirical KS for all 18 single-cell cases."""
    out = {}
    for r in RADII:
        for kind in KINDS:
            scen = build_single_cell(r, kind, FadingModel("none"))
            cell = scen.cells[0]
            stats = l_stats(cell, scen.victim_bs, scen.channel)
            for name, fading in FADINGS:
                rep = total_bound(cell, stats, scen.channel, fading, scen.bound)
                g2 = rep.step2
                sim = simulate_cell(
                    cell,
                    scen.victim_bs,
                    scen.channel,
                    fading,
                    1_000_000,
                    101,
                    workers=2,
                )
                sigma = math.sqrt(g2.sigma2)
                ks = ks_distance(
                    EmpiricalCdf(sim),
                    lambda q, m=g2.mu, s=sigma: ndtr((np.asarray(q) - m) / s),
                )
                out[(r, kind, name)] = {"rep": rep, "g2": g2, "ks": ks}
    return out


def test_criterion_01_tail_term_values():
    e500 = epsilon3(500.0)
    e100 = epsilon3(100.0)
    ok = abs(e500 - 4.000e-6) <= 1e-9 and abs(e100 - 1.000e-4) <= 1e-7
    _verdict(1, ok, f"eps3(500)={e500:.3e}, eps3(100)={e100:.3e}")


def test_criterion_02_eps1_structure_at_defaults():
    first = 0.5 * delta1(DEFAULTS.omega, DEFAULTS.p) / DEFAULTS.k2**2
    sig = math.sqrt(2.0)  # sigma_l == sigma_s
    t2 = 0.5 * delta0(DEFAULTS.omega, DEFAULTS.p, (DEFAULTS.k1 + DEFAULTS.k2) * sig / sig)
    t3 = 0.5 * delta0(DEFAULTS.omega * sig, DEFAULTS.p, DEFAULTS.k1 / sig)
    total = epsilon1(DEFAULTS, 164.0, 164.0)
    trunc = (2.0 / (math.sqrt(math.pi) * DEFAULTS.omega)) * erfc(
        (2 * DEFAULTS.p + 1) * DEFAULTS.omega
    )
    ok = (
        abs(first - 4e-6) <= 1e-9
        and t2 + t3 < 1e-18
        and abs(total - first) < 1e-18
        and trunc < 1e-25
    )
    _verdict(
        2,
        ok,
        f"first={first:.10e}, rest={t2 + t3:.2e}, truncation={trunc:.2e}",
    )


def test_criterion_03_series_error_within_delta0():
    xs = (-4.0, -1.0, 0.0, 0.5, 1.0, 4.0)
    worst_ratio = 0.0
    ok = True

    # Coarse series: the bound is far above float64 noise, so this part
    # is checkable in doubles.
    for x in xs:
        err = abs(erfc_fourier(x, 0.01, 96) - float(erfc(x)))
        cap = delta0(0.01, 96, abs(x))
        ok = ok and err <= cap
        worst_ratio = max(worst_ratio, err / cap)

    # Default parameters push the residual below 1e-25; mirror the series
    # in 40-digit arithmetic to compare against the same cap.
    with mp.workdps(40):
        w = mp.mpf(0.001)
        p = 4000
        lead = 2 / (mp.sqrt(mp.pi) * w) * mp.erfc((2 * p + 1) * w)
        for x in xs:
            acc = mp.mpf(0)
            for n in range(1, 2 * p, 2):
                acc += mp.e ** (-(n**2) * w**2) / n * mp.sin(2 * n * w * x)
            series = 1 - 4 / mp.pi * acc
            err = abs(series - mp.erfc(x))
            cap = lead + mp.erfc(mp.pi / (2 * w) - abs(x))
            ok = ok and err <= cap
            worst_ratio = max(worst_ratio, float(err / cap))

    _verdict(3, ok, f"worst error/cap ratio {worst_ratio:.3f}")


def test_criterion_04_gaussian_fixed_point_and_normalization():
    sigma_l2, sigma_s2 = 15.36, 164.0
    gauss = lambda t: np.exp(-0.5 * sigma_l2 * np.asarray(t) ** 2)
    fixed = epsilon2(DEFAULTS, sigma_l2, sigma_s2, gauss)

    phi = lambda t: 0.3 * np.cos(2.0 * np.asarray(t)) + 0.7 * np.cos(
        0.5 * np.asarray(t)
    )
    omega, p = 0.001, 4000
    n = np.arange(1, 2 * p, 2, dtype=float)
    env = np.exp(-(n**2) * omega**2 / 2.0) / n
    keep = env >= 1e-18
    n, env = n[keep], env[keep]
    v = env * phi(-n * omega / math.sqrt(sigma_s2))
    vhat = env * np.exp(-(n**2) * omega**2 * sigma_l2 / (2.0 * sigma_s2))
    direct = (2.0 / math.pi) * np.abs(v - vhat).sum()
    half = epsilon2(
        BoundParams(omega=omega / math.sqrt(2.0), p=p), sigma_l2, sigma_s2, phi
    )
    gap = abs(half - direct)
    ok = fixed < 1e-12 and gap < 1e-12
    _verdict(4, ok, f"fixed point {fixed:.2e}, normalization gap {gap:.2e}")


def test_criterion_05_fading_moments():
    mu, var = fading_moments(FadingModel("rayleigh"))
    mu_exact = -ZETA * np.euler_gamma
    var_exact = ZETA**2 * math.pi**2 / 6.0
    ok = (
        abs(mu - mu_exact) <= 1e-3
        and abs(var - var_exact) <= 1e-3
        and abs(var - 31.1) <= 0.3
    )
    _verdict(5, ok, f"mu={mu:.6f}, var={var:.6f}, gap to 31.1 {abs(var - 31.1):.3f}")


def test_criterion_06_soundness_sweep(sweep):
    slack = dkw_slack(1_000_000, 0.01)
    violations = []
    worst_margin = -math.inf
    for (r, kind, name), case in sweep.items():
        eps = case["rep"].eps_total
        excess = case["ks"] - (eps + slack)
        worst_margin = max(worst_margin, excess)
        if excess > 0:
            violations.append(f"{r}/{kind}/{name}: ks exceeds bound by {excess:.2e}")
        if not eps < 1e-2:
            violations.append(f"{r}/{kind}/{name}: eps_total {eps:.3e} >= 1e-2")
    for r in RADII:
        for kind in KINDS:
            e = [sweep[(r, kind, name)]["rep"].eps_total for name, _ in FADINGS]
            if not e[0] < e[1] < e[2]:
                violations.append(f"{r}/{kind}: ordering {e}")
    _verdict(
        6,
        not violations,
        f"18 cases, worst ks-bound margin {worst_margin:.2e}"
        + (f"; {violations}" if violations else ""),
    )


def test_criterion_07_banded_reference_rows(sweep):
    refs = {
        "rayleigh": (-97.1, 205.3),
        "rician10": (-95.0, 178.2),
        "none": (-94.6, 174.2),
    }
    problems = []
    for name, (mu_ref, var_ref) in refs.items():
        case = sweep[(0.01, "uniform", name)]
        g = case["g2"]
        if abs(g.mu - mu_ref) > 1.5:
            problems.append(f"{name}: mu {g.mu:.2f} vs {mu_ref}")
        if abs(g.sigma2 - var_ref) > 6.0:
            problems.append(f"{name}: var {g.sigma2:.2f} vs {var_ref}")
    eps = sweep[(0.01, "uniform", "rayleigh")]["rep"].eps_total
    if not 4.9e-3 / 2 <= eps <= 4.9e-3 * 2:
        problems.append(f"rayleigh eps_total {eps:.3e} outside factor 2 of 4.9e-3")
    rep = sweep[(0.01, "uniform", "rician10")]["rep"]
    eps_p = rep.eps1_prime + rep.eps2_prime
    if not 1.9e-4 / 2 <= eps_p <= 1.9e-4 * 2:
        problems.append(f"rician10 eps' {eps_p:.3e} outside factor 2 of 1.9e-4")
    _verdict(7, not problems, problems or f"eps={eps:.3e}, eps'={eps_p:.3e}")


def test_criterion_08_power_lognormal_degeneracy(sweep):
    g = sweep[(0.01, "uniform", "rayleigh")]["g2"]
    fit = power_lognormal_fit([g], DEFAULT_CHANNEL.p0_dbm)
    sigma = math.sqrt(g.sigma2)
    q = np.linspace(g.mu - 10.0 * sigma, g.mu + 10.0 * sigma, 20001)
    gap = float(np.max(np.abs(powln_cdf_db(q, fit) - ndtr((q - g.mu) / sigma))))
    mean2 = powln_mean(PowerLognormalFit(2.0, 0.0, 1.0))
    ok = 0.98 <= fit.lam <= 1.02 and gap < 0.01 and abs(mean2 - 0.5642) <= 1e-4
    _verdict(8, ok, f"lambda={fit.lam:.4f}, cdf gap {gap:.2e}, mean2={mean2:.6f}")


# Monte Carlo size and seed of the criterion-09 aggregate.
AGG_N = 1_000_000
AGG_SEED = 1


@pytest.fixture(scope="module")
def hotspot84():
    lay = build_hotspot_layout(
        84, 0.01, 1, density_kind="inverse_radial", fading=FadingModel("rayleigh")
    )
    cells = []
    for cell in lay.cells:
        stats = l_stats(cell, lay.victim_bs, lay.channel)
        rep = total_bound(cell, stats, lay.channel, lay.fading, lay.bound)
        cells.append((cell, rep, rep.step2))
    agg_fit = power_lognormal_fit([g for _, _, g in cells], lay.channel.p0_dbm)
    sim = simulate_aggregate(lay, AGG_N, AGG_SEED, workers=2)
    return lay, cells, agg_fit, sim


def test_criterion_09_hotspot_aggregate(hotspot84):
    """The paper's aggregate triple, and its certificate on the summed terms.

    The bands are the paper's reported (lambda, mu_Q, sigma_Q^2). The
    paper certifies the KS distance for single-cell interference only. On
    this stand-in drop one interferer carries 61% of the linear-mean
    interference, and no power lognormal inside the bands comes within
    KS 0.035 of the aggregate, so the aggregate KS is printed with its
    DKW slack and not judged. What is asserted besides the bands is the
    certificate on the draws that the aggregate sums: for the three
    strongest interferers, simulate_cell at the aggregate's seed and n
    (the same per-cell terms as simulate_aggregate) lies within
    eps_total + dkw_slack of the cell's Gaussian fit.
    """
    lay, cells, agg_fit, sim = hotspot84
    slack = dkw_slack(AGG_N, 0.01)
    problems = []
    if not abs(agg_fit.lam - 48.9) <= 0.15 * 48.9:
        problems.append(f"lambda {agg_fit.lam:.2f} vs 48.9 +-15%")
    if not abs(agg_fit.mu_q - (-99.7)) <= 1.5:
        problems.append(f"mu_q {agg_fit.mu_q:.2f} vs -99.7 +-1.5")
    if not abs(agg_fit.sigma_q2 - 116.2) <= 0.10 * 116.2:
        problems.append(f"sigma_q2 {agg_fit.sigma_q2:.2f} vs 116.2 +-10%")

    def linear_mean(g):
        return math.exp(g.mu / ZETA + g.sigma2 / (2.0 * ZETA**2))

    total = sum(linear_mean(g) for _, _, g in cells)
    strongest = sorted(cells, key=lambda c: linear_mean(c[2]), reverse=True)[:3]
    certified = []
    for cell, rep, g in strongest:
        draws = simulate_cell(
            cell, lay.victim_bs, lay.channel, lay.fading, AGG_N, AGG_SEED, workers=2
        )
        sigma = math.sqrt(g.sigma2)
        ks_cell = ks_distance(
            EmpiricalCdf(draws),
            lambda q, m=g.mu, s=sigma: ndtr((np.asarray(q) - m) / s),
        )
        share = linear_mean(g) / total
        certified.append(
            f"cell {cell.id} ({share:.0%}) ks {ks_cell:.4f}"
            f" <= {rep.eps_total:.4f}+{slack:.4f}"
        )
        if not ks_cell <= rep.eps_total + slack:
            problems.append(f"cell {cell.id}: ks {ks_cell:.4f} exceeds its bound")

    ks = ks_distance(EmpiricalCdf(sim), lambda q: powln_cdf_db(q, agg_fit))
    detail = (
        f"lambda={agg_fit.lam:.2f}, mu={agg_fit.mu_q:.2f},"
        f" var={agg_fit.sigma_q2:.2f}; {'; '.join(certified)};"
        f" aggregate ks={ks:.4f}, dkw_slack={slack:.4f} (uncertified)"
    )
    _verdict(9, not problems, f"{problems}; {detail}" if problems else detail)


def test_criterion_10_cli_determinism(tmp_path):
    cell = Cell(2, (0.03, 0.0), Disk((0.03, 0.0), 0.01), UeDensity("uniform"))
    scen = Scenario(
        victim_bs=(0.0, 0.0),
        cells=(cell,),
        channel=ChannelParams(103.8, 20.9, -76.0, 0.8, 10.0, 0.005),
        fading=FadingModel("rayleigh"),
        bound=BoundParams(omega=0.01, p=200, k1=60.0, k2=60.0),
    )
    spath = tmp_path / "scen.json"
    save_scenario(scen, spath)

    def run(args):
        assert main(args) == 0

    identical = []

    for i in (1, 2):
        run(["bound", "--scenario", str(spath), "--out", str(tmp_path / f"b{i}.csv")])
        run(
            [
                "fit",
                "--scenario",
                str(spath),
                "--out",
                str(tmp_path / f"f{i}.json"),
                "--grid",
                "-140:-40:20",
            ]
        )
    identical.append((tmp_path / "b1.csv").read_bytes() == (tmp_path / "b2.csv").read_bytes())
    identical.append(
        (tmp_path / "f1.json").read_bytes() == (tmp_path / "f2.json").read_bytes()
    )
    identical.append(
        (tmp_path / "f1.json.cdf.csv").read_bytes()
        == (tmp_path / "f2.json.cdf.csv").read_bytes()
    )

    # 300001 draws spans two work slices, so threads genuinely interleave.
    for i, workers in ((1, "1"), (2, "3"), (3, "1")):
        run(
            [
                "simulate",
                "--scenario",
                str(spath),
                "--out",
                str(tmp_path / f"s{i}.bin"),
                "--n",
                "300001",
                "--seed",
                "3",
                "--workers",
                workers,
            ]
        )
    s1 = (tmp_path / "s1.bin").read_bytes()
    identical.append(s1 == (tmp_path / "s2.bin").read_bytes())
    identical.append(s1 == (tmp_path / "s3.bin").read_bytes())

    for i in (1, 2):
        run(
            [
                "compare",
                "--samples",
                str(tmp_path / "s1.bin"),
                "--fit",
                str(tmp_path / "f1.json"),
                "--out",
                str(tmp_path / f"r{i}.json"),
            ]
        )
    identical.append(
        (tmp_path / "r1.json").read_bytes() == (tmp_path / "r2.json").read_bytes()
    )

    ok = all(identical)
    _verdict(10, ok, f"byte-identical checks {identical}")
