import math

import numpy as np
import pytest
from scipy.stats import ks_2samp

from ulfit.channel import FadingModel
from ulfit import geometry
from ulfit.errors import DomainError, EmptyRegion, QuadratureFailure, SamplingStall
from ulfit.geometry import (
    Annulus,
    Disk,
    Ellipse,
    Intersection,
    Polygon,
    UeDensity,
    bounding_box,
    contains,
    density_profile,
    effective_region,
    normalize_density,
    proposal_block,
    rejection_envelope,
    ue_domain,
)
from ulfit.geometry import _integrate
from ulfit.montecarlo import _envelope, _positions_slice
from ulfit.samples import dkw_slack
from ulfit.scenario import build_hotspot_layout, build_single_cell


def test_contains_disk():
    d = Disk((0.0, 0.0), 1.0)
    assert contains(d, (0.0, 0.0))
    assert not contains(d, (2.0, 0.0))
    assert contains(d, (1.0, 0.0))  # closed boundary


def test_contains_intersection_is_conjunction():
    square = Polygon(((-1, -1), (1, -1), (1, 1), (-1, 1)))
    disk = Disk((0.0, 0.0), 1.5)
    ellipse = Ellipse((0.0, 0.0), 1.4, 1.0)
    p = (0.9, 0.9)
    # By hand: inside square, |p| = 1.273 < 1.5 inside disk,
    # (0.9/1.4)^2 + (0.9/1.0)^2 = 1.223 > 1 outside ellipse.
    assert contains(square, p)
    assert contains(disk, p)
    assert not contains(ellipse, p)
    both = contains(square, p) and contains(disk, p) and contains(ellipse, p)
    assert contains(Intersection((square, disk, ellipse)), p) == both


def test_contains_concave_polygon():
    ell = Polygon(((0, 0), (2, 0), (2, 1), (1, 1), (1, 2), (0, 2)))
    assert contains(ell, (0.5, 1.5))
    assert contains(ell, (1.5, 0.5))
    assert not contains(ell, (1.5, 1.5))


def test_contains_batch():
    d = Disk((0.0, 0.0), 1.0)
    pts = np.array([[0.0, 0.0], [2.0, 0.0], [0.5, 0.5]])
    np.testing.assert_array_equal(contains(d, pts), [True, False, True])


def test_polygon_rejects_clockwise():
    with pytest.raises(DomainError):
        Polygon(((0, 0), (0, 1), (1, 1), (1, 0)))


def test_polygon_rejects_self_intersection():
    with pytest.raises(DomainError):
        Polygon(((0, 0), (1, 1), (1, 0), (0, 1)))


def test_region_validation():
    with pytest.raises(EmptyRegion):
        Disk((0.0, 0.0), 0.0)
    with pytest.raises(EmptyRegion):
        Annulus((0.0, 0.0), 0.5, 0.5)
    with pytest.raises(EmptyRegion):
        Ellipse((0.0, 0.0), 1.0, 0.0)
    with pytest.raises(DomainError):
        Intersection(())
    with pytest.raises(DomainError):
        Polygon(((0, 0), (1, 0)))


def test_bounding_box_rotated_ellipse():
    rot = math.radians(30.0)
    e = Ellipse((1.0, -2.0), 2.0, 1.0, rot)
    ex = math.hypot(2.0 * math.cos(rot), 1.0 * math.sin(rot))
    ey = math.hypot(2.0 * math.sin(rot), 1.0 * math.cos(rot))
    xmin, ymin, xmax, ymax = bounding_box(e)
    assert xmin == pytest.approx(1.0 - ex)
    assert xmax == pytest.approx(1.0 + ex)
    assert ymin == pytest.approx(-2.0 - ey)
    assert ymax == pytest.approx(-2.0 + ey)
    # box actually contains the shape: boundary samples stay inside
    t = np.linspace(0.0, 2.0 * math.pi, 256)
    bx = 1.0 + 2.0 * np.cos(t) * math.cos(rot) - 1.0 * np.sin(t) * math.sin(rot)
    by = -2.0 + 2.0 * np.cos(t) * math.sin(rot) + 1.0 * np.sin(t) * math.cos(rot)
    assert bx.min() >= xmin - 1e-12 and bx.max() <= xmax + 1e-12
    assert by.min() >= ymin - 1e-12 and by.max() <= ymax + 1e-12


def test_effective_region_concentric_disk():
    eff = effective_region(Disk((1.0, 2.0), 0.04), (1.0, 2.0), 0.005)
    assert isinstance(eff, Annulus)
    assert eff.r_inner == 0.005
    assert eff.r_outer == 0.04


def test_effective_region_identity_at_zero():
    d = Disk((0.0, 0.0), 0.04)
    assert effective_region(d, (0.0, 0.0), 0.0) is d


def test_effective_region_empty():
    with pytest.raises(EmptyRegion):
        effective_region(Disk((0.0, 0.0), 0.004), (0.0, 0.0), 0.005)


def test_effective_region_offcenter_carve():
    eff = effective_region(Disk((0.0, 0.0), 0.04), (0.01, 0.0), 0.005)
    assert not contains(eff, (0.01, 0.0))
    assert not contains(eff, (0.012, 0.0))
    assert contains(eff, (0.02, 0.0))


def test_normalize_uniform_disk():
    w = normalize_density(Disk((0.3, -0.1), 0.7), UeDensity("uniform"))
    assert w == pytest.approx(1.0 / (math.pi * 0.7**2), rel=1e-12)


def test_normalize_inverse_radial_annulus():
    # int W/rho over the annulus = W * 2 pi (R - r0)
    reg = Annulus((0.0, 0.0), 0.2, 1.1)
    w = normalize_density(reg, UeDensity("inverse_radial", (0.0, 0.0)))
    assert w == pytest.approx(1.0 / (2.0 * math.pi * (1.1 - 0.2)), rel=1e-12)


def test_normalize_uniform_nonconvex_polygon_is_shoelace_area():
    # Two slanted bars joined on the left, with a spike that puts the
    # bounding-box center, the polar origin, at (2, 2) in the lower bar.
    # Rays upward leave the lower bar and re-enter the upper one; the ray
    # towards the vertex (1, 3) runs on through the vertex (0, 4).
    vs = (
        (3.0, 0.0), (4.0, 0.0), (4.0, 2.5), (1.0, 2.3), (1.0, 3.0),
        (4.0, 3.2), (4.0, 4.0), (0.0, 4.0), (0.0, 1.5), (3.0, 1.6),
    )
    area = 0.5 * sum(
        x0 * y1 - x1 * y0 for (x0, y0), (x1, y1) in zip(vs, vs[1:] + vs[:1])
    )
    w = normalize_density(Polygon(vs), UeDensity("uniform"))
    assert 1.0 / w == pytest.approx(area, rel=1e-12)


# A 1e-9 km piece 0.01 km from the polar origin, the serving-station carve
# of a point-like cell (test_montecarlo::test_deterministic_limit_*).
_TINY_FAR = {
    "disk": (Disk((0.03, 0.0), 1e-9), math.pi * 1e-18),
    "annulus": (Annulus((0.03, 0.0), 5e-10, 1e-9), math.pi * 7.5e-19),
    "ellipse": (Ellipse((0.03, 0.0), 1e-9, 5e-10, 0.3), math.pi * 5e-19),
}


@pytest.mark.parametrize("name", sorted(_TINY_FAR))
def test_normalize_tiny_far_region(name):
    # The chord comes from R^2 minus the squared distance from the center
    # to the ray's line; as b^2 - cc it lost about 1% to cancellation, and
    # the disk and the ellipse raised QuadratureFailure.
    region, area = _TINY_FAR[name]
    dom = ue_domain(region, (0.02, 0.0), (0.0, 0.0), 0.005)
    assert normalize_density(dom, UeDensity("uniform")) == pytest.approx(
        1.0 / area, rel=1e-7
    )


def test_normalize_self_consistency_monte_carlo():
    """W from quadrature agrees with an independent hit-or-miss estimate."""
    reg = Intersection(
        (
            Polygon(((-1.2, -1.2), (1.2, -1.2), (1.2, 1.2), (-1.2, 1.2))),
            Disk((0.2, 0.0), 1.3),
            Ellipse((-0.1, 0.1), 1.5, 1.0, math.radians(30.0)),
        )
    )
    density = UeDensity("inverse_radial", (-1.5, 0.0))
    w = normalize_density(reg, density)
    rng = np.random.default_rng(42)
    xmin, ymin, xmax, ymax = bounding_box(reg)
    n = 4_000_000
    pts = rng.random((n, 2)) * (xmax - xmin, ymax - ymin) + (xmin, ymin)
    inside = contains(reg, pts)
    rho = np.hypot(pts[:, 0] + 1.5, pts[:, 1])
    vals = np.where(inside, w / rho, 0.0)
    est = vals.mean() * (xmax - xmin) * (ymax - ymin)
    se = vals.std() * (xmax - xmin) * (ymax - ymin) / math.sqrt(n)
    assert abs(est - 1.0) < 4.0 * se


def test_region_integral_constant():
    val = density_profile(
        Disk((0.0, 0.0), 1.0), UeDensity("uniform"), lambda p: np.ones(len(p))
    )[0]
    assert abs(val - 1.0) < 1e-12


def test_region_integral_centroid():
    val = density_profile(
        Disk((0.4, 0.0), 0.9), UeDensity("uniform"), lambda p: p[:, 0]
    )[0]
    assert abs(val - 0.4) < 1e-6


def test_region_integral_linearity():
    reg = Disk((0.1, 0.2), 0.8)
    den = UeDensity("uniform")
    f = lambda p: p[:, 0] ** 2
    g = lambda p: np.sin(p[:, 1])
    a, b = 1.7, -0.3
    lhs = density_profile(reg, den, lambda p: a * f(p) + b * g(p))[0]
    rhs = a * density_profile(reg, den, f)[0] + b * density_profile(reg, den, g)[0]
    assert abs(lhs - rhs) < 1e-9 * max(1.0, abs(rhs))


def test_density_profile_uniform_disk_moments():
    # x over a uniform disk: mean = cx, var = R^2/4
    mean, var, wts, vals = density_profile(
        Disk((0.3, 0.0), 1.0), UeDensity("uniform"), lambda p: p[:, 0]
    )
    assert mean == pytest.approx(0.3, abs=2e-5)
    assert var == pytest.approx(0.25, rel=5e-4)
    assert wts.sum() == pytest.approx(1.0, abs=1e-12)
    # The law's own moments are the tracked ones.
    assert float(wts @ vals) == pytest.approx(mean, abs=1e-12)
    assert float(wts @ (vals - mean) ** 2) == pytest.approx(var, abs=1e-12)


def test_density_profile_inverse_radial_annulus_moments():
    # rho under W/rho on Annulus(a, b): mean = (a+b)/2,
    # E[rho^2] = (b^3 - a^3) / (3 (b - a))
    a, b = 0.2, 1.1
    mean, var, _, _ = density_profile(
        Annulus((0.0, 0.0), a, b),
        UeDensity("inverse_radial", (0.0, 0.0)),
        lambda p: np.hypot(p[:, 0], p[:, 1]),
    )
    m1 = (a + b) / 2.0
    m2 = (b**3 - a**3) / (3.0 * (b - a))
    assert mean == pytest.approx(m1, rel=1e-5)
    assert var == pytest.approx(m2 - m1**2, rel=5e-4)


def test_region_integral_propagates_integrand_errors():
    # math.hypot rejects array rows; the error reaches the caller.
    with pytest.raises(TypeError):
        density_profile(
            Disk((0.0, 0.0), 1.0),
            UeDensity("uniform"),
            lambda p: math.hypot(p[0], p[1]),
        )


def test_region_integral_rejects_wrong_shape():
    reg, den = Disk((0.0, 0.0), 1.0), UeDensity("uniform")
    for bad in (lambda p: 1.0, lambda p: np.ones((len(p), 2)), lambda p: p[:-1, 0]):
        with pytest.raises(DomainError):
            density_profile(reg, den, bad)


def test_density_profile_evaluates_each_node_once():
    # From the square's center, its polar origin, the four vertex
    # directions cut four panels with one radial interval per ray. The
    # trigonometric field settles at the first comparison: one call on
    # 4 x 16 x 16 nodes, then one on the 4 x 32 x 32 nodes of the accepted
    # level.
    square = Polygon(((0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)))

    def field(p):
        return np.sin(2 * math.pi * p[:, 0]) * np.cos(2 * math.pi * p[:, 1]) + 2.0

    blocks = []

    def counted(p):
        blocks.append(p.copy())
        return field(p)

    mean, var, wts, vals = density_profile(square, UeDensity("uniform"), counted)
    assert [len(b) for b in blocks] == [4 * 16 * 16, 4 * 32 * 32]
    assert mean == pytest.approx(2.0, abs=1e-12)
    assert var == pytest.approx(0.25, abs=1e-12)
    # The law is the accepted level's nodes, with normalized weights.
    mass, _, (w, v) = _integrate(square, UeDensity("uniform"), field)
    assert mass == pytest.approx(1.0, rel=1e-12)
    np.testing.assert_array_equal(v, field(blocks[-1]))
    np.testing.assert_array_equal(vals, v)
    np.testing.assert_array_equal(wts, w / w.sum())


def test_unsettled_panel_raises(monkeypatch):
    # With no tolerance left no panel settles, and the node cap raises
    # instead of accepting the last estimate.
    monkeypatch.setattr(geometry, "_REL_TOL", 0.0)
    reg = Intersection((Disk((0.0, 0.0), 1.0), Ellipse((0.5, 0.2), 0.9, 0.3, 0.3)))
    with pytest.raises(QuadratureFailure):
        normalize_density(reg, UeDensity("uniform"))


def test_empty_intersection_raises_lazily():
    reg = Intersection((Disk((-0.6, 0.0), 0.5), Disk((0.6, 0.0), 0.5)))
    with pytest.raises(EmptyRegion):
        normalize_density(reg, UeDensity("uniform"))


def _sample(region, density, seed, n):
    """n positions from the package's sampler, draw indices [0, n)."""
    return _positions_slice(region, density, _envelope(region, density), 0, seed, 0, n)


def test_ue_domain_excludes_both_stations():
    serving = (0.015, 0.0)
    victim = (0.0, 0.0)
    dom = ue_domain(Disk(serving, 0.012), serving, victim, 0.005)
    pts = _sample(dom, UeDensity("uniform"), 3, 100_000)
    d_serv = np.hypot(pts[:, 0] - serving[0], pts[:, 1] - serving[1])
    d_vict = np.hypot(pts[:, 0] - victim[0], pts[:, 1] - victim[1])
    assert d_serv.min() >= 0.005
    assert d_vict.min() >= 0.005
    assert contains(dom, pts).all()


def test_sample_uniform_disk_mean():
    pts = _sample(Disk((0.5, -0.25), 1.0), UeDensity("uniform"), 11, 1_000_000)
    # per-coordinate sigma = R/2
    tol = 3.0 * 0.5 / 1000.0
    assert abs(pts[:, 0].mean() - 0.5) < tol
    assert abs(pts[:, 1].mean() + 0.25) < tol


def test_sample_inverse_radial_radius_cdf_linear():
    # P[rho <= t] = (t - r0)/(R - r0) under W/rho on a centered annulus
    a, b = 0.2, 1.1
    reg = Annulus((0.0, 0.0), a, b)
    pts = _sample(reg, UeDensity("inverse_radial", (0.0, 0.0)), 17, 1_000_000)
    rho = np.sort(np.hypot(pts[:, 0], pts[:, 1]))
    model = (rho - a) / (b - a)
    emp_hi = np.arange(1, rho.size + 1) / rho.size
    emp_lo = np.arange(0, rho.size) / rho.size
    ks = max((emp_hi - model).max(), (model - emp_lo).max())
    assert ks < 0.002
    assert rho.min() >= a and rho.max() <= b


@pytest.fixture(scope="module")
def hotspot84():
    """Criterion 09's drop: 83 inverse-radial disk cells around a victim."""
    return build_hotspot_layout(
        84, 0.01, 1, density_kind="inverse_radial", fading=FadingModel("rayleigh")
    )


def _hotspot_domains(scen):
    for cell in scen.cells:
        yield cell, ue_domain(
            cell.region, cell.bs, scen.victim_bs, scen.channel.d_min_km
        )


def test_hotspot_radius_from_serving_station_is_uniform(hotspot84):
    # W / rho on the annulus d_min <= rho <= R around the serving station
    # puts rho uniform on [d_min, R] when the victim carve misses the cell.
    d_min = hotspot84.channel.d_min_km
    cell, dom = next(
        (cell, dom)
        for cell, dom in _hotspot_domains(hotspot84)
        if math.dist(cell.bs, hotspot84.victim_bs) > cell.region.radius_km + d_min
    )
    n = 100_000
    pts = _sample(dom, cell.density, 29, n)
    rho = np.sort(np.hypot(pts[:, 0] - cell.bs[0], pts[:, 1] - cell.bs[1]))
    model = (rho - d_min) / (cell.region.radius_km - d_min)
    ks = max(
        (np.arange(1, n + 1) / n - model).max(), (model - np.arange(n) / n).max()
    )
    assert ks <= dkw_slack(n)


def test_hotspot_seeded_acceptance(hotspot84):
    # The polar envelope of each criterion-09 cell is its serving-station
    # annulus, less only what the victim carve cuts.
    acceptance = [
        _envelope(dom, cell.density)[2] for cell, dom in _hotspot_domains(hotspot84)
    ]
    assert len(acceptance) == 83
    assert min(acceptance) >= 0.85


def _bread_domain(r):
    scen = build_single_cell(r, "uniform", FadingModel("none"))
    cell = scen.cells[0]
    return scen, cell, ue_domain(
        cell.region, cell.bs, scen.victim_bs, scen.channel.d_min_km
    )


# Uniform regions for the tile tests, each with the box its test points
# are drawn from: the bounding box, or for the lens, whose bounding box is
# 2 km tall around a 2e-6 km sliver, the part of it that holds the sliver.
_TILED_REGIONS = {
    "bread": (_bread_domain(0.01)[2], None),
    "concave": (
        Polygon(((0, 0), (2, 0.3), (1.1, 0.9), (1.9, 1.7), (0.2, 1.9))),
        None,
    ),
    "tiny_disk": (
        ue_domain(_TINY_FAR["disk"][0], (0.02, 0.0), (0.0, 0.0), 0.005),
        None,
    ),
    "lens": (
        Intersection((Disk((0.0, 0.0), 1.0), Disk((2.0 - 1e-12, 0.0), 1.0))),
        ((1.0 - 1e-12, -2e-6), (1.0, 2e-6)),
    ),
}


@pytest.mark.parametrize("name", sorted(_TILED_REGIONS))
def test_tiles_cover_the_region(name):
    # Every uniform point of the region lies in a kept tile of the grid.
    region, box = _TILED_REGIONS[name]
    corners, size = rejection_envelope(region, UeDensity("uniform"))
    xmin, ymin, xmax, ymax = bounding_box(region)
    origin = np.array([xmin, ymin])
    kept = np.zeros((geometry._TILES, geometry._TILES), dtype=bool)
    kept[tuple(np.rint((corners - origin) / size).astype(int).T)] = True
    assert 0 < kept.sum() < kept.size
    lo, hi = np.array(box if box else ((xmin, ymin), (xmax, ymax)))
    pts = lo + np.random.default_rng(5).random((200_000, 2)) * (hi - lo)
    pts = pts[contains(region, pts)]
    assert len(pts) > 10_000
    tile = np.minimum(((pts - origin) / size).astype(int), geometry._TILES - 1)
    assert kept[tile[:, 0], tile[:, 1]].all()


def test_last_tile_takes_the_top_variate():
    # The largest variate below 1 lands inside tile K - 1, and the clamp
    # keeps even u = 1 there, on its far edge; u = 0 is tile 0's corner.
    _, cell, dom = _bread_domain(0.01)
    corners, size = rejection_envelope(dom, cell.density)
    u = np.array([[np.nextafter(1.0, 0.0), 0.25], [1.0, 0.25], [0.0, 0.0]])
    pts, _ = proposal_block(dom, cell.density, corners, size, u)
    assert (corners[-1] <= pts[0]).all() and (pts[0] <= corners[-1] + size).all()
    assert pts[0, 1] == corners[-1, 1] + 0.25 * size[1]
    assert pts[1, 0] == corners[-1, 0] + size[0] and pts[1, 1] == pts[0, 1]
    np.testing.assert_array_equal(pts[2], corners[0])


@pytest.mark.parametrize("r", [0.01, 0.02, 0.04])
def test_uniform_bread_acceptance(r):
    # The tiled envelope of criterion 06's uniform cells; their bounding
    # box accepted about 0.6.
    _, cell, dom = _bread_domain(r)
    assert _envelope(dom, cell.density)[2] >= 0.9


def test_tiled_sampler_matches_box_rejection():
    # The tiled sampler against an independent reference, uniform in the
    # bounding box and then the region test, on six coordinates of the
    # draws: x, y, the distances to both stations, and the offsets inside
    # a grid tile, which would show a skew too fine for the others. The
    # two-sample radius at alpha = 1e-6 with n draws on each side is
    # sqrt(log(2 / alpha) (1/n + 1/n) / 2), dkw_slack(n / 2).
    scen, cell, dom = _bread_domain(0.01)
    _, size = rejection_envelope(dom, cell.density)
    n = 400_000
    pts = _sample(dom, cell.density, 31, n)
    xmin, ymin, xmax, ymax = bounding_box(dom)
    u = np.random.default_rng(41).random((1_000_000, 2))
    ref = np.column_stack(
        (xmin + u[:, 0] * (xmax - xmin), ymin + u[:, 1] * (ymax - ymin))
    )
    ref = ref[contains(dom, ref)][:n]
    assert len(ref) == n
    radius = dkw_slack(n // 2, 1e-6)
    for f in (
        lambda p: p[:, 0],
        lambda p: p[:, 1],
        lambda p: np.hypot(p[:, 0] - cell.bs[0], p[:, 1] - cell.bs[1]),
        lambda p: np.hypot(p[:, 0] - scen.victim_bs[0], p[:, 1] - scen.victim_bs[1]),
        lambda p: np.modf((p[:, 0] - xmin) / size[0])[0],
        lambda p: np.modf((p[:, 1] - ymin) / size[1])[0],
    ):
        assert ks_2samp(f(pts), f(ref)).statistic <= radius


def test_sample_moments_match_quadrature():
    reg = Disk((0.3, 0.0), 1.0)
    den = UeDensity("uniform")
    qmean, qvar, _, _ = density_profile(reg, den, lambda p: p[:, 0])
    pts = _sample(reg, den, 23, 1_000_000)
    se = math.sqrt(qvar / 1_000_000)
    assert abs(pts[:, 0].mean() - qmean) < 5.0 * se


def test_sampling_stall():
    # lens of two nearly-tangent disks: tiny area inside a tall bbox; enough
    # draws that 2e6 proposals at acceptance below 1e-6 come first
    reg = Intersection((Disk((0.0, 0.0), 1.0), Disk((2.0 - 1e-12, 0.0), 1.0)))
    with pytest.raises(SamplingStall):
        _sample(reg, UeDensity("uniform"), 2, 100_000)


def test_inverse_radial_origin_on_region_rejected():
    reg = Disk((0.0, 0.0), 1.0)
    with pytest.raises(DomainError):
        rejection_envelope(reg, UeDensity("inverse_radial", (0.0, 0.0)))


def _polar_tile(region, density):
    """(floor, reach, theta span) of the one-tile inverse_radial envelope."""
    corners, size = rejection_envelope(region, density)
    assert corners.shape == (1, 2) and corners[0, 1] == 0.0
    return corners[0, 0], corners[0, 0] + size[0], size[1]


def test_rejection_floor_reaches_thin_needle():
    # A needle from a far square reaches to 0.05 km of the origin. A floor
    # above 0.05 would accept every proposal in the needle, so draws there
    # would follow a flat law instead of 1/rho.
    reg = Polygon(
        (
            (0.5, -0.5), (1.5, -0.5), (1.5, 0.5), (0.5, 0.5),
            (0.5, 0.0005), (0.05, 0.0), (0.5, -0.0005),
        )
    )
    floor, _, _ = _polar_tile(reg, UeDensity("inverse_radial", (0.0, 0.0)))
    assert 0.0 < floor <= 0.05


# Regions around the origin with their exact distance floor and reach
# (None where the envelope only bounds the distance).
_ENVELOPE_REGIONS = [
    (Disk((0.3, 0.4), 0.2), 0.3, 0.7),
    (Annulus((0.1, 0.0), 0.5, 0.8), 0.4, 0.9),
    (Annulus((1.0, 0.0), 0.2, 0.5), 0.5, 1.5),
    (
        Polygon(((0.2, -0.1), (0.6, -0.1), (0.6, 0.3), (0.2, 0.3))),
        0.2,
        math.hypot(0.6, 0.3),
    ),
    (Ellipse((0.8, 0.5), 0.4, 0.1, math.radians(30.0)), None, None),
    (
        Intersection(
            (
                Intersection((Disk((0.9, 0.0), 0.8), Annulus((0.0, 0.0), 0.25, 2.0))),
                Ellipse((0.6, 0.1), 0.7, 0.3, 0.4),
            )
        ),
        None,
        None,
    ),
]


def _envelope_and_rho(region):
    """The inverse_radial (floor, reach, theta span) around the origin, and
    the distances of 200,000 bounding-box points that lie in the region."""
    envelope = _polar_tile(region, UeDensity("inverse_radial", (0.0, 0.0)))
    xmin, ymin, xmax, ymax = bounding_box(region)
    u = np.random.default_rng(7).random((200_000, 2))
    pts = np.column_stack(
        (xmin + u[:, 0] * (xmax - xmin), ymin + u[:, 1] * (ymax - ymin))
    )
    return envelope, np.hypot(*pts[contains(region, pts)].T)


@pytest.mark.parametrize(
    "region, exact", [(region, floor) for region, floor, _ in _ENVELOPE_REGIONS]
)
def test_rejection_floor_is_a_distance_lower_bound(region, exact):
    # The floor never exceeds the distance to any point of the region, and
    # equals it for disks, annuli and polygons; a nested intersection takes
    # the largest bound of its parts (here the annulus's 0.25).
    (floor, _, _), rho = _envelope_and_rho(region)
    assert 0.0 < floor <= rho.min()
    if exact is not None:
        assert floor == pytest.approx(exact, rel=1e-12)
    if isinstance(region, Intersection):
        assert floor == 0.25


@pytest.mark.parametrize(
    "region, exact", [(region, reach) for region, _, reach in _ENVELOPE_REGIONS]
)
def test_rejection_reach_is_a_distance_upper_bound(region, exact):
    # The reach is at least the distance to every point of the region, and
    # equals the largest one for disks, annuli and polygons; a nested
    # intersection takes the smallest bound of its parts (here the
    # ellipse's center distance plus its semi-major axis).
    (_, reach, two_pi), rho = _envelope_and_rho(region)
    assert two_pi == 2.0 * math.pi
    assert rho.max() <= reach
    if exact is not None:
        assert reach == pytest.approx(exact, rel=1e-12)
    if isinstance(region, Intersection):
        assert reach == math.hypot(0.6, 0.1) + 0.7


@pytest.mark.parametrize("r", [0.01, 0.02, 0.04])
def test_inverse_radial_bread_floor_is_d_min(r):
    # ue_domain nests the serving-station carve inside the victim carve.
    scen = build_single_cell(r, "inverse_radial", FadingModel("none"))
    cell = scen.cells[0]
    dom = ue_domain(cell.region, cell.bs, scen.victim_bs, scen.channel.d_min_km)
    floor, _, _ = _polar_tile(dom, cell.density)
    assert floor == scen.channel.d_min_km == 0.005


def test_density_kind_validation():
    with pytest.raises(DomainError):
        UeDensity("gaussian")
    with pytest.raises(DomainError):
        UeDensity("inverse_radial")  # origin required
    with pytest.raises(DomainError):
        UeDensity("uniform", (0.0, 0.0))  # origin only for inverse_radial
