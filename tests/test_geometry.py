import math
import warnings

import numpy as np
import pytest
from scipy.stats import ks_2samp

from ulfit.channel import FadingModel, coupling_gain_L
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
    density_profile,
    effective_region,
    proposal_block,
    rejection_envelope,
    ue_domain,
)
from ulfit.geometry import _integrate
from ulfit.montecarlo import _envelope, _positions_slice
from ulfit.samples import dkw_slack
from ulfit.scenario import build_hotspot_layout, build_single_cell


def _one(p):
    """A constant field: the quadrature's mass is then the kernel mass."""
    return np.ones(len(p))


def test_contains_disk():
    d = Disk((0.0, 0.0), 1.0)
    assert d._mask(0.0, 0.0)
    assert not d._mask(2.0, 0.0)
    assert d._mask(1.0, 0.0)  # closed boundary


def test_contains_intersection_is_conjunction():
    square = Polygon(((-1, -1), (1, -1), (1, 1), (-1, 1)))
    disk = Disk((0.0, 0.0), 1.5)
    ellipse = Ellipse((0.0, 0.0), 1.4, 1.0)
    p = np.array([0.9, 0.9])
    # By hand: inside square, |p| = 1.273 < 1.5 inside disk,
    # (0.9/1.4)^2 + (0.9/1.0)^2 = 1.223 > 1 outside ellipse.
    assert square._mask(*p)
    assert disk._mask(*p)
    assert not ellipse._mask(*p)
    both = square._mask(*p) and disk._mask(*p) and ellipse._mask(*p)
    assert Intersection((square, disk, ellipse))._mask(*p) == both


def test_contains_concave_polygon():
    ell = Polygon(((0, 0), (2, 0), (2, 1), (1, 1), (1, 2), (0, 2)))
    x, y = np.array([[0.5, 1.5], [1.5, 0.5], [1.5, 1.5]]).T
    np.testing.assert_array_equal(ell._mask(x, y), [True, True, False])


def test_contains_batch():
    d = Disk((0.0, 0.0), 1.0)
    pts = np.array([[0.0, 0.0], [2.0, 0.0], [0.5, 0.5]])
    np.testing.assert_array_equal(d._mask(*pts.T), [True, False, True])


def test_polygon_rejects_clockwise():
    with pytest.raises(DomainError):
        Polygon(((0, 0), (0, 1), (1, 1), (1, 0)))


def test_polygon_rejects_self_intersection():
    with pytest.raises(DomainError):
        Polygon(((0, 0), (1, 1), (1, 0), (0, 1)))


def test_polygon_rejects_repeated_vertex():
    # A zero-length edge has no direction: _gap would divide 0 by 0 on it.
    for vs in (((0, 0), (1, 0), (1, 0), (0, 1)), ((0, 0), (1, 0), (0, 1), (0, 0))):
        with pytest.raises(DomainError, match="^vertices: consecutive vertices"):
            Polygon(vs)


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


def test_effective_region_empty():
    with pytest.raises(EmptyRegion):
        effective_region(Disk((0.0, 0.0), 0.004), (0.0, 0.0), 0.005)


def test_effective_region_offcenter_carve():
    eff = effective_region(Disk((0.0, 0.0), 0.04), (0.01, 0.0), 0.005)
    assert not eff._mask(0.01, 0.0)
    assert not eff._mask(0.012, 0.0)
    assert eff._mask(0.02, 0.0)


def test_normalize_uniform_disk():
    w = 1.0 / _integrate(Disk((0.3, -0.1), 0.7), UeDensity("uniform"), _one)[0]
    assert w == pytest.approx(1.0 / (math.pi * 0.7**2), rel=1e-12)


def test_normalize_inverse_radial_annulus():
    # int W/rho over the annulus = W * 2 pi (R - r0)
    reg = Annulus((0.0, 0.0), 0.2, 1.1)
    w = 1.0 / _integrate(reg, UeDensity("inverse_radial", (0.0, 0.0)), _one)[0]
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
    w = 1.0 / _integrate(Polygon(vs), UeDensity("uniform"), _one)[0]
    assert 1.0 / w == pytest.approx(area, rel=1e-12)


_SQUARE = Polygon(((0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)))
# Regions with the inverse-radial origin on their boundary, and the exact
# mass of 1/rho over them: the chord 2 R cos(theta) integrated over a half
# turn; for the ellipse the polar form of its chord from the vertex (a, 0);
# for the square the integrals of sec(theta) over the corner's quarter turn
# and over both halves seen from the edge midpoint.
_RIM_ORIGINS = {
    "disk": (
        Disk((0.3, -0.1), 0.7),
        (0.3 + 0.7 * math.cos(1.1), -0.1 + 0.7 * math.sin(1.1)),
        4.0 * 0.7,
    ),
    "ellipse": (
        Ellipse((0.0, 0.0), 2.0, 1.0),
        (2.0, 0.0),
        8.0 * math.pi / (3.0 * math.sqrt(3.0)),
    ),
    "vertex": (_SQUARE, (0.0, 0.0), 2.0 * math.log(1.0 + math.sqrt(2.0))),
    "edge": (
        _SQUARE,
        (0.5, 0.0),
        math.log(math.sqrt(5.0) + 2.0) + 2.0 * math.log((math.sqrt(5.0) + 1.0) / 2.0),
    ),
}


@pytest.mark.parametrize("name", sorted(_RIM_ORIGINS))
def test_inverse_radial_mass_with_origin_on_boundary(name):
    # At the origin the boundary's tangent line (or the square's edges)
    # is a panel break: the rays on one side meet the region at once, the
    # others not at all.
    region, origin, mass = _RIM_ORIGINS[name]
    got = _integrate(region, UeDensity("inverse_radial", origin), _one)[0]
    assert got == pytest.approx(mass, rel=1e-12)


def test_polygons_sharing_edges_integrate():
    # Two squares with two edges in common and one inside the other: the
    # parallel edges give no crossing, and the shared corners are vertices.
    big = Polygon(((0.0, 0.0), (1.0, 0.0), (1.0, 2.0), (0.0, 2.0)))
    mass = _integrate(Intersection((_SQUARE, big)), UeDensity("uniform"), _one)[0]
    assert mass == pytest.approx(1.0, rel=1e-12)


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
    w = 1.0 / _integrate(dom, UeDensity("uniform"), _one)[0]
    assert w == pytest.approx(1.0 / area, rel=1e-7)


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
    w = 1.0 / _integrate(reg, density, _one)[0]
    rng = np.random.default_rng(42)
    xmin, ymin, xmax, ymax = bounding_box(reg)
    n = 4_000_000
    pts = rng.random((n, 2)) * (xmax - xmin, ymax - ymin) + (xmin, ymin)
    inside = reg._mask(*pts.T)
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
        density_profile(reg, UeDensity("uniform"), _one)


def test_empty_intersection_raises_lazily():
    reg = Intersection((Disk((-0.6, 0.0), 0.5), Disk((0.6, 0.0), 0.5)))
    with pytest.raises(EmptyRegion):
        density_profile(reg, UeDensity("uniform"), _one)


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
    assert dom._mask(*pts.T).all()


def test_sample_uniform_disk_mean():
    pts = _sample(Disk((0.5, -0.25), 1.0), UeDensity("uniform"), 11, 1_000_000)
    # per-coordinate sigma = R/2
    tol = 3.0 * 0.5 / 1000.0
    assert abs(pts[:, 0].mean() - 0.5) < tol
    assert abs(pts[:, 1].mean() + 0.25) < tol


def test_sample_inverse_radial_radius_cdf_linear():
    # P[rho <= t] = (t - r0)/(R - r0) under W/rho on a centered annulus;
    # at r0 = 0 (a disk around the origin) the polar box starts at rho = 0.
    b = 1.1
    for a in (0.2, 0.0):
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


def test_hotspot_variance_is_centred(hotspot84):
    # On the far cells the gain's variance is about 1e-3 of its squared
    # mean, so m2 - mean^2 kept only about 12 digits of it.
    for cell, dom in _hotspot_domains(hotspot84):

        def gain(p):
            return coupling_gain_L(p, cell.bs, hotspot84.victim_bs, hotspot84.channel)

        _, var, _, _ = density_profile(dom, cell.density, gain)
        _, _, (w, v) = _integrate(dom, cell.density, gain)
        mass = math.fsum(w)
        mean = math.fsum(w * v) / mass
        exact = math.fsum(w * (v - mean) ** 2) / mass
        assert abs(var - exact) <= 1e-14 * exact


def _bisected(panels):
    """The panels each halved until narrower than 2 pi / 1024."""
    parts = []
    for a, b in panels:
        n = 2 ** max(math.ceil(math.log2((b - a) * 1024 / (2.0 * math.pi))), 0)
        cuts = a + (b - a) * np.arange(n + 1) / n
        parts.append(np.column_stack((cuts[:-1], cuts[1:])))
    return np.concatenate(parts)


def _refinement_gap(monkeypatch, region, density, field):
    """How far the moments move when every event panel is cut further.

    Returns the larger relative move of the field's mean and of its
    second moment when the panels of geometry._panels are halved until
    narrower than 2 pi / 1024, a fixed fan as fine as 1024 rays. Both runs
    settle every panel to 1e-10 rather than _REL_TOL, with up to 64
    pieces, so that what moves is the panels and not the tolerance. The
    second moment stands in for the variance because it is one of the
    sums the quadrature tracks and settles, while the variance is read
    off the accepted nodes afterwards. On the drop's cells other than
    cell 6 the variance moves at most 5e-14 and the second moment 3e-14.
    """
    panels = geometry._panels(region, geometry._polar_origin(region, density))
    moments = []
    for cut in (panels, _bisected(panels)):
        with monkeypatch.context() as m:
            m.setattr(geometry, "_REL_TOL", 1e-10)
            m.setattr(geometry, "_MAX_PIECES", 64)
            m.setattr(geometry, "_panels", lambda *_: cut)
            mean, var, _, _ = density_profile(region, density, field)
        moments.append(np.array([mean, var + mean * mean]))
    return float(np.max(np.abs(moments[0] - moments[1]) / np.abs(moments[1])))


def _cell_gap(monkeypatch, scen, cell):
    """_refinement_gap of a cell's user domain on its coupling gain."""
    dom = ue_domain(cell.region, cell.bs, scen.victim_bs, scen.channel.d_min_km)

    def gain(p):
        return coupling_gain_L(p, cell.bs, scen.victim_bs, scen.channel)

    return _refinement_gap(monkeypatch, dom, cell.density, gain)


@pytest.mark.parametrize("kind", ["uniform", "inverse_radial"])
@pytest.mark.parametrize("r", [0.01, 0.02, 0.04])
def test_panels_match_bisection_on_sweep(monkeypatch, r, kind):
    # The bread cells: a polygon, a disk and an ellipse, less both carves.
    scen = build_single_cell(r, kind, FadingModel("rayleigh"))
    assert _cell_gap(monkeypatch, scen, scen.cells[0]) <= 1e-12


@pytest.mark.parametrize("kind", ["uniform", "inverse_radial"])
@pytest.mark.parametrize("r", [0.005, 0.004])
def test_dmin_cell_matches_fine_scan(monkeypatch, r, kind):
    # Cells at and below d_min = 0.005 km. At r = d_min two breaks lie
    # 3e-4 rad apart, closer than the rays of a 1024-ray fan; both are
    # events, so the bisected panels add nothing.
    scen = build_single_cell(r, kind, FadingModel("rayleigh"))
    assert _cell_gap(monkeypatch, scen, scen.cells[0]) <= 1e-12


def test_panels_match_bisection_on_drop(monkeypatch, hotspot84):
    # Cell 6 is the one exception, a limit of the quadrature and not a
    # missing break. Its victim carve meets the cell's rim 6.5e-7 rad
    # inside the carve's tangent from the serving station, so the panel
    # between the crossings has a square-root branch point just past each
    # end. Its accepted level is 1.7e-10 off at any tolerance, while that
    # one panel cut into 1025 pieces agrees to 3e-14.
    gaps = [_cell_gap(monkeypatch, hotspot84, cell) for cell in hotspot84.cells]
    assert len(gaps) == 83
    assert [i for i, gap in enumerate(gaps) if gap > 1e-12] == [6]
    assert gaps[6] <= 1e-9


def _carved_cell(rng, i, delta):
    """A disk cell whose victim carve is ``delta`` cell radii from tangency.

    Case i cycles through the carve circle touching the cell's rim from
    outside, from inside, and touching the serving-station carve.
    """
    r, d_min, bs = 0.01, 0.001, (0.3, 0.2)
    phi = rng.uniform(0.0, 2.0 * math.pi)
    if i % 3 == 0:
        dist = rng.uniform(1.2, 2.0) * r
        tangent = dist - r
    elif i % 3 == 1:
        dist = rng.uniform(0.4, 0.7) * r
        tangent = r - dist
    else:
        dist = rng.uniform(0.6, 0.9) * r
        tangent = dist - d_min
    victim = (bs[0] + dist * math.cos(phi), bs[1] + dist * math.sin(phi))
    carve = Annulus(victim, tangent + delta * r, dist + 2.0 * r)
    region = Intersection((Annulus(bs, d_min, r), carve))
    density = UeDensity("inverse_radial", bs) if i % 2 else UeDensity("uniform")
    return region, density, victim


def test_near_tangent_carves_settle(monkeypatch):
    rng = np.random.default_rng(20261019)
    for i in range(30):
        delta = rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-6.0, -2.0)
        region, density, victim = _carved_cell(rng, i, delta)

        def dist(p):
            return np.hypot(p[:, 0] - victim[0], p[:, 1] - victim[1])

        assert _refinement_gap(monkeypatch, region, density, dist) <= 1e-12


def test_tangent_carve_keeps_few_panels():
    # At an exact tangency a crossing pair merges into a touch point, and
    # the quartic's double root comes back as at most two breaks a few
    # 1e-8 rad apart: no more than the crossings and tangents around it.
    rng = np.random.default_rng(3)
    for i in range(12):
        region, density, victim = _carved_cell(rng, i, 0.0)
        panels = geometry._panels(region, geometry._polar_origin(region, density))
        assert len(panels) <= 6

        def dist(p):
            return np.hypot(p[:, 0] - victim[0], p[:, 1] - victim[1])

        mean, var, _, _ = density_profile(region, density, dist)
        assert math.isfinite(mean) and var >= 0.0


def _random_part(rng):
    """A disk, annulus, ellipse or star-shaped polygon near the origin."""
    kind = rng.integers(4)
    c = tuple(rng.uniform(-0.5, 0.5, 2))
    if kind == 0:
        return Disk(c, rng.uniform(0.3, 1.0))
    if kind == 1:
        inner = rng.uniform(0.05, 0.4)
        return Annulus(c, inner, inner + rng.uniform(0.3, 0.8))
    if kind == 2:
        a, b = rng.uniform(0.3, 1.0), rng.uniform(0.2, 0.8)
        return Ellipse(c, a, b, rng.uniform(0.0, math.pi))
    # Consecutive angles less than pi apart keep c inside: a simple polygon.
    n = rng.integers(4, 8)
    angles = 2.0 * math.pi * (np.arange(n) + rng.uniform(0.25, 0.75, n)) / n
    radii = rng.uniform(0.4, 1.0, n)
    x, y = c[0] + radii * np.cos(angles), c[1] + radii * np.sin(angles)
    return Polygon(tuple(zip(x, y)))


def test_panels_match_bisection_on_random_intersections(monkeypatch):
    # Intersections of 2 or 3 random parts under either density; an empty
    # intersection raises EmptyRegion and is not counted.
    rng = np.random.default_rng(26)

    def field(p):
        return np.hypot(p[:, 0] - 3.0, p[:, 1] - 2.0)

    checked = 0
    while checked < 100:
        parts = tuple(_random_part(rng) for _ in range(rng.integers(2, 4)))
        region = Intersection(parts)
        if rng.random() < 0.5:
            density = UeDensity("uniform")
        else:
            density = UeDensity("inverse_radial", tuple(rng.uniform(-0.8, 0.8, 2)))
        try:
            gap = _refinement_gap(monkeypatch, region, density, field)
        except EmptyRegion:
            continue
        assert gap <= 1e-12
        checked += 1


def _clip_matches_scan(region, origin, theta, n=4096):
    """Check geometry._clip on rays from ``origin`` against a scan of the mask.

    Each ray is sampled at the midpoints of n equal steps from the origin
    to past the region's bounding box. A scan transition lies midway
    between two samples that the region's mask tells apart, and at 0 when
    the first sample is inside. Stretches of _clip that touch are one
    interval. Every transition must lie within one step of an interval
    end, and every end within one step of a transition, unless the
    interval or the gap that the end bounds is narrower than a step and so
    may fall between two samples (a ray that grazes a curve or a vertex).
    """
    o = np.asarray(origin, dtype=float)
    xmin, ymin, xmax, ymax = region._bbox()
    reach = 1.01 * max(
        math.hypot(x - o[0], y - o[1]) for x in (xmin, xmax) for y in (ymin, ymax)
    )
    step = reach / n
    r = (np.arange(n) + 0.5) * step
    c, s = np.cos(theta), np.sin(theta)
    inside = region._mask(o[0] + np.outer(c, r), o[1] + np.outer(s, r))
    flip = np.diff(inside.astype(int), axis=1, prepend=0) != 0
    ray, lo, hi = geometry._clip(region, o, c, s)
    assert (np.diff(ray) >= 0).all()
    for i in range(len(theta)):
        k = np.nonzero(flip[i])[0]
        scan = np.where(k > 0, r[k] - 0.5 * step, 0.0)
        a, b = lo[ray == i], hi[ray == i]
        assert (a < b).all() and (b[:-1] <= a[1:]).all()
        a, b = np.setdiff1d(a, b), np.setdiff1d(b, a)
        ends = np.concatenate((a, b))
        # What each end bounds: its interval, and the gap on its other side.
        gaps = a[1:] - b[:-1]
        width = np.concatenate(
            (
                np.minimum(b - a, np.append(np.inf, gaps)),
                np.minimum(b - a, np.append(gaps, np.inf)),
            )
        )
        to_scan = np.abs(ends[:, None] - scan[None, :]).min(axis=1, initial=np.inf)
        to_end = np.abs(scan[:, None] - ends[None, :]).min(axis=1, initial=np.inf)
        assert ((to_scan <= step) | (width < step)).all(), (i, ends, scan)
        assert (to_end <= step).all(), (i, ends, scan)


def _ray_angles(region, origin, rng, count=32):
    """Random angles, and the rays through every vertex and every tangent."""
    o = np.asarray(origin, dtype=float)
    conics, polygons = region._pieces()
    rays = [a - o for _, a, _ in polygons]
    rays += [geometry._tangents(conic, o)[0] for conic in conics]
    rays = np.concatenate(rays) if rays else np.zeros((0, 2))
    special = np.arctan2(rays[:, 1], rays[:, 0])
    return np.concatenate((rng.uniform(0.0, 2.0 * math.pi, count), special))


def test_clip_matches_scan_on_random_intersections():
    # The 100 non-empty intersections of
    # test_panels_match_bisection_on_random_intersections, drawn from the
    # same stream, with rays from their polar origins.
    rng = np.random.default_rng(26)
    angles = np.random.default_rng(28)
    checked = 0
    while checked < 100:
        parts = tuple(_random_part(rng) for _ in range(rng.integers(2, 4)))
        region = Intersection(parts)
        if rng.random() < 0.5:
            density = UeDensity("uniform")
        else:
            density = UeDensity("inverse_radial", tuple(rng.uniform(-0.8, 0.8, 2)))
        try:
            _integrate(region, density, _one)
        except EmptyRegion:
            continue
        origin = geometry._polar_origin(region, density)
        _clip_matches_scan(region, origin, _ray_angles(region, origin, angles))
        checked += 1


# An L: its edges lie on the grid lines, so that the mask tells the points
# of a ray along an edge alike, and the scan has an answer there.
_ELL = Polygon(
    ((0.0, 0.0), (2.0, 0.0), (2.0, 1.0), (1.0, 1.0), (1.0, 2.0), (0.0, 2.0))
)
# (region, origin): origins on a disk rim and on polygon vertices, convex
# and reflex, and inside and outside a non-convex polygon and a ring.
_CLIP_CASES = {
    "disk rim": (Disk((0.3, -0.1), 0.7), (1.0, -0.1)),
    "square vertex": (_SQUARE, (0.0, 0.0)),
    "L reflex vertex": (_ELL, (1.0, 1.0)),
    "L inside": (_ELL, (1.0, 0.5)),
    "L outside": (_ELL, (-0.5, 2.7)),
    "ring": (Annulus((0.0, 1.0), 1.0, 3.0), (-2.0, 0.0)),
    "ring in square": (
        Intersection((Annulus((0.5, 0.5), 0.2, 0.6), _SQUARE)),
        (0.5, 0.5),
    ),
}


@pytest.mark.parametrize("name", sorted(_CLIP_CASES))
def test_clip_matches_scan_through_vertices_and_tangents(name):
    region, origin = _CLIP_CASES[name]
    theta = _ray_angles(region, origin, np.random.default_rng(5), count=64)
    _clip_matches_scan(region, origin, theta)


def test_clip_exact_tangents():
    # The line y = 0 touches the circle, the ellipse and the inner circle of
    # the ring at (0, 0), and the double root cuts nothing: no interval for
    # the disk and the ellipse, and the ring's interval runs on through.
    zero, one = np.array([0.0]), np.array([1.0])
    for region in (Disk((0.0, 1.0), 1.0), Ellipse((0.0, 1.0), 2.0, 1.0)):
        ray, _, _ = geometry._clip(region, (-3.0, 0.0), one, zero)
        assert ray.size == 0
    ring = Annulus((0.0, 1.0), 1.0, 3.0)
    _, lo, hi = geometry._clip(ring, (-2.0, 0.0), one, zero)
    assert lo.tolist() == [0.0]
    assert hi == pytest.approx([2.0 + math.sqrt(8.0)], rel=1e-15)


def test_clip_rays_along_edges():
    # From a corner, rays along the square's edges divide by zero in the
    # edge solve, silently (a RuntimeWarning fails the suite); the mask
    # counts those edges in, and the rays keep their unit length.
    theta = np.array([0.0, 0.5 * math.pi, 0.25 * math.pi, math.pi])
    ray, lo, hi = geometry._clip(_SQUARE, (0.0, 0.0), np.cos(theta), np.sin(theta))
    length = np.bincount(ray, hi - lo, minlength=len(theta))
    assert length == pytest.approx([1.0, 1.0, math.sqrt(2.0), 0.0], abs=1e-15)


def test_same_curve_conics_keep_one_panel():
    # An ellipse and the same ellipse turned by pi share every point, and
    # their quartic is rounding noise; the pair is skipped, so the panels
    # are the lone ellipse's. Identical disks, whose quartic is all zero,
    # keep one panel as well.
    ellipse = Ellipse((0.0, 0.0), 2.0, 1.0, 0.3)
    turned = Ellipse((0.0, 0.0), 2.0, 1.0, 0.3 + math.pi)
    origin = (0.5, 0.2)
    lone = geometry._panels(ellipse, origin)
    assert len(lone) == 1
    assert geometry._panels(Intersection((ellipse, turned)), origin).tolist() == (
        lone.tolist()
    )
    disk = Disk((0.1, 0.2), 1.0)
    pair = Intersection((disk, Disk((0.1, 0.2), 1.0)))
    assert len(geometry._panels(pair, origin)) == 1


def _breaks_near(region, origin, points):
    """For each point, the distance in rad from the angle of its ray from
    ``origin`` to the nearest panel break, and the number of breaks within
    1e-9 rad of that angle."""
    breaks = geometry._panels(region, origin)[:, 0]
    angles = [math.atan2(y - origin[1], x - origin[0]) for x, y in points]
    turn = np.abs(np.subtract.outer(np.mod(angles, 2.0 * math.pi), breaks))
    turn = np.minimum(turn, 2.0 * math.pi - turn)
    return turn.min(axis=1), (turn <= 1e-9).sum(axis=1)


def test_polygon_crossings_give_one_break_each():
    # The kite of the artifact harness's events scenario: the diamond's
    # edges x - y = -0.018, x + y = -0.010 and y - x = 0.046 cross the
    # box's edges x = -0.018 and y = 0.012 at four points. Each crossing is
    # found on the edges of both polygons, and is still one break.
    box = Polygon(
        ((-0.042, -0.012), (-0.018, -0.012), (-0.018, 0.012), (-0.042, 0.012))
    )
    diamond = Polygon(
        ((-0.028, -0.01), (-0.014, 0.004), (-0.028, 0.018), (-0.042, 0.004))
    )
    crossings = [(-0.018, 0.0), (-0.018, 0.008), (-0.022, 0.012), (-0.034, 0.012)]
    for kite in (Intersection((box, diamond)), Intersection((diamond, box))):
        turn, count = _breaks_near(kite, (-0.03, 0.0), crossings)
        assert turn.max() <= 1e-14
        assert count.tolist() == [1, 1, 1, 1]


def test_conic_edge_crossings_give_one_break_each():
    # The unit circle crosses the square's edges x = -0.5 and y = -0.5 at
    # (-0.5, sqrt(0.75)) and (sqrt(0.75), -0.5).
    square = Polygon(((-0.5, -0.5), (2.0, -0.5), (2.0, 2.0), (-0.5, 2.0)))
    root = math.sqrt(0.75)
    region = Intersection((Disk((0.0, 0.0), 1.0), square))
    turn, count = _breaks_near(region, (0.1, 0.2), [(-0.5, root), (root, -0.5)])
    assert turn.max() <= 1e-14
    assert count.tolist() == [1, 1]


def test_polar_origin_is_the_first_annulus_centre():
    uniform = UeDensity("uniform")
    inner = Intersection((_SQUARE, Annulus((0.4, 0.6), 0.1, 0.5)))
    outer = Annulus((0.5, 0.5), 0.05, 2.0)
    nested = Intersection((Disk((0.5, 0.5), 0.6), inner, outer))
    assert geometry._polar_origin(nested, uniform) == (0.4, 0.6)
    # In a user domain, the serving station's carve comes first: for a disk
    # centred on the station, for one that is not, and for a polygon.
    bs, victim = (0.3, 0.4), (0.0, 0.0)
    for region in (
        Disk(bs, 0.2),
        Disk((0.35, 0.4), 0.2),
        Polygon(((0.2, 0.3), (0.5, 0.3), (0.5, 0.6), (0.2, 0.6))),
    ):
        dom = ue_domain(region, bs, victim, 0.005)
        assert geometry._polar_origin(dom, uniform) == bs


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
    pts = pts[region._mask(*pts.T)]
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


# Edge variates of the half angle pi u: the ends of [0, 1), the quarter
# turns, and the floats on both sides of the tan pole at u = 0.5.
_EDGE_U = [
    0.0, 0.25, 0.5, 0.75,
    np.nextafter(0.5, 0.0), np.nextafter(0.5, 1.0), np.nextafter(1.0, 0.0),
]


@pytest.mark.parametrize("eta", [None, 0.0, 0.8, 1.0])
def test_half_angle_cos_sin_matches_mpmath(eta):
    # The half angle pi u of the polar proposals and of normal_pair
    # (eta None), and the shadow's shifted pi u + atan2(1, eta) / 2, against
    # 34-digit cos and sin of twice the same float.
    import mpmath as mp

    u = np.concatenate((np.random.default_rng(25).random(2000), _EDGE_U))
    half = u * math.pi
    if eta is not None:
        half += 0.5 * math.atan2(1.0, eta)
    angles = [mp.mpf(2.0 * h) for h in half.tolist()]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        cos, sin = geometry._half_angle_cos_sin(half, np.empty_like(half))
    with mp.workdps(34):
        err_cos = max(abs(c - mp.cos(a)) for c, a in zip(cos.tolist(), angles))
        err_sin = max(abs(s - mp.sin(a)) for s, a in zip(sin.tolist(), angles))
    assert err_cos <= 4.5e-16 and err_sin <= 4.5e-16
    assert np.abs(cos * cos + sin * sin - 1.0).max() <= 1e-15


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
    ref = ref[dom._mask(*ref.T)][:n]
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
    return envelope, np.hypot(*pts[region._mask(*pts.T)].T)


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


def _segment_distance(p, vertices):
    """Distance from one point to a polygon's boundary, edge by edge."""
    best = math.inf
    for (x0, y0), (x1, y1) in zip(vertices, vertices[1:] + vertices[:1]):
        dx, dy = x1 - x0, y1 - y0
        t = ((p[0] - x0) * dx + (p[1] - y0) * dy) / (dx * dx + dy * dy)
        t = min(max(t, 0.0), 1.0)
        best = min(best, math.hypot(p[0] - x0 - t * dx, p[1] - y0 - t * dy))
    return best


def _gap_points(region, seed, n=2000):
    """n seeded points in the region's bounding box grown by half its size."""
    xmin, ymin, xmax, ymax = bounding_box(region)
    wx, wy = xmax - xmin, ymax - ymin
    u = np.random.default_rng(seed).random((n, 2))
    return np.column_stack(
        (xmin - 0.5 * wx + 2.0 * wx * u[:, 0], ymin - 0.5 * wy + 2.0 * wy * u[:, 1])
    )


def _exact_gap(region, p):
    """Brute-force distance from a point to a disk, annulus or polygon."""
    if isinstance(region, Polygon):
        return 0.0 if region._mask(*p) else _segment_distance(p, region.vertices)
    d = math.hypot(p[0] - region.center[0], p[1] - region.center[1])
    if isinstance(region, Disk):
        return max(d - region.radius_km, 0.0)
    return max(region.r_inner - d, d - region.r_outer, 0.0)


@pytest.mark.parametrize(
    "region",
    [
        Disk((0.3, -0.2), 0.7),
        Annulus((0.1, 0.4), 0.3, 0.9),
        _ELL,
        Polygon(
            ((0.0, 0.0), (3.0, 0.0), (3.0, 0.2), (0.2, 0.2), (0.2, 3.0), (0.0, 3.0))
        ),
    ],
)
def test_gap_is_exact_for_disks_annuli_and_polygons(region):
    # At points all over and around the region, the ring's hole too: 0
    # inside, and otherwise the distance to the region.
    pts = _gap_points(region, 11)
    gap = geometry._gap(region, pts)
    inside = region._mask(*pts.T)
    assert inside.any() and (~inside).any()
    assert (gap[inside] == 0.0).all() and (gap[~inside] > 0.0).all()
    exact = np.array([_exact_gap(region, p) for p in pts])
    np.testing.assert_allclose(gap, exact, rtol=1e-12, atol=0.0)
    for p, g in zip(pts[:50], gap[:50]):
        assert float(geometry._gap(region, p)) == g


@pytest.mark.parametrize("rotation", [0.0, 0.4, 1.3, 2.9])
def test_gap_is_a_lower_bound_for_rotated_ellipses(rotation):
    ellipse = Ellipse((0.2, -0.1), 0.9, 0.25, rotation)
    pts = _gap_points(ellipse, 12)
    gap = geometry._gap(ellipse, pts)
    inside = ellipse._mask(*pts.T)
    assert inside.any() and (gap[inside] == 0.0).all() and (gap[~inside] > 0.0).all()
    # A dense sample of the curve: each sampled point lies on the ellipse,
    # so its distance bounds the gap from above.
    phi = np.linspace(0.0, 2.0 * math.pi, 20_001)
    c, s = math.cos(rotation), math.sin(rotation)
    ex, ey = 0.9 * np.cos(phi), 0.25 * np.sin(phi)
    curve = np.column_stack((0.2 + c * ex - s * ey, -0.1 + s * ex + c * ey))
    for p, g in zip(pts[~inside], gap[~inside]):
        assert g <= np.hypot(*(curve - p).T).min()


def test_gap_of_a_nested_intersection_is_the_largest_of_its_parts():
    parts = (Disk((0.9, 0.0), 0.8), Annulus((0.0, 0.0), 0.25, 2.0))
    inner = Intersection(parts)
    ellipse = Ellipse((0.6, 0.1), 0.7, 0.3, 0.4)
    region = Intersection((inner, ellipse))
    pts = _gap_points(region, 13)
    gap = geometry._gap(region, pts)
    expect = np.maximum.reduce([geometry._gap(r, pts) for r in (*parts, ellipse)])
    assert gap.tolist() == expect.tolist()
    inside = region._mask(*pts.T)
    assert inside.any() and (gap[inside] == 0.0).all() and (gap[~inside] > 0.0).all()


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
