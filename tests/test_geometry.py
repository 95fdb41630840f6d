import math

import numpy as np
import pytest

from ulfit.errors import DomainError, EmptyRegion, SamplingStall
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
    region_integral,
    rejection_envelope,
    ue_domain,
)
from ulfit.montecarlo import _positions_slice


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
    assert w == pytest.approx(1.0 / (math.pi * 0.7**2), rel=1e-6)


def test_normalize_inverse_radial_annulus():
    # int W/rho over the annulus = W * 2 pi (R - r0)
    reg = Annulus((0.0, 0.0), 0.2, 1.1)
    w = normalize_density(reg, UeDensity("inverse_radial", (0.0, 0.0)))
    assert w == pytest.approx(1.0 / (2.0 * math.pi * (1.1 - 0.2)), rel=1e-5)


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
    val = region_integral(Disk((0.0, 0.0), 1.0), UeDensity("uniform"), lambda p: np.ones(len(p)))
    assert abs(val - 1.0) < 1e-12


def test_region_integral_zero_frequency():
    val = region_integral(
        Disk((0.0, 0.0), 1.0),
        UeDensity("uniform"),
        lambda p: np.exp(1j * 0.0 * p[:, 0]),
    )
    assert abs(val - 1.0) < 1e-12


def test_region_integral_centroid():
    val = region_integral(
        Disk((0.4, 0.0), 0.9), UeDensity("uniform"), lambda p: p[:, 0]
    )
    assert abs(val - 0.4) < 1e-6


def test_region_integral_linearity():
    reg = Disk((0.1, 0.2), 0.8)
    den = UeDensity("uniform")
    f = lambda p: p[:, 0] ** 2
    g = lambda p: np.sin(p[:, 1])
    a, b = 1.7, -0.3
    lhs = region_integral(reg, den, lambda p: a * f(p) + b * g(p))
    rhs = a * region_integral(reg, den, f) + b * region_integral(reg, den, g)
    assert abs(lhs - rhs) < 1e-9 * max(1.0, abs(rhs))


def test_density_profile_uniform_disk_moments():
    # x over a uniform disk: mean = cx, var = R^2/4
    mean, var, wts, vals = density_profile(
        Disk((0.3, 0.0), 1.0), UeDensity("uniform"), lambda p: p[:, 0]
    )
    assert mean == pytest.approx(0.3, abs=2e-5)
    assert var == pytest.approx(0.25, rel=5e-4)
    assert wts.sum() == pytest.approx(1.0, abs=1e-12)
    # binned first moment is preserved exactly
    assert float(wts @ vals) == pytest.approx(mean, abs=1e-12)


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
        region_integral(
            Disk((0.0, 0.0), 1.0),
            UeDensity("uniform"),
            lambda p: math.hypot(p[0], p[1]),
        )


def test_region_integral_rejects_wrong_shape():
    reg, den = Disk((0.0, 0.0), 1.0), UeDensity("uniform")
    for bad in (lambda p: 1.0, lambda p: np.ones((len(p), 2)), lambda p: p[:-1, 0]):
        with pytest.raises(DomainError):
            region_integral(reg, den, bad)


def test_density_profile_evaluates_each_node_once():
    # A trigonometric field on its full period: the midpoint sums of the
    # field and its square are exact from the first level, so the ladder
    # stops at the second. Every node of the unit square is masked.
    square = Polygon(((0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)))

    def field(p):
        return np.sin(2 * math.pi * p[:, 0]) * np.cos(2 * math.pi * p[:, 1]) + 2.0

    evaluated = []

    def counted(p):
        evaluated.append(len(p))
        return field(p)

    nbins = 64
    mean, var, wts, vals = density_profile(
        square, UeDensity("uniform"), counted, nbins=nbins
    )
    assert sum(evaluated) == 64**2 + 128**2
    assert mean == pytest.approx(2.0, abs=1e-12)
    assert var == pytest.approx(0.25, abs=1e-12)
    # The bins are those of a plain re-binning of the 128 x 128 level.
    xs = (np.arange(128) + 0.5) / 128
    X, Y = np.meshgrid(xs, xs, indexing="xy")
    v = field(np.column_stack((X.ravel(), Y.ravel())))
    lo, hi = v.min(), v.max()
    idx = np.minimum(((v - lo) / ((hi - lo) / nbins)).astype(np.intp), nbins - 1)
    wsum = np.bincount(idx, minlength=nbins).astype(float)
    vsum = np.bincount(idx, weights=v, minlength=nbins)
    keep = wsum > 0
    np.testing.assert_array_equal(wts, wsum[keep] / wsum[keep].sum())
    np.testing.assert_array_equal(vals, vsum[keep] / wsum[keep])


def test_empty_intersection_raises_lazily():
    reg = Intersection((Disk((-0.6, 0.0), 0.5), Disk((0.6, 0.0), 0.5)))
    with pytest.raises(EmptyRegion):
        normalize_density(reg, UeDensity("uniform"))


def _sample(region, density, seed, n):
    """n positions from the package's sampler, draw indices [0, n)."""
    box, floor = rejection_envelope(region, density)
    return _positions_slice(region, density, box, floor, 0, seed, 0, n)


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


def test_density_kind_validation():
    with pytest.raises(DomainError):
        UeDensity("gaussian")
    with pytest.raises(DomainError):
        UeDensity("inverse_radial")  # origin required
    with pytest.raises(DomainError):
        UeDensity("uniform", (0.0, 0.0))  # origin only for inverse_radial
