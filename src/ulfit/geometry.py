"""Planar regions, user densities, quadrature, and position sampling.

Coverage areas are built from a small set of primitives (disk, polygon,
ellipse, annulus) plus intersection. All membership tests are vectorized
over arrays of points. Integration against a user density uses a masked
tensor grid over the bounding box with midpoint nodes, refined by doubling
until successive estimates settle.

Grid refinement targets a 1e-7 relative change between successive levels.
Masked boundary cells limit the achievable rate on curved regions, so the
engine accepts the finest-level estimate when the final change is below
1e-4 relative and raises QuadratureFailure only beyond that. The ladder is
deterministic for a given region and density. One ladder serves every
entry point: it evaluates the integrand once per masked node of each level
it visits, and the integrand must be vectorized over an (n, 2) block.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, EmptyRegion, QuadratureFailure, SamplingStall

__all__ = [
    "Disk",
    "Polygon",
    "Ellipse",
    "Annulus",
    "Intersection",
    "Region",
    "UeDensity",
    "contains",
    "bounding_box",
    "effective_region",
    "normalize_density",
    "region_integral",
    "sample_position",
]

_LEVELS = (64, 128, 256, 512, 1024, 2048, 4096)
_REL_TOL = 1e-7
_CAP_REL_TOL = 1e-4
_CHUNK_ROWS = 256


def _as_point(p) -> tuple[float, float]:
    x, y = float(p[0]), float(p[1])
    if not (math.isfinite(x) and math.isfinite(y)):
        raise DomainError("point coordinates must be finite")
    return (x, y)


@dataclass(frozen=True)
class Disk:
    """Closed disk of radius ``radius_km`` around ``center``."""

    center: tuple[float, float]
    radius_km: float

    def __post_init__(self):
        object.__setattr__(self, "center", _as_point(self.center))
        if not self.radius_km > 0:
            raise EmptyRegion("disk radius must be positive")

    def _mask(self, x, y):
        cx, cy = self.center
        return (x - cx) ** 2 + (y - cy) ** 2 <= self.radius_km**2

    def _bbox(self):
        cx, cy = self.center
        r = self.radius_km
        return (cx - r, cy - r, cx + r, cy + r)


@dataclass(frozen=True)
class Annulus:
    """Closed ring ``r_inner <= rho <= r_outer`` around ``center``."""

    center: tuple[float, float]
    r_inner: float
    r_outer: float

    def __post_init__(self):
        object.__setattr__(self, "center", _as_point(self.center))
        if self.r_inner < 0:
            raise DomainError("annulus inner radius must be >= 0")
        if not self.r_outer > self.r_inner:
            raise EmptyRegion("annulus requires r_outer > r_inner")

    def _mask(self, x, y):
        cx, cy = self.center
        rho2 = (x - cx) ** 2 + (y - cy) ** 2
        return (rho2 >= self.r_inner**2) & (rho2 <= self.r_outer**2)

    def _bbox(self):
        cx, cy = self.center
        r = self.r_outer
        return (cx - r, cy - r, cx + r, cy + r)


@dataclass(frozen=True)
class Ellipse:
    """Closed ellipse with semi-axes ``(a_km, b_km)`` rotated by ``rotation_rad``."""

    center: tuple[float, float]
    a_km: float
    b_km: float
    rotation_rad: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "center", _as_point(self.center))
        if not (self.a_km > 0 and self.b_km > 0):
            raise EmptyRegion("ellipse semi-axes must be positive")

    def _mask(self, x, y):
        cx, cy = self.center
        c, s = math.cos(self.rotation_rad), math.sin(self.rotation_rad)
        dx, dy = x - cx, y - cy
        u = c * dx + s * dy
        v = -s * dx + c * dy
        return (u / self.a_km) ** 2 + (v / self.b_km) ** 2 <= 1.0

    def _bbox(self):
        # Extents of a rotated ellipse along the axes.
        cx, cy = self.center
        c, s = math.cos(self.rotation_rad), math.sin(self.rotation_rad)
        ex = math.hypot(self.a_km * c, self.b_km * s)
        ey = math.hypot(self.a_km * s, self.b_km * c)
        return (cx - ex, cy - ey, cx + ex, cy + ey)


@dataclass(frozen=True)
class Polygon:
    """Simple polygon with counterclockwise vertices.

    Args:
        vertices: sequence of (x, y) pairs, at least three, listed
            counterclockwise, describing a non-self-intersecting boundary.
    """

    vertices: tuple[tuple[float, float], ...]

    def __post_init__(self):
        vs = tuple(_as_point(v) for v in self.vertices)
        object.__setattr__(self, "vertices", vs)
        if len(vs) < 3:
            raise DomainError("polygon needs at least 3 vertices")
        if self._signed_area() <= 0:
            raise DomainError("polygon vertices must be counterclockwise")
        if not self._is_simple():
            raise DomainError("polygon must be non-self-intersecting")

    def _signed_area(self) -> float:
        vs = self.vertices
        acc = 0.0
        for (x0, y0), (x1, y1) in zip(vs, vs[1:] + vs[:1]):
            acc += x0 * y1 - x1 * y0
        return 0.5 * acc

    def _is_simple(self) -> bool:
        vs = self.vertices
        n = len(vs)
        edges = [(vs[i], vs[(i + 1) % n]) for i in range(n)]

        def _proper_cross(a, b, c, d):
            def orient(p, q, r):
                return (q[0] - p[0]) * (r[1] - p[1]) - (q[1] - p[1]) * (r[0] - p[0])

            o1, o2 = orient(a, b, c), orient(a, b, d)
            o3, o4 = orient(c, d, a), orient(c, d, b)
            return (o1 * o2 < 0) and (o3 * o4 < 0)

        for i in range(n):
            for j in range(i + 1, n):
                if j == i or (j + 1) % n == i or (i + 1) % n == j:
                    continue
                if _proper_cross(*edges[i], *edges[j]):
                    return False
        return True

    def _mask(self, x, y):
        # Crossing-number test, vectorized over flat coordinate arrays.
        inside = np.zeros(np.shape(x), dtype=bool)
        vs = self.vertices
        n = len(vs)
        for i in range(n):
            x0, y0 = vs[i]
            x1, y1 = vs[(i + 1) % n]
            cond = (y0 > y) != (y1 > y)
            with np.errstate(divide="ignore", invalid="ignore"):
                xin = x0 + (y - y0) * (x1 - x0) / (y1 - y0)
            inside ^= cond & (x < xin)
        return inside

    def _bbox(self):
        xs = [v[0] for v in self.vertices]
        ys = [v[1] for v in self.vertices]
        return (min(xs), min(ys), max(xs), max(ys))


@dataclass(frozen=True)
class Intersection:
    """Intersection of a non-empty list of regions."""

    parts: tuple

    def __post_init__(self):
        parts = tuple(self.parts)
        if not parts:
            raise DomainError("intersection requires at least one region")
        object.__setattr__(self, "parts", parts)

    def _mask(self, x, y):
        m = self.parts[0]._mask(x, y)
        for part in self.parts[1:]:
            m &= part._mask(x, y)
        return m

    def _bbox(self):
        boxes = [p._bbox() for p in self.parts]
        xmin = max(b[0] for b in boxes)
        ymin = max(b[1] for b in boxes)
        xmax = min(b[2] for b in boxes)
        ymax = min(b[3] for b in boxes)
        if not (xmax > xmin and ymax > ymin):
            raise EmptyRegion("intersection bounding boxes are disjoint")
        return (xmin, ymin, xmax, ymax)


Region = Disk | Polygon | Ellipse | Annulus | Intersection


@dataclass(frozen=True)
class UeDensity:
    """User position density over a region.

    kind "uniform" is constant over the region. kind "inverse_radial"
    falls off as 1/distance from ``origin``; the normalization constant is
    always computed from the region, never user-supplied.
    """

    kind: str
    origin: tuple[float, float] | None = None

    def __post_init__(self):
        if self.kind not in ("uniform", "inverse_radial"):
            raise DomainError(f"unknown density kind {self.kind!r}")
        if self.kind == "inverse_radial":
            if self.origin is None:
                raise DomainError("inverse_radial density requires an origin")
            object.__setattr__(self, "origin", _as_point(self.origin))

    def _kernel(self, x, y):
        if self.kind == "uniform":
            return np.ones(np.shape(x))
        ox, oy = self.origin
        rho = np.hypot(x - ox, y - oy)
        with np.errstate(divide="ignore"):
            return np.where(rho > 0, 1.0 / rho, np.inf)


def contains(region: Region, p) -> bool | np.ndarray:
    """Closed-region membership test.

    Args:
        region: any region primitive or intersection.
        p: a single (x, y) pair, or an array of shape (n, 2).

    Returns:
        bool for a single point, boolean array of shape (n,) otherwise.
    """
    arr = np.asarray(p, dtype=float)
    if arr.shape == (2,):
        return bool(region._mask(arr[0], arr[1]))
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise DomainError("points must have shape (2,) or (n, 2)")
    return region._mask(arr[:, 0], arr[:, 1])


def bounding_box(region: Region) -> tuple[float, float, float, float]:
    """Axis-aligned (xmin, ymin, xmax, ymax) containing the region."""
    return region._bbox()


def effective_region(region: Region, bs, d_min: float) -> Region:
    """Remove the open disk of radius ``d_min`` around ``bs``.

    The returned region is what density normalization, integration, and
    sampling all operate on, so a minimum distance to the base station is
    enforced once, geometrically.

    Args:
        region: raw coverage region.
        bs: base-station position (x, y).
        d_min: exclusion radius in km, >= 0.

    Returns:
        The restricted region; the input region unchanged when d_min is 0.

    Raises:
        EmptyRegion: if the removal provably leaves zero area.
    """
    if d_min < 0:
        raise DomainError("d_min must be >= 0")
    if d_min == 0:
        return region
    bs = _as_point(bs)
    if isinstance(region, Disk) and region.center == bs:
        if d_min >= region.radius_km:
            raise EmptyRegion("exclusion disk covers the whole region")
        return Annulus(bs, d_min, region.radius_km)
    if isinstance(region, Annulus) and region.center == bs:
        if d_min >= region.r_outer:
            raise EmptyRegion("exclusion disk covers the whole region")
        return Annulus(bs, max(d_min, region.r_inner), region.r_outer)
    xmin, ymin, xmax, ymax = bounding_box(region)
    corners = ((xmin, ymin), (xmin, ymax), (xmax, ymin), (xmax, ymax))
    far = max(math.hypot(cx - bs[0], cy - bs[1]) for cx, cy in corners)
    if far <= d_min:
        raise EmptyRegion("exclusion disk covers the whole region")
    return Intersection((region, Annulus(bs, d_min, far)))


def _grid_axes(box, m):
    xmin, ymin, xmax, ymax = box
    hx = (xmax - xmin) / m
    hy = (ymax - ymin) / m
    xs = xmin + (np.arange(m) + 0.5) * hx
    ys = ymin + (np.arange(m) + 0.5) * hy
    return xs, ys, hx * hy


def _level_sums(region, density, field, profile, m):
    """Masked midpoint sums at one grid level.

    Returns (kernel_sum, field_sums, cell_area, any_mass, chunks). The field
    is evaluated once per masked node. field_sums holds the kernel-weighted
    sum of its values and, for a profile, of their squares; a profile also
    keeps each chunk's (kernel weights, field values) in chunks. Rows are
    processed in fixed-size chunks so peak memory stays flat; chunking does
    not change the summation order between runs.
    """
    box = bounding_box(region)
    xs, ys, dA = _grid_axes(box, m)
    kernel_sum = 0.0
    acc = [] if field is None else [0.0 + 0.0j] * (2 if profile else 1)
    chunks = []
    any_mass = False
    for lo in range(0, m, _CHUNK_ROWS):
        yy = ys[lo : lo + _CHUNK_ROWS]
        X, Y = np.meshgrid(xs, yy, indexing="xy")
        mask = region._mask(X, Y)
        if not mask.any():
            continue
        any_mass = True
        xf = X[mask]
        yf = Y[mask]
        w = density._kernel(xf, yf)
        kernel_sum += float(w.sum())
        if field is None:
            continue
        v = np.asarray(field(np.column_stack((xf, yf))))
        if v.shape != w.shape:
            raise DomainError(
                f"integrand returned shape {v.shape} for {w.size} points; "
                "it must be vectorized over an (n, 2) block"
            )
        acc[0] += complex(np.sum(w * v))
        if profile:
            acc[1] += complex(np.sum(w * v**2))
            chunks.append((w, v))
    return kernel_sum, acc, dA, any_mass, chunks


def _integrate_ladder(region, density, field=None, profile=False):
    """Doubling-ladder quadrature shared by every integral entry point.

    ``field`` maps an (n, 2) block of points to n values and is evaluated
    once per masked node. Returns (values, mass_integral, chunks): values
    holds the density average of the field (empty without a field) and,
    for a profile, of its square; mass_integral is the plain integral of
    the density kernel (for normalization constants); and, for a profile,
    chunks are the accepted level's (kernel weights, field values) blocks
    (empty otherwise).
    """
    prev_vals = None
    prev_mass = None
    final_rel = math.inf
    for m in _LEVELS:
        # Drop the previous level's blocks before building this level's.
        chunks = None
        kernel_sum, acc, dA, any_mass, chunks = _level_sums(
            region, density, field, profile, m
        )
        if not any_mass:
            if m == _LEVELS[-1]:
                raise EmptyRegion("region has no area at the finest grid")
            continue
        vals = [a / kernel_sum for a in acc]
        mass = kernel_sum * dA
        if prev_vals is not None:
            rels = [
                abs(v - pv) / max(abs(v), 1e-30)
                for v, pv in zip(vals, prev_vals)
            ]
            rels.append(abs(mass - prev_mass) / max(abs(mass), 1e-30))
            final_rel = max(rels)
            if final_rel < _REL_TOL:
                break
        prev_vals, prev_mass = vals, mass
    else:
        if final_rel > _CAP_REL_TOL:
            raise QuadratureFailure(
                f"estimates still changing by {final_rel:.3e} relative at the "
                f"{_LEVELS[-1]}x{_LEVELS[-1]} cap"
            )
    return vals, mass, chunks


def ue_domain(region: Region, serving_bs, victim_bs, d_min: float) -> Region:
    """Region where users may actually sit: d_min away from both stations.

    The serving-station carve follows from the minimum-distance rule; the
    victim-station carve keeps every admissible position inside the domain
    of the deterministic coupling gain, which requires distance d_min from
    both stations. Normalization, integration, and sampling all use this
    same region so they agree.
    """
    eff = effective_region(region, serving_bs, d_min)
    if _as_point(serving_bs) == _as_point(victim_bs):
        return eff
    return effective_region(eff, victim_bs, d_min)


def density_profile(
    region: Region,
    density: UeDensity,
    value_fn,
    nbins: int = 16384,
):
    """Distribution of a scalar field under the density, plus moments.

    Runs the usual convergence ladder on the field's first two moments,
    evaluating the field once per masked node of each level visited, then
    reduces the accepted level's nodes, kept from that same pass, to
    ``nbins`` weight-preserving bins (weighted mean as the representative
    value, so the first moment of the binned distribution is exact). Peak
    memory holds one level's kernel weights and field values.

    Args:
        region: effective region.
        density: user density over the region.
        value_fn: vectorized (n, 2) points -> (n,) field values.
        nbins: bin budget for the reduction.

    Returns:
        (mean, variance, bin_weights, bin_values); bin_weights sums to 1.

    Raises:
        QuadratureFailure, EmptyRegion: as for region_integral.
    """
    (m1, m2), _, chunks = _integrate_ladder(
        region, density, value_fn, profile=True
    )
    mean = m1.real
    var = max(m2.real - mean * mean, 0.0)

    # Bin the accepted level's nodes; their field values are already known.
    lo = min(float(v.min()) for _, v in chunks)
    hi = max(float(v.max()) for _, v in chunks)
    if not hi > lo:
        # Degenerate field: a single bin carries all the mass.
        return mean, var, np.array([1.0]), np.array([mean])
    width = (hi - lo) / nbins
    wsum = np.zeros(nbins)
    vsum = np.zeros(nbins)
    for w, v in chunks:
        idx = np.minimum(((v - lo) / width).astype(np.intp), nbins - 1)
        wsum += np.bincount(idx, weights=w, minlength=nbins)
        vsum += np.bincount(idx, weights=w * v, minlength=nbins)
    keep = wsum > 0
    weights = wsum[keep]
    values = vsum[keep] / weights
    return mean, var, weights / weights.sum(), values


def normalize_density(region: Region, density: UeDensity) -> float:
    """Normalization constant W making the density integrate to one.

    Args:
        region: effective region (exclusion disk already applied).
        density: density whose kernel is integrated.

    Returns:
        W with unit 1/km^2 (uniform) or 1/km (inverse_radial).

    Raises:
        QuadratureFailure: if the grid ladder does not settle.
        EmptyRegion: if the region carries no area.
    """
    _, mass, _ = _integrate_ladder(region, density)
    return 1.0 / mass


def region_integral(region: Region, density: UeDensity, integrand) -> complex:
    """Integral of ``integrand`` against the normalized density.

    The integrand must be vectorized: it maps an (n, 2) block of points to
    n values. Evaluated as a ratio of masked-grid sums, so the constant
    integrand returns exactly 1 at every level.

    Raises:
        DomainError: if the integrand returns any other shape.
        QuadratureFailure, EmptyRegion: if the grid ladder does not settle
            or the region carries no area. Exceptions the integrand raises
            propagate unchanged.
    """
    vals, _, _ = _integrate_ladder(region, density, integrand)
    return vals[0]


def _rho_floor(region: Region, origin) -> float:
    """Lower bound on distance from origin to the region.

    Used to build the rejection envelope for inverse_radial densities. The
    effective-region pipeline always yields an annulus carve around the
    origin, which gives the exact bound d_min; other shapes fall back to a
    conservative grid scan.
    """
    ox, oy = origin
    if isinstance(region, Annulus) and region.center == (ox, oy):
        return region.r_inner
    if isinstance(region, Intersection):
        best = 0.0
        for part in region.parts:
            if isinstance(part, Annulus) and part.center == (ox, oy):
                best = max(best, part.r_inner)
        if best > 0:
            return best
    xmin, ymin, xmax, ymax = bounding_box(region)
    m = 512
    xs, ys, _ = _grid_axes((xmin, ymin, xmax, ymax), m)
    X, Y = np.meshgrid(xs, ys, indexing="xy")
    mask = region._mask(X, Y)
    if not mask.any():
        raise EmptyRegion("region has no area at the envelope scan grid")
    rho = np.hypot(X[mask] - ox, Y[mask] - oy)
    diag = math.hypot((xmax - xmin) / m, (ymax - ymin) / m)
    return max(float(rho.min()) - diag, 0.0)


def rejection_envelope(region: Region, density: UeDensity):
    """Precomputed pieces of the rejection sampler.

    Returns (bounding box, rho floor). The floor is the envelope constant's
    denominator for inverse_radial densities (sup density = W / floor) and
    None for uniform ones.
    """
    box = bounding_box(region)
    if density.kind != "inverse_radial":
        return box, None
    floor = _rho_floor(region, density.origin)
    if floor <= 0:
        raise DomainError(
            "inverse_radial density is unbounded: origin touches the region"
        )
    return box, floor


def proposal_block(region: Region, density: UeDensity, box, floor, u3):
    """Map a (n, 3) block of uniforms to proposals and their acceptance.

    Uniform densities ignore the third coordinate but still consume it, so
    the draw count per proposal is fixed. Returns (points, accepted mask).
    """
    xmin, ymin, xmax, ymax = box
    pts = np.column_stack(
        (xmin + u3[:, 0] * (xmax - xmin), ymin + u3[:, 1] * (ymax - ymin))
    )
    ok = contains(region, pts)
    if floor is not None:
        ox, oy = density.origin
        rho = np.hypot(pts[:, 0] - ox, pts[:, 1] - oy)
        ok &= u3[:, 2] * rho <= floor
    return pts, ok


def sample_position(region: Region, density: UeDensity, rng) -> np.ndarray:
    """One position by rejection from the bounding box.

    Args:
        region: effective region to sample within.
        density: normalized density (uniform or inverse_radial).
        rng: numpy Generator owned by the caller.

    Returns:
        array (2,) inside the region.

    Raises:
        SamplingStall: if the acceptance rate falls below 1e-6.
    """
    return sample_positions(region, density, rng, 1)[0]


def sample_positions(region: Region, density: UeDensity, rng, n: int) -> np.ndarray:
    """Batch form of sample_position; returns an (n, 2) array."""
    if n <= 0:
        return np.empty((0, 2))
    box, floor = rejection_envelope(region, density)
    out = np.empty((n, 2))
    got = 0
    proposed = 0
    batch = max(2 * n, 1024)
    while got < n:
        u = rng.random((batch, 3))
        pts, ok = proposal_block(region, density, box, floor, u)
        proposed += batch
        take = min(int(ok.sum()), n - got)
        if take:
            out[got : got + take] = pts[ok][:take]
            got += take
        if proposed >= 2_000_000 and got / proposed < 1e-6:
            raise SamplingStall(
                f"acceptance rate {got / proposed:.2e} after {proposed} proposals"
            )
    return out
