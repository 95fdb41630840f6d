"""Planar regions, user densities, quadrature, and rejection proposals.

Coverage areas are built from a small set of primitives (disk, polygon,
ellipse, annulus) plus intersection. All membership tests are vectorized
over arrays of points. For sampling, this module provides the pieces of
the rejection step (the envelope and the accept test of a block of
proposals); the position sampler itself is montecarlo._positions_slice,
which draws the proposals from counter-based streams. The envelope is a
table of equal tiles, and each proposal reads 2 uniforms: the first
picks a tile and the offset along its first axis, the second the offset
along the other. For a uniform density the tiles are the cells of a
fixed 64 x 64 grid over the region's bounding box that the region's
distance lower bound (_gap, vectorized over tile centres) cannot rule
out. For an inverse_radial density there is one tile, a (rho, theta) box
[floor, reach] x [0, 2 pi) around the density origin, where floor and
reach bound the distance from the origin to the region from below and
above; since the kernel 1/rho cancels the polar Jacobian, that proposal
already has the density's law. In both kinds the accept test is region
membership alone.

Integration against a user density is polar. Every primitive returns the
exact radial intervals that rays from a polar origin cut from it (the
roots of a quadratic for disks, annuli and ellipses, the edge crossings
for polygons), and an intersection intersects those interval lists. The
origin is the density's own origin for "inverse_radial", where the kernel
1/rho cancels the polar Jacobian, and for "uniform" the center of the
region's first annulus in part order, which in a ue_domain region is the
serving-station carve (the bounding-box center if there is no annulus).

In theta the circle is cut into panels at the angles where an interval
endpoint changes the boundary piece that defines it: polygon vertices,
tangencies and boundary crossings. Neighbouring scan angles whose piece
labels differ bracket them, and a search that splits every bracket 16
ways per round narrows each bracket to an ulp; its first rounds keep
every sub-bracket whose labels change, so a scan gap that holds two
changes yields both. The scan is a fixed fan plus the direction of every
vertex and of every circle or ellipse center, so that a piece narrower
than the fan is still seen. Inside a panel the integrand is smooth in
theta except for square-root behaviour at a tangency end, which the
substitution theta = a + (b - a)(3 s^2 - 2 s^3) turns smooth in s.

Each panel is integrated by composite 16-point Gauss-Legendre rules, in s
and in r on every interval. Both double their pieces until every tracked
sum changes by less than _REL_TOL of its scale (the integral of its
absolute value) divided by the panel count; a panel still changing at
_MAX_PIECES pieces raises QuadratureFailure. The rule is deterministic
for a given region and density. The engine evaluates the integrand once
per node of each level it visits, and the integrand must be vectorized
over an (n, 2) block.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, EmptyRegion, QuadratureFailure

__all__ = [
    "Disk",
    "Polygon",
    "Ellipse",
    "Annulus",
    "Intersection",
    "Region",
    "UeDensity",
    "bounding_box",
    "effective_region",
    "density_profile",
]

_REL_TOL = 1e-7
# Pieces per panel before QuadratureFailure: 256 nodes in theta, and 256
# in r on each interval. Every cell of the test suite settles at 4 pieces
# or fewer.
_MAX_PIECES = 16
# Scan fan for panel breaks, and the search that refines them: _ROUNDS
# rounds of a _WAYS-way split cut a scan gap of at most 2 pi / 2048 by
# 16^12 = 2^48, below one ulp of 2 pi. The first _SPLIT_ROUNDS rounds
# keep every changed sub-bracket, down to about 1e-6 rad; later ones
# follow one change per bracket, because at a tangency the labels flicker
# with rounding over about sqrt(eps) rad.
_SCAN = 1024
_WAYS = 16
_ROUNDS = 12
_SPLIT_ROUNDS = 3
# Tiles per side of a uniform cell's rejection envelope (rejection_envelope).
_TILES = 64
# Endpoint labels besides the boundary-piece indices (>= 0).
_EMPTY = -1
_AT_ORIGIN = -2


def _as_point(p, name: str = "point") -> tuple[float, float]:
    x, y = float(p[0]), float(p[1])
    if not (math.isfinite(x) and math.isfinite(y)):
        raise DomainError(f"{name}: coordinates must be finite")
    return (x, y)


def _roots(b, cc, disc):
    """Ordered roots of r^2 + 2 b r + cc = 0, (inf, inf) where none are real.

    ``disc`` is the quarter discriminant b^2 - cc, which the caller forms
    without cancellation: for a circle of radius R it is R^2 minus the
    squared distance from its center to the ray's line. A double root, a
    tangent ray, counts as no crossing. The larger root in magnitude is
    formed first so the other avoids cancellation.
    """
    hit = disc > 0
    q = -(b + np.copysign(np.sqrt(np.where(hit, disc, 0.0)), b))
    with np.errstate(divide="ignore", invalid="ignore"):
        other = cc / q
    lo = np.where(hit, np.minimum(q, other), np.inf)
    hi = np.where(hit, np.maximum(q, other), np.inf)
    return lo, hi


def _pack(lo, hi, llo, lhi):
    """Interval columns per ray; empty ones become (inf, inf) labelled _EMPTY."""
    lo, hi = np.column_stack(lo), np.column_stack(hi)
    llo, lhi = np.column_stack(llo), np.column_stack(lhi)
    empty = ~(lo < hi)
    lo[empty] = hi[empty] = np.inf
    llo[empty] = lhi[empty] = _EMPTY
    return lo, hi, llo, lhi


def _convex_span(lo, hi, label):
    """The one interval of a convex piece from its boundary roots, cut at r = 0."""
    return _pack(
        [np.maximum(lo, 0.0)],
        [hi],
        [np.where(lo > 0, label, _AT_ORIGIN)],
        [np.full(hi.shape, label)],
    )


def _meet(a, b):
    """Per-ray intersection of two interval sets, sorted, empties last.

    Each interval of the result starts at a distinct start of a or b, so
    ka + kb columns hold it.
    """
    alo, ahi, allo, alhi = (x[:, :, None] for x in a)
    blo, bhi, bllo, blhi = (x[:, None, :] for x in b)
    n, ka, kb = alo.shape[0], alo.shape[1], blo.shape[2]
    shape = (n, ka * kb)
    lo, hi, llo, lhi = _pack(
        [np.maximum(alo, blo).reshape(shape)],
        [np.minimum(ahi, bhi).reshape(shape)],
        [np.where(alo >= blo, allo, bllo).reshape(shape)],
        [np.where(ahi <= bhi, alhi, blhi).reshape(shape)],
    )
    order = np.argsort(lo, axis=1, kind="stable")[:, : min(ka * kb, ka + kb)]
    return tuple(np.take_along_axis(x, order, axis=1) for x in (lo, hi, llo, lhi))


def _direction(o, p):
    return math.atan2(p[1] - o[1], p[0] - o[0])


def _xy(p):
    """Coordinate arrays of a point (2,) or of points (..., 2)."""
    p = np.asarray(p, dtype=float)
    return p[..., 0], p[..., 1]


@dataclass(frozen=True)
class Disk:
    """Closed disk of radius ``radius_km`` around ``center``."""

    center: tuple[float, float]
    radius_km: float

    def __post_init__(self):
        object.__setattr__(self, "center", _as_point(self.center, "center"))
        if not self.radius_km > 0:
            raise EmptyRegion("radius_km: must be positive")

    def _mask(self, x, y):
        cx, cy = self.center
        return (x - cx) ** 2 + (y - cy) ** 2 <= self.radius_km**2

    def _bbox(self):
        cx, cy = self.center
        r = self.radius_km
        return (cx - r, cy - r, cx + r, cy + r)

    def _ray(self, o, c, s):
        px, py = o[0] - self.center[0], o[1] - self.center[1]
        r2 = self.radius_km**2
        perp = c * py - s * px
        lo, hi = _roots(c * px + s * py, px * px + py * py - r2, r2 - perp * perp)
        return _convex_span(lo, hi, 0)

    def _directions(self, o):
        return [_direction(o, self.center)]

    def _gap(self, p):
        x, y = _xy(p)
        dist = np.hypot(x - self.center[0], y - self.center[1])
        return np.maximum(dist - self.radius_km, 0.0)

    def _reach(self, o):
        dist = math.hypot(o[0] - self.center[0], o[1] - self.center[1])
        return dist + self.radius_km


@dataclass(frozen=True)
class Annulus:
    """Closed ring ``r_inner <= rho <= r_outer`` around ``center``."""

    center: tuple[float, float]
    r_inner: float
    r_outer: float

    def __post_init__(self):
        object.__setattr__(self, "center", _as_point(self.center, "center"))
        if self.r_inner < 0:
            raise DomainError("r_inner: must be >= 0")
        if not self.r_outer > self.r_inner:
            raise EmptyRegion("r_outer: must exceed r_inner")

    def _mask(self, x, y):
        cx, cy = self.center
        rho2 = (x - cx) ** 2 + (y - cy) ** 2
        return (rho2 >= self.r_inner**2) & (rho2 <= self.r_outer**2)

    def _bbox(self):
        cx, cy = self.center
        r = self.r_outer
        return (cx - r, cy - r, cx + r, cy + r)

    def _ray(self, o, c, s):
        # Labels: 0 the inner circle, 1 the outer. The outer disk's interval
        # [start, ohi] loses the open hole (ilo, ihi): what precedes the hole
        # and what follows it.
        px, py = o[0] - self.center[0], o[1] - self.center[1]
        b, d2 = c * px + s * py, px * px + py * py
        perp2 = (c * py - s * px) ** 2
        ro2, ri2 = self.r_outer**2, self.r_inner**2
        olo, ohi = _roots(b, d2 - ro2, ro2 - perp2)
        ilo, ihi = _roots(b, d2 - ri2, ri2 - perp2)
        start = np.maximum(olo, 0.0)
        start_label = np.where(olo > 0, 1, _AT_ORIGIN)
        return _pack(
            [start, np.maximum(start, ihi)],
            [np.minimum(ohi, ilo), ohi],
            [start_label, np.where(ihi > start, 0, start_label)],
            [np.where(ilo < ohi, 0, 1), np.full(ohi.shape, 1)],
        )

    def _directions(self, o):
        return [_direction(o, self.center)]

    def _gap(self, p):
        x, y = _xy(p)
        dist = np.hypot(x - self.center[0], y - self.center[1])
        outside = np.maximum(dist - self.r_outer, 0.0)
        return np.where(dist < self.r_inner, self.r_inner - dist, outside)

    def _reach(self, o):
        dist = math.hypot(o[0] - self.center[0], o[1] - self.center[1])
        return dist + self.r_outer


@dataclass(frozen=True)
class Ellipse:
    """Closed ellipse with semi-axes ``(a_km, b_km)`` rotated by ``rotation_rad``."""

    center: tuple[float, float]
    a_km: float
    b_km: float
    # A scenario document may leave the rotation out.
    rotation_rad: float = field(default=0.0, metadata={"optional": True})

    def __post_init__(self):
        object.__setattr__(self, "center", _as_point(self.center, "center"))
        for name in ("a_km", "b_km"):
            if not getattr(self, name) > 0:
                raise EmptyRegion(f"{name}: must be positive")

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

    def _unit_map(self):
        """M with the ellipse = {p : |M (p - center)| <= 1}."""
        c, s = math.cos(self.rotation_rad), math.sin(self.rotation_rad)
        return np.array([[c, s], [-s, c]]) / np.array([[self.a_km], [self.b_km]])

    def _ray(self, o, c, s):
        m = self._unit_map()
        u0, v0 = m @ (np.asarray(o) - self.center)
        eu = m[0, 0] * c + m[0, 1] * s
        ev = m[1, 0] * c + m[1, 1] * s
        a = eu * eu + ev * ev
        # b^2 - cc = (a - (u0 ev - v0 eu)^2) / a^2 by Lagrange's identity.
        perp = u0 * ev - v0 * eu
        lo, hi = _roots(
            (u0 * eu + v0 * ev) / a,
            (u0 * u0 + v0 * v0 - 1.0) / a,
            (a - perp * perp) / (a * a),
        )
        return _convex_span(lo, hi, 0)

    def _directions(self, o):
        return [_direction(o, self.center)]

    def _gap(self, p):
        # |M (p - center)| - 1 is the gap in unit-disk coordinates, and M
        # stretches no distance by more than 1 / min(a, b).
        x, y = _xy(p)
        dx, dy = x - self.center[0], y - self.center[1]
        m = self._unit_map()
        unit = np.hypot(m[0, 0] * dx + m[0, 1] * dy, m[1, 0] * dx + m[1, 1] * dy)
        return np.maximum(min(self.a_km, self.b_km) * (unit - 1.0), 0.0)

    def _reach(self, o):
        dist = math.hypot(o[0] - self.center[0], o[1] - self.center[1])
        return dist + max(self.a_km, self.b_km)


@dataclass(frozen=True)
class Polygon:
    """Simple polygon with counterclockwise vertices.

    Args:
        vertices: sequence of (x, y) pairs, at least three, listed
            counterclockwise, describing a non-self-intersecting boundary.
    """

    vertices: tuple[tuple[float, float], ...]

    def __post_init__(self):
        vs = tuple(
            _as_point(v, f"vertices[{i}]") for i, v in enumerate(self.vertices)
        )
        object.__setattr__(self, "vertices", vs)
        if len(vs) < 3:
            raise DomainError("vertices: a polygon needs at least 3")
        if any(v == w for v, w in zip(vs, vs[1:] + vs[:1])):
            raise DomainError("vertices: consecutive vertices must differ")
        if self._signed_area() <= 0:
            raise DomainError("vertices: must be counterclockwise")
        if not self._is_simple():
            raise DomainError("vertices: polygon must be non-self-intersecting")

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

    def _ray(self, o, c, s):
        # Crossing number along each ray. Edge i (label i) crosses the ray's
        # line when its ends lie strictly on different sides, a vertex on
        # the line counting as the negative side: a ray through a vertex
        # then crosses once where the boundary passes and zero or two times
        # where it only touches. An odd count of crossings at r > 0 puts
        # the origin inside, and the intervals start at r = 0.
        v = np.asarray(self.vertices) - o
        w = np.roll(v, -1, axis=0)
        side = c[:, None] * v[:, 1] - s[:, None] * v[:, 0]
        side_next = c[:, None] * w[:, 1] - s[:, None] * w[:, 0]
        with np.errstate(divide="ignore", invalid="ignore"):
            t = side / (side - side_next)
            r = c[:, None] * (v[:, 0] + t * (w[:, 0] - v[:, 0])) + s[:, None] * (
                v[:, 1] + t * (w[:, 1] - v[:, 1])
            )
        r = np.where(((side > 0) != (side_next > 0)) & (r > 0), r, np.inf)
        label = np.argsort(r, axis=1, kind="stable")
        r = np.take_along_axis(r, label, axis=1)
        inside = np.isfinite(r).sum(axis=1) % 2 == 1
        nv = len(self.vertices)
        ends = np.full((len(c), 2 * ((nv + 2) // 2)), np.inf)
        labels = np.full(ends.shape, _EMPTY)
        ends[inside, 0], labels[inside, 0] = 0.0, _AT_ORIGIN
        ends[inside, 1 : nv + 1], labels[inside, 1 : nv + 1] = r[inside], label[inside]
        ends[~inside, :nv], labels[~inside, :nv] = r[~inside], label[~inside]
        return _pack(
            [ends[:, 0::2]], [ends[:, 1::2]], [labels[:, 0::2]], [labels[:, 1::2]]
        )

    def _directions(self, o):
        return [_direction(o, v) for v in self.vertices]

    def _gap(self, p):
        x, y = _xy(p)
        vs = self.vertices
        best = np.inf
        for (x0, y0), (x1, y1) in zip(vs, vs[1:] + vs[:1]):
            dx, dy = x1 - x0, y1 - y0
            t = np.clip(((x - x0) * dx + (y - y0) * dy) / (dx * dx + dy * dy), 0.0, 1.0)
            best = np.minimum(best, np.hypot(x - x0 - t * dx, y - y0 - t * dy))
        return np.where(self._mask(x, y), 0.0, best)

    def _reach(self, o):
        return max(math.hypot(x - o[0], y - o[1]) for x, y in self.vertices)


@dataclass(frozen=True)
class Intersection:
    """Intersection of a non-empty list of regions."""

    parts: tuple[Region, ...]

    def __post_init__(self):
        parts = tuple(self.parts)
        if not parts:
            raise DomainError("parts: an intersection needs at least one region")
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

    def _ray(self, o, c, s):
        out = None
        k = len(self.parts)
        for i, part in enumerate(self.parts):
            lo, hi, llo, lhi = part._ray(o, c, s)
            # Piece j of part i becomes j k + i: distinct across parts.
            llo = np.where(llo >= 0, llo * k + i, llo)
            lhi = np.where(lhi >= 0, lhi * k + i, lhi)
            out = (lo, hi, llo, lhi) if out is None else _meet(out, (lo, hi, llo, lhi))
        return out

    def _directions(self, o):
        return [d for p in self.parts for d in p._directions(o)]

    def _gap(self, p):
        return np.maximum.reduce([part._gap(p) for part in self.parts])

    def _reach(self, o):
        return min(p._reach(o) for p in self.parts)


Region = Disk | Polygon | Ellipse | Annulus | Intersection


@dataclass(frozen=True)
class UeDensity:
    """User position density over a region.

    kind "uniform" is constant over the region. kind "inverse_radial"
    falls off as 1/distance from ``origin``, which only that kind takes
    and which may lie anywhere, inside the region too: 1/rho cancels the
    polar Jacobian, so the density stays integrable. The normalization
    constant is always computed from the region, never user-supplied.
    """

    kind: str
    origin: tuple[float, float] | None = None

    def __post_init__(self):
        if self.kind not in ("uniform", "inverse_radial"):
            raise DomainError(f"kind: unknown density kind {self.kind!r}")
        if self.kind == "inverse_radial":
            if self.origin is None:
                raise DomainError("origin: inverse_radial density requires one")
            object.__setattr__(self, "origin", _as_point(self.origin, "origin"))
        elif self.origin is not None:
            raise DomainError("origin: only applies to inverse_radial")


def bounding_box(region: Region) -> tuple[float, float, float, float]:
    """Axis-aligned (xmin, ymin, xmax, ymax) containing the region."""
    return region._bbox()


def effective_region(region: Region, bs, d_min: float) -> Region:
    """Remove the open disk of radius ``d_min`` around ``bs``.

    The returned region is what density normalization, integration, and
    sampling all operate on, so a minimum distance to the base station is
    enforced once, geometrically: a disk centred on ``bs`` becomes the
    annulus d_min <= rho <= radius, and any other region is intersected
    with the annulus from d_min to the farthest bounding-box corner.

    Args:
        region: raw coverage region.
        bs: base-station position (x, y).
        d_min: exclusion radius in km, > 0.

    Returns:
        The restricted region.

    Raises:
        EmptyRegion: if the region lies within d_min of ``bs``, judged by
            the farthest bounding-box corner and by the region's reach
            (its distance upper bound from ``bs``).
    """
    bs = _as_point(bs, "bs")
    xmin, ymin, xmax, ymax = bounding_box(region)
    corners = ((xmin, ymin), (xmin, ymax), (xmax, ymin), (xmax, ymax))
    far = max(math.hypot(cx - bs[0], cy - bs[1]) for cx, cy in corners)
    if min(far, region._reach(bs)) <= d_min:
        raise EmptyRegion("exclusion disk covers the whole region")
    if isinstance(region, Disk) and region.center == bs:
        return Annulus(bs, d_min, region.radius_km)
    return Intersection((region, Annulus(bs, d_min, far)))


def _first_annulus(region):
    if isinstance(region, Annulus):
        return region
    if isinstance(region, Intersection):
        for part in region.parts:
            found = _first_annulus(part)
            if found is not None:
                return found
    return None


def _polar_origin(region: Region, density: UeDensity) -> tuple[float, float]:
    """The polar origin of the quadrature (see the module docstring)."""
    if density.kind == "inverse_radial":
        return density.origin
    carve = _first_annulus(region)
    if carve is not None:
        return carve.center
    xmin, ymin, xmax, ymax = bounding_box(region)
    return (0.5 * (xmin + xmax), 0.5 * (ymin + ymax))


def _labels(region, origin, theta):
    """Per-ray endpoint labels: equal rows share their boundary pieces."""
    _, _, llo, lhi = region._ray(origin, np.cos(theta), np.sin(theta))
    return np.concatenate((llo, lhi), axis=1)


def _sorted_unique(a: np.ndarray) -> np.ndarray:
    """np.unique of a 1-D array without NaN, minus its import of numpy.ma."""
    a = np.sort(a)
    return a[np.append(True, a[1:] != a[:-1])]


def _panels(region: Region, origin) -> np.ndarray:
    """(P, 2) theta panels, consecutive around the circle, cut at label changes.

    Every neighbouring pair of scan angles whose labels differ is a bracket.
    A round of the search cuts each bracket into 16 equal sub-brackets by
    nested halving and labels their 15 interior points in one _labels
    call. The first _SPLIT_ROUNDS rounds keep every sub-bracket whose end
    labels differ; later rounds keep the one that bisection on the lower
    label would reach. The points are the floats that bisection would
    visit, so a bracket that holds one change ends at bisection's final
    bracket, bit for bit, and changes more than about 1e-6 rad apart each
    end a bracket of their own. A panel break is the upper end of a final
    bracket.

    Raises:
        EmptyRegion: if no scan ray meets the region.
    """
    two_pi = 2.0 * math.pi
    fan = two_pi * np.arange(_SCAN) / _SCAN
    scan = _sorted_unique(
        np.concatenate((fan, np.mod(region._directions(origin), two_pi)))
    )
    # Midpoints too, so each gap between special directions has a sample.
    mids = scan + 0.5 * np.diff(scan, append=scan[0] + two_pi)
    scan = _sorted_unique(np.mod(np.concatenate((scan, mids)), two_pi))
    labels = _labels(region, origin, scan)
    if (labels == _EMPTY).all():
        raise EmptyRegion("no ray from the polar origin meets the region")
    after = np.roll(labels, -1, axis=0)
    changed = (labels != after).any(axis=1)
    if not changed.any():
        return np.array([[0.0, two_pi]])
    lo = scan[changed]
    hi = np.append(scan[1:], scan[0] + two_pi)[changed]
    lo_labels, hi_labels = labels[changed], after[changed]
    for round_ in range(_ROUNDS):
        ends = np.empty((len(lo), _WAYS + 1))
        ends[:, 0], ends[:, -1] = lo, hi
        step = _WAYS // 2
        while step:
            ends[:, step::2 * step] = 0.5 * (
                ends[:, : -step : 2 * step] + ends[:, 2 * step :: 2 * step]
            )
            step //= 2
        inner = _labels(region, origin, ends[:, 1:-1].ravel())
        lab = np.concatenate(
            (
                lo_labels[:, None],
                inner.reshape(len(lo), _WAYS - 1, -1),
                hi_labels[:, None],
            ),
            axis=1,
        )
        if round_ < _SPLIT_ROUNDS:
            row, k = np.nonzero((lab[:, 1:] != lab[:, :-1]).any(axis=2))
        else:
            # Bisection's path: step right while the point keeps the lower label.
            same = (lab == lab[:, :1]).all(axis=2)
            row, k = np.arange(len(lo)), np.zeros(len(lo), dtype=np.intp)
            step = _WAYS // 2
            while step:
                k += step * same[row, k + step]
                step //= 2
        lo, hi = ends[row, k], ends[row, k + 1]
        lo_labels, hi_labels = lab[row, k], lab[row, k + 1]
    breaks = np.sort(np.mod(hi, two_pi))
    return np.column_stack((breaks, np.append(breaks[1:], breaks[0] + two_pi)))


def _composite(pieces):
    """Composite 16-point Gauss-Legendre rule on [0, 1] with equal pieces."""
    # Imported here, so that simulate, which never integrates, does not load it.
    from .gauss import gauss_rule

    x, w = gauss_rule("legendre", 16)
    s = ((np.arange(pieces)[:, None] + 0.5 * (x + 1.0)) / pieces).ravel()
    return s, np.tile(w, pieces) / (2.0 * pieces)


def _level(region, density, origin, field, panels, pieces):
    """One rule level: ``pieces`` pieces in s on each panel and in each interval.

    Returns (sums, scales, weights, values, panel ids). sums[q] holds each
    panel's integral of kernel * field**q for q < 3, and scales[q] that of
    kernel * |field|**q; weights, values and ids describe the nodes.
    """
    s, ws = _composite(pieces)
    start, width = panels[:, :1], panels[:, 1:] - panels[:, :1]
    theta = (start + width * (s * s * (3.0 - 2.0 * s))).ravel()
    wtheta = (width * (6.0 * s * (1.0 - s) * ws)).ravel()
    panel_of = np.repeat(np.arange(len(panels)), s.size)

    c, sn = np.cos(theta), np.sin(theta)
    lo, hi, _, _ = region._ray(origin, c, sn)
    row, col = np.nonzero(lo < hi)
    lo, length = lo[row, col, None], hi[row, col, None] - lo[row, col, None]
    r = lo + length * s
    w = length * ws * wtheta[row, None]
    if density.kind == "uniform":
        w = w * r
    pts = np.column_stack(
        (
            (origin[0] + r * c[row, None]).ravel(),
            (origin[1] + r * sn[row, None]).ravel(),
        )
    )
    w = w.ravel()
    ids = np.repeat(panel_of[row], s.size)

    count = len(panels)
    sums = [np.bincount(ids, w, count)]
    scales = [sums[0]]
    v = np.asarray(field(pts)) if w.size else np.zeros(0)
    if v.shape != w.shape:
        raise DomainError(
            f"integrand returned shape {v.shape} for {w.size} points; "
            "it must be vectorized over an (n, 2) block"
        )
    term = w
    for _ in range(2):
        term = term * v
        sums.append(np.bincount(ids, term, count))
        scales.append(np.bincount(ids, np.abs(term), count))
    return np.array(sums), np.array(scales), w, v, ids


def _integrate(region, density, field):
    """The panel quadrature of density_profile.

    Returns (mass, moments, nodes). mass is the plain integral of the
    density kernel. The field maps an (n, 2) block of points to n values
    and is evaluated once per node of each level; its first two powers
    are tracked with the mass, moments holds their density averages, and
    nodes is (kernel weights, field values) of every panel's accepted
    level.
    """
    origin = _polar_origin(region, density)
    panels = _panels(region, origin)
    npan = len(panels)
    best, best_scale, *_ = _level(region, density, origin, field, panels, 1)
    active = np.arange(npan)
    prev = best.copy()
    kept = []
    pieces = 1
    while active.size:
        pieces *= 2
        if pieces > _MAX_PIECES:
            raise QuadratureFailure(
                f"{active.size} of {npan} theta panels still changing at "
                f"{16 * _MAX_PIECES} nodes; last relative change {rel:.3e}"
            )
        cur, scale, w, v, ids = _level(
            region, density, origin, field, panels[active], pieces
        )
        best[:, active], best_scale[:, active] = cur, scale
        total = best_scale.sum(axis=1, keepdims=True)
        change = np.abs(cur - prev)
        done = (change <= _REL_TOL * total / npan).all(axis=0)
        rel = float((change * npan / np.maximum(total, 1e-300)).max())
        keep = done[ids]
        kept.append((w[keep], v[keep]))
        active, prev = active[~done], cur[:, ~done]
    sums = best.sum(axis=1)
    mass = sums[0]
    if not mass > 0:
        raise EmptyRegion("region carries no mass under the density")
    nodes = tuple(np.concatenate(x) for x in zip(*kept))
    return mass, sums[1:] / mass, nodes


def ue_domain(region: Region, serving_bs, victim_bs, d_min: float) -> Region:
    """Region where users may actually sit: d_min away from both stations.

    The serving-station carve follows from the minimum-distance rule; the
    victim-station carve keeps every admissible position inside the domain
    of the deterministic coupling gain, which requires distance d_min from
    both stations. Normalization, integration, and sampling all use this
    same region so they agree.
    """
    eff = effective_region(region, serving_bs, d_min)
    if _as_point(serving_bs, "serving_bs") == _as_point(victim_bs, "victim_bs"):
        return eff
    return effective_region(eff, victim_bs, d_min)


def density_profile(region: Region, density: UeDensity, value_fn):
    """Law of a scalar field under the density, plus its moments.

    Runs the panel quadrature on the field's first two moments, evaluating
    the field once per node of each level visited. The law is discrete:
    its atoms are the field values at the nodes of every panel's accepted
    level, kept from that same pass, and its probabilities their
    normalized quadrature weights.

    Args:
        region: effective region.
        density: user density over the region.
        value_fn: vectorized (n, 2) points -> (n,) field values.

    Returns:
        (mean, variance, weights, values); weights sums to 1.

    Raises:
        DomainError: if value_fn returns any shape other than (n,).
        QuadratureFailure, EmptyRegion: if a theta panel does not settle
            or no ray from the polar origin meets the region. Exceptions
            value_fn raises propagate unchanged.
    """
    _, (mean, m2), (w, v) = _integrate(region, density, value_fn)
    return mean, max(m2 - mean * mean, 0.0), w / w.sum(), v


def rejection_envelope(region: Region, density: UeDensity):
    """The rejection sampler's envelope: a tile table (corners, size).

    ``corners`` is a (K, 2) array of lower tile corners and ``size`` the
    (2,) size every tile shares, in proposal coordinates; the envelope is
    the union of the tiles, and its kernel mass is K size[0] size[1].

    For a uniform density the coordinates are (x, y). The bounding box is
    cut into a fixed _TILES x _TILES grid, and a tile is kept when the
    region's distance lower bound ``_gap`` at its centre is at most its
    half-diagonal plus a rounding slack: a tile that meets the region has
    a region point within its half-diagonal of the centre, so the kept
    tiles cover the region and the proposal stays exactly uniform on it.

    For an inverse_radial density the coordinates are (rho, theta) around
    the density origin, and the table holds one tile, the polar box
    [floor, reach] x [0, 2 pi). The kernel 1/rho cancels the polar
    Jacobian, so a proposal uniform on it has exactly the density's law
    before the region test. The floor is the ``_gap`` lower bound on the
    distance from the origin to the region: exact for disks, annuli and
    polygons, min(a, b) times the gap in unit-disk coordinates for
    ellipses, and the largest bound of the parts for intersections. The
    reach is an upper bound: the center distance plus the radius, r_outer
    or max(a, b) for disks, annuli and ellipses, the largest vertex
    distance for polygons, and the smallest bound of the parts for
    intersections. The floor is 0 when the origin lies in the region; the
    box then starts at the origin and still has the 1/rho law.
    """
    if density.kind == "inverse_radial":
        floor = float(region._gap(density.origin))
        reach = region._reach(density.origin)
        return np.array([[floor, 0.0]]), np.array([reach - floor, 2.0 * math.pi])
    xmin, ymin, xmax, ymax = bounding_box(region)
    size = np.array([xmax - xmin, ymax - ymin]) / _TILES
    ix, iy = np.divmod(np.arange(_TILES * _TILES), _TILES)
    corners = np.column_stack((xmin + ix * size[0], ymin + iy * size[1]))
    half = 0.5 * math.hypot(size[0], size[1])
    # The centres' rounding error scales with the coordinates, which can be
    # far larger than a tile (a 1e-9 km disk 0.03 km from the origin).
    slack = 1e-12 * (half + max(abs(xmin), abs(ymin), abs(xmax), abs(ymax)))
    keep = region._gap(corners + 0.5 * size) <= half + slack
    return corners[keep], size


def _half_angle_cos_sin(half, out):
    """cos and sin of the angles 2 * half, in place on two float arrays.

    With t = tan(half), cos = (1 - t^2) / (1 + t^2) = w - 1 and
    sin = 2 t / (1 + t^2) = t w, where w = 2 / (1 + t^2). numpy 2.4 on
    x86-64 vectorizes float64 tan but runs cos and sin as scalar calls,
    which take about 7 times as long. The error is at most about 3.4e-16
    absolute, against 0.6e-16 for np.cos. No float half angle reaches the
    pole of tan, so t^2 stays finite: at the float nearest pi / 2,
    t = 1.6e16 and the result is (-1, 1.2e-16). ``half`` becomes the sines
    and ``out``, of the same shape, the cosines. Returns (cos, sin).
    """
    np.tan(half, out=half)
    np.multiply(half, half, out=out)
    out += 1.0
    np.divide(2.0, out, out=out)
    half *= out
    out -= 1.0
    return out, half


def proposal_block(region: Region, density: UeDensity, corners, size, u):
    """Map columns 0 and 1 of a block of uniforms to proposals and their acceptance.

    ``corners`` and ``size`` are the tile table of rejection_envelope, with
    K tiles. Row i picks tile j = floor(u[i, 0] K), clamped to K - 1, and
    the offset (frac(u[i, 0] K), u[i, 1]) times ``size`` inside it, in the
    envelope's coordinates; a polar proposal (rho, theta) is then turned
    into the point origin + rho (cos theta, sin theta), with cos and sin
    from tan(theta / 2), where theta / 2 lies in [0, pi)
    (_half_angle_cos_sin). It is accepted when the point lies in the
    region; nothing else is tested, so each proposal reads exactly 2
    variates. Returns (points, accepted mask); the (n, 2) points are the
    transpose of a (2, n) array, so each coordinate column is contiguous.
    """
    corners = np.asarray(corners, dtype=float)
    size = np.asarray(size, dtype=float)
    k = len(corners)
    # Every step runs in place on the contiguous rows x and y of q.
    q = np.empty((2, len(u)))
    x, y = q
    t = np.multiply(u[:, 0], k, out=x)
    j = t.astype(np.intp)
    np.minimum(j, k - 1, out=j)
    t -= j
    t *= size[0]
    # j is in [0, K - 1] already, so "clip" changes no index; it only skips
    # the bounds check and the buffered write of the default mode.
    tmp = np.empty(len(u))
    x += corners[:, 0].take(j, out=tmp, mode="clip")
    np.multiply(u[:, 1], size[1], out=y)
    y += corners[:, 1].take(j, out=tmp, mode="clip")
    if density.kind == "inverse_radial":
        rho, theta = x, y
        ox, oy = density.origin
        theta *= 0.5
        cos, sin = _half_angle_cos_sin(theta, tmp)
        sin *= rho
        sin += oy
        cos *= rho
        np.add(cos, ox, out=rho)
    # The region test holds its own temporaries; free the indices first.
    del j, tmp
    return q.T, region._mask(x, y)
