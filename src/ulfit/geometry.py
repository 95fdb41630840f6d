"""Planar regions, user densities, quadrature, and rejection proposals.

Coverage areas are built from a small set of primitives (disk, polygon,
ellipse, annulus) plus intersection. A primitive defines only its
validation, its membership test (_mask, vectorized over arrays of
points) and its boundary pieces. Every primitive builds its pieces once,
at construction, and keeps them as _pieces = (conics, edges): conics
(c, M, size, big, M^-1), the curve |M (p - c)| = 1 with least and
largest semi-axes size and big, and M^-1 in closed form, and polygon
edges (a, b), the segments a[i] -> b[i]. It also keeps the box of its
pieces. An intersection keeps only its parts. Every other question
walks the region's primitives (_leaves) and reads these same tuples,
for any shape and nesting: the bounding box, the distance bounds _gap
(lower) and _reach (upper), the polar origin, and every crossing of a
line with the boundary (_line_cuts).

For sampling, this module provides the rejection step's envelope and the
accept test of a block of proposals, which is region membership alone;
montecarlo._positions_slice draws the proposals from counter-based
streams. The envelope is a table of equal tiles, and each proposal reads
2 uniforms: the first picks a tile and the offset along its first axis,
the second the offset along the other. For a uniform density the tiles
are the cells of a fixed 64 x 64 grid over the bounding box that _gap at
their centres cannot rule out. For an inverse_radial density there is
one tile, a (rho, theta) box [_gap, _reach] x [0, 2 pi) around the
density origin; since the kernel 1/rho cancels the polar Jacobian, that
proposal already has the density's law.

Integration against a user density is polar. Each ray from the polar
origin is cut at the origin and where it crosses a piece, and the
stretches between consecutive cuts whose midpoints lie in the region
are its exact radial intervals. The origin is the density's own for
"inverse_radial", and for "uniform" the center of the first annulus leaf
(the bounding-box center if none): in a ue_domain region the serving
carve, which a station d_min or more outside its region does not have.

In theta the circle is cut into panels at the event angles, where an
interval endpoint changes the boundary piece that defines it. The events,
in closed form, are the polygon vertices, the tangents from the origin to
each conic, the crossings of conics of different primitives, and the
points where a polygon edge crosses a piece of another primitive. Two
conics that trace one curve have no crossing, which their quartic
decides (_conic_crossings). Inside a panel the integrand is smooth in
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
# Relative tolerance of a panel break's point and angle (_panels).
_EVENT_TOL = 1e-12
# Tiles per side of a uniform cell's rejection envelope (rejection_envelope).
_TILES = 64


def _as_point(p, name: str = "point") -> tuple[float, float]:
    x, y = float(p[0]), float(p[1])
    if not (math.isfinite(x) and math.isfinite(y)):
        raise DomainError(f"{name}: coordinates must be finite")
    return (x, y)


def _roots(b, cc, disc):
    """Ordered roots of r^2 + 2 b r + cc = 0, (inf, inf) where none are real.

    ``disc`` is the quarter discriminant b^2 - cc, which the caller forms
    without cancellation: where a line p + r v meets a conic
    |M (x - c)| = 1, with u = M (p - c) and w = M v, Lagrange's identity
    gives it as 1 / |w|^2 - ((u x w) / |w|^2)^2, which takes no fourth
    power of |w|. A double root, a tangent line, counts as no crossing.
    The larger root in magnitude is formed first so the other avoids
    cancellation.
    """
    hit = disc > 0
    q = -(b + np.copysign(np.sqrt(np.where(hit, disc, 0.0)), b))
    with np.errstate(divide="ignore", invalid="ignore"):
        other = cc / q
    lo = np.where(hit, np.minimum(q, other), np.inf)
    hi = np.where(hit, np.maximum(q, other), np.inf)
    return lo, hi


def _circle(center, radius):
    """A circle as a conic piece."""
    eye = np.eye(2)
    return (np.asarray(center), eye / radius, radius, radius, eye * radius)


def _keep(primitive, conics=(), edges=()):
    """Keep a primitive's pieces, as (conics, polygon edges), and their box.

    A conic c + M^-1 e, |e| = 1, spans c_i +- |row i of M^-1| on axis i,
    and a polygon its vertices.
    """
    ends = [v for a, _ in edges for v in a.tolist()]
    for (cx, cy), *_, back in conics:
        ex, ey = (math.hypot(*row) for row in back.tolist())
        ends += [(cx - ex, cy - ey), (cx + ex, cy + ey)]
    xs, ys = zip(*ends)
    box = (min(xs), min(ys), max(xs), max(ys))
    object.__setattr__(primitive, "_box", box)
    object.__setattr__(primitive, "_pieces", (tuple(conics), tuple(edges)))


def _leaves(region):
    """The primitives a region intersects, in part order; a primitive is its own."""
    if isinstance(region, Intersection):
        return tuple(leaf for part in region.parts for leaf in _leaves(part))
    return (region,)


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
        _keep(self, [_circle(self.center, self.radius_km)])

    def _mask(self, x, y):
        cx, cy = self.center
        return (x - cx) ** 2 + (y - cy) ** 2 <= self.radius_km**2


@dataclass(frozen=True)
class Annulus:
    """Closed ring ``r_inner <= rho <= r_outer`` around ``center``; ``r_inner``
    is 0 or above 1e-150, so that the hole's map I / r_inner squares to a
    finite float."""

    center: tuple[float, float]
    r_inner: float
    r_outer: float

    def __post_init__(self):
        object.__setattr__(self, "center", _as_point(self.center, "center"))
        if not (self.r_inner == 0 or self.r_inner > 1e-150):
            raise DomainError("r_inner: must be 0 or above 1e-150")
        if not self.r_outer > self.r_inner:
            raise EmptyRegion("r_outer: must exceed r_inner")
        radii = (self.r_inner, self.r_outer) if self.r_inner > 0 else (self.r_outer,)
        _keep(self, [_circle(self.center, r) for r in radii])

    def _mask(self, x, y):
        cx, cy = self.center
        rho2 = (x - cx) ** 2 + (y - cy) ** 2
        return (rho2 >= self.r_inner**2) & (rho2 <= self.r_outer**2)


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
        a, b = self.a_km, self.b_km
        c, s = math.cos(self.rotation_rad), math.sin(self.rotation_rad)
        m = np.array([[c, s], [-s, c]]) / np.array([[a], [b]])
        back = np.array([[a * c, -b * s], [a * s, b * c]])
        _keep(self, [(np.asarray(self.center), m, *sorted((a, b)), back)])

    def _mask(self, x, y):
        # |M (p - c)| <= 1, with the M of the kept conic piece.
        cx, cy = self.center
        (m00, m01), (m10, m11) = self._pieces[0][0][1].tolist()
        dx, dy = x - cx, y - cy
        u = m00 * dx + m01 * dy
        v = m10 * dx + m11 * dy
        return u * u + v * v <= 1.0


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
        a = np.asarray(vs)
        b = np.roll(a, -1, axis=0)
        if (a == b).all(axis=1).any():
            raise DomainError("vertices: consecutive vertices must differ")
        # Twice the signed area.
        if _cross(a, b).sum() <= 0:
            raise DomainError("vertices: must be counterclockwise")
        # No two edges cross properly, each with its ends strictly on both
        # sides of the other's line. Edges that share a vertex never do: the
        # shared end's side is exactly 0.
        ends = np.stack((a, b), axis=1)
        side = _cross((b - a)[:, None, None], ends - a[:, None, None])
        straddles = side[..., 0] * side[..., 1] < 0
        if (straddles & straddles.T).any():
            raise DomainError("vertices: polygon must be non-self-intersecting")
        _keep(self, edges=[(a, b)])

    def _mask(self, x, y):
        # Crossing-number test over the kept edges, vectorized over flat
        # coordinate arrays.
        inside = np.zeros(np.shape(x), dtype=bool)
        a, b = self._pieces[1][0]
        for (x0, y0), (x1, y1) in zip(a.tolist(), b.tolist()):
            cond = (y0 > y) != (y1 > y)
            with np.errstate(divide="ignore", invalid="ignore"):
                xin = x0 + (y - y0) * (x1 - x0) / (y1 - y0)
            inside ^= cond & (x < xin)
        return inside


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
    """Axis-aligned (xmin, ymin, xmax, ymax) containing the region.

    It is the common part of the boxes its leaves keep (_keep),
    EmptyRegion if they are disjoint.
    """
    xmin, ymin, xmax, ymax = zip(*(leaf._box for leaf in _leaves(region)))
    box = (max(xmin), max(ymin), min(xmax), min(ymax))
    if not (box[0] < box[2] and box[1] < box[3]):
        raise EmptyRegion("intersection bounding boxes are disjoint")
    return box


def effective_region(region: Region, bs, d_min: float) -> Region:
    """Remove the open disk of radius ``d_min`` around ``bs``.

    The returned region is what density normalization, integration, and
    sampling all operate on, so a minimum distance to the base station is
    enforced once: a disk centred on ``bs`` becomes the annulus d_min <= rho
    <= radius, a region the disk misses (_gap >= d_min) is kept, and any
    other is cut by the annulus from d_min to the farthest box corner.

    Args:
        region: raw coverage region.
        bs: base-station position (x, y).
        d_min: exclusion radius in km, > 0.

    Returns:
        The restricted region, ``region`` itself when nothing is carved.

    Raises:
        EmptyRegion: if the region lies within d_min of ``bs``, judged by
            the farthest bounding-box corner and by the region's reach
            (its distance upper bound from ``bs``).
    """
    bs = _as_point(bs, "bs")
    xmin, ymin, xmax, ymax = bounding_box(region)
    corners = ((xmin, ymin), (xmin, ymax), (xmax, ymin), (xmax, ymax))
    far = max(math.hypot(cx - bs[0], cy - bs[1]) for cx, cy in corners)
    if min(far, _reach(region, bs)) <= d_min:
        raise EmptyRegion("exclusion disk covers the whole region")
    # One circle fewer than the intersection, in every ray clip, panel
    # search and sampler mask: hotspot cells are such disks.
    if isinstance(region, Disk) and region.center == bs:
        return Annulus(bs, d_min, region.radius_km)
    if _gap(region, bs) >= d_min:
        return region
    return Intersection((region, Annulus(bs, d_min, far)))


def _gap(region: Region, p):
    """Distance lower bound from a point (2,) or points (n, 2) to a region.

    It is the largest bound of the leaves. A leaf's is 0 inside it and
    otherwise the least over its pieces: _off for a conic, the exact
    distance for a polygon edge. So it is exact for disks, annuli and
    polygons, and for ellipses min(a, b) times the distance in unit-disk
    coordinates.
    """
    p = np.asarray(p, dtype=float)
    gaps = []
    for leaf in _leaves(region):
        conics, polygons = leaf._pieces
        near = [_off(conic, p) for conic in conics]
        for a, b in polygons:
            d, q = b - a, p[..., None, :] - a
            t = np.clip((q * d).sum(axis=-1) / (d * d).sum(axis=-1), 0.0, 1.0)
            near.append(np.hypot(*_xy(q - t[..., None] * d)).min(axis=-1))
        gaps.append(np.where(leaf._mask(*_xy(p)), 0.0, np.minimum.reduce(near)))
    return np.maximum.reduce(gaps)


def _reach(region: Region, o) -> float:
    """Distance upper bound from the point o to a region.

    It is the least bound of the leaves. A leaf's is its farthest piece: a
    conic's centre distance plus its largest semi-axis, or a polygon's
    farthest vertex.
    """
    reach = []
    for leaf in _leaves(region):
        conics, polygons = leaf._pieces
        far = [math.hypot(*(o - c)) + big for c, _, _, big, _ in conics]
        far += [math.hypot(x - o[0], y - o[1]) for a, _ in polygons for x, y in a]
        reach.append(max(far))
    return min(reach)


def _polar_origin(region: Region, density: UeDensity) -> tuple[float, float]:
    """Polar origin: the density's own, the first Annulus leaf's, or the box centre."""
    if density.kind == "inverse_radial":
        return density.origin
    for leaf in _leaves(region):
        if isinstance(leaf, Annulus):
            return leaf.center
    xmin, ymin, xmax, ymax = bounding_box(region)
    return (0.5 * (xmin + xmax), 0.5 * (ymin + ymax))


def _cross(u, v):
    """z-component of u x v over the last axis."""
    return u[..., 0] * v[..., 1] - u[..., 1] * v[..., 0]


def _off(conic, p):
    """Distance lower bound from a point (2,) or points (n, 2) to a conic's curve.

    ||M (p - c)| - 1| is the distance in unit-disk coordinates, and M
    stretches no distance by more than 1 / size.
    """
    c, m, size, *_ = conic
    return size * np.abs(np.hypot(*(m @ (p - c).T)) - 1.0)


def _tangents(conic, o):
    """The two tangent rays from o to a conic: (directions, touch points).

    With u = M (o - c), d^2 = |u|^2 and J the quarter turn, they leave along
    M^-1 (-sqrt(d^2 - 1) u +- J u) and touch at c + M^-1 (u +- sqrt(d^2 - 1)
    J u) / d^2; at d = 1, o on the curve, they are the tangent line at o.
    For d < 1 the "touch points" lie off the curve, at 1 / d.
    """
    c, m, *_, back = conic
    u = m @ (o - c)
    d2 = u @ u
    s = math.sqrt(max(d2 - 1.0, 0.0))
    ju = np.array([-u[1], u[0]])
    sign = np.array([[1.0], [-1.0]])
    with np.errstate(divide="ignore", invalid="ignore"):
        touch = c + (u + sign * s * ju) @ back.T / d2
    return (sign * ju - s * u) @ back.T, touch


def _conic_crossings(a, b):
    """Candidate points where conic a's curve meets conic b's.

    On a's curve p = c_a + M_a^-1 e(phi), e = (cos phi, sin phi), b's
    equation |w + K e|^2 = 1, with w = M_b (c_a - c_b) and K = M_b M_a^-1,
    is a quartic in tau = tan(phi / 2). Newton steps in phi polish its
    roots and phi = pi (tau = inf); the real part of a complex root may
    come back off b's curve, for the caller to drop. When all five
    coefficients vanish to _EVENT_TOL of the terms they are formed from,
    every point of a's curve lies on b's: the pair traces one curve, and
    there is no crossing.
    """
    ca, *_, back = a
    cb, mb, *_ = b
    k, w = mb @ back, mb @ (ca - cb)
    g, h = k.T @ k, 2.0 * (k.T @ w)
    # |w + K e|^2 - 1 = a0 + h . e + a2 cos 2 phi + g01 sin 2 phi.
    a0 = w @ w + (0.5 * (g[0, 0] + g[1, 1]) - 1.0)
    a2 = 0.5 * (g[0, 0] - g[1, 1])
    c4, c2, c0 = a0 - h[0] + a2, 2.0 * a0 - 6.0 * a2, a0 + h[0] + a2
    c3, c1 = 2.0 * h[1] - 4.0 * g[0, 1], 2.0 * h[1] + 4.0 * g[0, 1]
    coeffs = np.array([c4, c3, c2, c1, c0])
    terms = w @ w + 1.0 + g[0, 0] + g[1, 1] + np.abs(h).sum() + abs(g[0, 1])
    if (np.abs(coeffs) <= _EVENT_TOL * terms).all():
        return np.empty((0, 2))
    tau = np.roots(coeffs)
    phi = start = np.append(2.0 * np.arctan(tau.real), math.pi)
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(8):
            e = np.array([np.cos(phi), np.sin(phi)])
            q = w[:, None] + k @ e
            slope = 2.0 * (q * (k @ np.array([-e[1], e[0]]))).sum(axis=0)
            phi = phi - ((q * q).sum(axis=0) - 1.0) / slope
        # A start that moved far has left its root, or had none to polish.
        phi = phi[np.abs(phi - start) <= 1e-6]
        return ca + np.column_stack((np.cos(phi), np.sin(phi))) @ back.T


def _conic_line(conic, p, v):
    """Ordered parameters t where the lines p + t v cross a conic's curve."""
    c, m, *_ = conic
    (ux, uy), (wx, wy) = _xy((p - c) @ m.T), _xy(v @ m.T)
    ww = wx * wx + wy * wy
    # |u + t w|^2 = 1, its quarter discriminant by Lagrange's identity.
    return _roots(
        (ux * wx + uy * wy) / ww,
        (ux * ux + uy * uy - 1.0) / ww,
        1.0 / ww - ((ux * wy - uy * wx) / ww) ** 2,
    )


def _line_cuts(leaves, p, v):
    """Parameters t where the lines p + t v cross the given primitives' pieces.

    ``v`` is (n, 2) and ``p`` one point (2,) or one per line (n, 2).
    Returns (n, m): per primitive, two columns per conic (_conic_line) and
    one per polygon edge, inf where a line misses the piece. An edge is
    solved from its ends' sides of the line. Edges that meet at a vertex
    share its side, so a line through a vertex cannot slip between them;
    an edge parallel to the line gives no crossing.
    """
    cuts = []
    q = np.asarray(p)[..., None, :]
    for leaf in leaves:
        conics, polygons = leaf._pieces
        cuts += [t for conic in conics for t in _conic_line(conic, p, v)]
        for a, b in polygons:
            sa, sb = _cross(v[:, None], a - q), _cross(v[:, None], b - q)
            with np.errstate(divide="ignore", invalid="ignore"):
                s, t = sa / (sa - sb), _cross(a - q, b - a) / (sb - sa)
            cuts.append(np.where((s >= 0.0) & (s <= 1.0), t, np.inf))
    return np.column_stack(cuts) if cuts else np.empty((len(v), 0))


def _clip(region, o, c, s):
    """Radial intervals that the rays o + r (c, s), r >= 0, cut from a region.

    Each ray is cut at r = 0 and where it crosses one of the region's
    pieces (_line_cuts), crossings behind o counting as 0. A cut lies on a
    piece's curve, never in the region's interior, so each stretch between
    consecutive cuts lies wholly inside or wholly outside the region, and
    its midpoint tells which. Returns (ray, lo, hi) of the stretches
    inside, by ray and then by r.
    """
    o, ray = np.asarray(o, dtype=float), np.column_stack((c, s))
    cuts = np.column_stack((np.zeros_like(c), _line_cuts(_leaves(region), o, ray)))
    cuts = np.sort(np.maximum(cuts, 0.0), axis=1)
    lo, hi = cuts[:, :-1], cuts[:, 1:]
    row, col = np.nonzero((lo < hi) & (hi < np.inf))
    lo, hi = lo[row, col], hi[row, col]
    mid = 0.5 * (lo + hi)
    inside = region._mask(o[0] + mid * c[row], o[1] + mid * s[row])
    return row[inside], lo[inside], hi[inside]


def _panels(region: Region, origin) -> np.ndarray:
    """(P, 2) theta panels, consecutive around the circle, cut at the events.

    The candidate events, all read from the pieces of the region's
    primitives, are the touch points of the tangents from the origin to
    every conic, the crossings of each conic with the conics of later
    primitives, where each polygon edge crosses a piece of another
    primitive (_line_cuts, so two polygons' crossings are found on both),
    and the polygon vertices. A candidate counts when it lies on its
    curves and in the closure of every part (_gap), both within
    _EVENT_TOL times the coordinate scale; its break is the angle of its
    ray, and breaks within _EVENT_TOL rad of each other are one.
    """
    o = np.asarray(origin, dtype=float)
    tol = _EVENT_TOL * max(*map(abs, bounding_box(region)), *map(abs, o))
    leaves = _leaves(region)
    # (ray directions, points on them) per kind of candidate.
    found = []
    for k, leaf in enumerate(leaves):
        conics, polygons = leaf._pieces
        later = [c for x in leaves[k + 1 :] if x is not leaf for c in x._pieces[0]]
        for conic in conics:
            ray, touch = _tangents(conic, o)
            on = _off(conic, touch) <= tol
            found.append((ray[on], touch[on]))
            for other in later:
                p = _conic_crossings(conic, other)
                p = p[_off(other, p) <= tol]
                found.append((p - o, p))
        for a, b in polygons:
            t = _line_cuts([x for x in leaves if x is not leaf], a, b - a)
            i, j = np.nonzero((t >= 0.0) & (t <= 1.0))
            p = a[i] + t[i, j, None] * (b - a)[i]
            found += [(p - o, p), (a - o, a)]
    ray, p = (np.concatenate(x) for x in zip(*found))
    ray = ray[_gap(region, p) <= tol]
    two_pi = 2.0 * math.pi
    breaks = np.sort(np.mod(np.arctan2(ray[:, 1], ray[:, 0]), two_pi))
    if not breaks.size:
        return np.array([[0.0, two_pi]])
    breaks = breaks[np.diff(breaks, prepend=breaks[-1] - two_pi) > _EVENT_TOL]
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
    row, lo, hi = _clip(region, origin, c, sn)
    lo, length = lo[:, None], (hi - lo)[:, None]
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
    v = field(pts)
    wv = w * v
    sums = [np.bincount(ids, term, count) for term in (w, wv, wv * v)]
    # Every weight is positive, so only the first power needs |.|.
    scales = [sums[0], np.bincount(ids, np.abs(wv), count), sums[2]]
    return np.array(sums), np.array(scales), w, v, ids


def _integrate(region, density, field):
    """The panel quadrature of density_profile.

    Returns (weights, values): the density kernel's weights and the field
    values at the nodes of every panel's accepted level. The field maps
    an (n, 2) block of points to n values and is evaluated once per node
    of each level; the per-panel sums of the kernel and of the field's
    first two powers only decide when each panel's level is accepted.
    """
    origin = _polar_origin(region, density)
    panels = _panels(region, origin)
    npan = len(panels)
    prev, scale, *_ = _level(region, density, origin, field, panels, 1)
    active = np.arange(npan)
    kept = []
    pieces = 1
    while active.size:
        pieces *= 2
        if pieces > _MAX_PIECES:
            raise QuadratureFailure(
                f"{active.size} of {npan} theta panels still changing at "
                f"{16 * _MAX_PIECES} nodes; last relative change {rel:.3e}"
            )
        cur, cur_scale, w, v, ids = _level(
            region, density, origin, field, panels[active], pieces
        )
        scale[:, active] = cur_scale
        total = scale.sum(axis=1, keepdims=True)
        change = np.abs(cur - prev)
        done = (change <= _REL_TOL * total / npan).all(axis=0)
        rel = float((change * npan / np.maximum(total, 1e-300)).max())
        keep = done[ids]
        kept.append((w[keep], v[keep]))
        active, prev = active[~done], cur[:, ~done]
    w, v = (np.concatenate(x) for x in zip(*kept))
    if not w.sum() > 0:
        raise EmptyRegion("region carries no mass under the density")
    return w, v


def ue_domain(region: Region, serving_bs, victim_bs, d_min: float) -> Region:
    """Region where users may actually sit: d_min away from both stations.

    The serving-station carve follows from the minimum-distance rule; the
    victim-station carve keeps every admissible position inside the domain
    of the deterministic coupling gain, which requires distance d_min from
    both stations; effective_region applies each, serving first, where it
    cuts. Normalization, integration and sampling all use this one region.
    """
    eff = effective_region(region, serving_bs, d_min)
    return effective_region(eff, victim_bs, d_min)


def density_profile(region: Region, density: UeDensity, value_fn):
    """Law of a scalar field under the density, plus its moments.

    Runs the panel quadrature, evaluating the field once per node of each
    level visited; the per-panel sums of the field's powers only pick each
    panel's level. The law is discrete: its atoms are the field values at
    the nodes of every panel's accepted level, and its probabilities their
    normalized quadrature weights.

    Args:
        region: effective region.
        density: user density over the region.
        value_fn: vectorized (n, 2) points -> (n,) field values, n >= 0.

    Returns:
        (mean, variance, weights, values); weights sums to 1, and the mean
        and the variance about it are the law's.

    Raises:
        QuadratureFailure: if a theta panel does not settle.
        EmptyRegion: if the region carries no mass under the density.
            Exceptions value_fn raises propagate unchanged.
    """
    w, v = _integrate(region, density, value_fn)
    p = w / w.sum()
    mean = (p * v).sum()
    # A centred pass over the law's atoms: m2 - mean^2 cancels on far
    # cells, where the variance is 1e-3 of mean^2.
    return mean, (p * (v - mean) ** 2).sum(), p, v


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
    before the region test. The floor and the reach are the distance
    bounds ``_gap`` (lower) and ``_reach`` (upper) from the origin to the
    region. The floor is 0 when the origin lies in the region; the box
    then starts at the origin and still has the 1/rho law.
    """
    if density.kind == "inverse_radial":
        floor = float(_gap(region, density.origin))
        reach = _reach(region, density.origin)
        return np.array([[floor, 0.0]]), np.array([reach - floor, 2.0 * math.pi])
    xmin, ymin, xmax, ymax = bounding_box(region)
    size = np.array([xmax - xmin, ymax - ymin]) / _TILES
    ix, iy = np.divmod(np.arange(_TILES * _TILES), _TILES)
    corners = np.column_stack((xmin + ix * size[0], ymin + iy * size[1]))
    half = 0.5 * math.hypot(size[0], size[1])
    # The centres' rounding error scales with the coordinates, which can be
    # far larger than a tile (a 1e-9 km disk 0.03 km from the origin).
    slack = 1e-12 * (half + max(abs(xmin), abs(ymin), abs(xmax), abs(ymax)))
    keep = _gap(region, corners + 0.5 * size) <= half + slack
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
