"""Scenario construction, JSON serialization, and canonical hashing.

A scenario bundles the victim station, the interfering cells (each with
its own region and user density), channel parameters, the fading model,
and the bound tuning constants. Two builders cover the standard setups:
a two-station layout with the canonical intersection region, and a seeded
random drop of many disk cells in a half-kilometer square.

Loading validates each input once. The loader checks only the JSON types
and shapes, and requires every number and point to be finite. The
constructors (ChannelParams, FadingModel, BoundParams, UeDensity, the
regions and Scenario) own every range and consistency rule; their
messages start with the field they reject, and the loader reports each
rejection as one SchemaError under the document path, e.g. channel.eta.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass

import numpy as np

from .bound import BoundParams
from .channel import ChannelParams, FadingModel
from .errors import (
    DomainError,
    EmptyRegion,
    ParseError,
    PlacementFailure,
    SchemaError,
)
from .fileio import atomic_open
from .geometry import (
    Annulus,
    Disk,
    Ellipse,
    Intersection,
    Polygon,
    Region,
    UeDensity,
    effective_region,
)

__all__ = [
    "Cell",
    "Scenario",
    "DEFAULT_CHANNEL",
    "build_single_cell",
    "build_hotspot_layout",
    "load_scenario",
    "save_scenario",
    "scenario_to_doc",
    "scenario_from_doc",
    "scenario_hash",
    "rng_stream",
]

DEFAULT_CHANNEL = ChannelParams(
    a_db=103.8,
    alpha=20.9,
    p0_dbm=-76.0,
    eta=0.8,
    sigma_shad_db=10.0,
    d_min_km=0.005,
)

_HOTSPOT_SIDE_KM = 0.5
_HOTSPOT_SPACING_FACTOR = 0.8
_HOTSPOT_MAX_TRIES = 10_000


@dataclass(frozen=True)
class Cell:
    """One interfering cell: id, serving station, region, user density."""

    id: int
    bs: tuple[float, float]
    region: Region
    density: UeDensity


@dataclass(frozen=True)
class Scenario:
    victim_bs: tuple[float, float]
    cells: tuple[Cell, ...]
    channel: ChannelParams
    fading: FadingModel
    bound: BoundParams

    def __post_init__(self):
        object.__setattr__(self, "cells", tuple(self.cells))
        ids = [c.id for c in self.cells]
        if len(set(ids)) != len(ids):
            raise DomainError("cells: cell ids must be unique")
        for i, c in enumerate(self.cells):
            if tuple(c.bs) == tuple(self.victim_bs):
                raise DomainError(
                    f"cells[{i}].bs: cell {c.id} sits on the victim station"
                )
            try:
                effective_region(c.region, c.bs, self.channel.d_min_km)
            except EmptyRegion as exc:
                raise EmptyRegion(f"cells[{i}].region: {exc}") from exc


def rng_stream(seed: int, cell_id: int, tag: str) -> np.random.Generator:
    """Independent counter-based stream keyed by (seed, cell, tag).

    The key is a 128-bit hash of the identifiers, so streams never
    collide across cells or purposes and slices of one stream can be
    generated independently via counter advancement.
    """
    digest = hashlib.blake2b(
        f"{seed}:{cell_id}:{tag}".encode(), digest_size=16
    ).digest()
    key = np.frombuffer(digest, dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _bread_region(r: float, bs: tuple[float, float]) -> Region:
    """Canonical intersection region (square, disk, ellipse) scaled by r."""
    bx, by = bs
    half = 1.2 * r
    square = Polygon(
        (
            (bx - half, by - half),
            (bx + half, by - half),
            (bx + half, by + half),
            (bx - half, by + half),
        )
    )
    disk = Disk((bx + 0.2 * r, by), 1.3 * r)
    ellipse = Ellipse(
        (bx - 0.1 * r, by + 0.1 * r), 1.5 * r, 1.0 * r, math.radians(30.0)
    )
    return Intersection((square, disk, ellipse))


def build_single_cell(r: float, density_kind: str, fading: FadingModel) -> Scenario:
    """Two-station scenario: victim at the origin, interferer at (1.5r, 0).

    Args:
        r: cell radius scale in km.
        density_kind: "uniform" or "inverse_radial" (origin at the
            interfering station).
        fading: fading model for the interfering user.
    """
    if not r > 0:
        raise DomainError("r must be > 0")
    bs2 = (1.5 * r, 0.0)
    density = UeDensity(
        density_kind, bs2 if density_kind == "inverse_radial" else None
    )
    cell = Cell(2, bs2, _bread_region(r, bs2), density)
    return Scenario((0.0, 0.0), (cell,), DEFAULT_CHANNEL, fading, BoundParams())


def build_hotspot_layout(
    b_total: int,
    r: float,
    seed: int,
    density_kind: str = "uniform",
    fading: FadingModel = FadingModel("none"),
) -> Scenario:
    """Seeded drop of b_total stations in a 0.5 km square.

    Stations keep a minimum spacing of 0.8r; the first dropped station is
    the victim and the rest serve disk cells of radius r whose coverage
    may overlap. Proposals are seeded and capped, so layouts are pure
    functions of (b_total, r, seed).

    Raises:
        PlacementFailure: when 10^4 proposals cannot satisfy the spacing.
    """
    if b_total < 2:
        raise DomainError("need at least two stations")
    if not r > 0:
        raise DomainError("r must be > 0")
    gen = rng_stream(seed, 0, "layout")
    spacing2 = (_HOTSPOT_SPACING_FACTOR * r) ** 2
    points: list[tuple[float, float]] = []
    tries = 0
    while len(points) < b_total and tries < _HOTSPOT_MAX_TRIES:
        tries += 1
        x, y = gen.random(2) * _HOTSPOT_SIDE_KM
        if all((x - px) ** 2 + (y - py) ** 2 >= spacing2 for px, py in points):
            points.append((float(x), float(y)))
    if len(points) < b_total:
        raise PlacementFailure(
            f"placed {len(points)}/{b_total} stations in {tries} proposals"
        )
    victim = points[0]
    cells = []
    for i, bs in enumerate(points[1:], start=2):
        density = UeDensity(
            density_kind, bs if density_kind == "inverse_radial" else None
        )
        cells.append(Cell(i, bs, Disk(bs, r), density))
    return Scenario(victim, tuple(cells), DEFAULT_CHANNEL, fading, BoundParams())


def _point_to_doc(p) -> list:
    return [float(p[0]), float(p[1])]


def _region_to_doc(region: Region) -> dict:
    if isinstance(region, Disk):
        return {
            "type": "disk",
            "center": _point_to_doc(region.center),
            "radius_km": region.radius_km,
        }
    if isinstance(region, Annulus):
        return {
            "type": "annulus",
            "center": _point_to_doc(region.center),
            "r_inner": region.r_inner,
            "r_outer": region.r_outer,
        }
    if isinstance(region, Ellipse):
        return {
            "type": "ellipse",
            "center": _point_to_doc(region.center),
            "a_km": region.a_km,
            "b_km": region.b_km,
            "rotation_rad": region.rotation_rad,
        }
    if isinstance(region, Polygon):
        return {
            "type": "polygon",
            "vertices": [_point_to_doc(v) for v in region.vertices],
        }
    if isinstance(region, Intersection):
        return {
            "type": "intersection",
            "parts": [_region_to_doc(p) for p in region.parts],
        }
    raise DomainError(f"unknown region type {type(region).__name__}")


def scenario_to_doc(scenario: Scenario) -> dict:
    """Plain-JSON document form of a scenario."""
    cells = []
    for c in scenario.cells:
        density = {"kind": c.density.kind}
        if c.density.origin is not None:
            density["origin"] = _point_to_doc(c.density.origin)
        cells.append(
            {
                "id": c.id,
                "bs": _point_to_doc(c.bs),
                "region": _region_to_doc(c.region),
                "density": density,
            }
        )
    ch = scenario.channel
    fading = {"kind": scenario.fading.kind}
    if scenario.fading.gamma_ratio is not None:
        fading["gamma"] = scenario.fading.gamma_ratio
    bp = scenario.bound
    return {
        "victim_bs": _point_to_doc(scenario.victim_bs),
        "cells": cells,
        "channel": {
            "a_db": ch.a_db,
            "alpha": ch.alpha,
            "p0_dbm": ch.p0_dbm,
            "eta": ch.eta,
            "sigma_shad_db": ch.sigma_shad_db,
            "d_min_km": ch.d_min_km,
        },
        "fading": fading,
        "bound": {"omega": bp.omega, "p": bp.p, "k1": bp.k1, "k2": bp.k2},
    }


def _finite(val) -> float | None:
    """A JSON number as a finite float, None for anything else."""
    if isinstance(val, bool) or not isinstance(val, (int, float)):
        return None
    try:
        x = float(val)
    except OverflowError:
        return None
    return x if math.isfinite(x) else None


def _point(val) -> tuple[float, float] | None:
    """A JSON [x, y] pair of finite numbers as a tuple, None otherwise."""
    if not isinstance(val, list) or len(val) != 2:
        return None
    x, y = _finite(val[0]), _finite(val[1])
    return None if x is None or y is None else (x, y)


class _Checker:
    """Walks a document, raising SchemaError with a dotted field path.

    It checks JSON types and shapes only; numbers and points must be
    finite. Range and consistency rules belong to the constructors.
    """

    def __init__(self, doc, path=""):
        self.doc = doc
        self.path = path

    def fail(self, key, message):
        where = f"{self.path}.{key}" if self.path else key
        raise SchemaError(f"{where}: {message}")

    def get(self, key, kind, required=True, default=None):
        if not isinstance(self.doc, dict):
            raise SchemaError(f"{self.path or 'document'}: expected an object")
        if key not in self.doc:
            if required:
                self.fail(key, "missing required field")
            return default
        val = self.doc[key]
        if kind == "number":
            x = _finite(val)
            if x is None:
                self.fail(key, "expected a finite number")
            return x
        if kind == "int":
            if isinstance(val, bool) or not isinstance(val, int):
                self.fail(key, "expected an integer")
            return val
        if kind == "string":
            if not isinstance(val, str):
                self.fail(key, "expected a string")
            return val
        if kind == "point":
            p = _point(val)
            if p is None:
                self.fail(key, "expected [x, y] of finite numbers")
            return p
        if kind == "list":
            if not isinstance(val, list):
                self.fail(key, "expected an array")
            return val
        if kind == "object":
            if not isinstance(val, dict):
                self.fail(key, "expected an object")
            return val
        raise AssertionError(kind)

    def sub(self, key):
        return _Checker(
            self.get(key, "object"), f"{self.path}.{key}" if self.path else key
        )


def _build(path, make, *args, **kwargs):
    """make(*args, **kwargs), its rejection reported under the document path.

    Constructor messages start with the field they reject ("eta: must be
    in (0, 1]"), so the SchemaError names the full path ("channel.eta").
    """
    try:
        return make(*args, **kwargs)
    except (DomainError, EmptyRegion) as exc:
        raise SchemaError(f"{path}.{exc}" if path else str(exc)) from exc


def _region_from_doc(doc, path) -> Region:
    c = _Checker(doc, path)
    kind = c.get("type", "string")
    if kind == "disk":
        return _build(
            path, Disk, c.get("center", "point"), c.get("radius_km", "number")
        )
    if kind == "annulus":
        return _build(
            path,
            Annulus,
            c.get("center", "point"),
            c.get("r_inner", "number"),
            c.get("r_outer", "number"),
        )
    if kind == "ellipse":
        return _build(
            path,
            Ellipse,
            c.get("center", "point"),
            c.get("a_km", "number"),
            c.get("b_km", "number"),
            c.get("rotation_rad", "number", required=False, default=0.0),
        )
    if kind == "polygon":
        verts = c.get("vertices", "list")
        pts = []
        for i, v in enumerate(verts):
            p = _point(v)
            if p is None:
                c.fail(f"vertices[{i}]", "expected [x, y] of finite numbers")
            pts.append(p)
        return _build(path, Polygon, tuple(pts))
    if kind == "intersection":
        parts = c.get("parts", "list")
        return _build(
            path,
            Intersection,
            tuple(
                _region_from_doc(p, f"{path}.parts[{i}]")
                for i, p in enumerate(parts)
            ),
        )
    c.fail("type", f"unknown region type {kind!r}")


def scenario_from_doc(doc) -> Scenario:
    """Validated scenario from a plain-JSON document.

    The document's types and shapes are checked here; every range and
    consistency rule is the constructor's, reported under the path of
    the object it builds.

    Raises:
        SchemaError: naming the offending field by dotted path.
    """
    root = _Checker(doc)
    victim = root.get("victim_bs", "point")

    ch = root.sub("channel")
    channel = _build(
        "channel",
        ChannelParams,
        a_db=ch.get("a_db", "number"),
        alpha=ch.get("alpha", "number"),
        p0_dbm=ch.get("p0_dbm", "number"),
        eta=ch.get("eta", "number"),
        sigma_shad_db=ch.get("sigma_shad_db", "number"),
        d_min_km=ch.get("d_min_km", "number"),
    )

    fd = root.sub("fading")
    fading = _build(
        "fading",
        FadingModel,
        fd.get("kind", "string"),
        fd.get("gamma", "number", required=False),
    )

    bd = root.sub("bound")
    bound = _build(
        "bound",
        BoundParams,
        omega=bd.get("omega", "number"),
        p=bd.get("p", "int"),
        k1=bd.get("k1", "number"),
        k2=bd.get("k2", "number"),
    )

    cell_docs = root.get("cells", "list")
    if not cell_docs:
        root.fail("cells", "must contain at least one cell")
    cells = []
    for i, cdoc in enumerate(cell_docs):
        path = f"cells[{i}]"
        cc = _Checker(cdoc, path)
        cid = cc.get("id", "int")
        bs = cc.get("bs", "point")
        region = _region_from_doc(cc.get("region", "object"), f"{path}.region")
        dd = cc.sub("density")
        density = _build(
            f"{path}.density",
            UeDensity,
            dd.get("kind", "string"),
            dd.get("origin", "point", required=False),
        )
        cells.append(Cell(cid, bs, region, density))

    return _build("", Scenario, victim, tuple(cells), channel, fading, bound)


def load_scenario(path) -> Scenario:
    """Read and validate a scenario JSON file."""
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: {exc}") from exc
    return scenario_from_doc(doc)


def save_scenario(scenario: Scenario, path) -> None:
    """Write a scenario as indented UTF-8 JSON, atomically."""
    with atomic_open(path) as fh:
        json.dump(scenario_to_doc(scenario), fh, indent=2, sort_keys=True)
        fh.write("\n")


def scenario_hash(scenario: Scenario) -> str:
    """sha256 of the canonical (sorted, compact) JSON document."""
    canon = json.dumps(
        scenario_to_doc(scenario), sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(canon.encode()).hexdigest()
