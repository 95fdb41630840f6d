"""Scenario construction, JSON serialization, and canonical hashing.

A scenario bundles the victim station, the interfering cells (each with
its own region and user density), channel parameters, the fading model,
and the bound tuning constants. Two builders cover the standard setups:
a two-station layout with the canonical intersection region, and a seeded
random drop of many disk cells in a half-kilometer square.

The dataclasses are the document format. A document key is a field name
and its JSON type follows the field's annotation; fields whose value is
None are left out, regions carry a "type" tag, and points are [x, y]
pairs. Every key is required except those of fields that default to
None (density.origin, fading.gamma) and ellipse rotation_rad, and any
other key, such as a misspelled one, is an unknown field.

Loading validates each input once. The loader checks only the JSON types
and shapes, and requires every number and point to be finite. The
constructors own every range and consistency rule, among them a Rician
gamma of at most 1e4, at least one cell, and bound.k1 == bound.k2; their
messages start with the field they reject, and the loader reports each
rejection as one SchemaError under the document path, e.g. channel.eta.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import typing
from dataclasses import dataclass, fields, is_dataclass

import numpy as np

from .channel import ChannelParams, FadingModel
from .errors import DomainError, EmptyRegion, PlacementFailure, SchemaError
from .fileio import finite_number, read_json, write_json
from .geometry import (
    Annulus,
    Disk,
    Ellipse,
    Intersection,
    Polygon,
    Region,
    UeDensity,
    _as_point,
    ue_domain,
)

__all__ = [
    "BoundParams",
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
class BoundParams:
    """Tuning constants of the KS bound.

    omega is the fundamental frequency of the erfc Fourier series, p the
    number of retained odd harmonics, k1 = k2 the tail cutoffs: the per-cell
    step bounds drop the asymptotic-window term, which needs equal cutoffs.
    Defaults keep every tail term at the 1e-6 scale.

    omega must be at least 1e-6. The eps2 sum keeps about 3.2/omega odd
    harmonics whatever p is. At omega = 1e-6, on the canonical single
    cell, epsilon2 takes about 4 s and a 200 MB process, and ``fit`` about
    5 s and 280 MB; the cost grows as 1/omega.
    """

    omega: float = 0.001
    p: int = 4000
    k1: float = 500.0
    k2: float = 500.0

    def __post_init__(self):
        if not self.omega >= 1e-6:
            raise DomainError("omega: must be at least 1e-6")
        if not self.k1 > 0:
            raise DomainError("k1: must be positive")
        if int(self.p) != self.p or self.p < 1:
            raise DomainError("p: must be a positive integer")
        if self.p < 2.0 / self.omega:
            raise DomainError("p: must be at least 2/omega")
        if self.k2 != self.k1:
            raise DomainError("k2: must equal k1")


@dataclass(frozen=True)
class Cell:
    """One interfering cell: id, serving station, region, user density."""

    id: int
    bs: tuple[float, float]
    region: Region
    density: UeDensity

    def __post_init__(self):
        object.__setattr__(self, "bs", _as_point(self.bs, "bs"))


@dataclass(frozen=True)
class Scenario:
    victim_bs: tuple[float, float]
    cells: tuple[Cell, ...]
    channel: ChannelParams
    fading: FadingModel
    bound: BoundParams

    def __post_init__(self):
        object.__setattr__(self, "victim_bs", _as_point(self.victim_bs, "victim_bs"))
        object.__setattr__(self, "cells", tuple(self.cells))
        if not self.cells:
            raise DomainError("cells: must contain at least one cell")
        ids = [c.id for c in self.cells]
        if len(set(ids)) != len(ids):
            raise DomainError("cells: cell ids must be unique")
        for i, c in enumerate(self.cells):
            if c.bs == self.victim_bs:
                raise DomainError(
                    f"cells[{i}].bs: cell {c.id} sits on the victim station"
                )
            try:
                ue_domain(c.region, c.bs, self.victim_bs, self.channel.d_min_km)
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


# The "type" tag of each region class in a document.
_REGION_TYPES = {
    "disk": Disk,
    "annulus": Annulus,
    "ellipse": Ellipse,
    "polygon": Polygon,
    "intersection": Intersection,
}
_REGION_TAGS = {cls: tag for tag, cls in _REGION_TYPES.items()}


def _to_doc(obj):
    """Plain-JSON form of a dataclass tree.

    Each field is written under its own name and None fields are left
    out; regions carry their "type" tag and tuples become lists.
    """
    if is_dataclass(obj):
        doc = {"type": _REGION_TAGS[type(obj)]} if type(obj) in _REGION_TAGS else {}
        for f in fields(obj):
            val = getattr(obj, f.name)
            if val is not None:
                doc[f.name] = _to_doc(val)
        return doc
    if isinstance(obj, tuple):
        return [_to_doc(v) for v in obj]
    return obj


def scenario_to_doc(scenario: Scenario) -> dict:
    """Plain-JSON document form of a scenario."""
    return _to_doc(scenario)


@functools.cache
def _hints(cls) -> dict:
    """Field annotations of a dataclass, resolved once per class."""
    return typing.get_type_hints(cls)


def _optional(f) -> bool:
    """A key may be left out when its field defaults to None or is marked so."""
    return f.default is None or f.metadata.get("optional", False)


def _fail(path, message):
    raise SchemaError(f"{path or 'document'}: {message}")


def _from_doc(tp, val, path=""):
    """The value of annotation tp read from JSON value val at a dotted path.

    The JSON types and shapes are checked here, and numbers and points
    must be finite. Range and consistency rules belong to the
    constructors: their messages start with the field they reject ("eta:
    must be in (0, 1]"), so the SchemaError names the full path
    ("channel.eta").
    """
    if tp is float:
        x = finite_number(val)
        if x is None:
            _fail(path, "expected a finite number")
        return x
    if tp is int:
        if isinstance(val, bool) or not isinstance(val, int):
            _fail(path, "expected an integer")
        return val
    if tp is str:
        if not isinstance(val, str):
            _fail(path, "expected a string")
        return val
    if tp is dict:
        if not isinstance(val, dict):
            _fail(path, "expected an object")
        return val
    if tp is Region:
        if "type" not in _from_doc(dict, val, path):
            _fail(f"{path}.type", "missing required field")
        tag = _from_doc(str, val["type"], f"{path}.type")
        if tag not in _REGION_TYPES:
            _fail(f"{path}.type", f"unknown region type {tag!r}")
        tp = _REGION_TYPES[tag]
    if is_dataclass(tp):
        _from_doc(dict, val, path)
        names = {f.name for f in fields(tp)}
        for key in val:
            if key not in names and not (key == "type" and tp in _REGION_TAGS):
                _fail(f"{path}.{key}" if path else key, "unknown field")
        kwargs = {}
        for f in fields(tp):
            where = f"{path}.{f.name}" if path else f.name
            if f.name in val:
                kwargs[f.name] = _from_doc(_hints(tp)[f.name], val[f.name], where)
            elif not _optional(f):
                _fail(where, "missing required field")
        try:
            return tp(**kwargs)
        except (DomainError, EmptyRegion) as exc:
            raise SchemaError(f"{path}.{exc}" if path else str(exc)) from exc
    args = typing.get_args(tp)
    if type(None) in args:
        # An optional field may be absent, never null.
        (tp,) = (a for a in args if a is not type(None))
        return _from_doc(tp, val, path)
    if args == (float, float):
        pt = tuple(map(finite_number, val)) if isinstance(val, list) else ()
        if len(pt) != 2 or None in pt:
            _fail(path, "expected [x, y] of finite numbers")
        return pt
    if not isinstance(val, list):
        _fail(path, "expected an array")
    return tuple(_from_doc(args[0], v, f"{path}[{i}]") for i, v in enumerate(val))


def scenario_from_doc(doc) -> Scenario:
    """Validated scenario from a plain-JSON document.

    Raises:
        SchemaError: naming the offending field by dotted path.
    """
    return _from_doc(Scenario, doc)


def load_scenario(path) -> Scenario:
    """Read and validate a scenario JSON file."""
    return scenario_from_doc(read_json(path))


def save_scenario(scenario: Scenario, path) -> None:
    """Write a scenario as indented UTF-8 JSON, atomically."""
    write_json(path, scenario_to_doc(scenario))


def scenario_hash(scenario: Scenario) -> str:
    """sha256 of the canonical (sorted, compact) JSON document."""
    canon = json.dumps(
        scenario_to_doc(scenario), sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(canon.encode()).hexdigest()
