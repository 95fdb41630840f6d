import copy
import json
import math

import numpy as np
import pytest

from ulfit.bound import BoundParams
from ulfit.channel import FadingModel
from ulfit.errors import DomainError, ParseError, PlacementFailure, SchemaError
from ulfit.geometry import Disk, Intersection, UeDensity
from ulfit.scenario import (
    DEFAULT_CHANNEL,
    Cell,
    Scenario,
    build_hotspot_layout,
    build_single_cell,
    load_scenario,
    rng_stream,
    save_scenario,
    scenario_from_doc,
    scenario_hash,
    scenario_to_doc,
)

RAYLEIGH = FadingModel("rayleigh")


def test_default_channel_values():
    assert DEFAULT_CHANNEL.a_db == 103.8
    assert DEFAULT_CHANNEL.alpha == 20.9
    assert DEFAULT_CHANNEL.p0_dbm == -76.0
    assert DEFAULT_CHANNEL.eta == 0.8
    assert DEFAULT_CHANNEL.sigma_shad_db == 10.0
    assert DEFAULT_CHANNEL.d_min_km == 0.005


def test_single_cell_layout():
    scen = build_single_cell(0.04, "uniform", RAYLEIGH)
    assert scen.victim_bs == (0.0, 0.0)
    assert len(scen.cells) == 1
    cell = scen.cells[0]
    assert cell.id == 2
    assert cell.bs == (0.06, 0.0)
    assert math.hypot(*cell.bs) == pytest.approx(1.5 * 0.04, rel=1e-15)
    assert isinstance(cell.region, Intersection)
    assert len(cell.region.parts) == 3
    assert cell.density.kind == "uniform"
    assert scen.channel == DEFAULT_CHANNEL
    assert scen.bound == BoundParams()


def test_single_cell_inverse_radial_origin():
    scen = build_single_cell(0.01, "inverse_radial", FadingModel("none"))
    cell = scen.cells[0]
    assert cell.density.kind == "inverse_radial"
    assert cell.density.origin == cell.bs


def test_single_cell_region_contains_station():
    scen = build_single_cell(0.01, "uniform", RAYLEIGH)
    cell = scen.cells[0]
    x, y = np.array([cell.bs, (0.0, 0.0)]).T
    np.testing.assert_array_equal(cell.region._mask(x, y), [True, False])


def test_single_cell_rejects_bad_radius():
    with pytest.raises(DomainError):
        build_single_cell(0.0, "uniform", RAYLEIGH)


def test_hotspot_layout_frozen_seed7():
    scen = build_hotspot_layout(5, 0.01, 7)
    assert scen.victim_bs == pytest.approx(
        (0.12126978075047157, 0.18587831751356149), rel=1e-15
    )
    assert [c.id for c in scen.cells] == [2, 3, 4, 5]
    assert scen.cells[0].bs == pytest.approx(
        (0.085475095898619791, 0.29407090438131928), rel=1e-15
    )
    assert scen.cells[1].bs == pytest.approx(
        (0.34931721737178728, 0.37142207920254561), rel=1e-15
    )
    for c in scen.cells:
        assert isinstance(c.region, Disk)
        assert c.region.center == c.bs
        assert c.region.radius_km == 0.01


def test_hotspot_layout_pure():
    assert build_hotspot_layout(5, 0.01, 7) == build_hotspot_layout(5, 0.01, 7)
    assert build_hotspot_layout(5, 0.01, 7) != build_hotspot_layout(5, 0.01, 8)


def test_hotspot_layout_spacing_and_bounds():
    scen = build_hotspot_layout(84, 0.01, 1)
    pts = [scen.victim_bs] + [c.bs for c in scen.cells]
    assert len(pts) == 84
    assert len(set(pts)) == 84
    for x, y in pts:
        assert 0.0 <= x <= 0.5 and 0.0 <= y <= 0.5
    arr = np.asarray(pts)
    d2 = np.sum((arr[:, None, :] - arr[None, :, :]) ** 2, axis=-1)
    d2[np.diag_indices(84)] = np.inf
    assert d2.min() >= (0.8 * 0.01) ** 2 - 1e-18


def test_hotspot_layout_failure_modes():
    with pytest.raises(DomainError):
        build_hotspot_layout(1, 0.01, 1)
    for r in (0.0, -0.01, float("nan")):
        with pytest.raises(DomainError, match="r must be > 0"):
            build_hotspot_layout(5, r, 1)
    with pytest.raises(PlacementFailure):
        build_hotspot_layout(50, 0.2, 1)


def test_rng_stream_determinism():
    a = rng_stream(3, 5, "shadow").random(6)
    b = rng_stream(3, 5, "shadow").random(6)
    np.testing.assert_array_equal(a, b)
    c = rng_stream(3, 5, "fading").random(6)
    d = rng_stream(3, 6, "shadow").random(6)
    e = rng_stream(4, 5, "shadow").random(6)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)
    assert not np.array_equal(a, e)


def test_doc_round_trip_single():
    for kind, fading in (
        ("uniform", FadingModel("rayleigh")),
        ("inverse_radial", FadingModel("rician", 10.0)),
        ("uniform", FadingModel("none")),
    ):
        scen = build_single_cell(0.01, kind, fading)
        again = scenario_from_doc(scenario_to_doc(scen))
        assert again == scen
        assert scenario_hash(again) == scenario_hash(scen)


def test_file_round_trip(tmp_path):
    scen = build_single_cell(0.02, "inverse_radial", FadingModel("rician", 5.0))
    path = tmp_path / "scen.json"
    save_scenario(scen, path)
    assert load_scenario(path) == scen


def test_hash_frozen_values():
    scen = build_single_cell(0.01, "uniform", RAYLEIGH)
    assert (
        scenario_hash(scen)
        == "04c90c6b2437485600c153b8592ec866668c9d432c47504983df6a4c5b2ff6a1"
    )
    lay = build_hotspot_layout(5, 0.01, 7)
    assert (
        scenario_hash(lay)
        == "5c0ac0ef94e0be48f8e1735c12aa97d621301e0f61b4eb24d8d1f30e2e7e04c4"
    )


def test_hash_integer_coordinates():
    # Points are written as floats, other numbers as given.
    scen = Scenario(
        (0, 0),
        (Cell(2, (1, 0), Disk((1, 0), 1), UeDensity("uniform")),),
        DEFAULT_CHANNEL,
        FadingModel("none"),
        BoundParams(),
    )
    assert scen.victim_bs == (0.0, 0.0) and scen.cells[0].bs == (1.0, 0.0)
    assert (
        scenario_hash(scen)
        == "b1070cc24f602ac28da4bcf23c6018d4139796cf82633e2d16377a20fdd788b3"
    )


def test_hash_sensitivity():
    base = scenario_hash(build_single_cell(0.01, "uniform", RAYLEIGH))
    assert scenario_hash(build_single_cell(0.01, "uniform", FadingModel("none"))) != base
    assert scenario_hash(build_single_cell(0.02, "uniform", RAYLEIGH)) != base


# One region of each type, around a station at (0.1, 0).
_REGIONS = [
    {"type": "disk", "center": [0.1, 0.0], "radius_km": 0.05},
    {"type": "annulus", "center": [0.1, 0.0], "r_inner": 0.01, "r_outer": 0.05},
    {
        "type": "ellipse",
        "center": [0.1, 0.0],
        "a_km": 0.05,
        "b_km": 0.03,
        "rotation_rad": 0.4,
    },
    {
        "type": "polygon",
        "vertices": [[0.05, -0.05], [0.15, -0.05], [0.15, 0.05], [0.05, 0.05]],
    },
    {
        "type": "intersection",
        "parts": [
            {"type": "disk", "center": [0.1, 0.0], "radius_km": 0.05},
            {"type": "disk", "center": [0.12, 0.0], "radius_km": 0.05},
        ],
    },
]


def _with_region(doc, region):
    d = copy.deepcopy(doc)
    d["cells"][0]["bs"] = [0.1, 0.0]
    d["cells"][0]["region"] = copy.deepcopy(region)
    return d


def test_all_region_types_round_trip():
    doc = scenario_to_doc(build_single_cell(0.01, "uniform", RAYLEIGH))
    for region in _REGIONS:
        d = _with_region(doc, region)
        scen = scenario_from_doc(d)
        assert scenario_from_doc(scenario_to_doc(scen)) == scen


def _valid_doc():
    return scenario_to_doc(build_single_cell(0.01, "uniform", RAYLEIGH))


def _expect_schema_error(doc, fragment):
    with pytest.raises(SchemaError) as err:
        scenario_from_doc(doc)
    assert fragment in str(err.value)


def test_schema_missing_fields():
    doc = _valid_doc()
    del doc["victim_bs"]
    _expect_schema_error(doc, "victim_bs")

    doc = _valid_doc()
    del doc["channel"]["eta"]
    _expect_schema_error(doc, "channel.eta")


def test_schema_not_an_object():
    with pytest.raises(SchemaError):
        scenario_from_doc([1, 2, 3])


def test_schema_bad_channel_values():
    doc = _valid_doc()
    doc["channel"]["eta"] = 1.3
    _expect_schema_error(doc, "channel.eta")

    doc = _valid_doc()
    doc["channel"]["eta"] = True
    _expect_schema_error(doc, "channel.eta")

    doc = _valid_doc()
    doc["channel"]["alpha"] = 0
    _expect_schema_error(doc, "channel.alpha")

    # Not a number; sigma^2 subnormal; sigma^2 past the float range.
    for sigma in ("10", 1e-158, 1e160):
        doc = _valid_doc()
        doc["channel"]["sigma_shad_db"] = sigma
        _expect_schema_error(doc, "channel.sigma_shad_db")

    for d_min in (-0.1, 0.0, 1e-200):
        doc = _valid_doc()
        doc["channel"]["d_min_km"] = d_min
        _expect_schema_error(doc, "channel.d_min_km")


def test_schema_bad_fading():
    doc = _valid_doc()
    doc["fading"]["kind"] = "nakagami"
    _expect_schema_error(doc, "fading.kind")

    doc = _valid_doc()
    doc["fading"]["kind"] = 3
    _expect_schema_error(doc, "fading.kind: expected a string")

    doc = _valid_doc()
    doc["fading"]["gamma"] = 3.0  # kind is rayleigh
    _expect_schema_error(doc, "fading.gamma")

    doc = _valid_doc()
    doc["fading"] = {"kind": "rician"}
    _expect_schema_error(doc, "fading.gamma")

    doc = _valid_doc()
    doc["fading"] = {"kind": "rician", "gamma": -2.0}
    _expect_schema_error(doc, "fading.gamma")


def test_schema_rician_gamma_cap():
    doc = _valid_doc()
    doc["fading"] = {"kind": "rician", "gamma": 1e4}
    assert scenario_from_doc(doc).fading == FadingModel("rician", 1e4)

    doc["fading"]["gamma"] = 1e5
    with pytest.raises(SchemaError) as err:
        scenario_from_doc(doc)
    assert str(err.value).startswith("fading.gamma:")


def test_schema_bad_bound():
    doc = _valid_doc()
    doc["bound"]["p"] = 4000.5
    _expect_schema_error(doc, "bound.p")

    doc = _valid_doc()
    doc["bound"]["omega"] = 0.0
    _expect_schema_error(doc, "bound")

    doc = _valid_doc()
    doc["bound"]["p"] = 100  # below 2/omega
    _expect_schema_error(doc, "bound")


def test_schema_bad_cells():
    doc = _valid_doc()
    doc["cells"] = []
    _expect_schema_error(doc, "cells")

    doc = _valid_doc()
    doc["cells"] = {"not": "a list"}
    _expect_schema_error(doc, "cells")

    doc = _valid_doc()
    doc["cells"][0]["id"] = 2.5
    _expect_schema_error(doc, "cells[0].id")

    doc = _valid_doc()
    doc["cells"][0]["bs"] = [0.1]
    _expect_schema_error(doc, "cells[0].bs")


def test_schema_bad_region():
    doc = _valid_doc()
    doc["cells"][0]["region"] = {"type": "hexagon"}
    _expect_schema_error(doc, "cells[0].region.type")

    doc = _valid_doc()
    doc["cells"][0]["region"] = {"type": "disk", "center": [0.1, 0.0], "radius_km": -1.0}
    _expect_schema_error(doc, "cells[0].region")

    doc = _valid_doc()
    doc["cells"][0]["region"] = {
        "type": "polygon",
        "vertices": [[0, 0], [0, 1], [1, 1], [1, 0]],  # clockwise
    }
    _expect_schema_error(doc, "cells[0].region")

    doc = _valid_doc()
    doc["cells"][0]["region"] = {
        "type": "intersection",
        "parts": [{"type": "disk", "center": [0.1, 0.0], "radius_km": "wide"}],
    }
    _expect_schema_error(doc, "cells[0].region.parts[0]")


def test_schema_bad_density():
    doc = _valid_doc()
    doc["cells"][0]["density"] = {"kind": "gaussian"}
    _expect_schema_error(doc, "cells[0].density.kind")

    doc = _valid_doc()
    doc["cells"][0]["density"] = {"kind": "inverse_radial"}
    _expect_schema_error(doc, "cells[0].density.origin")

    doc = _valid_doc()
    doc["cells"][0]["density"] = {"kind": "uniform", "origin": [0.0, 0.0]}
    _expect_schema_error(doc, "cells[0].density.origin")


def test_schema_unequal_cutoffs():
    # epsilon1 takes k1 != k2, but the per-cell step bounds need them equal.
    doc = _valid_doc()
    doc["bound"]["k2"] = 600.0
    with pytest.raises(SchemaError) as err:
        scenario_from_doc(doc)
    assert str(err.value).startswith("bound.k2:")


def test_scenario_constructor_rules():
    scen = build_single_cell(0.01, "uniform", RAYLEIGH)
    args = (scen.victim_bs, scen.cells, scen.channel, scen.fading)
    # BoundParams owns the equal-cutoff rule, so it raises first.
    with pytest.raises(DomainError, match="^k2:"):
        Scenario(*args, BoundParams(k1=500.0, k2=600.0))
    with pytest.raises(DomainError, match="^cells:"):
        Scenario(args[0], (), *args[2:], BoundParams())


def _key_paths(doc, where=()):
    """Key paths, as tuples of keys and list indices, of every object key."""
    if isinstance(doc, dict):
        for key, val in doc.items():
            yield where + (key,)
            yield from _key_paths(val, where + (key,))
    elif isinstance(doc, list):
        for i, val in enumerate(doc):
            yield from _key_paths(val, where + (i,))


def _dotted(where):
    out = ""
    for k in where:
        out += f"[{k}]" if isinstance(k, int) else (f".{k}" if out else k)
    return out


_OPTIONAL_KEYS = {"rotation_rad", "origin", "gamma"}


def test_schema_sweep_required_keys():
    base = scenario_to_doc(
        build_single_cell(0.01, "inverse_radial", FadingModel("rician", 3.0))
    )
    docs = [_valid_doc(), base] + [_with_region(base, r) for r in _REGIONS]
    seen = set()
    for doc in docs:
        for where in _key_paths(doc):
            seen.add(where[-1])
            if where[-1] in _OPTIONAL_KEYS:
                continue
            d = copy.deepcopy(doc)
            parent = d
            for k in where[:-1]:
                parent = parent[k]
            del parent[where[-1]]
            with pytest.raises(SchemaError) as err:
                scenario_from_doc(d)
            assert str(err.value) == f"{_dotted(where)}: missing required field"
    assert _OPTIONAL_KEYS <= seen


def test_schema_optional_keys():
    doc = _valid_doc()
    # Uniform density and Rayleigh fading write no origin and no gamma.
    assert "origin" not in doc["cells"][0]["density"]
    assert "gamma" not in doc["fading"]
    ellipse = doc["cells"][0]["region"]["parts"][2]
    assert ellipse["type"] == "ellipse"
    del ellipse["rotation_rad"]
    assert scenario_from_doc(doc).cells[0].region.parts[2].rotation_rad == 0.0


def test_schema_scenario_invariants():
    doc = _valid_doc()
    doc["cells"].append(copy.deepcopy(doc["cells"][0]))
    _expect_schema_error(doc, "unique")

    doc = _valid_doc()
    doc["cells"][0]["bs"] = [0.0, 0.0]  # on the victim
    with pytest.raises(SchemaError):
        scenario_from_doc(doc)

    doc = _valid_doc()
    # coverage entirely inside the exclusion disk
    doc["cells"][0]["region"] = {
        "type": "disk",
        "center": doc["cells"][0]["bs"],
        "radius_km": 0.004,
    }
    with pytest.raises(SchemaError):
        scenario_from_doc(doc)

    doc = _valid_doc()
    # coverage entirely inside the victim's exclusion disk, which the
    # commands' user domain carves too
    doc["cells"][0]["region"] = {"type": "disk", "center": [0.001, 0.0], "radius_km": 0.001}
    _expect_schema_error(doc, "cells[0].region: exclusion disk")


def _rename_rotation(doc):
    # The canonical region intersects a square, a disk and an ellipse.
    ellipse = doc["cells"][0]["region"]["parts"][2]
    ellipse["rotation"] = ellipse.pop("rotation_rad")


_UNKNOWN_FIELDS = {
    # Read as rotation 0 if it were ignored.
    "cells[0].region.parts[2].rotation": _rename_rotation,
    "bound.kk": lambda d: d["bound"].update(kk=500.0),
    "cells[0].colour": lambda d: d["cells"][0].update(colour="red"),
    # "type" is a key of regions only.
    "channel.type": lambda d: d["channel"].update(type="disk"),
    "version": lambda d: d.update(version=2),
}


@pytest.mark.parametrize(
    "path, mutate", _UNKNOWN_FIELDS.items(), ids=list(_UNKNOWN_FIELDS)
)
def test_schema_rejects_unknown_fields(path, mutate):
    doc = _valid_doc()
    mutate(doc)
    with pytest.raises(SchemaError) as err:
        scenario_from_doc(doc)
    assert str(err.value) == f"{path}: unknown field"


_NON_FINITE = {
    "channel.p0_dbm": lambda d: d["channel"].update(p0_dbm=math.nan),
    "channel.a_db": lambda d: d["channel"].update(a_db=math.inf),
    # An integer literal too large for a float.
    "channel.alpha": lambda d: d["channel"].update(alpha=10**400),
    "bound.k1": lambda d: d["bound"].update(k1=math.inf),
    "victim_bs": lambda d: d.update(victim_bs=[math.nan, 0.0]),
    # The canonical region intersects a square, a disk and an ellipse.
    "cells[0].region.parts[1].radius_km": (
        lambda d: d["cells"][0]["region"]["parts"][1].update(radius_km=math.inf)
    ),
}


@pytest.mark.parametrize("path, mutate", _NON_FINITE.items(), ids=list(_NON_FINITE))
def test_schema_rejects_non_finite(tmp_path, path, mutate):
    # json accepts NaN and Infinity; the loader must not.
    doc = _valid_doc()
    mutate(doc)
    scen = tmp_path / "scen.json"
    scen.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(SchemaError) as err:
        load_scenario(scen)
    assert str(err.value).startswith(f"{path}:")


def test_save_scenario_failure_keeps_previous_file(tmp_path, monkeypatch):
    path = tmp_path / "scen.json"
    save_scenario(build_single_cell(0.01, "uniform", RAYLEIGH), path)
    before = path.read_bytes()

    def failing_dump(obj, fh, **kwargs):
        text = json.dumps(obj, **kwargs)
        fh.write(text[: len(text) // 2])
        raise RuntimeError("write interrupted")

    monkeypatch.setattr(json, "dump", failing_dump)
    with pytest.raises(RuntimeError):
        save_scenario(build_single_cell(0.02, "uniform", RAYLEIGH), path)
    assert path.read_bytes() == before
    assert list(tmp_path.glob("*.tmp")) == []


def test_load_scenario_parse_error(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{ not json", encoding="utf-8")
    with pytest.raises(ParseError):
        load_scenario(path)
