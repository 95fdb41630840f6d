import csv
import dataclasses
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ulfit
import ulfit.cli
from ulfit.bound import BoundParams
from ulfit.channel import ChannelParams, FadingModel
from ulfit.cli import main, parse_grid
from ulfit.errors import SchemaError
from ulfit.fileio import atomic_open
from ulfit.geometry import Disk, Intersection, UeDensity
from ulfit.samples import load_samples
from ulfit.scenario import (
    Cell,
    Scenario,
    build_single_cell,
    save_scenario,
    scenario_hash,
    scenario_to_doc,
)

CHANNEL = ChannelParams(103.8, 20.9, -76.0, 0.8, 10.0, 0.005)


def _fast_scenario():
    cell = Cell(2, (0.03, 0.0), Disk((0.03, 0.0), 0.01), UeDensity("uniform"))
    return Scenario(
        victim_bs=(0.0, 0.0),
        cells=(cell,),
        channel=CHANNEL,
        fading=FadingModel("rayleigh"),
        # Coarse omega keeps the probe count low; k1 = k2 must stay well
        # below pi/(2 omega) or the erfc terms saturate the bound.
        bound=BoundParams(omega=0.01, p=200, k1=60.0, k2=60.0),
    )


@pytest.fixture(scope="module")
def ws(tmp_path_factory):
    return tmp_path_factory.mktemp("cli")


@pytest.fixture(scope="module")
def scen(ws):
    return _fast_scenario()


@pytest.fixture(scope="module")
def scen_path(ws, scen):
    path = ws / "scen.json"
    save_scenario(scen, path)
    return path


@pytest.fixture(scope="module")
def fit_path(ws, scen_path):
    out = ws / "fit.json"
    rc = main(
        ["fit", "--scenario", str(scen_path), "--out", str(out), "--grid", "-140:-40:20"]
    )
    assert rc == 0
    return out


@pytest.fixture(scope="module")
def sim_path(ws, scen_path):
    out = ws / "samples.bin"
    rc = main(
        [
            "simulate",
            "--scenario",
            str(scen_path),
            "--out",
            str(out),
            "--n",
            "20000",
            "--seed",
            "3",
            "--workers",
            "2",
        ]
    )
    assert rc == 0
    return out


def test_parse_grid_values():
    np.testing.assert_allclose(
        parse_grid("-120:-60:20"), [-120.0, -100.0, -80.0, -60.0], atol=1e-12
    )
    np.testing.assert_allclose(
        parse_grid("0:1:0.25"), [0.0, 0.25, 0.5, 0.75, 1.0], atol=1e-12
    )
    assert parse_grid("5:5:1").tolist() == [5.0]


def test_parse_grid_rejects():
    # The last two ask for 1e600 and 2e18 rows: past the row cap.
    for bad in (
        "1:2", "1:2:3:4", "a:2:1", "1:2:0", "1:2:-1", "2:1:1",
        "0:1e300:1e-300", "-1e9:1e9:1e-9",
    ):
        with pytest.raises(SchemaError):
            parse_grid(bad)


@pytest.mark.parametrize(
    "spec",
    ["nan:0:1", "-inf:0:1", "0:inf:1", "0:1:inf", "0:1e300:1e-300", "-1e9:1e9:1e-9"],
)
def test_fit_rejects_non_finite_grid(ws, scen_path, spec):
    out = ws / "nonfinite.json"
    rc = main(["fit", "--scenario", str(scen_path), "--out", str(out), "--grid", spec])
    assert rc == 2
    assert list(ws.glob("nonfinite.json*")) == []


def test_bound_command(ws, scen, scen_path):
    out = ws / "bound.csv"
    rc = main(["bound", "--scenario", str(scen_path), "--out", str(out)])
    assert rc == 0

    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == [
        "cell_id",
        "eps1",
        "eps2",
        "eps1_prime",
        "eps2_prime",
        "eps3",
        "eps_total",
        "mu_l",
        "sigma_l2",
    ]
    assert len(rows) == 3
    assert rows[1][0] == "2" and rows[2][0] == "max"
    cell_vals = [float(v) for v in rows[1][1:]]
    max_vals = [float(v) for v in rows[2][1:]]
    assert cell_vals == max_vals
    eps1, eps2, eps1p, eps2p, eps3, eps_total = cell_vals[:6]
    assert eps_total == pytest.approx(eps1 + eps2 + eps1p + eps2p, rel=1e-15)
    assert all(np.isfinite(cell_vals))
    assert 0 < eps_total < 1

    manifest = json.loads((ws / "bound.csv.manifest.json").read_text())
    assert manifest["command"] == "bound"
    assert manifest["scenario_hash"] == scenario_hash(scen)
    assert manifest["bound"] == {"omega": 0.01, "p": 200, "k1": 60.0, "k2": 60.0}
    assert manifest["seed"] is None and manifest["n"] is None
    assert manifest["tool_version"] == ulfit.__version__
    assert manifest["outputs"] == [str(out)]


def test_fit_command_output(ws, scen, fit_path):
    doc = json.loads(fit_path.read_text())
    assert doc["scenario_hash"] == scenario_hash(scen)
    assert 0.9 < doc["lambda"] < 1.1
    assert -110.0 < doc["mu_q_dbm"] < -80.0
    assert doc["sigma_q2_db2"] > 0
    assert doc["eps_total"] > 0
    assert len(doc["per_cell"]) == 1
    pc = doc["per_cell"][0]
    assert pc["cell_id"] == 2
    assert pc["mu_q_dbm"] < pc["mu_g_dbm"]  # fading shifts the mean down
    assert pc["sigma_q2_db2"] > pc["sigma_g2_db2"]
    for key in ("eps1", "eps2", "eps1_prime", "eps2_prime", "eps3", "eps_total"):
        assert key in pc

    with open(f"{fit_path}.cdf.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["q_dbm", "cdf"]
    grid = [float(r[0]) for r in rows[1:]]
    cdf = [float(r[1]) for r in rows[1:]]
    assert grid == [-140.0, -120.0, -100.0, -80.0, -60.0, -40.0]
    assert all(0.0 <= v <= 1.0 for v in cdf)
    assert cdf == sorted(cdf)
    assert cdf[-1] > 0.999

    manifest = json.loads((ws / "fit.json.manifest.json").read_text())
    assert manifest["command"] == "fit"
    assert manifest["outputs"] == [str(fit_path), f"{fit_path}.cdf.csv"]


def test_atomic_open_failure_keeps_previous_file(tmp_path):
    for mode, old, part in (("w", "old\n", "new"), ("wb", b"\x00old", b"\x01new")):
        path = tmp_path / f"out.{mode}"
        with atomic_open(path, mode) as fh:
            fh.write(old)
        with pytest.raises(RuntimeError):
            with atomic_open(path, mode) as fh:
                fh.write(part)
                raise RuntimeError("disk full")
        data = path.read_bytes()
        assert data == (old if mode == "wb" else old.encode())
        assert list(tmp_path.glob("*.tmp")) == []


def test_fit_failure_mid_write_keeps_previous_outputs(
    ws, scen_path, fit_path, monkeypatch
):
    cdf = ws / "fit.json.cdf.csv"
    before = (fit_path.read_bytes(), cdf.read_bytes())
    calls = []
    real_g17 = ulfit.cli._g17

    def failing_g17(x):
        calls.append(x)
        if len(calls) == 5:
            raise RuntimeError("write interrupted")
        return real_g17(x)

    monkeypatch.setattr(ulfit.cli, "_g17", failing_g17)
    with pytest.raises(RuntimeError):
        main(
            [
                "fit",
                "--scenario",
                str(scen_path),
                "--out",
                str(fit_path),
                "--grid",
                "-140:-40:20",
            ]
        )
    assert len(calls) == 5
    assert (fit_path.read_bytes(), cdf.read_bytes()) == before
    assert list(ws.glob("*.tmp")) == []


def test_simulate_outputs(ws, scen, sim_path):
    samples, sidecar = load_samples(sim_path)
    assert samples.n == 20000 and samples.seed == 3
    assert sidecar["scenario_hash"] == scenario_hash(scen)

    manifest = json.loads((ws / "samples.bin.manifest.json").read_text())
    assert manifest["command"] == "simulate"
    assert manifest["seed"] == 3 and manifest["n"] == 20000
    assert manifest["outputs"] == [str(sim_path), f"{sim_path}.json"]


def test_simulate_rerun_is_byte_identical(ws, scen_path, sim_path):
    again = ws / "samples2.bin"
    rc = main(
        [
            "simulate",
            "--scenario",
            str(scen_path),
            "--out",
            str(again),
            "--n",
            "20000",
            "--seed",
            "3",
        ]
    )
    assert rc == 0
    assert again.read_bytes() == sim_path.read_bytes()


def test_compare_pass_flow(ws, sim_path, fit_path):
    report = ws / "report.json"
    rc = main(
        [
            "compare",
            "--samples",
            str(sim_path),
            "--fit",
            str(fit_path),
            "--out",
            str(report),
        ]
    )
    assert rc == 0
    doc = json.loads(report.read_text())
    assert set(doc) == {"ks_empirical_vs_fit", "eps_total", "dkw_slack", "pass"}
    assert doc["pass"] is True
    assert 0.0 <= doc["ks_empirical_vs_fit"] <= doc["eps_total"] + doc["dkw_slack"]

    manifest = json.loads((ws / "report.json.manifest.json").read_text())
    assert manifest["command"] == "compare"
    assert manifest["seed"] == 3 and manifest["n"] == 20000


def test_compare_hash_mismatch_exit4(ws, sim_path, fit_path):
    doc = json.loads(fit_path.read_text())
    doc["scenario_hash"] = "0" * 64
    tampered = ws / "fit_other.json"
    tampered.write_text(json.dumps(doc))
    rc = main(
        [
            "compare",
            "--samples",
            str(sim_path),
            "--fit",
            str(tampered),
            "--out",
            str(ws / "report4.json"),
        ]
    )
    assert rc == 4
    assert not (ws / "report4.json").exists()


def test_exit_code_2_paths(ws, scen_path, sim_path):
    assert main(["bound", "--scenario", str(ws / "nope.json"), "--out", str(ws / "o.csv")]) == 2

    bad_json = ws / "broken.json"
    bad_json.write_text("{ not json")
    assert main(["bound", "--scenario", str(bad_json), "--out", str(ws / "o.csv")]) == 2

    bad_eta = ws / "bad_eta.json"
    doc = json.loads(scen_path.read_text())
    doc["channel"]["eta"] = 1.3
    bad_eta.write_text(json.dumps(doc))
    assert main(["bound", "--scenario", str(bad_eta), "--out", str(ws / "o.csv")]) == 2

    rc = main(
        [
            "fit",
            "--scenario",
            str(scen_path),
            "--out",
            str(ws / "o.json"),
            "--grid",
            "10:0:1",
        ]
    )
    assert rc == 2

    # Draw and worker counts below 1 are refused by the argument parser.
    out = ws / "bad_count.bin"
    for flag, value in (("--n", "0"), ("--workers", "-3")):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--scenario", str(scen_path), "--out", str(out), flag, value])
        assert exc.value.code == 2
        assert list(ws.glob("bad_count.bin*")) == []

    corrupt_fit = ws / "corrupt_fit.json"
    corrupt_fit.write_text("[not a fit")
    assert (
        main(
            [
                "compare",
                "--samples",
                str(sim_path),
                "--fit",
                str(corrupt_fit),
                "--out",
                str(ws / "r.json"),
            ]
        )
        == 2
    )

    thin_fit = ws / "thin_fit.json"
    thin_fit.write_text(json.dumps({"lambda": 1.0}))
    assert (
        main(
            [
                "compare",
                "--samples",
                str(sim_path),
                "--fit",
                str(thin_fit),
                "--out",
                str(ws / "r.json"),
            ]
        )
        == 2
    )


def test_non_finite_scenario_exits_2(ws, scen_path, capsys):
    # json reads NaN; the loader rejects it before any numeric work.
    doc = json.loads(scen_path.read_text())
    doc["channel"]["p0_dbm"] = float("nan")
    nan_p0 = ws / "nan_p0.json"
    nan_p0.write_text(json.dumps(doc))
    out = ws / "nan_fit.json"
    assert main(["fit", "--scenario", str(nan_p0), "--out", str(out)]) == 2
    assert "channel.p0_dbm" in capsys.readouterr().err
    assert not out.exists()
    assert list(ws.glob("nan_fit*")) == []


@pytest.mark.parametrize("command", ["bound", "fit", "simulate", "compare"])
def test_non_utf8_document_exits_2(ws, sim_path, capsys, command):
    # A UTF-16 byte-order mark is not UTF-8: a parse error, not a traceback.
    doc = ws / f"utf16_{command}.json"
    doc.write_bytes(b'\xff\xfe{"a":1}')
    out = ws / f"utf16_{command}.out"
    if command == "compare":
        argv = ["compare", "--samples", str(sim_path), "--fit", str(doc)]
    else:
        argv = [command, "--scenario", str(doc)]
    assert main([*argv, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and str(doc) in err
    assert list(ws.glob(f"utf16_{command}.out*")) == []


_INPUT_RULES = {
    # The Poisson mixture of a Rician law grows as sqrt(gamma).
    "fading.gamma": lambda d: d.update(fading={"kind": "rician", "gamma": 1e5}),
    # The per-cell step bounds need equal cutoffs.
    "bound.k2": lambda d: d["bound"].update(k2=2 * d["bound"]["k1"]),
}


@pytest.mark.parametrize("path, mutate", _INPUT_RULES.items(), ids=list(_INPUT_RULES))
@pytest.mark.parametrize("command", ["fit", "bound"])
def test_constructor_rules_exit_2(ws, scen_path, capsys, command, path, mutate):
    doc = json.loads(scen_path.read_text())
    mutate(doc)
    bad = ws / f"rule_{command}_{path}.json"
    bad.write_text(json.dumps(doc))
    out = ws / f"rule_{command}_{path}.out"
    assert main([command, "--scenario", str(bad), "--out", str(out)]) == 2
    assert path in capsys.readouterr().err
    assert list(ws.glob(f"rule_{command}_{path}.out*")) == []


def _misspelled_rotation(doc):
    cell = doc["cells"][0]
    cell["region"] = {
        "type": "ellipse",
        "center": cell["bs"],
        "a_km": 0.01,
        "b_km": 0.005,
        "rotation": 0.5,
    }


_UNKNOWN_FIELDS = {
    "cells[0].region.rotation": _misspelled_rotation,
    "bound.kk": lambda d: d["bound"].update(kk=60.0),
    "cells[0].colour": lambda d: d["cells"][0].update(colour="red"),
}


@pytest.mark.parametrize(
    "path, mutate", _UNKNOWN_FIELDS.items(), ids=list(_UNKNOWN_FIELDS)
)
def test_fit_unknown_field_exits_2(ws, scen_path, capsys, path, mutate):
    doc = json.loads(scen_path.read_text())
    mutate(doc)
    bad = ws / f"unknown_{path}.json"
    bad.write_text(json.dumps(doc))
    out = ws / f"unknown_{path}.out"
    assert main(["fit", "--scenario", str(bad), "--out", str(out)]) == 2
    assert f"{path}: unknown field" in capsys.readouterr().err
    assert list(ws.glob(f"unknown_{path}.out*")) == []


_SQUARE = [[0.02, -0.01], [0.04, -0.01], [0.04, 0.01], [0.02, 0.01]]
_REGION_RULES = {
    "repeated_vertex": (
        {"type": "polygon", "vertices": _SQUARE[:2] + _SQUARE[1:]},
        "cells[0].region.vertices: consecutive vertices must differ",
    ),
    "closing_vertex": (
        {"type": "polygon", "vertices": _SQUARE + _SQUARE[:1]},
        "cells[0].region.vertices: consecutive vertices must differ",
    ),
    # Clear of the serving station's carve, inside the victim's.
    "victim_carve": (
        {"type": "disk", "center": [0.001, 0.0], "radius_km": 0.001},
        "cells[0].region: exclusion disk covers the whole region",
    ),
    # Within d_min of its station, although its bounding box reaches past.
    "disk_within_d_min": (
        {"type": "disk", "center": [0.0315, 0.0], "radius_km": 0.0034},
        "cells[0].region: exclusion disk covers the whole region",
    ),
    "concentric_annulus": (
        {"type": "annulus", "center": [0.03, 0.0], "r_inner": 0.001, "r_outer": 0.004},
        "cells[0].region: exclusion disk covers the whole region",
    ),
}


@pytest.mark.parametrize("name", list(_REGION_RULES))
@pytest.mark.parametrize("command", ["fit", "simulate"])
def test_region_rules_exit_2(ws, scen_path, capsys, command, name):
    region, message = _REGION_RULES[name]
    doc = json.loads(scen_path.read_text())
    doc["cells"][0]["region"] = region
    bad = ws / f"region_{name}.json"
    bad.write_text(json.dumps(doc))
    out = ws / f"region_{name}_{command}.out"
    argv = [command, "--scenario", str(bad), "--out", str(out)]
    assert main(argv + (["--n", "100"] if command == "simulate" else [])) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert list(ws.glob(f"region_{name}_{command}.out*")) == []


def _set_region(**region):
    return lambda doc: doc["cells"][0].update(region=region)


_D_MIN_0 = "channel.d_min_km: must be > 0"
_COVERED = "cells[0].region: exclusion disk covers the whole region"
# Edits of the bread cell's document (r = 0.01, station at (0.015, 0)):
# density kind, edit, and the exit code that fit and simulate both give,
# with the error message of a refused document.
_EXIT_TABLE = {
    # Inside the user domain: the polar proposal starts at distance 0.
    "origin_inside": (
        "inverse_radial",
        lambda doc: doc["cells"][0]["density"].update(origin=[0.022, 0.0]),
        0,
        None,
    ),
    "d_min_0_uniform": (
        "uniform", lambda doc: doc["channel"].update(d_min_km=0.0), 2, _D_MIN_0
    ),
    "d_min_0_inverse_radial": (
        "inverse_radial", lambda doc: doc["channel"].update(d_min_km=0.0), 2, _D_MIN_0
    ),
    # Within d_min of its station, although its bounding box reaches past.
    "disk_within_d_min": (
        "uniform",
        _set_region(type="disk", center=[0.0165, 0.0], radius_km=0.0034),
        2,
        _COVERED,
    ),
    "concentric_annulus": (
        "uniform",
        _set_region(type="annulus", center=[0.015, 0.0], r_inner=0.001, r_outer=0.004),
        2,
        _COVERED,
    ),
}


@pytest.mark.parametrize("name", list(_EXIT_TABLE))
def test_fit_and_simulate_accept_the_same_scenarios(ws, capsys, name):
    kind, edit, rc, message = _EXIT_TABLE[name]
    doc = scenario_to_doc(build_single_cell(0.01, kind, FadingModel("rayleigh")))
    edit(doc)
    path = ws / f"table_{name}.json"
    path.write_text(json.dumps(doc))
    fit_out, sim_out = ws / f"table_{name}_fit.json", ws / f"table_{name}_sim.bin"
    argv = ["--scenario", str(path), "--out"]
    assert main(["fit", *argv, str(fit_out)]) == rc
    assert main(["simulate", *argv, str(sim_out), "--n", "200000", "--seed", "1"]) == rc
    if message is not None:
        assert capsys.readouterr().err == f"error: {message}\n" * 2
        assert list(ws.glob(f"table_{name}_*")) == []
    else:
        report = ws / f"table_{name}_report.json"
        assert _compare(sim_out, fit_out, report) == 0
        assert json.loads(report.read_text())["pass"] is True


_README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_scenario_runs(ws):
    # The README states the scenario rules next to its one example document.
    text = _README.read_text(encoding="utf-8")
    (block,) = re.findall(r"^```json\n(.*?)^```", text, re.S | re.M)
    path = ws / "readme.json"
    path.write_text(block)
    for command in ("bound", "fit"):
        out = ws / f"readme_{command}.out"
        assert main([command, "--scenario", str(path), "--out", str(out)]) == 0


def test_json_outputs_are_canonical(ws, scen_path, fit_path, sim_path):
    # Every JSON file is written one way: indent 2, sorted keys, final newline.
    bound_csv = ws / "canonical.csv"
    report = ws / "canonical_report.json"
    assert main(["bound", "--scenario", str(scen_path), "--out", str(bound_csv)]) == 0
    assert _compare(sim_path, fit_path, report) == 0
    outputs = (bound_csv, fit_path, sim_path, report)
    paths = [scen_path, fit_path, f"{sim_path}.json", report]
    paths += [f"{p}.manifest.json" for p in outputs]
    for path in paths:
        text = Path(path).read_text(encoding="utf-8")
        assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"


def _compare(samples, fit, out):
    return main(["compare", "--samples", str(samples), "--fit", str(fit), "--out", str(out)])


# Well-formed sample files whose values are no sample set.
_BAD_SAMPLES = {"empty": [], "unsorted": [3.0, 1.0, 2.0]}


@pytest.mark.parametrize("name", list(_BAD_SAMPLES))
def test_compare_rejects_bad_sample_file(ws, fit_path, capsys, name):
    bad = ws / f"{name}_samples.bin"
    values = _BAD_SAMPLES[name]
    n = len(values)
    bad.write_bytes(n.to_bytes(8, "little") + np.array(values, dtype="<f8").tobytes())
    sidecar = {"seed": 1, "n": n, "scenario_hash": "h"}
    Path(f"{bad}.json").write_text(json.dumps(sidecar))
    out = ws / f"{name}_samples_report.json"
    assert _compare(bad, fit_path, out) == 2
    assert capsys.readouterr().err.startswith(f"error: {bad}: sample")
    assert list(ws.glob(f"{name}_samples_report*")) == []


# Sidecar fields of the wrong JSON type; a cast would read each as a number.
_BAD_SIDECARS = {
    "seed_float": ("seed", 1.7),
    "seed_bool": ("seed", True),
    "seed_str": ("seed", "3"),
    "n_float": ("n", 20000.0),
    "n_str": ("n", "20000"),
    "hash_number": ("scenario_hash", 7),
}


@pytest.mark.parametrize("name", list(_BAD_SIDECARS))
def test_compare_rejects_mistyped_sidecar(ws, sim_path, fit_path, capsys, name):
    key, value = _BAD_SIDECARS[name]
    bad = ws / f"typed_{name}.bin"
    bad.write_bytes(sim_path.read_bytes())
    sidecar = json.loads(Path(f"{sim_path}.json").read_text())
    sidecar[key] = value
    Path(f"{bad}.json").write_text(json.dumps(sidecar))
    out = ws / f"typed_{name}_report.json"
    assert _compare(bad, fit_path, out) == 2
    assert f"bad sidecar ({key}: expected" in capsys.readouterr().err
    assert list(ws.glob(f"typed_{name}_report*")) == []


@pytest.mark.parametrize("value", [7, None, ["h"]])
def test_compare_rejects_non_string_fit_hash(ws, sim_path, fit_path, capsys, value):
    doc = json.loads(fit_path.read_text())
    doc["scenario_hash"] = value
    bad_fit = ws / "hash_fit.json"
    bad_fit.write_text(json.dumps(doc))
    out = ws / "hash_fit_report.json"
    assert _compare(sim_path, bad_fit, out) == 2
    assert "scenario_hash must be a string" in capsys.readouterr().err
    assert list(ws.glob("hash_fit_report*")) == []


def test_compare_rejects_nan_sample(ws, sim_path, fit_path):
    # A NaN mid-array compares False and would pass a plain sort check.
    body = bytearray(sim_path.read_bytes())
    mid = 8 + 8 * 10_000
    body[mid : mid + 8] = np.array([np.nan], dtype="<f8").tobytes()
    nan_samples = ws / "nan_samples.bin"
    nan_samples.write_bytes(bytes(body))
    (ws / "nan_samples.bin.json").write_bytes(Path(f"{sim_path}.json").read_bytes())
    out = ws / "nan_sample_report.json"
    assert _compare(nan_samples, fit_path, out) == 2
    assert list(ws.glob("nan_sample_report*")) == []


@pytest.mark.parametrize("key", ["lambda", "mu_q_dbm", "sigma_q2_db2", "eps_total"])
def test_compare_rejects_nan_fit_field(ws, sim_path, fit_path, key, capsys):
    doc = json.loads(fit_path.read_text())
    doc[key] = float("nan")
    nan_fit = ws / f"nan_{key}.json"
    nan_fit.write_text(json.dumps(doc))
    out = ws / f"nan_{key}_report.json"
    assert _compare(sim_path, nan_fit, out) == 2
    assert key in capsys.readouterr().err
    assert list(ws.glob(f"nan_{key}_report*")) == []


@pytest.mark.parametrize(
    "name, value",
    [("str", "2.5"), ("bool", True), ("huge_int", 10**400)],
    ids=["str", "bool", "huge_int"],
)
def test_compare_rejects_non_number_fit_field(
    ws, sim_path, fit_path, name, value, capsys
):
    # A string, a boolean or an integer beyond float range is not coerced:
    # the scenario codec's number rule holds for fit documents too.
    doc = json.loads(fit_path.read_text())
    doc["lambda"] = value
    bad_fit = ws / f"typed_lambda_{name}.json"
    bad_fit.write_text(json.dumps(doc))
    out = ws / f"typed_lambda_{name}_report.json"
    assert _compare(sim_path, bad_fit, out) == 2
    assert "lambda must be a finite number" in capsys.readouterr().err
    assert list(ws.glob(f"typed_lambda_{name}_report*")) == []


@pytest.mark.parametrize(
    "key, value", [("lambda", -1.0), ("lambda", 0.0), ("sigma_q2_db2", 0.0)]
)
def test_compare_rejects_out_of_range_fit_field(
    ws, sim_path, fit_path, key, value, capsys
):
    # A finite field outside the law's domain is a bad document too.
    doc = json.loads(fit_path.read_text())
    doc[key] = value
    bad_fit = ws / f"bad_{key}_{value:g}.json"
    bad_fit.write_text(json.dumps(doc))
    out = ws / f"bad_{key}_{value:g}_report.json"
    assert _compare(sim_path, bad_fit, out) == 2
    assert "must be > 0" in capsys.readouterr().err
    assert list(ws.glob(f"bad_{key}_{value:g}_report*")) == []


def test_compare_rejects_negative_eps_total(ws, sim_path, fit_path, capsys):
    # A bound below zero is no bound; one above 1 is vacuous but legal.
    doc = json.loads(fit_path.read_text())
    doc["eps_total"] = -1.0
    bad_fit = ws / "neg_eps.json"
    bad_fit.write_text(json.dumps(doc))
    out = ws / "neg_eps_report.json"
    assert _compare(sim_path, bad_fit, out) == 2
    assert "eps_total must be >= 0" in capsys.readouterr().err
    assert list(ws.glob("neg_eps_report*")) == []
    doc["eps_total"] = 2.0
    bad_fit.write_text(json.dumps(doc))
    assert _compare(sim_path, bad_fit, out) == 0
    assert json.loads(out.read_text())["pass"] is True


def test_compare_rejects_non_utf8_sidecar(ws, sim_path, fit_path, capsys):
    bad = ws / "utf16_sidecar.bin"
    bad.write_bytes(sim_path.read_bytes())
    Path(f"{bad}.json").write_bytes(b'\xff\xfe{"a":1}')
    out = ws / "utf16_sidecar_report.json"
    assert _compare(bad, fit_path, out) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and f"{bad}.json: bad sidecar" in err
    assert list(ws.glob("utf16_sidecar_report*")) == []


def test_fit_dmin_cell(ws):
    # The canonical cell at r = d_min, whose scan gaps hold two label
    # changes each, settles.
    path = ws / "dmin_cell.json"
    save_scenario(build_single_cell(0.005, "uniform", FadingModel("rayleigh")), path)
    out = ws / "dmin_fit.json"
    assert main(["fit", "--scenario", str(path), "--out", str(out)]) == 0
    assert json.loads(out.read_text())["lambda"] > 0


def test_fit_with_huge_p(ws):
    # eps2 builds only the harmonics above its term floor, so a legal
    # p = 10^15 costs what the default does.
    bound = BoundParams(omega=0.01, p=10**15, k1=60.0, k2=60.0)
    path = ws / "huge_p.json"
    save_scenario(dataclasses.replace(_fast_scenario(), bound=bound), path)
    out = ws / "huge_p_fit.json"
    assert main(["fit", "--scenario", str(path), "--out", str(out)]) == 0
    assert json.loads(out.read_text())["lambda"] > 0


def test_exit_code_3_numeric(ws):
    # Lens of two almost-disjoint disks: valid schema, unusable measure.
    lens = Intersection((Disk((0.0, 0.0), 1.0), Disk((2.0 - 1e-12, 0.0), 1.0)))
    scen = Scenario(
        victim_bs=(0.0, 0.0),
        cells=(Cell(2, (1.0, 0.5), lens, UeDensity("uniform")),),
        channel=CHANNEL,
        fading=FadingModel("none"),
        bound=BoundParams(omega=0.01, p=200),
    )
    path = ws / "lens.json"
    save_scenario(scen, path)
    rc = main(
        [
            "simulate",
            "--scenario",
            str(path),
            "--out",
            str(ws / "lens.bin"),
            "--n",
            "4",
            "--seed",
            "2",
        ]
    )
    assert rc == 3


def _fast_scenario_with(*cells):
    """The fast scenario with these cells, in this order."""
    return dataclasses.replace(_fast_scenario(), cells=cells)


@pytest.mark.parametrize("command", ["fit", "bound"])
def test_numeric_error_names_the_cell(ws, capsys, command):
    # The fast disk (cell 2), then the lens of test_exit_code_3_numeric.
    lens = Intersection((Disk((0.0, 0.0), 1.0), Disk((2.0 - 1e-12, 0.0), 1.0)))
    scen = _fast_scenario_with(
        *_fast_scenario().cells, Cell(5, (1.0, 0.5), lens, UeDensity("uniform"))
    )
    path = ws / "lens2.json"
    save_scenario(scen, path)
    out = ws / f"lens2_{command}.out"
    rc = main([command, "--scenario", str(path), "--out", str(out)])
    assert rc == 3
    assert capsys.readouterr().err.startswith("error: cell 5:")
    assert list(ws.glob("lens2_*")) == []
    assert list(ws.glob("*.tmp")) == []


def test_bound_and_fit_report_the_same_cells(ws):
    disk = Disk((-0.03, 0.0), 0.01)
    scen = _fast_scenario_with(
        Cell(4, (-0.03, 0.0), disk, UeDensity("uniform")), *_fast_scenario().cells
    )
    path = ws / "two.json"
    save_scenario(scen, path)
    csv_out, json_out = ws / "two.csv", ws / "two_fit.json"
    assert main(["bound", "--scenario", str(path), "--out", str(csv_out)]) == 0
    assert main(["fit", "--scenario", str(path), "--out", str(json_out)]) == 0
    with open(csv_out, newline="") as fh:
        rows = list(csv.DictReader(fh))[:-1]  # the last row is the maxima
    per_cell = json.loads(json_out.read_text())["per_cell"]
    assert [r["cell_id"] for r in rows] == ["4", "2"]
    assert [c["cell_id"] for c in per_cell] == [4, 2]
    keys = ("eps1", "eps2", "eps1_prime", "eps2_prime", "eps3", "eps_total")
    for row, cell in zip(rows, per_cell):
        assert [float(row[k]) for k in keys] == [cell[k] for k in keys]


def test_cli_import_loads_no_scipy():
    # numpy and the standard library are the only runtime dependencies;
    # scipy is a test oracle. A fresh interpreter shows what importing
    # the CLI pulls in.
    src = str(Path(ulfit.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    code = (
        "import sys, ulfit.cli; "
        "print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.strip() == "[]"


def _fresh_interpreter(code, *args):
    """stdout of code run by a fresh interpreter on the package under test."""
    src = str(Path(ulfit.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", code, *args],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    return out.stdout


# Modules a command must not load beyond what numpy itself loads.
_NOT_LOADED = {
    "import": {"numpy.ma"},
    "bound": {"numpy.ma"},
    "fit": {"numpy.ma"},
    "simulate": {
        "ulfit.bound", "ulfit.fit", "ulfit.gauss", "numpy.ma", "numpy.polynomial"
    },
    "compare": {
        "numpy.ma",
        "ulfit.gauss",
        "ulfit.channel",
        "ulfit.geometry",
        "ulfit.bound",
        "ulfit.scenario",
        "ulfit.montecarlo",
        "numpy.polynomial",
        "statistics",
        "concurrent.futures",
    },
}


@pytest.mark.parametrize("command", list(_NOT_LOADED))
def test_command_import_set(ws, scen_path, sim_path, fit_path, command):
    # Each command imports only the modules it runs. numpy and the standard
    # library are the only runtime dependencies; scipy is a test oracle.
    argv = {
        "import": [],
        "bound": [
            "bound", "--scenario", str(scen_path), "--out", str(ws / "imp.csv")
        ],
        "fit": ["fit", "--scenario", str(scen_path), "--out", str(ws / "imp.json")],
        "simulate": [
            "simulate", "--scenario", str(scen_path), "--out", str(ws / "imp.bin"),
            "--n", "1000",
        ],
        "compare": [
            "compare", "--samples", str(sim_path), "--fit", str(fit_path),
            "--out", str(ws / "imp_report.json"),
        ],
    }[command]
    code = (
        "import json, sys\n"
        "import numpy\n"
        "before = set(sys.modules)\n"
        "import ulfit.cli\n"
        "rc = ulfit.cli.main(sys.argv[1:]) if sys.argv[1:] else 0\n"
        "print(json.dumps([rc, sorted(set(sys.modules) - before)]))\n"
    )
    rc, loaded = json.loads(_fresh_interpreter(code, *argv))
    assert rc == 0
    assert [m for m in loaded if m == "scipy" or m.startswith("scipy.")] == []
    assert _NOT_LOADED[command].isdisjoint(loaded)
    if command == "import":
        own = {m for m in loaded if m == "ulfit" or m.startswith("ulfit.")}
        assert own == {"ulfit", "ulfit.cli", "ulfit.errors", "ulfit.fileio"}


_TRACED = Path(__file__).resolve().parents[1] / "perfbench" / "traced.py"


def test_traced_cli_names_resolve():
    # perfbench/traced.py wraps these names of ulfit.cli before a command
    # runs; on a fresh import each must resolve to a callable.
    names = re.findall(r'tr\.hook\(cli, "(\w+)"', _TRACED.read_text())
    assert len(names) >= 12
    code = (
        "import sys, ulfit.cli\n"
        "print(all(callable(getattr(ulfit.cli, n)) for n in sys.argv[1:]))\n"
    )
    assert _fresh_interpreter(code, *names).strip() == "True"


_SPIED = {
    "compare": ("load_samples", "ks_distance"),
    "simulate": ("simulate_aggregate", "save_samples"),
    "fit": ("l_stats", "power_lognormal_fit"),
}


@pytest.mark.parametrize("command", list(_SPIED))
def test_commands_call_patched_names(
    ws, scen_path, sim_path, fit_path, monkeypatch, command
):
    # A name patched on ulfit.cli is what the command calls, whether or not
    # an earlier command bound it already.
    calls = []
    for name in _SPIED[command]:
        monkeypatch.delitem(vars(ulfit.cli), name, raising=False)
        real = getattr(ulfit.cli, name)

        def spy(*args, _real=real, _name=name, **kwargs):
            calls.append(_name)
            return _real(*args, **kwargs)

        monkeypatch.setattr(ulfit.cli, name, spy)
    argv = {
        "compare": [
            "compare", "--samples", str(sim_path), "--fit", str(fit_path),
            "--out", str(ws / "spy_report.json"),
        ],
        "simulate": [
            "simulate", "--scenario", str(scen_path), "--out", str(ws / "spy.bin"),
            "--n", "1000",
        ],
        "fit": ["fit", "--scenario", str(scen_path), "--out", str(ws / "spy.json")],
    }[command]
    assert main(argv) == 0
    assert set(calls) == set(_SPIED[command])
