"""scripts/artifact_diff.py on two small artifact trees."""

import json
import struct
import subprocess
import sys
from pathlib import Path

_SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "artifact_diff.py"


def _samples(path, values):
    n = len(values)
    path.write_bytes(struct.pack("<Q", n) + struct.pack(f"<{n}d", *values))


def _tree(root, mu, verdict, samples, extra=False):
    (root / "cell").mkdir(parents=True)
    doc = {"mu_q_dbm": mu, "per_cell": [{"cell_id": 2, "eps2": 1e-5}], "pass": verdict}
    (root / "cell" / "fit.json").write_text(json.dumps(doc))
    (root / "cell" / "bound.csv").write_text(f"cell_id,mu_l\n2,{mu / 10}\n")
    _samples(root / "cell" / "samples.bin", samples)
    (root / "same.json").write_text('{"n": 3}')
    if extra:
        (root / "extra.csv").write_text("a\n1\n")


def _run(a, b):
    return subprocess.run(
        [sys.executable, str(_SCRIPT), str(a), str(b)], capture_output=True, text=True
    )


def test_identical_trees_exit_zero(tmp_path):
    for name in ("a", "b"):
        _tree(tmp_path / name, -120.0, True, [1.0, 2.0])
    out = _run(tmp_path / "a", tmp_path / "b")
    assert (out.returncode, out.stdout) == (0, "")


def test_reports_per_file_maxima_and_other_changes(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    step = 2.0**-40
    _tree(a, -128.0, True, [1.0, -2.0, 4.0])
    _tree(b, -128.0 + step, False, [1.0, -2.0 - step, 4.0], extra=True)
    out = _run(a, b)
    assert out.returncode == 1
    lines = out.stdout.splitlines()
    by_file = {line.split(":")[0]: line for line in lines if not line.startswith(" ")}
    assert set(by_file) == {
        "cell/bound.csv", "cell/fit.json", "cell/samples.bin", "extra.csv"
    }
    assert by_file["extra.csv"] == f"extra.csv: only in {b}"
    # Each file's one moved number, by step; the verdict flip of fit.json
    # is listed under it.
    fit = lines.index(by_file["cell/fit.json"])
    assert by_file["cell/fit.json"] == (
        f"cell/fit.json: max abs {step:.3e}, max rel {step / 128:.3e} over 3 numbers"
    )
    assert lines[fit + 1] == "  /pass: true -> false"
    assert by_file["cell/samples.bin"] == (
        f"cell/samples.bin: max abs {step:.3e}, max rel {step / (2 + step):.3e} "
        "over 3 numbers"
    )
    # The header is text; the row holds the cell id and mu / 10.
    assert by_file["cell/bound.csv"].endswith("over 2 numbers")


def test_usage_error(tmp_path):
    assert _run(tmp_path, tmp_path).returncode == 0
    out = subprocess.run([sys.executable, str(_SCRIPT)], capture_output=True, text=True)
    assert out.returncode == 2 and "usage" in out.stderr


def _move(x, y):
    return f"max rel {abs(x - y) / max(abs(x), abs(y)):.3e}, max abs {abs(x - y):.3e}"


def test_reports_moves_by_name_largest_first(tmp_path):
    # Under each file, the largest move of each JSON key (list indices
    # skipped, so both cells' eps2 are one name) or CSV column, largest
    # first, leaving out what did not move; a sample file adds the index of
    # its largest move.
    a, b = tmp_path / "a", tmp_path / "b"
    eps2 = [[1e-5, 3e-5], [1e-5 * (1 + 2.0**-30), 3e-5 * (1 + 2.0**-29)]]
    mu, grid, mu_l = [-128.0, -128.0 + 2.0**-40], [2.0, 2.0 + 2.0**-45], [-24.0, -24.0]
    mu_l[1] += 2.0**-45
    samples = [[1.0, 2.0, 4.0], [1.0, 2.0 + 2.0**-50, 4.0 + 2.0**-40]]
    for k, root in enumerate((a, b)):
        root.mkdir()
        cells = [{"cell_id": i, "eps2": e} for i, e in enumerate(eps2[k])]
        doc = {"mu_q_dbm": mu[k], "per_cell": cells, "grid": [1.0, grid[k]]}
        (root / "fit.json").write_text(json.dumps(doc))
        (root / "bound.csv").write_text(f"cell_id,mu_l,sigma_l2\n2,{mu_l[k]},4.0\n")
        _samples(root / "samples.bin", samples[k])
    out = _run(a, b)
    assert out.returncode == 1
    lines = out.stdout.splitlines()
    bound, fit, bins = (
        lines.index(next(x for x in lines if x.startswith(name)))
        for name in ("bound.csv", "fit.json", "samples.bin")
    )
    assert lines[bound + 1 : fit] == [f"  mu_l: {_move(*mu_l)}"]
    assert lines[fit + 1 : bins] == [
        f"  eps2: {_move(eps2[0][1], eps2[1][1])}",
        f"  grid: {_move(*grid)}",
        f"  mu_q_dbm: {_move(*mu)}",
    ]
    assert lines[bins + 1 :] == [
        f"  sample: {_move(samples[0][2], samples[1][2])}",
        "  largest move at index 2",
    ]
