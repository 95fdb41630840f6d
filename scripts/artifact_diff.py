"""Report how far the numbers of two artifact trees moved, file by file.

    python3 scripts/artifact_diff.py A B

A and B are two output trees of scripts/cli_artifacts.py (or any trees of
ulfit artifacts). For every file that is not byte-identical, one line
gives the largest absolute and relative move of its numbers: JSON numbers
matched by their path in the document, CSV cells matched by row and
column, and the float64 values of a sample file (8-byte little-endian
count, then the values). The relative move of a pair (a, b) is
|a - b| / max(|a|, |b|). Anything else that changed, a string, a boolean
such as a verdict, a shape or a file present on one side only, is listed
after it. Then come the numbers that moved, grouped by name: the last
key of a JSON path (list indices skipped, so every entry of per_cell
shares "eps2"), a CSV column's header, or "sample" for a sample file,
each group with its largest relative and absolute move, largest first;
a sample file also gives the index of its largest move. The exit status
is 0 when the trees are byte-identical, 1 when any file differs, and 2
on a usage error.
"""

from __future__ import annotations

import csv
import json
import struct
import sys
from array import array
from pathlib import Path


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _json_pairs(a, b, path, pairs, other, name=""):
    """Collect the (name, a, b) number triples of two JSON values, and what
    else differs; ``name`` is the last key on the path."""
    if _is_number(a) and _is_number(b):
        pairs.append((name, a, b))
    elif isinstance(a, dict) and isinstance(b, dict) and a.keys() == b.keys():
        for key in a:
            _json_pairs(a[key], b[key], f"{path}/{key}", pairs, other, key)
    elif isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        for i, (x, y) in enumerate(zip(a, b)):
            _json_pairs(x, y, f"{path}/{i}", pairs, other, name)
    elif a != b:
        other.append(f"{path or '/'}: {json.dumps(a)} -> {json.dumps(b)}")


def _number(cell: str):
    try:
        return float(cell)
    except ValueError:
        return None


def _csv_pairs(a: Path, b: Path, pairs, other):
    with open(a, newline="") as fa, open(b, newline="") as fb:
        rows_a, rows_b = list(csv.reader(fa)), list(csv.reader(fb))
    if [len(r) for r in rows_a] != [len(r) for r in rows_b]:
        other.append(f"shape {len(rows_a)} rows -> {len(rows_b)} rows")
        return
    header = rows_a[0] if rows_a else []
    for i, (ra, rb) in enumerate(zip(rows_a, rows_b)):
        for j, (x, y) in enumerate(zip(ra, rb)):
            u, v = _number(x), _number(y)
            if u is not None and v is not None:
                name = header[j] if j < len(header) else f"column {j}"
                pairs.append((name, u, v))
            elif x != y:
                other.append(f"row {i} column {j}: {x!r} -> {y!r}")


def _samples(path: Path) -> array:
    data = path.read_bytes()
    (n,) = struct.unpack("<Q", data[:8])
    values = array("d", data[8 : 8 + 8 * n])
    if sys.byteorder == "big":
        values.byteswap()
    return values


def _bin_pairs(a: Path, b: Path, pairs, other):
    va, vb = _samples(a), _samples(b)
    if len(va) != len(vb):
        other.append(f"count {len(va)} -> {len(vb)}")
        return
    pairs.extend(("sample", x, y) for x, y in zip(va, vb))


def _moves(pairs):
    """(relative, absolute) move of each (name, a, b) triple."""
    for _, x, y in pairs:
        move, scale = abs(x - y), max(abs(x), abs(y))
        yield (move / scale if scale else 0.0), move


def compare(a: Path, b: Path):
    """(largest absolute move, largest relative move, number count, other
    changes, per-name lines) of two files of the same name."""
    pairs, other = [], []
    if a.suffix == ".json":
        docs = json.loads(a.read_text()), json.loads(b.read_text())
        _json_pairs(*docs, "", pairs, other)
    elif a.suffix == ".csv":
        _csv_pairs(a, b, pairs, other)
    elif a.suffix == ".bin":
        _bin_pairs(a, b, pairs, other)
    else:
        other.append("not a JSON, CSV or sample file")
    moves = list(_moves(pairs))
    worst_rel = max((rel for rel, _ in moves), default=0.0)
    worst_abs = max((move for _, move in moves), default=0.0)
    by_name = {}
    for (name, _, _), (rel, move) in zip(pairs, moves):
        if move:
            old = by_name.get(name, (0.0, 0.0))
            by_name[name] = (max(old[0], rel), max(old[1], move))
    lines = [
        f"{name}: max rel {rel:.3e}, max abs {move:.3e}"
        for name, (rel, move) in sorted(by_name.items(), key=lambda kv: -kv[1][0])
    ]
    if a.suffix == ".bin" and by_name:
        worst = max(range(len(moves)), key=lambda i: moves[i])
        lines.append(f"largest move at index {worst}")
    return worst_abs, worst_rel, len(pairs), other, lines


def main(argv) -> int:
    if len(argv) != 2:
        print(f"usage: {__doc__.splitlines()[2].strip()}", file=sys.stderr)
        return 2
    roots = [Path(arg) for arg in argv]
    names = sorted(
        {p.relative_to(root) for root in roots for p in root.rglob("*") if p.is_file()}
    )
    status = 0
    for name in names:
        a, b = (root / name for root in roots)
        if not (a.is_file() and b.is_file()):
            print(f"{name}: only in {roots[0] if a.is_file() else roots[1]}")
            status = 1
            continue
        if a.read_bytes() == b.read_bytes():
            continue
        status = 1
        worst_abs, worst_rel, count, other, lines = compare(a, b)
        print(
            f"{name}: max abs {worst_abs:.3e}, max rel {worst_rel:.3e} "
            f"over {count} numbers"
        )
        for line in other + lines:
            print(f"  {line}")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
