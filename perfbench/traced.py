"""One ulfit CLI step with spans around every layer call, for per-layer numbers.

    python3 perfbench/traced.py --spans sp.json fit --scenario s.json --out f.json
    python3 perfbench/traced.py --spans sp.json simulate --scenario s.json --out s.bin --n N --seed S --workers W
    python3 perfbench/traced.py --spans sp.json compare --samples s.bin --fit f.json --out r.json

Everything after --spans PATH is handed to ulfit.cli.main, so the step is
the CLI's own code path and writes the CLI's own artifacts. Before that,
the names the CLI and the modules call each other through are wrapped in
spans in the caller's namespace; nothing inside src/ulfit changes. Each
step runs in a fresh interpreter, as the CLI does, so cached fading nodes
start cold. Spans are kept in memory and written to the --spans file when
the step ends. A name that no longer exists is an error, not a layer
without work: the step exits 5 before running.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import itertools
import json
import sys
import threading
import time
from contextlib import contextmanager

import numpy as np

# Fixed seeded block of proposals for the computed per-cell acceptance.
ACCEPTANCE_PROPOSALS = 1 << 16
ACCEPTANCE_SEED = 20150811
EXIT_MISSING_HOOK = 5


class MissingHook(Exception):
    """A hooked name is gone from its module."""


class Tracer:
    """In-memory spans: id, name, parent id, start, end, thread, attributes.

    A span opened on a worker thread with no open span of its own takes
    the innermost open span of the thread that created the tracer as its
    parent, which is the call that started the workers.
    """

    def __init__(self):
        self.spans = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._owner = threading.get_ident()
        self._owner_stack = self._stack()

    def _stack(self):
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    @contextmanager
    def span(self, name, **attrs):
        stack = self._stack()
        if stack:
            parent = stack[-1]["id"]
        elif threading.get_ident() != self._owner and self._owner_stack:
            parent = self._owner_stack[-1]["id"]
        else:
            parent = None
        rec = {"id": next(self._ids), "name": name, "parent": parent, **attrs}
        rec["thread"] = threading.get_ident()
        stack.append(rec)
        rec["start"] = time.perf_counter()
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            stack.pop()
            self.spans.append(rec)

    def hook(self, module, attr, name, before=None, after=None):
        """Wrap module.attr in a span named name.

        before(args) and after(args, result) return span attributes.
        """
        fn = getattr(module, attr, None)
        if fn is None:
            raise MissingHook(f"{module.__name__}.{attr}")

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name, **(before(args) if before else {})) as rec:
                out = fn(*args, **kwargs)
                if after is not None:
                    rec.update(after(args, out))
            return out

        setattr(module, attr, wrapper)
        return wrapper


def _cell(args):
    return {"cell": args[0].id}


def install(tr) -> dict:
    """Wraps every traced name; returns what the step captured."""
    import ulfit.bound as bound
    import ulfit.cli as cli
    import ulfit.fit as fit
    import ulfit.montecarlo as mc

    captured = {}

    def keep_scenario(args, out):
        captured["scenario"] = out
        return {}

    tr.hook(cli, "cmd_fit", "cli.fit")
    tr.hook(cli, "cmd_simulate", "cli.simulate")
    tr.hook(cli, "cmd_compare", "cli.compare")
    tr.hook(cli, "load_scenario", "scenario.load_scenario", after=keep_scenario)
    tr.hook(cli, "scenario_hash", "scenario.scenario_hash")

    # fit: quadrature and bounds per cell, then the aggregate.
    l_stats = tr.hook(cli, "l_stats", "bound.l_stats", before=_cell)

    def l_stats_traced_char_fn(cell, *rest, **kwargs):
        stats = l_stats(cell, *rest, **kwargs)
        inner = stats.char_fn

        def char_fn(t):
            with tr.span("bound.coupling_char_fn", cell=cell.id, freqs=int(np.size(t))):
                return inner(t)

        return dataclasses.replace(stats, char_fn=char_fn)

    cli.l_stats = l_stats_traced_char_fn
    tr.hook(cli, "total_bound", "bound.total_bound", before=_cell)
    tr.hook(bound, "density_profile", "geometry.density_profile",
            after=lambda a, out: {"bins": int(len(out[2]))})
    tr.hook(bound, "step1_bound", "bound.step1_bound")
    tr.hook(bound, "step2_bound", "bound.step2_bound")
    tr.hook(bound, "epsilon2", "bound.epsilon2")
    tr.hook(bound, "fading_char_fn", "channel.fading_char_fn")
    tr.hook(cli, "power_lognormal_fit", "fit.power_lognormal_fit")
    tr.hook(fit, "solve_sum_stats", "fit.solve_sum_stats")

    # simulate: per-cell slices on worker threads, rejection rounds inside.
    tr.hook(cli, "simulate_aggregate", "montecarlo.simulate_aggregate")
    tr.hook(cli, "save_samples", "montecarlo.save_samples")
    tr.hook(mc, "_cell_slice", "montecarlo.cell_slice",
            before=lambda a: {"cell": a[0].id, "draws": int(a[6])})
    tr.hook(mc, "_positions_slice", "montecarlo.positions_slice")
    tr.hook(mc, "proposal_block", "geometry.proposal_block",
            after=lambda a, out: {"proposed": int(len(a[4])),
                                  "accepted": int(out[1].sum())})
    tr.hook(mc, "coupling_gain_L", "channel.coupling_gain_L",
            after=lambda a, out: {"points": int(np.size(out))})
    tr.hook(mc, "sample_fading_db_block", "channel.sample_fading_db_block",
            before=lambda a: {"draws": int(a[2])})

    # compare.
    tr.hook(cli, "load_samples", "montecarlo.load_samples")
    tr.hook(cli, "ks_distance", "montecarlo.ks_distance")
    return captured


def acceptance(scenario) -> list:
    """Per-cell accepted share of one fixed seeded block of proposals."""
    from ulfit.geometry import proposal_block, rejection_envelope, ue_domain

    u = np.random.default_rng(ACCEPTANCE_SEED).random((ACCEPTANCE_PROPOSALS, 3))
    out = []
    for cell in scenario.cells:
        region = ue_domain(
            cell.region, cell.bs, scenario.victim_bs, scenario.channel.d_min_km
        )
        box, floor = rejection_envelope(region, cell.density)
        _, ok = proposal_block(region, cell.density, box, floor, u)
        out.append(float(ok.mean()))
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spans", required=True)
    parser.add_argument("argv", nargs=argparse.REMAINDER)
    args = parser.parse_args()

    from ulfit import cli

    tr = Tracer()
    try:
        captured = install(tr)
    except MissingHook as exc:
        print(f"traced: {exc} is gone; update perfbench/traced.py", file=sys.stderr)
        return EXIT_MISSING_HOOK
    code = cli.main(args.argv)
    if code != 0:
        return code
    doc = {"spans": tr.spans}
    if args.argv[0] == "simulate":
        # Not part of the CLI step: a computed figure, timed apart.
        with tr.span("computed.acceptance"):
            doc["acceptance"] = acceptance(captured["scenario"])
    with open(args.spans, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
