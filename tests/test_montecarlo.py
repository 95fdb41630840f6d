import dataclasses
import json
import math
import struct
import tracemalloc

import numpy as np
import pytest
from scipy.special import ndtr
from scipy.stats import kstest

from ulfit import montecarlo, samples
from ulfit.bound import BoundParams
from ulfit.channel import (
    ChannelParams,
    FadingModel,
    coupling_gain_L,
    fading_moments,
    shadow_var,
)
from ulfit.errors import DomainError, ParseError
from ulfit.fit import PowerLognormalFit, powln_cdf_db
from ulfit.geometry import Disk, UeDensity, proposal_block, ue_domain
from ulfit.montecarlo import (
    _SLICE,
    _cell_slice,
    _envelope,
    _positions_slice,
    _skipped,
    simulate_aggregate,
)
from ulfit.samples import (
    SampleSet,
    dkw_slack,
    ks_distance,
    load_samples,
    save_samples,
)
from ulfit.scenario import (
    Cell,
    Scenario,
    build_hotspot_layout,
    build_single_cell,
    rng_stream,
)

RAYLEIGH = FadingModel("rayleigh")


@pytest.fixture(scope="module")
def bread():
    return build_single_cell(0.01, "uniform", RAYLEIGH)


@pytest.fixture(scope="module")
def bread_ir():
    return build_single_cell(0.01, "inverse_radial", RAYLEIGH)


@pytest.fixture(scope="module")
def sim1m(bread):
    return simulate_aggregate(bread, 1_000_000, 13, workers=2)


def test_sample_set_validation():
    with pytest.raises(DomainError):
        SampleSet(np.array([2.0, 1.0]), 0)
    with pytest.raises(DomainError):
        SampleSet(np.array([]), 0)
    # NaN compares False, so a mid-array NaN would pass the sort check.
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(DomainError, match="finite"):
            SampleSet(np.array([1.0, bad, 3.0]), 0)


def test_stream_offset_positioning():
    full = rng_stream(9, 3, "shadow").random(24)
    for off in (0, 1, 2, 3, 4, 5, 7, 11, 17):
        part = _skipped(9, 3, "shadow", off).random(6)
        np.testing.assert_array_equal(part, full[off : off + 6])


def test_stream_draws_are_contiguous():
    gen = rng_stream(9, 3, "fading")
    a = gen.random(5)
    b = gen.random(7)
    np.testing.assert_array_equal(
        np.concatenate([a, b]), rng_stream(9, 3, "fading").random(12)
    )


def _spans(monkeypatch, scen, n):
    """The (lo, m) slices that simulate_aggregate draws, with _SLICE = 4096."""
    spans = []
    cell_slice = montecarlo._cell_slice

    def recorded(*args):
        spans.append(args[5:])
        return cell_slice(*args)

    with monkeypatch.context() as m:
        m.setattr(montecarlo, "_SLICE", 4096)
        m.setattr(montecarlo, "_cell_slice", recorded)
        simulate_aggregate(scen, n, 3, workers=2)
    return sorted(spans)


def test_slices_cover_every_draw_once(bread, monkeypatch):
    # Below one slice, exactly one, one over, and two with a remainder.
    s = 4096
    assert _spans(monkeypatch, bread, 100) == [(0, 100)]
    assert _spans(monkeypatch, bread, s) == [(0, s)]
    assert _spans(monkeypatch, bread, s + 1) == [(0, s), (s, 1)]
    assert _spans(monkeypatch, bread, 2 * s + 100) == [(0, s), (s, s), (2 * s, 100)]


def test_simulate_cell_frozen(bread):
    s = simulate_aggregate(bread, 1000, 5)
    assert s.n == 1000 and s.seed == 5
    assert s.values[0] == pytest.approx(-138.2163247661705, rel=1e-12)
    assert s.values[-1] == pytest.approx(-47.67883039971794, rel=1e-12)
    assert s.values.mean() == pytest.approx(-96.36740664805201, rel=1e-12)


def test_simulate_cell_validation(bread):
    # The CLI refuses counts below 1 at parse time; a library call gets
    # the refusal of the objects that own each rule.
    with pytest.raises(DomainError, match="non-empty"):
        simulate_aggregate(bread, 0, 5, workers=2)
    with pytest.raises(ValueError, match="max_workers"):
        simulate_aggregate(bread, 10, 5, workers=0)
    with pytest.raises(ValueError, match="negative dimensions"):
        simulate_aggregate(bread, -1, 5)


def _sampler_state(scen, cell):
    """(region, envelope) of a cell, as simulate_aggregate builds them."""
    region = ue_domain(cell.region, cell.bs, scen.victim_bs, scen.channel.d_min_km)
    return region, _envelope(region, cell.density)


def test_slice_prefix_purity(bread, bread_ir):
    # Both envelopes: the box (uniform) and the polar one (inverse_radial).
    for scen in (bread, bread_ir):
        cell = scen.cells[0]
        state = _sampler_state(scen, cell)
        for fading in (FadingModel("none"), RAYLEIGH, FadingModel("rician", 5.0)):
            faded = dataclasses.replace(scen, fading=fading)
            full = _cell_slice(cell, *state, faded, 3, 0, 1000)
            head = _cell_slice(cell, *state, faded, 3, 0, 600)
            tail = _cell_slice(cell, *state, faded, 3, 600, 400)
            np.testing.assert_array_equal(head, full[:600])
            np.testing.assert_array_equal(tail, full[600:])


def test_slice_memory_is_bounded(bread, bread_ir):
    # One slice's working set stays near a per-core L2 cache, on the tiled
    # envelope (bread) and on the polar one (bread_ir, a hotspot disk cell).
    hotspot = build_hotspot_layout(3, 0.01, 2, density_kind="inverse_radial")
    for scen in (bread, bread_ir, hotspot):
        cell = scen.cells[0]
        args = (cell, *_sampler_state(scen, cell), scen, 3)
        _cell_slice(*args, 0, _SLICE)
        tracemalloc.start()
        try:
            _cell_slice(*args, _SLICE, _SLICE)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4e6


def test_pilot_reads_one_stream(bread, bread_ir):
    # The pilot proposes in blocks of one stream: the same proposals as a
    # prefix of one block of _PILOT. These cells accept at least 66 of
    # its first block, so it stops there.
    for scen in (bread, bread_ir):
        cell = scen.cells[0]
        region, (corners, size, p) = _sampler_state(scen, cell)
        u = rng_stream(0, 0, "pos:pilot").random((montecarlo._PILOT, 2))
        _, ok = proposal_block(region, cell.density, corners, size, u)
        assert p == ok[: montecarlo._PILOT_HEAD].mean()


def test_parallel_equals_serial(bread, bread_ir):
    for scen in (bread, bread_ir):
        serial = simulate_aggregate(scen, 600_000, 7, workers=1)
        threaded = simulate_aggregate(scen, 600_000, 7, workers=3)
        np.testing.assert_array_equal(serial.values, threaded.values)


def test_slice_size_invariance(bread, bread_ir, monkeypatch):
    # Every draw is a function of its index alone, whatever the slicing.
    for scen in (bread, bread_ir):
        default = simulate_aggregate(scen, 10_000, 7)
        with monkeypatch.context() as m:
            m.setattr(montecarlo, "_SLICE", 4096)
            small = simulate_aggregate(scen, 10_000, 7, workers=2)
        np.testing.assert_array_equal(small.values, default.values)


def _reference_proposal_block(region, density, corners, size, u):
    # The proposal map in plain form: strided (n, 2) columns and a
    # column_stack of the polar point, whose cosine and sine come from
    # t = tan(theta / 2) as 2 / (1 + t^2) - 1 and 2 t / (1 + t^2). The
    # sampler's in-place form may only reorder commutative operations, so
    # it must match bit for bit.
    k = len(corners)
    t = u[:, 0] * k
    j = np.minimum(t.astype(np.intp), k - 1)
    q = np.empty((len(u), 2))
    q[:, 0] = corners[j, 0] + (t - j) * size[0]
    q[:, 1] = corners[j, 1] + u[:, 1] * size[1]
    if density.kind == "inverse_radial":
        rho, theta = q[:, 0], q[:, 1]
        ox, oy = density.origin
        t = np.tan(theta / 2.0)
        w = 2.0 / (1.0 + t * t)
        q = np.column_stack((ox + rho * (w - 1.0), oy + rho * (t * w)))
    return q, region._mask(*q.T)


def test_positions_match_reference_proposal_math(bread, bread_ir, monkeypatch):
    # Uniform tiles (bread) and the polar tile (bread_ir), over several
    # rejection rounds, from an offset that does not start a slice.
    for scen in (bread, bread_ir):
        cell = scen.cells[0]
        region, envelope = _sampler_state(scen, cell)
        args = (region, cell.density, envelope, cell.id, 8)
        got = _positions_slice(*args, 1234, 20_000)
        with monkeypatch.context() as m:
            m.setattr(montecarlo, "proposal_block", _reference_proposal_block)
            ref = _positions_slice(*args, 1234, 20_000)
        np.testing.assert_array_equal(got, ref)


def test_envelopes_built_once_per_cell(monkeypatch):
    # Envelopes are built once per call in the calling thread, not once per
    # slice or per worker.
    lay = build_hotspot_layout(3, 0.01, 2)
    calls = []

    def counted(region, density):
        calls.append(region)
        return real(region, density)

    real = montecarlo.rejection_envelope
    monkeypatch.setattr(montecarlo, "rejection_envelope", counted)
    simulate_aggregate(lay, 2 * _SLICE, 4, workers=2)
    assert len(calls) == len(lay.cells)
    calls.clear()
    one = dataclasses.replace(lay, cells=lay.cells[:1])
    simulate_aggregate(one, 2 * _SLICE, 4, workers=2)
    assert len(calls) == 1


def test_same_seed_identical_new_seed_different(bread):
    a = simulate_aggregate(bread, 500, 5)
    b = simulate_aggregate(bread, 500, 5)
    c = simulate_aggregate(bread, 500, 6)
    np.testing.assert_array_equal(a.values, b.values)
    assert not np.array_equal(a.values, c.values)


def test_aggregate_frozen():
    lay5 = build_hotspot_layout(5, 0.01, 7)
    s = simulate_aggregate(lay5, 500, 11)
    assert s.values[0] == pytest.approx(-129.23679765440224, rel=1e-12)
    assert s.values.mean() == pytest.approx(-98.54093992680826, rel=1e-12)


def test_aggregate_matches_manual_sum():
    lay = build_hotspot_layout(3, 0.01, 2)
    n, seed = 300, 4
    acc = np.zeros(n)
    for cell in lay.cells:
        vals = _cell_slice(cell, *_sampler_state(lay, cell), lay, seed, 0, n)
        acc += np.exp(vals * (math.log(10.0) / 10.0))
    expected = np.sort(10.0 * np.log10(acc))
    s = simulate_aggregate(lay, n, seed)
    np.testing.assert_array_equal(s.values, expected)


def test_aggregate_cell_order_invariance():
    # The order of the cells does not matter: each cell keeps its own
    # streams, and only the order of the mW sum changes.
    lay = build_hotspot_layout(3, 0.01, 2)
    rev = Scenario(
        lay.victim_bs, lay.cells[::-1], lay.channel, lay.fading, lay.bound
    )
    a = simulate_aggregate(lay, 10_000, 5)
    b = simulate_aggregate(rev, 10_000, 5)
    np.testing.assert_allclose(b.values, a.values, rtol=1e-12, atol=0)


def test_aggregate_validation(bread):
    with pytest.raises(DomainError):
        simulate_aggregate(bread, 0, 1)


def _point_like_cell(cell_id, bs, spot):
    return Cell(cell_id, bs, Disk(spot, 1e-9), UeDensity("uniform"))


def _near_deterministic_channel(p0_dbm):
    return ChannelParams(103.8, 20.9, p0_dbm, 0.8, 1e-9, 0.005)


def test_deterministic_limit_single_cell():
    ch = _near_deterministic_channel(-76.0)
    cell = _point_like_cell(2, (0.02, 0.0), (0.03, 0.0))
    scen = Scenario((0.0, 0.0), (cell,), ch, FadingModel("none"), BoundParams())
    s = simulate_aggregate(scen, 200, 3)
    coupling = float(
        coupling_gain_L(np.array([[0.03, 0.0]]), cell.bs, (0.0, 0.0), ch)[0]
    )
    expected = -76.0 + coupling
    assert np.max(np.abs(s.values - expected)) < 1e-5


def test_deterministic_limit_two_cell_aggregate():
    probe = _near_deterministic_channel(0.0)
    coupling = float(
        coupling_gain_L(np.array([[0.03, 0.0]]), (0.02, 0.0), (0.0, 0.0), probe)[0]
    )
    ch = _near_deterministic_channel(-100.0 - coupling)
    scen = Scenario(
        victim_bs=(0.0, 0.0),
        cells=(
            _point_like_cell(2, (0.02, 0.0), (0.03, 0.0)),
            _point_like_cell(3, (-0.02, 0.0), (-0.03, 0.0)),
        ),
        channel=ch,
        fading=FadingModel("none"),
        bound=BoundParams(),
    )
    s = simulate_aggregate(scen, 200, 3)
    assert np.max(np.abs(s.values - (-96.98970004336019))) < 1e-4


def test_sample_mean_tracks_model_mean(sim1m, bread):
    mu_l, sigma_l2 = -17.578425170507074, 15.356984087035926
    mu_h, sigma_h2 = fading_moments(RAYLEIGH)
    mu_q = bread.channel.p0_dbm + mu_l + mu_h
    sigma_q = math.sqrt(sigma_l2 + shadow_var(bread.channel) + sigma_h2)
    band = 3.0 * sigma_q / math.sqrt(sim1m.n)
    assert abs(sim1m.values.mean() - mu_q) < band


def test_empirical_ks_within_error_budget(sim1m, bread):
    mu_l, sigma_l2 = -17.578425170507074, 15.356984087035926
    mu_h, sigma_h2 = fading_moments(RAYLEIGH)
    mu_q = bread.channel.p0_dbm + mu_l + mu_h
    sigma = math.sqrt(sigma_l2 + shadow_var(bread.channel) + sigma_h2)
    d = ks_distance(sim1m, lambda q: ndtr((q - mu_q) / sigma))
    eps_total = 0.0056598957924402808
    assert d <= eps_total + dkw_slack(sim1m.n)


def test_ks_hand_case():
    s = SampleSet(np.array([1.0, 2.0, 3.0, 4.0]), 0)
    assert ks_distance(s, lambda x: np.asarray(x) / 5.0) == pytest.approx(
        0.2, abs=1e-15
    )


def test_ks_self_comparison_is_one_over_n():
    s = SampleSet(np.array([0.5, 1.5, 2.5, 10.0]), 0)
    # The samples' own step CDF as the model.
    v = s.values
    step = lambda q: np.searchsorted(v, q, "right") / s.n
    assert ks_distance(s, step) == pytest.approx(0.25, abs=1e-15)


def test_ks_matches_scipy():
    vals = np.sort(np.random.Generator(np.random.Philox(3)).standard_normal(1000))
    s = SampleSet(vals, 3)
    mine = ks_distance(s, ndtr)
    ref = kstest(vals, "norm").statistic
    assert mine == pytest.approx(ref, abs=1e-12)


def test_ks_requires_vectorized_cdf():
    s = SampleSet(np.linspace(-1.0, 2.0, 50), 0)

    # A scalar CDF is not retried point by point.
    def scalar_cdf(v):
        if v < 0.0:  # an array here has no truth value: ValueError
            return 0.0
        return min(float(v), 1.0)

    # The CDF's own exception propagates.
    with pytest.raises(ValueError):
        ks_distance(s, scalar_cdf)


def test_ks_blocks(monkeypatch):
    # Strides of 7 give the statistic of strides of 64, and a NaN from the
    # CDF at a later sample makes the statistic NaN rather than vanishing.
    vals = np.sort(np.random.Generator(np.random.Philox(8)).standard_normal(50))
    s = SampleSet(vals, 8)
    whole = ks_distance(s, ndtr)
    monkeypatch.setattr(samples, "_KS_STRIDE", 7)
    assert ks_distance(s, ndtr) == whole
    late_nan = lambda q: np.where(q > vals[40], np.nan, ndtr(q))
    assert math.isnan(ks_distance(s, late_nan))


def _ks_full(x, cdf):
    """The KS statistic from the model CDF at every sample: the oracle."""
    n = x.size
    f = np.asarray(cdf(x), dtype=float)
    i = np.arange(n)
    return float(max(((i + 1) / n - f).max(), (f - i / n).max()))


_MODEL_CDFS = {
    "gaussian": ndtr,
    "clipped_linear": lambda q: np.clip((q + 2.0) / 4.0, 0.0, 1.0),
    "step": lambda q: np.floor(np.clip(2.0 * (q + 2.0), 0.0, 8.0)) / 8.0,
    **{
        f"powln_{lam}": (
            lambda q, fit=PowerLognormalFit(lam, 0.2, 1.5): powln_cdf_db(q, fit)
        )
        for lam in (0.3, 1.0, 30.0)
    },
}


@pytest.mark.parametrize("model", list(_MODEL_CDFS))
@pytest.mark.parametrize("tied", [False, True], ids=["distinct", "tied"])
@pytest.mark.parametrize("n", [1, 2, 63, 64, 65, 1000, 100003])
def test_ks_equals_full_pass(n, tied, model):
    # The pruned search returns the float of the full pass, bit for bit.
    x = np.sort(np.random.Generator(np.random.Philox(n)).standard_normal(n))
    if tied:
        x = np.round(x, 1)
        x[1:2] = x[0]
    cdf = _MODEL_CDFS[model]
    assert ks_distance(SampleSet(x, 0), cdf) == _ks_full(x, cdf)


def _uniform_grid(n):
    return SampleSet((np.arange(n) + 0.5) / n, 0)


def test_ks_checks_refined_points():
    # Every gap is 0.5/n, so every stride is refined, and the CDF's value at
    # sample 100 (inside the stride 64..128) is read.
    s = _uniform_grid(1000)
    x = s.values

    def at_100(value):
        return lambda q: np.where(q == x[100], value, np.clip(q, 0.0, 1.0))

    with pytest.raises(DomainError):
        ks_distance(s, at_100(0.9))
    assert math.isnan(ks_distance(s, at_100(np.nan)))
    # A drop below the rounding slack is not a decreasing CDF.
    dip = at_100(x[99] - 1e-13)
    assert ks_distance(s, dip) == _ks_full(x, dip)


def test_ks_rejects_decreasing_cdf():
    with pytest.raises(DomainError):
        ks_distance(_uniform_grid(1000), lambda q: 1.0 - q)


def test_ks_evaluates_few_points():
    # The model CDF is evaluated in two calls at a small share of 10^6
    # samples, so a return to a full pass fails here without any timing.
    n = 1_000_000
    x = np.sort(np.random.Generator(np.random.Philox(1)).standard_normal(n))
    evaluated = []

    def counted(q):
        evaluated.append(q.size)
        return ndtr(q)

    d = ks_distance(SampleSet(x, 1), counted)
    assert len(evaluated) == 2
    assert sum(evaluated) <= n // 16
    assert d == _ks_full(x, ndtr)


def test_ks_self_drawn_within_dkw():
    u = np.sort(np.random.Generator(np.random.Philox(21)).random(1_000_000))
    s = SampleSet(u, 21)
    d = ks_distance(s, lambda q: np.clip(q, 0.0, 1.0))
    assert d <= 0.002


def test_dkw_slack_values():
    assert dkw_slack(1_000_000) == pytest.approx(0.0016276236307187293, rel=1e-15)
    assert dkw_slack(500) == pytest.approx(
        math.sqrt(math.log(2.0 / 0.01) / 1000.0), rel=1e-15
    )


def test_save_load_round_trip(tmp_path):
    vals = np.sort(np.random.Generator(np.random.Philox(5)).standard_normal(32))
    s = SampleSet(vals, 5)
    path = tmp_path / "samples.bin"
    save_samples(s, path, "cafe01")
    loaded, sidecar = load_samples(path)
    np.testing.assert_array_equal(loaded.values, s.values)
    assert loaded.n == 32 and loaded.seed == 5
    assert sidecar == {"seed": 5, "n": 32, "scenario_hash": "cafe01"}


def test_load_samples_error_paths(tmp_path):
    path = tmp_path / "s.bin"

    path.write_bytes(b"\x00\x01\x02")
    with pytest.raises(ParseError, match="truncated header"):
        load_samples(path)

    path.write_bytes(struct.pack("<Q", 10) + struct.pack("<5d", *range(5)))
    with pytest.raises(ParseError, match="expected 10 values"):
        load_samples(path)

    vals = np.sort(np.random.Generator(np.random.Philox(6)).random(8))
    s = SampleSet(vals, 6)
    save_samples(s, path, "h")
    sidecar_path = tmp_path / "s.bin.json"

    doc = json.loads(sidecar_path.read_text())
    doc["n"] = 7
    sidecar_path.write_text(json.dumps(doc))
    with pytest.raises(ParseError, match="disagrees"):
        load_samples(path)

    doc["n"] = 8
    del doc["seed"]
    sidecar_path.write_text(json.dumps(doc))
    with pytest.raises(ParseError, match="bad sidecar"):
        load_samples(path)

    sidecar_path.write_text("{oops")
    with pytest.raises(ParseError, match="bad sidecar"):
        load_samples(path)

    # Sidecar fields read by their JSON type: integers, not floats, bools
    # or strings, and a string hash.
    for key, value in (
        ("seed", 1.7), ("seed", True), ("seed", "3"), ("n", 8.0), ("n", "8"),
        ("scenario_hash", 7), ("scenario_hash", None),
    ):
        sidecar_path.write_text(json.dumps({**doc, "seed": 6, key: value}))
        with pytest.raises(ParseError, match=f"bad sidecar \\({key}: expected"):
            load_samples(path)

    sidecar_path.unlink()
    with pytest.raises(ParseError, match="bad sidecar"):
        load_samples(path)

    path.write_bytes(struct.pack("<Q", 3) + struct.pack("<3d", 1.0, math.nan, 3.0))
    sidecar_path.write_text(json.dumps({"seed": 1, "n": 3, "scenario_hash": "h"}))
    with pytest.raises(ParseError, match="sample values must be finite"):
        load_samples(path)

    # Well-formed files whose samples SampleSet refuses: none, or unsorted.
    for n, vals in ((0, ()), (3, (3.0, 1.0, 2.0))):
        path.write_bytes(struct.pack("<Q", n) + struct.pack(f"<{n}d", *vals))
        sidecar_path.write_text(json.dumps({"seed": 1, "n": n, "scenario_hash": "h"}))
        with pytest.raises(ParseError, match="sample") as err:
            load_samples(path)
        assert str(err.value).startswith(f"{path}: ")
