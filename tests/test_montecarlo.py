import json
import math
import struct

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
from ulfit.geometry import Disk, UeDensity, contains, ue_domain
from ulfit.montecarlo import (
    _SLICE,
    _cell_slice,
    _envelope,
    _positions_slice,
    _run_slices,
    _skipped,
    _slice_spans,
    simulate_aggregate,
    simulate_cell,
)
from ulfit.samples import (
    EmpiricalCdf,
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
    cell = bread.cells[0]
    return simulate_cell(
        cell, bread.victim_bs, bread.channel, bread.fading, 1_000_000, 13, workers=2
    )


def test_sample_set_validation():
    with pytest.raises(DomainError):
        SampleSet(np.array([2.0, 1.0]), 2, 0)
    with pytest.raises(DomainError):
        SampleSet(np.array([1.0, 2.0]), 3, 0)
    with pytest.raises(DomainError):
        SampleSet(np.array([]), 0, 0)
    # NaN compares False, so a mid-array NaN would pass the sort check.
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(DomainError, match="finite"):
            SampleSet(np.array([1.0, bad, 3.0]), 3, 0)


def test_empirical_cdf_step_values():
    ecdf = EmpiricalCdf(SampleSet(np.array([1.0, 2.0, 2.0, 3.0]), 4, 0))
    assert ecdf(0.0) == 0.0
    assert ecdf(1.0) == 0.25
    assert ecdf(1.5) == 0.25
    assert ecdf(2.0) == 0.75
    assert ecdf(3.0) == 1.0
    assert ecdf(99.0) == 1.0
    assert isinstance(ecdf(1.0), float)
    np.testing.assert_array_equal(
        ecdf(np.array([0.0, 2.0, 5.0])), np.array([0.0, 0.75, 1.0])
    )


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


def test_slice_spans():
    s = _SLICE
    assert _slice_spans(100) == [(0, 100)]
    assert _slice_spans(s) == [(0, s)]
    assert _slice_spans(s + 1) == [(0, s), (s, 1)]
    assert _slice_spans(2 * s + 100) == [(0, s), (s, s), (2 * s, 100)]


def test_run_slices_merges_by_index():
    fn = lambda lo, m: np.arange(lo, lo + m, dtype=float)
    serial = _run_slices(fn, 600_000, 1)
    threaded = _run_slices(fn, 600_000, 4)
    np.testing.assert_array_equal(serial, np.arange(600_000, dtype=float))
    np.testing.assert_array_equal(serial, threaded)


def test_simulate_cell_frozen(bread):
    cell = bread.cells[0]
    s = simulate_cell(cell, bread.victim_bs, bread.channel, bread.fading, 1000, 5)
    assert s.n == 1000 and s.seed == 5
    assert s.values[0] == pytest.approx(-138.2163247661705, rel=1e-12)
    assert s.values[-1] == pytest.approx(-47.67883039971794, rel=1e-12)
    assert s.values.mean() == pytest.approx(-96.36740664805201, rel=1e-12)


def test_simulate_cell_validation(bread):
    cell = bread.cells[0]
    with pytest.raises(DomainError):
        simulate_cell(cell, bread.victim_bs, bread.channel, bread.fading, 0, 5)


def test_slice_prefix_purity(bread, bread_ir):
    # Both envelopes: the box (uniform) and the polar one (inverse_radial).
    for scen in (bread, bread_ir):
        cell, ch = scen.cells[0], scen.channel
        for fading in (FadingModel("none"), RAYLEIGH, FadingModel("rician", 5.0)):
            full = _cell_slice(cell, scen.victim_bs, ch, fading, 3, 0, 1000)
            head = _cell_slice(cell, scen.victim_bs, ch, fading, 3, 0, 600)
            tail = _cell_slice(cell, scen.victim_bs, ch, fading, 3, 600, 400)
            np.testing.assert_array_equal(head, full[:600])
            np.testing.assert_array_equal(tail, full[600:])


def test_parallel_equals_serial(bread, bread_ir):
    for scen in (bread, bread_ir):
        cell = scen.cells[0]
        serial = simulate_cell(
            cell, scen.victim_bs, scen.channel, scen.fading, 600_000, 7, workers=1
        )
        threaded = simulate_cell(
            cell, scen.victim_bs, scen.channel, scen.fading, 600_000, 7, workers=3
        )
        np.testing.assert_array_equal(serial.values, threaded.values)


def test_slice_size_invariance(bread, bread_ir, monkeypatch):
    # Every draw is a function of its index alone, whatever the slicing.
    for scen in (bread, bread_ir):
        cell = scen.cells[0]
        args = (cell, scen.victim_bs, scen.channel, scen.fading, 10_000, 7)
        default = simulate_cell(*args)
        with monkeypatch.context() as m:
            m.setattr(montecarlo, "_SLICE", 4096)
            assert len(_slice_spans(10_000)) == 3
            small = simulate_cell(*args, workers=2)
        np.testing.assert_array_equal(small.values, default.values)


def _reference_proposal_block(region, density, corners, size, u):
    # The proposal map in plain form: strided (n, 2) columns and a
    # column_stack of the polar point. The sampler's in-place form may
    # only reorder commutative operations, so it must match bit for bit.
    k = len(corners)
    t = u[:, 0] * k
    j = np.minimum(t.astype(np.intp), k - 1)
    q = np.empty((len(u), 2))
    q[:, 0] = corners[j, 0] + (t - j) * size[0]
    q[:, 1] = corners[j, 1] + u[:, 1] * size[1]
    if density.kind == "inverse_radial":
        rho, theta = q[:, 0], q[:, 1]
        ox, oy = density.origin
        q = np.column_stack((ox + rho * np.cos(theta), oy + rho * np.sin(theta)))
    return q, contains(region, q)


def test_positions_match_reference_proposal_math(bread, bread_ir, monkeypatch):
    # Uniform tiles (bread) and the polar tile (bread_ir), over several
    # rejection rounds, from an offset that does not start a slice.
    for scen in (bread, bread_ir):
        cell = scen.cells[0]
        region = ue_domain(cell.region, cell.bs, scen.victim_bs, scen.channel.d_min_km)
        args = (region, cell.density, _envelope(region, cell.density), cell.id, 8)
        got = _positions_slice(*args, 1234, 20_000)
        with monkeypatch.context() as m:
            m.setattr(montecarlo, "proposal_block", _reference_proposal_block)
            ref = _positions_slice(*args, 1234, 20_000)
        np.testing.assert_array_equal(got, ref)


def test_envelopes_built_once_per_cell(monkeypatch):
    # Envelopes are built in the calling thread before the pool starts; two
    # workers missing the cache together would each build the same one.
    lay = build_hotspot_layout(3, 0.01, 2)
    calls = []

    def counted(region, density):
        calls.append(region)
        return real(region, density)

    real = montecarlo.rejection_envelope
    monkeypatch.setattr(montecarlo, "rejection_envelope", counted)
    _envelope.cache_clear()
    try:
        simulate_aggregate(lay, 2 * _SLICE, 4, workers=2)
        assert len(calls) == len(lay.cells)
        calls.clear()
        _envelope.cache_clear()
        cell = lay.cells[0]
        simulate_cell(
            cell, lay.victim_bs, lay.channel, lay.fading, 2 * _SLICE, 4, workers=2
        )
        assert len(calls) == 1
    finally:
        _envelope.cache_clear()


def test_same_seed_identical_new_seed_different(bread):
    cell = bread.cells[0]
    a = simulate_cell(cell, bread.victim_bs, bread.channel, bread.fading, 500, 5)
    b = simulate_cell(cell, bread.victim_bs, bread.channel, bread.fading, 500, 5)
    c = simulate_cell(cell, bread.victim_bs, bread.channel, bread.fading, 500, 6)
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
        vals = _cell_slice(
            cell, lay.victim_bs, lay.channel, lay.fading, seed, 0, n
        )
        acc += np.power(10.0, vals / 10.0)
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


def test_aggregate_single_cell_equivalence(bread):
    cell = bread.cells[0]
    agg = simulate_aggregate(bread, 400, 9)
    one = simulate_cell(cell, bread.victim_bs, bread.channel, bread.fading, 400, 9)
    np.testing.assert_allclose(agg.values, one.values, rtol=0, atol=1e-10)


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
    s = simulate_cell(cell, (0.0, 0.0), ch, FadingModel("none"), 200, 3)
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
    d = ks_distance(EmpiricalCdf(sim1m), lambda q: ndtr((q - mu_q) / sigma))
    eps_total = 0.0056598957924402808
    assert d <= eps_total + dkw_slack(sim1m.n)


def test_ks_hand_case():
    s = SampleSet(np.array([1.0, 2.0, 3.0, 4.0]), 4, 0)
    assert ks_distance(EmpiricalCdf(s), lambda x: np.asarray(x) / 5.0) == pytest.approx(
        0.2, abs=1e-15
    )


def test_ks_self_comparison_is_one_over_n():
    s = SampleSet(np.array([0.5, 1.5, 2.5, 10.0]), 4, 0)
    ecdf = EmpiricalCdf(s)
    assert ks_distance(ecdf, ecdf) == pytest.approx(0.25, abs=1e-15)


def test_ks_matches_scipy():
    vals = np.sort(np.random.Generator(np.random.Philox(3)).standard_normal(1000))
    s = SampleSet(vals, 1000, 3)
    mine = ks_distance(EmpiricalCdf(s), ndtr)
    ref = kstest(vals, "norm").statistic
    assert mine == pytest.approx(ref, abs=1e-12)


def test_ks_requires_vectorized_cdf():
    s = SampleSet(np.linspace(-1.0, 2.0, 50), 50, 0)
    # A wrong output shape is refused, not retried point by point.
    with pytest.raises(DomainError):
        ks_distance(EmpiricalCdf(s), lambda x: 0.5)
    with pytest.raises(DomainError):
        ks_distance(EmpiricalCdf(s), lambda x: np.zeros(49))

    def scalar_cdf(v):
        if v < 0.0:  # an array here has no truth value: ValueError
            return 0.0
        return min(float(v), 1.0)

    # The CDF's own exception propagates.
    with pytest.raises(ValueError):
        ks_distance(EmpiricalCdf(s), scalar_cdf)


def test_ks_blocks(monkeypatch):
    # Blocks of 7 give the statistic of one block, and a NaN from the CDF
    # in a later block makes the statistic NaN rather than vanishing.
    vals = np.sort(np.random.Generator(np.random.Philox(8)).standard_normal(50))
    ecdf = EmpiricalCdf(SampleSet(vals, 50, 8))
    whole = ks_distance(ecdf, ndtr)
    monkeypatch.setattr(samples, "_KS_BLOCK", 7)
    assert ks_distance(ecdf, ndtr) == whole
    late_nan = lambda q: np.where(q > vals[40], np.nan, ndtr(q))
    assert math.isnan(ks_distance(ecdf, late_nan))


def test_ks_self_drawn_within_dkw():
    u = np.sort(np.random.Generator(np.random.Philox(21)).random(1_000_000))
    s = SampleSet(u, 1_000_000, 21)
    d = ks_distance(EmpiricalCdf(s), lambda q: np.clip(q, 0.0, 1.0))
    assert d <= 0.002


def test_dkw_slack_values():
    assert dkw_slack(1_000_000, 0.01) == pytest.approx(
        0.0016276236307187293, rel=1e-15
    )
    assert dkw_slack(500, 0.05) == pytest.approx(
        math.sqrt(math.log(2.0 / 0.05) / 1000.0), rel=1e-15
    )
    with pytest.raises(DomainError):
        dkw_slack(0)
    with pytest.raises(DomainError):
        dkw_slack(100, 0.0)
    with pytest.raises(DomainError):
        dkw_slack(100, 1.0)


def test_save_load_round_trip(tmp_path):
    vals = np.sort(np.random.Generator(np.random.Philox(5)).standard_normal(32))
    s = SampleSet(vals, 32, 5)
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
    s = SampleSet(vals, 8, 6)
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

    sidecar_path.unlink()
    with pytest.raises(ParseError, match="bad sidecar"):
        load_samples(path)

    path.write_bytes(struct.pack("<Q", 3) + struct.pack("<3d", 1.0, math.nan, 3.0))
    with pytest.raises(ParseError, match="non-finite"):
        load_samples(path)
