import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ltft import (
    BudgetExceededError,
    DigitalSignal,
    FrameDiagonal,
    InvalidParameterError,
    LtftParams,
    Spectrum,
    apply_inverse_frame,
    dft,
    frame_diagonal,
    frame_diagonal_oracle,
    idft,
)
from ltft import frame as frame_module
from ltft.frame import _GRID_STEP, _build_diagonal, _Integral, _integrals

RATE = 64.0
M = 256


@pytest.fixture(scope="module")
def diag(params):
    return frame_diagonal(params, RATE, M)


@pytest.fixture(scope="module")
def oracle(params):
    return frame_diagonal_oracle(params, RATE, M, quad_res=512)


def test_components_sum_exactly(diag):
    assert np.max(np.abs(diag.h - (diag.q0 + diag.q1 + diag.q2))) <= 1e-12


@pytest.mark.parametrize("build", ["unfolded", "folded", "oracle"])
def test_h_and_floor_are_derived_from_the_components(params, build):
    if build == "oracle":
        hd = frame_diagonal_oracle(params, RATE, 64, quad_res=128)
    else:
        hd = frame_diagonal(params, RATE, M, folded=build == "folded")
    assert np.array_equal(hd.h, hd.q0 + hd.q1 + hd.q2)
    assert hd.floor == 1e-8 * hd.h.max()


@pytest.mark.parametrize("lengths", [(4, 3, 4), (4, 1, 4), (0, 0, 0)],
                         ids=["shorter", "broadcastable", "empty"])
def test_components_of_unequal_length_are_refused(lengths):
    with pytest.raises(InvalidParameterError, match="share one non-empty grid"):
        FrameDiagonal(np.arange(4.0), *(np.ones(n) for n in lengths))


def test_low_band_component_vanishes_far_above(diag, params):
    # q0's kernel ends around 2*b0 plus spectral width; the top of the
    # grid is far beyond it.
    far = diag.omega > 3 * params.b0
    assert np.max(diag.q0[far]) < 1e-9 * np.max(diag.q0)


def test_oracle_nonnegative(oracle):
    for comp in (oracle.h, oracle.q0, oracle.q1, oracle.q2):
        assert np.min(comp) >= 0.0


def test_closed_form_matches_oracle(diag, oracle):
    strong = oracle.h > 1e-3 * oracle.h.max()
    rel = np.abs(diag.h[strong] - oracle.h[strong]) / oracle.h[strong]
    assert rel.max() <= 1e-4


@settings(max_examples=6)
@given(
    gamma=st.floats(3.0, 12.0),
    xi=st.floats(1e-3, 12.0),
    b0_frac=st.floats(0.1, 0.3),
    gap=st.floats(0.05, 0.6),
)
def test_closed_form_matches_oracle_over_params(gamma, xi, b0_frac, gap):
    # At quad_res 256 the oracle's own midpoint error grows with gamma/b0:
    # the corners of this box reach 1.3e-3 (gamma 12, xi ~0, b0_frac 0.1)
    # and 40 random draws stay below 2.4e-4.  Below gamma ~2.7 the wavelet
    # atoms leak to w <= 0, which the closed form leaves out (1.4e-2 at
    # gamma 2.4), so the box starts at 3.
    p = LtftParams.for_rate(
        RATE, b0_frac=b0_frac, b1_frac=b0_frac + gap, gamma=gamma, xi=xi
    )
    closed = frame_diagonal(p, RATE, 64)
    oracle = frame_diagonal_oracle(p, RATE, 64, quad_res=256)
    strong = oracle.h > 1e-3 * oracle.h.max()
    rel = np.abs(closed.h[strong] - oracle.h[strong]) / oracle.h[strong]
    assert rel.max() <= 2e-3


def test_oracle_quadrature_convergence(params):
    m = 128
    coarse = frame_diagonal_oracle(params, RATE, m, quad_res=128).h
    mid = frame_diagonal_oracle(params, RATE, m, quad_res=256).h
    fine = frame_diagonal_oracle(params, RATE, m, quad_res=512).h
    step = np.max(np.abs(coarse - mid))
    richardson = np.max(np.abs(mid - fine))
    assert step <= 16.0 / 3.0 * richardson + 1e-12
    assert richardson < step


def test_oracle_budgets(params):
    with pytest.raises(InvalidParameterError):
        frame_diagonal_oracle(params, RATE, M, quad_res=64)
    with pytest.raises(BudgetExceededError):
        frame_diagonal_oracle(params, RATE, 2048, quad_res=128)


def test_xi_doubling_preserves_wavelet_band_mass():
    # Use a narrower band so the wavelet component's support stays inside
    # the grid; its integral over frequency is xi-invariant.
    m = 1024
    base = LtftParams.for_rate(RATE, b0_frac=0.05, b1_frac=0.2, xi=6.0)
    double = LtftParams.for_rate(RATE, b0_frac=0.05, b1_frac=0.2, xi=12.0)
    q1a = frame_diagonal(base, RATE, m).q1
    q1b = frame_diagonal(double, RATE, m).q1
    ia = np.trapezoid(q1a, dx=RATE / m)
    ib = np.trapezoid(q1b, dx=RATE / m)
    assert abs(ia - ib) <= 0.01 * ia


def test_wavelet_running_integral_matches_direct_quadrature(params):
    # Fresh per-bin integration of the same tabulated integrand (full
    # cells by trapezoid, exact partial end cells) against the shared
    # running-cumulative path.
    m = 256
    fd = frame_diagonal(params, RATE, m)
    _, wavelet = _integrals(params, RATE)
    integrand = wavelet.values
    step = _GRID_STEP
    qgrid = wavelet.x0 + step * np.arange(integrand.shape[0])
    g = params.gamma

    def direct(lo, hi):
        lo = max(lo, qgrid[0])
        hi = min(hi, qgrid[-1])
        if hi <= lo:
            return 0.0
        i0 = int(np.ceil((lo - qgrid[0]) / step))
        i1 = int(np.floor((hi - qgrid[0]) / step))

        def value_at(x):
            j = min(int((x - qgrid[0]) / step), len(qgrid) - 2)
            frac = (x - qgrid[j]) / step
            return integrand[j] * (1 - frac) + integrand[j + 1] * frac

        if i0 > i1:
            return 0.5 * (hi - lo) * (value_at(lo) + value_at(hi))
        total = np.trapezoid(integrand[i0 : i1 + 1], dx=step) if i1 > i0 else 0.0
        total += 0.5 * (qgrid[i0] - lo) * (value_at(lo) + integrand[i0])
        total += 0.5 * (hi - qgrid[i1]) * (integrand[i1] + value_at(hi))
        return total

    omega = fd.omega
    per_bin = np.array(
        [direct(g * w / params.b1, g * w / params.b0) for w in omega]
    )
    assert np.max(np.abs(per_bin - fd.q1)) <= 1e-8


def test_diagonal_positive_on_operative_band(diag, params):
    delta = 2.0 * params.b0 * params.window.bandwidth / params.gamma
    band = (diag.omega >= delta) & (diag.omega <= RATE - delta)
    assert np.min(diag.h[band]) > 0.0


def test_inverse_of_forward_is_identity_on_strong_bins(diag, params, tapered_tone):
    s = tapered_tone(M)
    forward = idft(Spectrum(dft(s).bins * diag.h, RATE))
    round_trip = apply_inverse_frame(forward, diag)
    strong = diag.h > 1e-3 * diag.h.max()
    in_spec = dft(s).bins
    out_spec = dft(round_trip).bins
    scale = np.max(np.abs(in_spec))
    assert np.max(np.abs(out_spec[strong] - in_spec[strong])) <= 1e-6 * scale


def test_inverse_frame_zero_signal(diag):
    zero = DigitalSignal(np.zeros(M), RATE)
    out = apply_inverse_frame(zero, diag)
    assert np.max(np.abs(out.samples)) == 0.0


def test_inverse_frame_grid_mismatch(diag):
    with pytest.raises(InvalidParameterError):
        apply_inverse_frame(DigitalSignal(np.zeros(2 * M), RATE), diag)


def test_folded_diagonal_exceeds_continuum(params, diag):
    folded = frame_diagonal(params, RATE, M, folded=True)
    assert np.all(folded.h >= diag.h - 1e-15)
    # aliased mass is substantial in the mid band
    mid = (diag.omega > 0.2 * RATE) & (diag.omega < 0.5 * RATE)
    assert np.max(folded.h[mid] - diag.h[mid]) > 0.1


def test_interp_integral_helper():
    grid = np.arange(4097) * _GRID_STEP  # [0, 4] at the table step
    vals = grid.copy()  # integrand f(x) = x
    t = np.array([0.0, 0.25, 1.0, 3.3, 4.0])
    exact = 0.5 * t**2
    out = _Integral(0.0, vals)(t)
    assert np.max(np.abs(out - exact)) < 1e-14


def test_diagonal_keeps_its_digits_at_small_xi(monkeypatch):
    # Each band term is a difference of R, which is bounded by 1, so
    # rounding in the tables is not magnified by 1/xi: moving every node of
    # the window spectrum by one ulp, alternately up and down, moves H by
    # rounding only.
    rate = 16000.0
    p = LtftParams.for_rate(rate, gamma=3.0, xi=1e-6)
    base = _build_diagonal.__wrapped__(p, rate, 1024, False)
    grid, vals = p.window._freq_table
    up = np.arange(vals.size) % 2 == 0
    moved = np.where(up, np.nextafter(vals, np.inf), np.nextafter(vals, -np.inf))
    monkeypatch.setitem(p.window.__dict__, "_freq_table", (grid, moved))
    perturbed = _build_diagonal.__wrapped__(p, rate, 1024, False)
    assert np.max(np.abs(perturbed.h - base.h)) < 1e-12 * base.h.max()


@pytest.mark.parametrize("omega", [110.0, 127.0])
def test_wavelet_band_is_whole_at_large_xi(omega):
    # At xi = 200 the wavelet integrand reaches far above gamma*L/b0; the
    # table spans it, so the band matches a midpoint quadrature of the atom
    # spectra over b in [b0, b1] and c in [0, 1] (127 is the folded
    # diagonal's +L term).
    p = LtftParams.for_rate(RATE, xi=200.0)
    g = p.gamma
    _, wavelet = _integrals(p, RATE)
    band = wavelet(np.array([g * omega / p.b0])) - wavelet(np.array([g * omega / p.b1]))
    k = 1000
    b = p.b0 + (np.arange(k) + 0.5) * (p.b1 - p.b0) / k
    c = (np.arange(k) + 0.5) / k
    scale = g / b
    center = ((p.xi / g) * c[:, None] + 1.0) * b
    quad = np.mean(scale * p.window.freq(scale * (omega - center)) ** 2) * (p.b1 - p.b0)
    assert band[0] == pytest.approx(quad, rel=1e-5)


def _assert_same_diagonal(got, want):
    for name in ("omega", "h", "q0", "q1", "q2"):
        assert np.array_equal(getattr(got, name), getattr(want, name))
    assert got.floor == want.floor


def test_repeated_diagonal_is_the_memo_and_equals_a_fresh_build(params):
    first = frame_diagonal(params, RATE, M, folded=True)
    hits = _build_diagonal.cache_info().hits
    again = frame_diagonal(params, RATE, M, folded=True)
    assert again is first
    assert _build_diagonal.cache_info().hits == hits + 1
    fresh = _build_diagonal.__wrapped__(params, RATE, M, True)
    assert fresh is not again
    _assert_same_diagonal(again, fresh)


@pytest.mark.parametrize("folded", [False, True])
def test_chunked_integrals_give_the_same_diagonal(monkeypatch, params, folded):
    # The tables and H, evaluated a few arguments at a time, are the same
    # bits as in one pass: every step is elementwise.
    monkeypatch.setattr(frame_module, "_CHUNK", 1 << 30)
    whole = _build_diagonal.__wrapped__(params, RATE, M, folded)
    monkeypatch.setattr(frame_module, "_CHUNK", 37)
    _assert_same_diagonal(_build_diagonal.__wrapped__(params, RATE, M, folded), whole)


def test_q_table_takes_one_window_power_integral_per_node(monkeypatch, params):
    # G2 at a node of its own table is its cumulative there, so Q's table
    # evaluates G2 once per node, at u - xi.  The wavelet integrand P1 takes
    # two per node: q - gamma lies off the node grid.
    sizes = []
    original = _Integral._eval

    def counting(self, t):
        sizes.append(t.size)
        return original(self, t)

    monkeypatch.setattr(_Integral, "_eval", counting)
    r, wavelet = _integrals(params, RATE)
    assert sum(sizes) == r.values.size + 2 * wavelet.values.size


@pytest.mark.parametrize("rate", [0.0, -64.0, np.nan, np.inf], ids=str)
def test_rate_outside_the_grid_rule_is_invalid_parameter(params, rate):
    # Rate 0 gave H = 0 in every bin and -64 a negative H; NaN and infinity
    # reported a table past the budget rather than a bad rate.
    with pytest.raises(InvalidParameterError, match="sample rate"):
        frame_diagonal(params, rate, M)


def test_equal_params_share_the_window_and_the_memo():
    first, second = LtftParams.for_rate(RATE), LtftParams.for_rate(RATE)
    assert first == second and first.window is second.window
    assert frame_diagonal(first, RATE, M, folded=True) is frame_diagonal(
        second, RATE, M, folded=True
    )


def test_diagonal_csv(diag, params, tmp_path):
    from ltft.cli import main

    path = tmp_path / "h.csv"
    assert main([
        "frame-diag", "--csv", str(path), "--rate", str(RATE), "-M", str(M),
        "--gamma", str(params.gamma),
    ]) == 0
    lines = path.read_text().strip().splitlines()
    assert lines[1].split(",") == ["omega", "h", "q0", "q1", "q2"]
    assert len(lines) == 2 + M
    parsed = np.array([[float(v) for v in line.split(",")] for line in lines[2:]])
    assert np.array_equal(parsed, np.column_stack([diag.omega, diag.h, diag.q0, diag.q1, diag.q2]))


def test_diagonal_is_read_only(params):
    hd = frame_diagonal(params, RATE, M, folded=True)
    with pytest.raises(ValueError):
        hd.h[0] = 1.0
    for values in (hd.omega, hd.q0, hd.q1, hd.q2):
        with pytest.raises(ValueError):
            values += 1.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        hd.floor = 0.0


@pytest.mark.parametrize(
    "change",
    [
        {"m": 2 * M},
        {"folded": False},
        {"params": LtftParams.for_rate(RATE, gamma=7.0)},
    ],
    ids=["m", "folded", "params"],
)
def test_diagonal_memo_rebuilds_on_a_new_key(params, change):
    key = {"params": params, "sample_rate": RATE, "m": M, "folded": True}
    first = frame_diagonal(**key)
    misses = _build_diagonal.cache_info().misses
    key.update(change)
    second = frame_diagonal(**key)
    assert second is not first
    assert _build_diagonal.cache_info().misses == misses + 1
    _assert_same_diagonal(
        second,
        _build_diagonal.__wrapped__(key["params"], RATE, key["m"], key["folded"]),
    )
