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
    idft,
)
from ltft import frame as frame_module
from ltft.frame import _GRID_MARGIN, _GRID_STEP, _build_diagonal, _Integral, _integrals
from oracles import frame_diagonal_oracle

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
    bandwidth = 3.0  # the window spectrum's first null, at |nu| = 3
    delta = 2.0 * params.b0 * bandwidth / params.gamma
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


def test_inverse_frame_in_place_equals_the_out_of_place_formula(params):
    # Divided and inverted in the DFT's own buffer, the normalization gives
    # the bits of the out-of-place formula, sign bits included, and leaves
    # its input alone; the kept mask is H above the floor.
    rng = np.random.default_rng(3)
    for folded in (False, True):
        hd = frame_diagonal(params, RATE, M, folded=folded)
        assert np.array_equal(hd.kept, hd.h > hd.floor) and not hd.kept.flags.writeable
        for x in (rng.standard_normal(M), rng.standard_normal(M) + 1j * rng.standard_normal(M)):
            s = DigitalSignal(x.copy(), RATE)
            safe = hd.h > hd.floor
            bins = np.where(safe, dft(s).bins / np.where(safe, hd.h, 1.0), 0.0)
            expected = idft(Spectrum(bins, RATE)).samples
            out = apply_inverse_frame(s, hd).samples
            assert np.array_equal(out.view(np.uint8), expected.view(np.uint8))
            assert np.array_equal(s.samples, x)


def test_inverse_frame_zero_signal(diag):
    zero = DigitalSignal(np.zeros(M), RATE)
    out = apply_inverse_frame(zero, diag)
    assert np.max(np.abs(out.samples)) == 0.0


def test_inverse_frame_that_overflows_is_refused_once(diag):
    # Finite samples whose DFT passes the float range: numpy warned of the
    # overflow in its fft, and the output was refused only as samples that
    # are not finite.
    with pytest.raises(InvalidParameterError, match="normalized sum overflows"):
        apply_inverse_frame(DigitalSignal(np.full(M, 1e306), RATE), diag)


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


def test_diagonal_at_the_xi_floor_matches_a_larger_xi():
    # At the floor xi = 1e-9 the folded diagonal is within 1e-6 of max H of
    # its value at xi = 1e-6, the window table's own interpolation error.
    h = [frame_diagonal(LtftParams.for_rate(RATE, xi=xi), RATE, 1024, folded=True).h
         for xi in (1e-9, 1e-6)]
    assert np.max(np.abs(h[0] - h[1])) <= 1e-6 * h[1].max()


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
    monkeypatch.setattr(frame_module, "_TABLE_CHUNK", 1 << 30)
    whole = _build_diagonal.__wrapped__(params, RATE, M, folded)
    monkeypatch.setattr(frame_module, "_TABLE_CHUNK", 37)
    _assert_same_diagonal(_build_diagonal.__wrapped__(params, RATE, M, folded), whole)


def test_q_table_takes_one_window_power_integral_per_node(monkeypatch, params):
    # The table stage reads G2 only at its own nodes moved by xi (Q), and by
    # gamma and gamma + xi (P1), as shifted slices: no argument is located in
    # the table on its own.
    per_element, nodes = [], []
    original_call, original_at_nodes = _Integral.__call__, _Integral.at_nodes

    def counting_call(self, t, shift=0.0):
        per_element.append(t.size)
        return original_call(self, t, shift)

    def counting_at_nodes(self, shift, lo, hi):
        nodes.append(hi - lo)
        return original_at_nodes(self, shift, lo, hi)

    monkeypatch.setattr(_Integral, "__call__", counting_call)
    monkeypatch.setattr(_Integral, "at_nodes", counting_at_nodes)
    r, wavelet = _integrals(params, RATE)
    assert per_element == []
    assert sum(nodes) == r.values.size + 2 * wavelet.values.size


def _per_shift_loop_h(params, rate, m, folded):
    # The per-bin stage as it read the tables before the -L wavelet reads
    # were skipped: every fold shift reads all three band terms, and q0 is
    # a width-mode read, the two evaluations subtracted in one call.
    g, high = params.gamma, params.gamma / params.b1
    r, wavelet = _integrals(params, rate)

    def read(table, t, width=0.0):
        return table(t) - table(t, width) if width else table(t).copy()

    omega = np.arange(m) * (rate / m)
    q0, q1, q2 = np.zeros((3, m))
    for shift in (-rate, 0.0, rate) if folded else (0.0,):
        w = omega + shift
        v = g * w / params.b0
        q0 += read(r, v, g)
        q1 += read(wavelet, v) - read(wavelet, g * w / params.b1)
        q2 += read(r, high * (w - params.b1)) - read(r, high * (w - rate))
    return q0, q1, q2


_DIAGONAL_SETS = [
    (16000.0, 32000, {}),
    (64.0, 1024, {}),
    (64.0, 512, {"gamma": 2.4, "xi": 0.37}),
    (16000.0, 1024, {"gamma": 3.3, "xi": 1e-3, "b0_frac": 0.05, "b1_frac": 0.7}),
    (64.0, 256, {"xi": 200.0}),
]


@pytest.mark.parametrize("folded", [False, True], ids=["unfolded", "folded"])
@pytest.mark.parametrize(
    "rate, m, kwargs", _DIAGONAL_SETS,
    ids=["vocoder-size", "defaults", "fractional-shifts", "small-xi", "large-xi"],
)
def test_diagonal_equals_the_per_shift_loop_bit_for_bit(rate, m, kwargs, folded):
    # Skipping the -L wavelet reads drops only additions of exact zeros.
    p = LtftParams.for_rate(rate, **kwargs)
    got = _build_diagonal.__wrapped__(p, rate, m, folded)
    q0, q1, q2 = _per_shift_loop_h(p, rate, m, folded)
    for name, want in (("q0", q0), ("q1", q1), ("q2", q2), ("h", q0 + q1 + q2)):
        assert np.array_equal(getattr(got, name), want), name


@pytest.mark.parametrize("folded, reads", [(False, 6), (True, 16)])
def test_diagonal_makes_its_located_reads_once_per_bin_chunk(monkeypatch, params, folded, reads):
    # Three chunks of bins: each reads R and the wavelet table once per
    # located argument, every read one chunk long.
    sizes = []
    original = _Integral.__call__

    def counting(self, t, shift=0.0):
        sizes.append(t.size)
        return original(self, t, shift)

    monkeypatch.setattr(frame_module, "_TABLE_CHUNK", 100)
    monkeypatch.setattr(_Integral, "__call__", counting)
    _build_diagonal.__wrapped__(params, RATE, M, folded)
    assert sizes == [100] * (2 * reads) + [M - 200] * reads


class _PerElementIntegral:
    """The frame integrals as each argument was once evaluated on its own:
    clipped to the table, located by a floor and gathered."""

    def __init__(self, x0, values):
        self.x0, self.values = x0, values
        steps = np.add(values[1:], values[:-1]) * (0.5 * _GRID_STEP)
        self.cum = np.concatenate([[0.0], np.cumsum(steps)])

    def __call__(self, t, width=0.0):
        out = self._eval(t)
        if width:
            out -= self._eval(t - width)
        return out

    def _eval(self, t):
        x0, values, step = self.x0, self.values, _GRID_STEP
        n = values.shape[0]
        tc = np.clip(t, x0, x0 + (n - 1) * step)
        i = np.minimum(((tc - x0) / step).astype(np.int64), n - 2)
        frac = tc - (x0 + i * step)
        vt = values[i] + (values[i + 1] - values[i]) * (frac / step)
        return self.cum[i] + 0.5 * frac * (values[i] + vt)


def _per_element_h(params, rate, m, folded):
    g, xi = params.gamma, params.xi
    u_lo = -(g * rate / params.b1 + xi) - _GRID_MARGIN
    u_hi = max(g * rate / params.b0, xi) + _GRID_MARGIN
    u = np.arange(int(np.ceil((u_hi - u_lo) / _GRID_STEP)) + 1) * _GRID_STEP + u_lo
    g2 = _PerElementIntegral(u_lo, params.window.freq(u) ** 2)
    q = u[int(np.ceil((_GRID_STEP - u_lo) / _GRID_STEP)) :]
    p1 = np.maximum(g2(q - g, xi) * (g / xi), 0.0) / q
    r = _PerElementIntegral(u_lo, (g2.cum - g2(u - xi)) / xi)
    wavelet = _PerElementIntegral(q[0], p1)
    omega = np.arange(m) * (rate / m)
    h = np.zeros(m)
    for shift in (-rate, 0.0, rate) if folded else (0.0,):
        w = omega + shift
        v = g * w / params.b0
        h += r(v, g) + wavelet(v) - wavelet(g * w / params.b1)
        h += r((g / params.b1) * (w - params.b1)) - r((g / params.b1) * (w - rate))
    return h


@pytest.mark.parametrize("folded", [False, True], ids=["unfolded", "folded"])
@pytest.mark.parametrize(
    "rate, m, kwargs",
    [
        (RATE, M, {}),
        (16000.0, 32000, {}),
        (RATE, M, {"gamma": 2.4, "xi": 0.37}),
        (RATE, M, {"gamma": 3.3, "xi": 1e-3, "b0_frac": 0.05, "b1_frac": 0.7}),
    ],
    ids=["defaults", "vocoder-size", "fractional-shifts", "small-xi"],
)
def test_node_aligned_tables_match_per_element_evaluation(rate, m, kwargs, folded):
    # gamma = xi = 6 are whole numbers of nodes; 2.4, 0.37 and 1e-3 are
    # not, so the slices take a fraction of a cell.
    p = LtftParams.for_rate(rate, **kwargs)
    want = _per_element_h(p, rate, m, folded)
    got = _build_diagonal.__wrapped__(p, rate, m, folded).h
    assert np.max(np.abs(got - want)) <= 1e-13 * want.max()


def test_node_shifted_integral_is_zero_below_and_the_total_above():
    # f(x) = 1 on [0, 4] (the edges need not vanish here): the integral at
    # node k moved by s is clip(k step - s, 0, 4), whatever the shift.
    table = _Integral(0.0, np.ones(4097))
    k = np.arange(4097)
    for shift in (-5.0, -0.3, 0.0, 0.37, 2.0 + _GRID_STEP / 3, 4.5):
        got = np.concatenate(
            [table.at_nodes(shift, lo, min(lo + 1000, 4097)) for lo in range(0, 4097, 1000)]
        )
        assert np.max(np.abs(got - np.clip(k * _GRID_STEP - shift, 0.0, 4.0))) < 1e-13, shift


def test_diagonal_build_peak_at_the_vocoder_size():
    # L = 16000, D*M = 32000, folded, with the window table built: the
    # per-element tables peaked at 6.78 MiB.
    import tracemalloc

    p = LtftParams.for_rate(16000.0)
    p.window.freq(0.0)
    tracemalloc.start()
    try:
        _build_diagonal.__wrapped__(p, 16000.0, 32000, True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 6.78 * 2**20


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
