"""Boundary property tests of the public names that take point arrays,
signal samples or box sides.

Each draws shapes (0-d, 1-D, zero rows, zero columns, 3-D), dtypes (bool,
int, float, complex, and object arrays of Python ints past int64) and
values (+-0, extreme finite floats, subnormals, NaN, +-inf).  The property:
the call returns with finite outputs, or it raises one ``LtftError``; it
never raises another exception and never emits a warning.
"""

import math
import warnings

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from ltft import (
    DigitalSignal,
    LtftError,
    LtftParams,
    PhaseSpaceBox,
    SampleSet,
    UnitPointSet,
    WavAudio,
    atom_support_length,
    funnel_coverage,
    generate_unit_points,
    relative_error,
    scale_to_box,
)

RATE = 64.0
_MAX = np.finfo(float).max
_EXTREMES = [0.0, -0.0, 5e-324, -5e-324, 2.0**-1022, _MAX, -_MAX, math.nan, math.inf, -math.inf]
_FLOATS = st.one_of(st.sampled_from(_EXTREMES), st.floats())
_BIG_INTS = st.integers(2**63, 2**80).flatmap(lambda v: st.sampled_from([v, -v]))
_ELEMENTS = {
    np.bool_: st.booleans(),
    np.int64: st.integers(-(2**63), 2**63 - 1),
    np.float64: _FLOATS,
    np.complex128: st.one_of(st.sampled_from([1j, complex(_MAX, 1.0)]), st.complex_numbers()),
    object: _BIG_INTS,
}
_ANY_SHAPE = hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=4)
_SCALARS = st.one_of(
    _FLOATS, _BIG_INTS, st.integers(-4, 4), st.booleans(), st.complex_numbers(),
    st.sampled_from([np.float64(1.5), np.int64(-3), np.bool_(True), np.complex128(2.0)]),
)


def _arrays(shapes=_ANY_SHAPE):
    return st.sampled_from(list(_ELEMENTS)).flatmap(
        lambda dtype: hnp.arrays(dtype, shapes, elements=_ELEMENTS[dtype])
    )


def _point_arrays(dim):
    # Mostly the (N, dim) shape a valid call needs, so values get exercised.
    return _arrays(st.one_of(_ANY_SHAPE, st.tuples(st.integers(0, 4), st.just(dim))))


def _finite_or_refused(call):
    # call()'s value with every warning an error, or None when it raises
    # one LtftError; any other exception fails the test.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            return call()
        except LtftError:
            return None


def _finite(*values) -> bool:
    return all(np.all(np.isfinite(np.asarray(v, dtype=np.float64))) for v in values)


_BOX = PhaseSpaceBox(t_lo=-1.0, t_hi=1.0, freq_hi=RATE)
_PARAMS = LtftParams.for_rate(RATE)


@settings(max_examples=50)
@given(_point_arrays(3))
def test_sample_set_builds_finite_points_or_refuses(points):
    samples = _finite_or_refused(lambda: SampleSet(points, box=_BOX, generator="mc"))
    if samples is not None:
        assert samples.points.dtype == np.float64 and samples.points.shape[1:] == (3,)
        assert samples.n >= 1 and _finite(samples.points)


@settings(max_examples=50)
@given(_point_arrays(2))
def test_unit_point_set_builds_unit_points_or_refuses(points):
    unit = _finite_or_refused(lambda: UnitPointSet(points, generator="mc"))
    if unit is not None:
        assert unit.points.dtype == np.float64 and unit.n >= 1 and unit.dim >= 1
        assert np.all((unit.points >= 0.0) & (unit.points < 1.0))


@settings(max_examples=50)
@given(_point_arrays(2))
def test_funnel_coverage_gives_finite_values_or_refuses(queries):
    samples = scale_to_box(generate_unit_points("hammersley", 32, 3), _BOX)
    report = _finite_or_refused(lambda: funnel_coverage(samples, queries, _PARAMS))
    if report is not None:
        assert report.values.shape == report.flagged.shape == (len(queries),)
        assert _finite(report.values)


@settings(max_examples=60)
@given(_SCALARS, _SCALARS, _SCALARS)
def test_phase_space_box_has_finite_sides_and_volume_or_refuses(t_lo, t_hi, freq_hi):
    box = _finite_or_refused(lambda: PhaseSpaceBox(t_lo=t_lo, t_hi=t_hi, freq_hi=freq_hi))
    if box is not None:
        assert all(type(side) is float for side in (box.t_lo, box.t_hi, box.freq_hi))
        assert _finite(box.t_lo, box.t_hi, box.freq_hi, box.volume) and box.volume > 0


@settings(max_examples=60)
@given(st.sampled_from([(4,), (6,), (4, 1), ()]).flatmap(lambda shape: st.tuples(
    _arrays(st.just(shape)), _arrays(st.just(shape)))))
def test_relative_error_is_finite_or_refuses(pair):
    x, y = pair
    value = _finite_or_refused(
        lambda: relative_error(DigitalSignal(x, RATE), DigitalSignal(y, RATE))
    )
    if value is not None:
        assert isinstance(value, float) and math.isfinite(value) and value >= 0.0


@settings(max_examples=50)
@given(_arrays(), _SCALARS)
def test_wav_audio_holds_finite_samples_or_refuses(samples, rate):
    audio = _finite_or_refused(lambda: WavAudio(samples, rate))
    if audio is not None:
        assert audio.samples.dtype == np.float64 and audio.samples.ndim == 1
        assert _finite(audio.samples) and type(audio.rate) is int and audio.rate >= 1


@settings(max_examples=50)
@given(_arrays())
def test_atom_support_length_is_finite_or_refuses(b):
    length = _finite_or_refused(lambda: atom_support_length(_PARAMS, b))
    if length is not None:
        assert length.shape == np.shape(b) and _finite(length) and np.all(length > 0)
