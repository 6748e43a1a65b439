"""Mono PCM16 WAV input/output on the stdlib wave module."""

from __future__ import annotations

import wave
from dataclasses import dataclass

import numpy as np

from .core import DigitalSignal, _check_int
from .errors import InvalidParameterError, ParseError, UnsupportedFormatError

_SCALE = 32768.0
# The header's rate and byte-rate fields are 32 bits, and a mono PCM16 file's
# byte rate is twice its sample rate.
_MAX_RATE = 2**31 - 1


@dataclass
class WavAudio:
    """Mono float samples in [-1, 1) at an integer rate in [1, 2**31 - 1] Hz,
    the rates whose byte rate fits the WAV header's 32-bit field."""

    samples: np.ndarray
    rate: int

    def __post_init__(self) -> None:
        self.samples = np.asarray(self.samples, dtype=np.float64)
        if self.samples.ndim != 1:
            raise InvalidParameterError("audio must be mono (1D)")
        # PCM has no NaN or infinity: they would be written as 0 and full scale.
        if not np.isfinite(self.samples).all():
            raise InvalidParameterError("audio samples must be finite")
        self.rate = _check_int("sample rate", self.rate, 1)
        if self.rate > _MAX_RATE:
            raise InvalidParameterError(f"sample rate {self.rate} exceeds {_MAX_RATE}")

    def to_signal(self) -> DigitalSignal:
        """Signal at one time unit per second, zero-padded to even length."""
        samples = self.samples
        if samples.size % 2 == 1:
            samples = np.concatenate([samples, [0.0]])
        if samples.size < 4:
            samples = np.concatenate([samples, np.zeros(4 - samples.size)])
        return DigitalSignal(samples, float(self.rate))


def wav_read(path: str) -> WavAudio:
    """Read a RIFF/WAVE PCM16 file; stereo is downmixed by averaging."""
    try:
        with wave.open(path, "rb") as handle:
            if handle.getcomptype() != "NONE":
                raise UnsupportedFormatError(
                    f"unsupported codec {handle.getcomptype()!r}; need PCM"
                )
            if handle.getsampwidth() != 2:
                raise UnsupportedFormatError(
                    f"unsupported sample width {handle.getsampwidth()}; need 16-bit"
                )
            channels = handle.getnchannels()
            if channels not in (1, 2):
                raise UnsupportedFormatError(f"unsupported channel count {channels}")
            rate = handle.getframerate()
            declared = handle.getnframes()
            raw = handle.readframes(declared)
    except wave.Error as exc:
        raise ParseError(f"malformed WAV file: {exc}") from exc
    except EOFError as exc:
        raise ParseError("malformed WAV file: truncated") from exc
    # A file cut short, inside a frame or on a frame boundary, holds fewer
    # bytes than its header declares.
    if len(raw) < declared * 2 * channels:
        raise ParseError("malformed WAV file: truncated")
    if not raw:
        raise ParseError("WAV file holds no audio frames")
    data = np.frombuffer(raw, dtype="<i2").astype(np.float64)
    if channels == 2:
        data = 0.5 * (data[0::2] + data[1::2])
    return WavAudio(data / _SCALE, rate)


def wav_write(path: str, audio: WavAudio) -> None:
    """Write mono PCM16; in-range values from wav_read round-trip bit-exactly."""
    pcm = np.clip(np.round(audio.samples * _SCALE), -32768, 32767).astype("<i2")
    with wave.open(path, "wb") as handle:
        handle.setnchannels(1)
        handle.setsampwidth(2)
        handle.setframerate(audio.rate)
        handle.writeframes(pcm.tobytes())
