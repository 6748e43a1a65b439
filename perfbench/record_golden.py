"""Record the golden outputs that the benchmark's correctness gates compare with.

    python3 perfbench/record_golden.py

Run from the root of a checkout.  Writes golden/golden.json (the
speech-reconstruct rel_error and the error-sweep rows at the golden seed)
and golden/vocoder-seed0.wav (the `ltft vocoder -D 2` output).  The stored
files were recorded at commit 3eb2255; record again only in a change that
means to alter the program's outputs, and say so in that change.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(Path(__file__).resolve().parent)]

import ltft.cli  # noqa: E402
import workloads as w  # noqa: E402


def main() -> None:
    w.check_checkout_import()
    seed = w.GOLDEN_SEED
    signal, params = w.speech_inputs(seed)
    speech = ltft.relative_error(w.speech_e2e(signal, params), signal)
    wav_name = f"vocoder-seed{seed}.wav"
    with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
        src = Path(tmp) / "in.wav"
        w.write_vocoder_input(seed, src)
        if ltft.cli.main(w.vocoder_argv(src, w.GOLDEN_DIR / wav_name)) != 0:
            raise SystemExit("ltft vocoder failed")
    golden = {
        "seed": seed,
        "speech-reconstruct": {"rel_error": speech},
        "error-sweep": {"rows": w.sweep_summary(seed)["rows"]},
        "vocoder-cli": {"wav": wav_name},
    }
    (w.GOLDEN_DIR / "golden.json").write_text(json.dumps(golden, indent=1) + "\n")


if __name__ == "__main__":
    main()
