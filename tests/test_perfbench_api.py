"""Smoke test of the library API that the benchmark's traced rebuild uses.

perfbench/worker.py re-assembles `ltft vocoder` from the layers' public
functions (analyze, CoefficientVector(values, weight=), with_dilated_times,
synthesize, frame_diagonal, apply_inverse_frame and the x D scale).  Its
output must stay byte-identical to the CLI's, or the benchmark's traced
runs measure a different pipeline from the one users run.  The library
rebuilds of reconstruct and the error sweep must stay within the
benchmark's 1e-9 gate.  And every name that perfbench/ imports from ltft
must still exist.
"""

import ast
import dataclasses
import functools
import importlib
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from ltft import WavAudio, wav_write
from ltft.cli import main

ROOT = Path(__file__).resolve().parent.parent


def test_traced_vocoder_matches_cli(tmp_path):
    rate = 16000
    t = np.arange(1024) / rate
    src = tmp_path / "in.wav"
    wav_write(str(src), WavAudio(0.5 * np.sin(2 * np.pi * 440.0 * t), rate))
    traced, cli = tmp_path / "traced.wav", tmp_path / "cli.wav"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "worker.py"), "trace-vocoder",
         str(src), str(traced), "--dilation", "2"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert main(["vocoder", "-D", "2", str(src), str(cli)]) == 0
    assert traced.read_bytes() == cli.read_bytes()


def test_traced_library_rebuild_matches_the_pipeline(tmp_path):
    # One timed error-sweep run and its traced rebuild (traced_sweep, which
    # calls traced_reconstruct per point count), compared as the benchmark's
    # --trace 1 gate compares them.
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "worker.py"), "lib",
         "--workload", "error-sweep", "--seed", "0", "--seconds", "0",
         "--trace", "1", "--work-dir", str(tmp_path)],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(proc.stdout.splitlines()[-1])
    assert payload["ok"] and payload["failed"] == 0, proc.stderr
    assert payload["rebuild_max_rel_diff"] <= 1e-9


def test_every_name_perfbench_imports_from_ltft_exists():
    # perfbench/ is parsed, not imported, so a library cut that removes a
    # name the benchmark takes fails here, whichever worker path uses it.
    checked, missing = 0, []
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "ltft":
                module = importlib.import_module(node.module)
                checked += len(node.names)
                missing += [
                    f"{path.name}: {node.module}.{alias.name}"
                    for alias in node.names if not hasattr(module, alias.name)
                ]
    assert checked > 0
    assert not missing


def _caller_nodes():
    # Every AST node of src/ltft (less its re-exports) and perfbench/.
    paths = [p for p in (ROOT / "src" / "ltft").glob("*.py") if p.name != "__init__.py"]
    for path in paths + sorted((ROOT / "perfbench").glob("*.py")):
        yield from ast.walk(ast.parse(path.read_text(), str(path)))


def test_every_public_name_has_a_caller_outside_the_tests():
    # A public name that only tests read belongs in tests/oracles.py.  Names,
    # attributes and imports in src/ltft (less its re-exports) and perfbench/ count.
    import ltft

    read = set()
    for node in _caller_nodes():
        if isinstance(node, ast.Name):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            read.update(alias.name.split(".")[-1] for alias in node.names)
    # The 3D star-discrepancy scan tells Hammersley from Monte Carlo at its
    # default resolution; its caller is a pending 3D bench-discrepancy mode.
    assert set(ltft.__all__) - read == {"star_discrepancy_scan"}


def test_every_public_attribute_of_an_exported_class_has_a_caller():
    # Each public method, property and dataclass field of a class in
    # ltft.__all__ is read as an attribute, or passed as a keyword, in
    # src/ltft (less its re-exports) or perfbench/.  Bare names do not
    # count: short ones such as `c` are read everywhere.
    import ltft

    read = set()
    for node in _caller_nodes():
        if isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.keyword) and node.arg:
            read.add(node.arg)
    kinds = (property, functools.cached_property, classmethod, staticmethod)
    unread = []
    for name in ltft.__all__:
        cls = getattr(ltft, name)
        if not inspect.isclass(cls):
            continue
        fields = dataclasses.fields(cls) if dataclasses.is_dataclass(cls) else ()
        attrs = {field.name for field in fields} | {
            attr for attr, value in vars(cls).items()
            if inspect.isfunction(value) or isinstance(value, kinds)
        }
        unread += [f"{name}.{attr}" for attr in sorted(attrs - read) if not attr.startswith("_")]
    assert not unread
