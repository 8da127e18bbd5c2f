"""The arithmetic environment of the golden preset exports in tests/golden.

The preset runs reproduce `tests/golden` byte for byte only on the
arithmetic kernels that made them: numpy's SIMD dispatch and OpenBLAS's
core each round some operations differently (ROADMAP item 16). So the
goldens come with `environment.json`, and a golden mismatch reports the
recorded environment beside the current one.

    PYTHONPATH=src python tests/golden_environment.py

regenerates both presets' golden `trajectory.csv` and `priorities.csv` and
`environment.json` together.
"""

from __future__ import annotations

import ctypes
import json
import os
import tempfile
from pathlib import Path

import numpy as np

GOLDEN = Path(__file__).parent / "golden"
PRESETS = ("use_case_1", "use_case_2")
EXPORTS = ("trajectory.csv", "priorities.csv")
KERNEL_SWITCHES = ("OPENBLAS_CORETYPE", "NPY_DISABLE_CPU_FEATURES")


def _numpy_simd() -> str | None:
    """The highest SIMD target numpy dispatches to on this CPU, "baseline"
    when it dispatches to none."""
    try:
        from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    except ImportError:
        return None
    active = [target for target in __cpu_dispatch__ if __cpu_features__.get(target)]
    return active[-1] if active else "baseline"


def _openblas_core() -> str | None:
    """The core OpenBLAS picked for this CPU, read from the copy numpy loaded
    (a numpy wheel bundles it in numpy.libs); None where it cannot be read."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("libscipy_openblas64_*")):
        try:
            corename = ctypes.CDLL(str(lib)).scipy_openblas_get_corename64_
        except (OSError, AttributeError):
            continue
        corename.argtypes, corename.restype = [], ctypes.c_char_p
        return corename().decode()
    return None


def current() -> dict:
    """numpy's version and SIMD target, OpenBLAS's core, and the kernel
    switches set in the environment."""
    return {
        "numpy": np.__version__,
        "numpy_simd": _numpy_simd(),
        "openblas_core": _openblas_core(),
        "switches": {name: os.environ[name] for name in KERNEL_SWITCHES if name in os.environ},
    }


def recorded() -> dict | None:
    path = GOLDEN / "environment.json"
    return json.loads(path.read_text(encoding="utf-8")) if path.is_file() else None


def regenerate() -> None:
    from intersim.orchestrator import export_logs, run_simulation
    from intersim.scenario import load_scenario

    for preset in PRESETS:
        with tempfile.TemporaryDirectory() as tmp:
            export_logs(*run_simulation(load_scenario(preset)), tmp)
            for name in EXPORTS:
                (GOLDEN / preset / name).write_bytes((Path(tmp) / name).read_bytes())
    (GOLDEN / "environment.json").write_text(json.dumps(current(), indent=2) + "\n", encoding="utf-8")


if __name__ == "__main__":
    regenerate()
