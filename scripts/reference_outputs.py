"""Write the outputs of a fixed list of CLI runs, for byte comparison.

    python3 scripts/reference_outputs.py OUT_DIR

Runs every command of the CLI on small, seeded configurations (listed in
``RUNS``) with the ``obrs`` of this checkout's ``src/``, one subdirectory
of OUT_DIR per run. Each run keeps its CSV files and ``summary.json``; its
``manifest.json`` is deleted, because it records wall time. Two checkouts
produce the same bytes when

    diff -r OUT_A OUT_B

prints nothing. The ``sample`` runs read distribution files that the script
writes to a temporary directory from fixed seeds.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from obrs.cli import main  # noqa: E402


def _finite(probs) -> dict:
    return {"type": "finite", "atoms": list(range(len(probs))), "probs": [float(p) for p in probs]}


def _gaussian(weights, means, stds) -> dict:
    return {"type": "gaussian_mixture", "weights": weights, "means": means, "stds": stds}


def _inputs() -> dict:
    """The distribution files of the sample runs, by name."""
    rng = np.random.default_rng(64)
    return {
        "finite64-target": _finite(rng.dirichlet(np.ones(64))),
        "finite64-model": _finite(rng.dirichlet(np.ones(64))),
        # one atom without target mass, one without mass on either side
        "zero-mass-target": _finite([0.4, 0.4, 0.2, 0.0, 0.0]),
        "zero-mass-model": _finite([0.2, 0.3, 0.3, 0.2, 0.0]),
        "bimodal-target": _gaussian([0.5, 0.5], [[-2.0], [2.0]], [[0.5], [0.5]]),
        "bimodal-model": _gaussian([1.0], [[0.0]], [[1.5]]),
    }


def _sample(pair: str, budget: str, seed: str) -> list[str]:
    """A sample run on one pair of input files; {inputs} stands for their directory."""
    return ["sample", "--target", "{inputs}/" + pair + "-target.json",
            "--model", "{inputs}/" + pair + "-model.json", "--budget", budget, "--seed", seed]


RUNS = {
    "generators": ["generators"],
    **{f"bounds-seed{s}": ["bounds", "--seed", s, "--instances", "20"] for s in ("1", "2", "3")},
    **{f"refine-k{k}": ["refine", "--budget", k] for k in ("2", "1", "40")},
    "fit": ["fit", "--mu-steps", "5", "--sigma-steps", "5", "--nodes", "512"],
    "landscape": ["landscape", "--theta-steps", "6", "--nodes", "512"],
    **{f"grid2d-seed{s}": ["grid2d", "--seed", s, "--repeats", "2"] for s in ("909", "17", "5")},
    **{f"grid2d-seed7-rate{r}": ["grid2d", "--seed", "7", "--repeats", "2", "--rate", r]
       for r in ("0.25", "1")},
    **{f"sample-finite64-k{k}": _sample("finite64", k, "11") for k in ("1.7", "3", "40")},
    "sample-zero-mass-k2": _sample("zero-mass", "2", "12"),
    **{f"sample-bimodal-k{k}": _sample("bimodal", k, "13") for k in ("1", "1.7", "3")},
}


def run_all(out_dir: Path) -> int:
    """Run every entry of RUNS into out_dir; returns the number of files kept."""
    with tempfile.TemporaryDirectory() as inputs:
        for name, dist in _inputs().items():
            (Path(inputs) / f"{name}.json").write_text(json.dumps(dist), encoding="utf-8")
        for name, argv in RUNS.items():
            run_dir = out_dir / name
            argv = [arg.format(inputs=inputs) for arg in argv] + ["--out", str(run_dir)]
            if main(argv) != 0:
                raise SystemExit(f"error: run {name} failed: obrs {' '.join(argv)}")
            (run_dir / "manifest.json").unlink()
    return sum(1 for path in out_dir.rglob("*") if path.is_file())


if __name__ == "__main__":
    if len(sys.argv) != 2:
        raise SystemExit("usage: python3 scripts/reference_outputs.py OUT_DIR")
    print(f"{run_all(Path(sys.argv[1]))} files written under {sys.argv[1]}")
