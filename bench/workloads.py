"""The benchmark's three closed-loop workloads.

Each workload turns its seed into an endless stream of requests. The stream
comes in rounds: every round holds a fixed number of requests of each kind in
a seeded order, and each request's parameters are drawn from the seed. A
request calls public entry points of the library (``obrs.cli.main`` or
public functions), reports how many work units it completes, and carries the
check that verifies its output.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Iterator

import numpy as np

import checks
from obrs import FiniteDist, bimodal_target, cli, fdiv, oracle, random_instance, single_gaussian
from obrs.fdiv import GENERATOR_PANEL, max_divergence
from obrs.landscape import FIT_MU_GRID_DEFAULT, FIT_SIGMA_GRID_DEFAULT, THETA_GRID_DEFAULT

NODES = 4096  # quadrature nodes per calibrated grid cell (CLI default)
FLOAT_BYTES = 8


class RequestFailed(Exception):
    """A CLI request returned a nonzero exit code."""


@dataclass
class Request:
    kind: str
    index: int
    units: int
    inputs: Any  # the generated inputs: CLI arguments or library call arguments
    run: Callable[[], Any]  # performs the request, returns what check() reads
    check: Callable[[Any], list[str]]


def run_cli(argv: list[str], out: Path) -> Path:
    code = cli.main(argv + ["--out", str(out)])  # looked up per call: tracing patches it
    if code != 0:
        raise RequestFailed(f"obrs {argv[0]} exited with code {code}")
    return out


def _num(x: float) -> str:
    return repr(float(x))


def _strided_window(rng, grid: np.ndarray, n: int, stride: int) -> np.ndarray:
    """n points of a uniform grid, ``stride`` apart, at a random offset.

    A strided window spans most of the default lattice, so every request
    meets the same mix of cheap and expensive cells.
    """
    start = int(rng.integers(0, len(grid) - (n - 1) * stride))
    return grid[start:start + (n - 1) * stride + 1:stride]


class Workload:
    """Seeded request stream over a fixed round of request kinds."""

    name = ""
    unit = ""
    round_kinds: tuple[str, ...] = ()
    stream_id = 0

    def __init__(self, seed: int, run_dir: Path):
        self.seed = seed
        self.run_dir = run_dir

    def prepare(self) -> None:
        """Generate the workload's input files (none by default)."""

    def peak_intermediate_bytes(self) -> int:
        raise NotImplementedError

    def requests(self, stream: int, out_dir: Path) -> Iterator[Request]:
        rng = np.random.default_rng([self.seed, self.stream_id, stream])
        index = 0
        while True:
            for k in rng.permutation(len(self.round_kinds)):
                kind = self.round_kinds[k]
                out = out_dir / f"r{index:05d}-{kind}"
                yield getattr(self, "_" + kind)(rng, index, out)
                index += 1

    def warmup(self, out_dir: Path) -> list[Request]:
        """One request of each kind, from a stream the timed phases never use."""
        stream = self.requests(1, out_dir)
        reqs: dict[str, Request] = {}
        while len(reqs) < len(set(self.round_kinds)):
            req = next(stream)
            reqs.setdefault(req.kind, req)
        return list(reqs.values())


class Lattice(Workload):
    """Quadrature cells: fit windows, landscape windows, refine at a budget."""

    name = "lattice"
    unit = "cell"
    round_kinds = ("fit", "fit", "landscape", "landscape", "refine")
    stream_id = 1
    FIT_SIDE = 4
    FIT_MU_STRIDE = 30
    FIT_SIGMA_STRIDE = 35
    FIT_BUDGETS = (1.0, 2.0)
    THETAS = 6
    THETA_STRIDE = 30
    LANDSCAPE_BUDGETS = (1.0, 2.0, 5.0)
    SPACING_COMPONENTS = 10  # modes of the spacing-mismatch mixtures

    def peak_intermediate_bytes(self) -> int:
        # computed: the (nodes x components x dim) standardized-distance array
        return NODES * self.SPACING_COMPONENTS * 1 * FLOAT_BYTES

    def _fit(self, rng, index, out):
        side = self.FIT_SIDE
        mus = _strided_window(rng, FIT_MU_GRID_DEFAULT, side, self.FIT_MU_STRIDE)
        sigmas = _strided_window(rng, FIT_SIGMA_GRID_DEFAULT, side, self.FIT_SIGMA_STRIDE)
        argv = [
            "fit", "--mu-min", _num(mus[0]), "--mu-max", _num(mus[-1]),
            "--mu-steps", str(side), "--sigma-min", _num(sigmas[0]),
            "--sigma-max", _num(sigmas[-1]), "--sigma-steps", str(side),
            "--budgets", ",".join(f"{b:g}" for b in self.FIT_BUDGETS),
        ]
        cells = side * side
        return Request(
            "fit", index, cells * len(self.FIT_BUDGETS), argv,
            lambda: run_cli(argv, out),
            lambda o: checks.fit_output(o, cells, self.FIT_BUDGETS),
        )

    def _landscape(self, rng, index, out):
        n = self.THETAS
        thetas = _strided_window(rng, THETA_GRID_DEFAULT, n, self.THETA_STRIDE)
        argv = [
            "landscape", "--theta-min", _num(thetas[0]), "--theta-max", _num(thetas[-1]),
            "--theta-steps", str(n),
            "--budgets", ",".join(f"{b:g}" for b in self.LANDSCAPE_BUDGETS),
        ]
        return Request(
            "landscape", index, n * len(self.LANDSCAPE_BUDGETS), argv,
            lambda: run_cli(argv, out),
            lambda o: checks.landscape_output(o, n, self.LANDSCAPE_BUDGETS),
        )

    def _refine(self, rng, index, out):
        budget = float(np.exp(rng.uniform(math.log(1.25), math.log(8.0))))
        argv = ["refine", "--budget", _num(budget)]
        return Request(
            "refine", index, 1, argv,
            lambda: run_cli(argv, out),
            lambda o: checks.refine_output(o, budget),
        )


class Audit(Workload):
    """Exact finite instances: random competitor sweeps and the bounds audit."""

    name = "audit"
    unit = "pair"
    # One long sweep per round and several short bounds requests: the sweeps
    # are the slow tail, so req_tail_ms lands inside their cluster rather
    # than at the edge of near-equal latencies, where host stalls set it.
    round_kinds = ("competitors", "bounds", "bounds", "bounds", "bounds")
    stream_id = 2
    TRIALS = 1000
    BOUND_INSTANCES = 8
    MAX_ATOMS = 32  # random_instance draws 3..32 atoms

    def peak_intermediate_bytes(self) -> int:
        # computed: one probability or acceptance vector of the largest instance
        return self.MAX_ATOMS * FLOAT_BYTES

    def _competitors(self, rng, index, out):
        """Score random same-rate acceptances under every generator.

        This is the per-trial loop of ``oracle.check_optimality`` without its
        verdict against the library's own solve (see ``checks.competitors``).
        """
        target, model = random_instance(rng)
        sup = math.exp(max_divergence(target, model))
        budget = float(np.exp(rng.uniform(0.0, math.log(sup))))
        trial_seed = int(rng.integers(2**31))
        trials = self.TRIALS

        def run():
            trial_rng = np.random.default_rng(trial_seed)
            sweep = checks.Sweep(len(GENERATOR_PANEL))
            for _ in range(trials):
                a = oracle.random_feasible_acceptance(model, budget, trial_rng)
                mass = model.probs * a
                z = math.fsum(mass.tolist())
                refined = FiniteDist(model.atoms, mass / z)
                # module attributes are looked up per call: tracing patches them
                sweep.add(a, z, [fdiv.divergence_finite(g, target, refined).value
                                 for g in GENERATOR_PANEL])
            return sweep

        return Request(
            "competitors", index, trials * len(GENERATOR_PANEL),
            (target.probs.tolist(), model.probs.tolist(), budget, trial_seed), run,
            lambda sweep: checks.competitors(sweep, target, model, budget, trials)
            + checks.exact_refine_rate(target, model, budget),
        )

    def _bounds(self, rng, index, out):
        n = self.BOUND_INSTANCES
        argv = ["bounds", "--seed", str(int(rng.integers(2**31))), "--instances", str(n)]
        n_gens = len(GENERATOR_PANEL)
        return Request(
            "bounds", index, (n + 1) * n_gens, argv,
            lambda: run_cli(argv, out),
            lambda o: checks.bounds_output(o, n, n_gens),
        )


class Sample(Workload):
    """The proposal side: the 2-d grid protocol and JSON-pair sampling."""

    name = "sample"
    unit = "sample"
    round_kinds = ("grid2d", "finite", "mixture")
    stream_id = 3
    GRID_REPEATS = 2
    GRID_SAMPLES = 2500  # CLI defaults for the grid protocol
    GRID_RATE = 0.4
    CALIBRATION = 10000
    GRID_BATCH = 8192  # rejection_sample's default proposal batch
    GRID_COMPONENTS = 25
    FINITE_ATOMS = 64
    SAMPLES = 5000

    def peak_intermediate_bytes(self) -> int:
        # computed: the 2-d (batch x components x dim) standardized-distance array
        return self.GRID_BATCH * self.GRID_COMPONENTS * 2 * FLOAT_BYTES

    def prepare(self) -> None:
        rng = np.random.default_rng([self.seed, self.stream_id, 0xF1])
        self.finite = random_instance(rng, n_atoms=self.FINITE_ATOMS)
        self.files = {}
        pairs = {"finite": self.finite, "mixture": (bimodal_target(), single_gaussian(0.0, 1.5))}
        for kind, (target, model) in pairs.items():
            for role, dist in (("target", target), ("model", model)):
                path = self.run_dir / f"{kind}-{role}.json"
                path.write_text(json.dumps(dist.to_json()), encoding="utf-8")
                self.files[kind, role] = str(path)

    def _pair_argv(self, kind: str, rng, budget: float) -> list[str]:
        return [
            "sample", "--target", self.files[kind, "target"], "--model", self.files[kind, "model"],
            "--budget", _num(budget), "--samples", str(self.SAMPLES),
            "--seed", str(int(rng.integers(2**31))),
        ]

    def _grid2d(self, rng, index, out):
        argv = ["grid2d", "--seed", str(int(rng.integers(2**31))),
                "--repeats", str(self.GRID_REPEATS)]
        return Request(
            "grid2d", index, self.GRID_REPEATS * 3 * self.GRID_SAMPLES, argv,
            lambda: run_cli(argv, out),
            lambda o: checks.grid2d_output(
                o, self.GRID_REPEATS, self.GRID_SAMPLES, self.GRID_RATE, self.CALIBRATION
            ),
        )

    def _finite(self, rng, index, out):
        budget = float(np.exp(rng.uniform(math.log(1.5), math.log(6.0))))
        argv = self._pair_argv("finite", rng, budget)
        target, model = self.finite
        return Request(
            "finite", index, self.SAMPLES, argv,
            lambda: run_cli(argv, out),
            lambda o: checks.sample_finite_output(o, target, model, budget, self.SAMPLES),
        )

    def _mixture(self, rng, index, out):
        budget = float(np.exp(rng.uniform(math.log(1.25), math.log(6.0))))
        argv = self._pair_argv("mixture", rng, budget)
        return Request(
            "mixture", index, self.SAMPLES, argv,
            lambda: run_cli(argv, out),
            lambda o: checks.sample_mixture_output(o, budget, self.SAMPLES, self.CALIBRATION),
        )


WORKLOADS: dict[str, type[Workload]] = {w.name: w for w in (Lattice, Audit, Sample)}
