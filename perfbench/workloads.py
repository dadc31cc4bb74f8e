"""The three workloads: their operations, made from the seed.

The seed rescales time by a few percent (every frequency by the inverse
factor, so each problem stays the same in units of its own time scale)
and picks the protocol sampling seed. Automatic substep counts depend
only on that dimensionless problem, so every seed asks for exactly the
same RK4 steps and quadrature work. The seed never changes a grid size,
a sweep length or the two kept faults, so the failed share of a run is
the same for every seed.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

# optimizer config as in the CLI test suite; fixed, because the number of
# simplex iterations depends sharply on it
OPTIMIZE_CONFIG = {"t_horizon": 1.0, "omega0": 0.8 * math.pi, "lambda_mono": 1.0,
                   "lambda_reg": 1e-8, "max_iterations": 2000}

README_THETA = "1.0471975512"
README_PHI = "1.5707963268"
README_T_END = "3.1415926536"
PROTOCOL_TRIALS = 100000


@dataclass(frozen=True)
class CliOp:
    """One fresh `tflow` process: a subcommand and its arguments."""

    name: str
    argv: tuple[str, ...]
    kept_fault: bool = False
    params: dict = field(default_factory=dict)


def _jitter(rng: random.Random, value: float, rel: float) -> float:
    return value * (1.0 + rel * (2.0 * rng.random() - 1.0))


def _num(x: float) -> str:
    return repr(float(x))


def cli_propagate(seed: int) -> list[CliOp]:
    rng = random.Random(f"cli-propagate:{seed}")
    lam = _jitter(rng, 1.0, 0.05)  # time scale of the Lambda ramp
    gamma = _jitter(rng, 1.0, 0.1)  # the window is 10/gamma
    had = _jitter(rng, 10.0, 0.05)  # the window is pi/omega0, gamma = omega0/2
    sta_t = _jitter(rng, 1.0, 0.05)  # omega0 = 20/T
    sta_args = ("--t-final", _num(sta_t), "--omega0", _num(20.0 / sta_t), "--numeric")
    return [
        CliOp("lambda", ("lambda", "--omega1", _num(1 / lam), "--omega2", _num(1 / lam),
                         "--delta-i", _num(-10 / lam), "--delta-f", _num(10 / lam),
                         "--t-final", _num(4 * lam), "--units", "mhz-cyclic",
                         "--points", "4000"),
              params={"omega1": 2 * math.pi / lam, "omega2": 2 * math.pi / lam,
                      "delta_i": -20 * math.pi / lam, "delta_f": 20 * math.pi / lam,
                      "t_final": 4.0 * lam, "points": 4000}),
        CliOp("dephasing", ("dephasing", "--gamma", _num(gamma)),
              params={"gamma": gamma, "points": 2000}),
        CliOp("hadamard", ("hadamard", "--omega0", _num(had), "--gamma", _num(had / 2),
                           "--units", "mhz-cyclic"),
              params={"omega0": 2 * math.pi * had, "gamma": 2 * math.pi * (had / 2),
                      "points": 2000}),
        CliOp("sta-numeric-a1", ("sta", "--alpha", "1.0", *sta_args),
              params={"alpha": 1.0, "t_final": sta_t, "points": 1000}),
        CliOp("sta-numeric-a0.5", ("sta", "--alpha", "0.5", *sta_args),
              params={"alpha": 0.5, "t_final": sta_t, "points": 1000}),
    ]


def cli_closed_form(seed: int) -> list[CliOp]:
    rng = random.Random(f"cli-closed-form:{seed}")
    omega0 = _jitter(rng, 1.0, 0.05)
    t_final = _jitter(rng, 1.0, 0.05)
    protocol_seed = str(seed)
    readme = {"omega": 1.0, "theta": float(README_THETA), "phi": float(README_PHI),
              "t_end": float(README_T_END), "n_trials": PROTOCOL_TRIALS}
    return [
        CliOp("two-level", ("two-level", "--omega0", _num(omega0), "--points", "2000"),
              params={"omega": omega0, "theta": 0.0, "phi": 0.0,
                      "t_end": math.pi / omega0, "points": 2000}),
        CliOp("two-level-protocol",
              ("two-level", "--theta", README_THETA, "--phi", README_PHI,
               "--t-end", README_T_END, "--protocol", str(PROTOCOL_TRIALS),
               "--seed", protocol_seed),
              params=dict(readme, points=1000)),
        CliOp("two-level-protocol-20k",
              ("two-level", "--theta", README_THETA, "--phi", README_PHI,
               "--t-end", README_T_END, "--points", "20000",
               "--protocol", str(PROTOCOL_TRIALS), "--seed", protocol_seed),
              params=dict(readme, points=20000)),
        CliOp("sta-a1", ("sta", "--alpha", "1.0", "--t-final", _num(t_final),
                         "--omega0", "20"),
              params={"alpha": 1.0, "t_final": t_final, "points": 1000}),
        CliOp("sta-a0.5", ("sta", "--alpha", "0.5", "--t-final", _num(t_final),
                           "--omega0", "20"),
              params={"alpha": 0.5, "t_final": t_final, "points": 1000}),
        CliOp("optimize", ("optimize", "--config", "{config}"),
              params=dict(OPTIMIZE_CONFIG)),
        # kept fault: the 4097-point sign-change probe misses most of the
        # 6366 sign changes, so the closed-form moments come out wrong
        CliOp("two-level-high-oscillation",
              ("two-level", "--omega0", "2000", "--t-end", "10"), kept_fault=True,
              params={"omega": 2000.0, "theta": 0.0, "phi": 0.0, "t_end": 10.0,
                      "points": 1000}),
    ]


def library_sweep(seed: int) -> list[dict]:
    """Sweep points through the public API; one point is one operation."""
    rng = random.Random(f"library-sweep:{seed}")
    points = []
    # point costs are spread so that the three dephasing points sit alone in
    # the middle of the 13, which keeps the median point time off a boundary
    # between two groups of points
    for k, ratio in enumerate((0.05, 0.5, 1.0)):
        omega0 = _jitter(rng, 10.0, 0.05)  # the window is pi/omega0
        points.append({"kind": "hadamard", "omega0": omega0, "gamma": ratio * omega0,
                       "points": 201, "n_trials": 20000, "seed": seed * 16 + k})
    for k, gamma in enumerate((0.5, 1.0, 2.0)):
        points.append({"kind": "dephasing", "gamma": _jitter(rng, gamma, 0.05),
                       "points": 201, "n_trials": 20000, "seed": seed * 16 + 4 + k})
    for k, t_final in enumerate((1.0, 1.5, 2.0)):
        scale = _jitter(rng, 1.0, 0.05)  # time scale; frequencies scale inversely
        points.append({"kind": "lambda", "omega1": 2 * math.pi / scale,
                       "omega2": 2 * math.pi / scale, "delta_i": -5 * math.pi / scale,
                       "delta_f": 5 * math.pi / scale, "t_final": t_final * scale,
                       "points": 401, "n_trials": 20000, "seed": seed * 16 + 8 + k})
    for k, alpha in enumerate((1.0, 0.75, 0.5)):
        t_final = _jitter(rng, 1.0, 0.05)
        points.append({"kind": "sta", "alpha": alpha, "t_final": t_final,
                       "omega0": 20.0 / t_final, "points": 201,
                       "n_trials": 20000, "seed": seed * 16 + 12 + k})
    # kept fault: a well-posed narrow pi pulse between grid points; the
    # starting substeps are set from grid-point samples of H and five
    # doublings do not reach the needed refinement
    points.append({"kind": "narrow-pulse", "t0": 0.505, "sigma": 0.001,
                   "points": 101, "kept_fault": True})
    return points


CLI_WORKLOADS = {"cli-propagate": cli_propagate, "cli-closed-form": cli_closed_form}
WORKLOADS = ("cli-propagate", "cli-closed-form", "library-sweep")
