"""Command-line front end.

Every subcommand runs one bundled scenario and returns a ``Run``: its
inputs, its tables, results, bounds and diagnostics. ``_emit`` then
writes each table ``<name>`` of command ``<command>`` as
``<command>_<name>.csv`` (dashes become underscores), in the order the
run lists them, and last the JSON report ``<command>_report.json``. A CSV
is comma-separated UTF-8: a single ``# manifest: <command>_report.json``
comment line, a header row, then ``%.16g`` floats and plain labels. The
report's top-level keys are ``manifest``, ``inputs``, ``series_files``
(the CSV names, in write order), ``results``, ``bounds`` and
``diagnostics``. Nothing is written until the run has computed
everything, so a failed run leaves no file. Re-running with the same
parameters reproduces the CSV byte for byte and the JSON up to the
manifest timestamp.

Frequencies are angular (rad per time unit) unless ``--units
mhz-cyclic`` is passed: ``main`` then multiplies the frequency options
of ``_FREQUENCIES`` by 2*pi once, before any subcommand runs, and the
manifest keeps them as parsed. Exit codes: 0 success, 2 usage or validation
problem, 3 numerical failure. Only ``two-level --protocol`` samples: its
seed is ``--seed``, then ``TFLOW_SEED``, then 0, and only its manifest
carries ``seed``.
"""

from __future__ import annotations

import argparse
import datetime
import itertools
import json
import math
import os
import re
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__, dynamics, models, operators, protocol, qsl, tf
from .dynamics import TimeGrid
from .errors import DegenerateDistributionError, IntegrationError

TWO_PI = 2.0 * np.pi


def _write_csv(path: Path, manifest_name: str, header: list[str],
               columns: list[np.ndarray]) -> None:
    """Write the table with one ``%`` template over each column's
    ``tolist()``: ``%.16g`` for a float array, ``%s`` for any other (a
    string array of labels)."""
    fields = ["%.16g" if column.dtype.kind == "f" else "%s" for column in columns]
    flat = tuple(itertools.chain.from_iterable(zip(*(c.tolist() for c in columns))))
    body = (",".join(fields) + "\n") * (len(flat) // len(fields)) % flat
    path.write_text(f"# manifest: {manifest_name}\n{','.join(header)}\n{body}",
                    encoding="utf-8")


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.bool_, bool)):
        return bool(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, (np.floating, float)):
        val = float(obj)
        return val if np.isfinite(val) else None
    return obj


@dataclass
class Run:
    """Everything one subcommand computed, before any of it is written.

    ``tables`` maps a table name to ``(header, columns)`` in write order;
    ``parameters`` holds manifest parameters that replace or extend the
    parsed arguments.
    """

    inputs: dict
    tables: dict[str, tuple[list[str], list]]
    results: dict
    bounds: dict = field(default_factory=dict)
    diagnostics: dict = field(default_factory=dict)
    parameters: dict = field(default_factory=dict)


def _emit(args, run: Run) -> None:
    """Write the run's tables as ``<command>_<name>.csv``, then its report."""
    stem = args.command.replace("-", "_")
    out = Path(args.outdir)
    report_name = f"{stem}_report.json"
    series_files = []
    for name, (header, columns) in run.tables.items():
        series_files.append(f"{stem}_{name}.csv")
        _write_csv(out / series_files[-1], report_name, header, columns)
    parameters = {k: v for k, v in vars(args).items() if k != "func"}
    parameters.update(run.parameters)
    payload = {
        "manifest": {
            "command": args.command,
            "parameters": _jsonable(parameters),
            **({"seed": args.seed} if "seed" in parameters else {}),
            "version": __version__,
            "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        },
        "inputs": _jsonable(run.inputs),
        "series_files": series_files,
        "results": _jsonable(run.results),
        "bounds": _jsonable(run.bounds),
        "diagnostics": _jsonable(run.diagnostics),
    }
    (out / report_name).write_text(json.dumps(payload, indent=2) + "\n",
                                   encoding="utf-8")


# ---------------------------------------------------------------------------
# subcommands: each computes one Run from the parsed arguments with their
# frequencies in angular units


def _run_two_level(args) -> Run:
    if args.waveform == "constant":
        waveform = models.ControlWaveform.constant(args.omega0)
    elif args.waveform == "polynomial":
        coeffs = args.coefficients or [0.0, 0.0, 0.0, 0.0]
        waveform = models.ControlWaveform.polynomial(args.omega0, coeffs)
    else:
        waveform = models.ControlWaveform.gaussian_pulse(args.t0, args.sigma)

    init = models.TwoLevelInitial(theta=args.theta, phi=args.phi)
    t_end = args.t_end
    if t_end is None:
        if args.waveform == "constant" and args.omega0 > 0:
            t_end = np.pi / args.omega0
        else:
            raise ValueError("--t-end is required for this waveform")
    grid = TimeGrid(args.t_start, t_end, args.points)

    p = models.two_level_population(waveform, init, grid.times)
    series = tf.PopulationSeries(grid, np.clip(p, 0.0, 1.0))
    # first, so that a grid too short for a density is refused as such
    fd = tf.tf_from_population(series)
    rate = models.two_level_rate(waveform, init, grid.times)
    dist = tf.tf_from_rate(grid, rate)
    grid_moments = tf.moments(fd)
    closed_moments = models.two_level_moments_closed(
        waveform, init, grid.t_start, grid.t_end
    )
    split = tf.split_toa_tod(series)
    times = grid.times
    segments = [
        {"t_start": float(times[i0]), "t_end": float(times[i1]), "kind": kind}
        for i0, i1, kind in split.segments
    ]
    boundaries = [float(times[i0]) for i0, _, _ in split.segments[1:]]

    run = Run(
        inputs={"theta": args.theta, "phi": args.phi, "waveform": args.waveform,
                "omega0": args.omega0, "t_start": grid.t_start, "t_end": grid.t_end,
                "points": args.points},
        tables={
            "series": (
                ["time", "p_1", "pi_tf", "segment"],
                [times, p, dist.density, tf.point_kinds(rate, tf.DEAD_BAND / grid.dt)],
            ),
        },
        results={
            "closed_form_mean": closed_moments.mean,
            "closed_form_std": closed_moments.std,
            "grid_mean": grid_moments.mean,
            "grid_std": grid_moments.std,
            "segments": segments,
            "boundaries": boundaries,
        },
    )

    if args.protocol is not None:
        config = protocol.ProtocolConfig(
            n_trials=args.protocol, grid=grid, seed=args.seed,
            target=operators.projector(2, 1),
        )
        empirical = protocol.empirical_from_populations(p, config)
        report = protocol.convergence_report(empirical, fd, p_exact=p)
        run.tables["protocol"] = (
            ["time", "pi_hat", "pi_exact", "noise_density"],
            [grid.midpoints, empirical.density, fd.density,
             report.noise_density],
        )
        run.tables["frequencies"] = (
            ["time", "f_empirical", "p_exact"],
            [times, empirical.frequencies, p],
        )
        run.diagnostics["protocol"] = {
            "n_trials": args.protocol,
            "sup_distance": report.sup_distance,
            "l1_distance": report.l1_distance,
            "mean_abs_distance": report.mean_abs_distance,
            "freq_sup_error": report.freq_sup_error,
            "within_binomial_envelope": report.binomial_flag,
        }
    return run


def _run_sta(args) -> Run:
    config = models.STAConfig(alpha=args.alpha, t_final=args.t_final,
                              omega0=args.omega0)
    grid = TimeGrid(0.0, args.t_final, args.points)
    dist, closed_moments = models.sta_tf_closed(config, grid)
    p_closed = models.sta_population_closed(config, grid.times)

    run = Run(
        inputs={"alpha": args.alpha, "t_final": args.t_final, "omega0": args.omega0,
                "points": args.points},
        tables={
            "series": (["time", "p_plus"], [grid.times, p_closed]),
            "tf": (["time", "pi_toa"], [dist.times, dist.density]),
        },
        results={"mean": closed_moments.mean, "std": closed_moments.std,
                 "mean_over_t_final": closed_moments.mean / args.t_final,
                 "std_over_t_final": closed_moments.std / args.t_final},
    )

    if args.numeric:
        traj = models.sta_propagate(config, grid)
        p_num = dynamics.population_series(
            traj, operators.projector_from_state(operators.plus_state())
        )
        ref = models.sta_population_closed(config, traj.grid.times)
        run.tables["numeric"] = (
            ["time", "p_plus_numeric", "p_plus_closed", "deviation"],
            [traj.grid.times, p_num, ref, np.abs(p_num - ref)],
        )
        run.diagnostics["max_deviation"] = float(np.max(np.abs(p_num - ref)))
    return run


def _run_lambda(args) -> Run:
    config = models.LambdaConfig(
        omega1=args.omega1, omega2=args.omega2, delta_initial=args.delta_i,
        delta_final=args.delta_f, t_final=args.t_final,
    )
    grid = TimeGrid(0.0, args.t_final, args.points)
    schedule = models.lambda_hamiltonian(config)
    traj = dynamics.propagate_schrodinger(
        schedule, operators.basis_state(3, 0), grid, args.substeps
    )
    pops = [dynamics.population_series(traj, operators.projector(3, k))
            for k in range(3)]
    gamma_series = dynamics.expectation_series(traj, models.lambda_gamma(config))
    current = tf.tf_from_rate(grid, gamma_series).density
    current_mid = tf.tf_from_rate(grid, gamma_series, align="midpoints").density

    fd_dists, stats = [], []
    for k in range(3):
        d = tf.tf_from_population(tf.PopulationSeries(grid, pops[k]))
        m = tf.moments(d)
        fd_dists.append(d)
        stats.append({"state": k + 1, "mean": m.mean, "std": m.std})

    # <2|H(t)|dark> at 100 times; each (1, 3) @ (3,) product is one dot
    rows = schedule.sample(np.linspace(0.0, args.t_final, 100))[:, 1:2]
    dark_defect = np.max(np.abs(rows @ models.lambda_dark_state(config)))
    dens = fd_dists[1].density
    interior = (dens[1:-1] > dens[:-2]) & (dens[1:-1] > dens[2:])
    peak_count = int(np.sum(interior & (dens[1:-1] > 0.05 * dens.max())))

    return Run(
        inputs={"omega1": config.omega1, "omega2": config.omega2,
                "delta_initial": config.delta_initial,
                "delta_final": config.delta_final, "t_final": args.t_final,
                "points": args.points, "units": args.units},
        tables={
            "series": (
                ["time", "p_1", "p_2", "p_3", "gamma_expectation", "pi_2_current"],
                [grid.times, pops[0], pops[1], pops[2], gamma_series, current],
            ),
            "tf": (
                ["time", "pi_1", "pi_2", "pi_3"],
                [grid.midpoints, fd_dists[0].density, fd_dists[1].density,
                 fd_dists[2].density],
            ),
        },
        results={
            "tf_statistics": stats,
            "landau_zener_probability": models.landau_zener_probability(config),
            "omega_eff": config.omega_eff,
        },
        diagnostics={
            "population_sum_error": float(np.max(np.abs(sum(pops) - 1.0))),
            "dark_state_coupling": float(dark_defect),
            "dark_state_decoupled": bool(dark_defect <= 1e-12),
            "pi_2_peak_count": peak_count,
            "current_vs_fd_sup": float(np.max(np.abs(current_mid - dens))),
        },
    )


def _run_dephasing(args) -> Run:
    gamma = args.gamma
    model = models.dephasing_model(gamma)  # refuses gamma <= 0 before 10 / gamma
    t_end = args.t_end if args.t_end is not None else 10.0 / gamma
    grid = TimeGrid(0.0, t_end, args.points)
    analytics = models.dephasing_analytics(gamma, grid)

    rho0 = operators.projector_from_state(operators.plus_state())
    traj = dynamics.propagate_lindblad(model, rho0, grid, args.substeps)
    minus = operators.projector_from_state(operators.minus_state())
    p_num = dynamics.population_series(traj, minus)
    fd = tf.tf_from_population(tf.PopulationSeries(grid, p_num))
    grid_moments = tf.moments(fd)

    exact = tf.Moments(mean=analytics.exact_mean, std=analytics.exact_std)
    bounds = qsl.build_bounds_report(
        delta_theta=analytics.delta_theta,
        trace_term=analytics.trace_term,
        measured=exact,
        pi_max=2.0 * gamma,
        mt_bound=qsl.mt_dephasing_bound(gamma),
    )

    return Run(
        inputs={"gamma": gamma, "t_end": t_end, "points": args.points},
        tables={
            "series": (
                ["time", "p_minus", "p_minus_numeric", "pi_minus"],
                [grid.times, analytics.population.values, p_num,
                 analytics.distribution.density],
            ),
        },
        results={
            "exact_mean": analytics.exact_mean,
            "exact_std": analytics.exact_std,
            "grid_mean": grid_moments.mean,
            "grid_std": grid_moments.std,
            "truncation_mass": analytics.truncation_mass,
        },
        bounds=bounds,
        diagnostics={
            "numeric_vs_closed_sup": float(
                np.max(np.abs(p_num - analytics.population.values))
            ),
        },
    )


def _run_hadamard(args) -> Run:
    bundle = models.hadamard_model(args.omega0, args.gamma)
    t_end = args.t_end if args.t_end is not None else np.pi / args.omega0
    grid = TimeGrid(0.0, t_end, args.points)

    rho0 = operators.projector(2, 0).astype(complex)
    traj = dynamics.propagate_lindblad(bundle.model, rho0, grid, args.substeps)
    p_plus = dynamics.population_series(traj, bundle.target)
    fd = tf.tf_from_population(tf.PopulationSeries(grid, p_plus))
    fd_moments = tf.moments(fd)
    gamma_series = dynamics.expectation_series(traj, bundle.current_op)
    current = tf.tf_from_rate(grid, gamma_series).density
    current_mid = tf.tf_from_rate(grid, gamma_series, align="midpoints").density

    delta_theta = abs(float(p_plus[-1] - p_plus[0]))
    bounds = qsl.build_bounds_report(
        delta_theta=delta_theta,
        trace_term=bundle.trace_term,
        measured=fd_moments,
        pi_max=fd.peak,
        hamiltonian=bundle.model.hamiltonian(0.0),
        target=operators.plus_state(),
    )

    return Run(
        inputs={"omega0": args.omega0, "gamma": args.gamma, "t_end": t_end,
                "points": args.points},
        tables={
            "series": (
                ["time", "p_plus", "gamma_expectation", "pi_plus_current"],
                [grid.times, p_plus, gamma_series, current],
            ),
            "tf": (["time", "pi_plus"], [grid.midpoints, fd.density]),
        },
        results={"mean": fd_moments.mean, "std": fd_moments.std,
                 "delta_theta": delta_theta},
        bounds=bounds,
        diagnostics={
            "current_vs_fd_sup": float(np.max(np.abs(current_mid - fd.density))),
        },
    )


def _run_optimize(args) -> Run:
    from . import optimize as opt

    path = Path(args.config)
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ValueError(
            f"config {path}: invalid JSON at line {exc.lineno}, column {exc.colno}: "
            f"{exc.msg}"
        )
    try:
        config = opt.OptimizeConfig.from_dict(data)
    except KeyError as exc:
        raise ValueError(f"config {path}: missing required key {exc}")

    result = opt.optimize_polynomial(config)
    waveform = models.ControlWaveform.polynomial(config.omega0, result.coefficients)
    grid = result.population.grid

    return Run(
        inputs={k: v for k, v in vars(config).items() if k != "initial_coefficients"},
        tables={
            "series": (
                ["time", "omega", "p_1", "pi_1"],
                [grid.times, waveform.omega(grid.times), result.population.values,
                 result.distribution.density],
            ),
        },
        results={
            "coefficients": list(result.coefficients),
            "cost": result.cost,
            "p1_final": result.p1_final,
            "n_false": result.n_false,
            "iterations": result.iterations,
            "converged": result.converged,
            "monotonicity_unconstrained": bool(config.lambda_mono == 0.0),
        },
        parameters={"config_data": data},
    )


# ---------------------------------------------------------------------------
# parser


# the frequency options of each subcommand that --units mhz-cyclic converts
_FREQUENCIES = {"two-level": ("omega0",), "dephasing": ("gamma",),
                "hadamard": ("omega0", "gamma"),
                "lambda": ("omega1", "omega2", "delta_i", "delta_f")}
# a negative number, exponent forms included; argparse's own pattern has no
# exponent, so it read "--delta-i -1e1" as an option with no value
_NEGATIVE_NUMBER = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?$")
# the two-level options each waveform reads; another one given is refused
_WAVEFORM_OPTIONS = {"constant": ("omega0",), "polynomial": ("omega0", "coefficients"),
                     "gaussian": ("t0", "sigma")}


def _resolve_two_level(args) -> None:
    """Refuse the two-level options that would change nothing, then fill in
    place the default omega0 of 1.0 and the seed of a run that samples:
    --seed, then TFLOW_SEED, then 0. A run that does not sample has no seed."""
    for name in ("omega0", "coefficients", "t0", "sigma"):
        if getattr(args, name) is not None and name not in _WAVEFORM_OPTIONS[args.waveform]:
            raise ValueError(f"argument --{name}: the {args.waveform} waveform "
                             "does not use it")
    if args.waveform == "gaussian":
        if args.t0 is None or args.sigma is None:
            raise ValueError("the gaussian waveform needs --t0 and --sigma")
    elif args.omega0 is None:
        args.omega0 = 1.0
    if args.protocol is None:
        if args.seed is not None:
            raise ValueError("argument --seed: only a --protocol run samples")
        del args.seed
    elif args.seed is None:
        text = os.environ.get("TFLOW_SEED", "0")
        try:
            args.seed = int(text)
        except ValueError:
            raise ValueError(f"TFLOW_SEED must be an integer, not {text!r}") from None


def _angular(args) -> argparse.Namespace:
    """The arguments with every frequency option in angular units; a value
    that the 2 pi factor of mhz-cyclic makes infinite is refused."""
    if getattr(args, "units", "angular") == "angular":
        return args
    angular = argparse.Namespace(**vars(args))
    for name in _FREQUENCIES[args.command]:
        if getattr(args, name) is None:  # a gaussian drive has no omega0
            continue
        setattr(angular, name, getattr(args, name) * TWO_PI)
        if not math.isfinite(getattr(angular, name)):
            raise ValueError(f"argument --{name.replace('_', '-')}: "
                             f"{getattr(args, name):g} times 2 pi is not finite")
    return angular


def finite(text: str) -> float:
    """argparse type of every float option: NaN and +-inf exit 2 at parsing."""
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, not {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tflow",
        description="Transition-timing statistics for small quantum systems.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, units=True, substeps=False):
        p.add_argument("--outdir", default=".", help="output directory")
        if units:
            p.add_argument("--units", choices=["angular", "mhz-cyclic"],
                           default="angular",
                           help="interpret frequency inputs as angular rad/time "
                                "(default) or cyclic MHz (multiplied by 2 pi)")
        if substeps:
            p.add_argument("--substeps", type=int, default=None,
                           help="integrator substeps per grid interval "
                                "(default: automatic)")

    p = sub.add_parser("two-level", help="driven two-level transfer")
    p.add_argument("--theta", type=finite, default=0.0)
    p.add_argument("--phi", type=finite, default=0.0)
    p.add_argument("--waveform", choices=["constant", "polynomial", "gaussian"],
                   default="constant")
    p.add_argument("--omega0", type=finite, default=None,
                   help="constant or polynomial drive amplitude (default 1.0)")
    p.add_argument("--coefficients", type=finite, nargs=4, default=None,
                   metavar=("A1", "A2", "A3", "A4"),
                   help="polynomial drive coefficients (default 0 0 0 0)")
    p.add_argument("--t0", type=finite, default=None, help="gaussian pulse center")
    p.add_argument("--sigma", type=finite, default=None, help="gaussian pulse width")
    p.add_argument("--t-start", type=finite, default=0.0)
    p.add_argument("--t-end", type=finite, default=None)
    p.add_argument("--points", type=int, default=1000)
    p.add_argument("--protocol", type=int, default=None, metavar="N",
                   help="also sample the measurement protocol with N trials per point")
    add_common(p)
    p.add_argument("--seed", type=int, default=None,
                   help="protocol sampling seed (default: TFLOW_SEED or 0)")
    p.set_defaults(func=_run_two_level)

    p = sub.add_parser("sta", help="counterdiabatic sweep arrival statistics")
    p.add_argument("--alpha", type=finite, required=True)
    p.add_argument("--t-final", type=finite, default=1.0)
    p.add_argument("--omega0", type=finite, default=10.0)
    p.add_argument("--points", type=int, default=1000)
    p.add_argument("--numeric", action="store_true",
                   help="also propagate numerically and report the deviation")
    add_common(p, units=False)
    p.set_defaults(func=_run_sta)

    p = sub.add_parser("lambda", help="three-level detuning sweep")
    p.add_argument("--omega1", type=finite, required=True)
    p.add_argument("--omega2", type=finite, required=True)
    p.add_argument("--delta-i", type=finite, required=True)
    p.add_argument("--delta-f", type=finite, required=True)
    p.add_argument("--t-final", type=finite, required=True)
    p.add_argument("--points", type=int, default=2000)
    add_common(p, substeps=True)
    p.set_defaults(func=_run_lambda)

    p = sub.add_parser("dephasing", help="pure dephasing transition")
    p.add_argument("--gamma", type=finite, required=True)
    p.add_argument("--t-end", type=finite, default=None)
    p.add_argument("--points", type=int, default=2000)
    add_common(p, substeps=True)
    p.set_defaults(func=_run_dephasing)

    p = sub.add_parser("hadamard", help="Hadamard rotation with dephasing")
    p.add_argument("--omega0", type=finite, required=True)
    p.add_argument("--gamma", type=finite, default=0.0)
    p.add_argument("--t-end", type=finite, default=None)
    p.add_argument("--points", type=int, default=2000)
    add_common(p, substeps=True)
    p.set_defaults(func=_run_hadamard)

    p = sub.add_parser("optimize", help="polynomial drive optimization")
    p.add_argument("--config", required=True, help="JSON configuration file")
    add_common(p, units=False)
    p.set_defaults(func=_run_optimize)

    for p in (parser, *sub.choices.values()):
        p._negative_number_matcher = _NEGATIVE_NUMBER
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if args.command == "two-level":
            _resolve_two_level(args)
        angular = _angular(args)
        # the outdir is made next, so a bad path fails before any computing
        Path(args.outdir).mkdir(parents=True, exist_ok=True)
        _emit(args, args.func(angular))
        return 0
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        print(parser.format_usage(), file=sys.stderr, end="")
        return 2
    except (IntegrationError, DegenerateDistributionError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
