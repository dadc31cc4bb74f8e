"""Command-line front end.

Every subcommand runs one bundled scenario, writes its time series as
CSV (comma-separated, UTF-8, a single ``# manifest:`` comment line, then
a header row, then ``%.16g``-formatted values) and a JSON report whose
top-level keys are ``manifest``, ``inputs``, ``series_files``,
``results``, ``bounds`` and ``diagnostics``. Re-running with the same
parameters reproduces the CSV byte for byte and the JSON up to the
manifest timestamp.

Frequencies are angular (rad per time unit) unless ``--units
mhz-cyclic`` is passed, which multiplies the frequency-like inputs by
2*pi at the boundary. Exit codes: 0 success, 2 usage or validation
problem, 3 numerical failure. ``TFLOW_SEED`` supplies the seed when
``--seed`` is absent.
"""

from __future__ import annotations

import argparse
import datetime
import itertools
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__, dynamics, models, operators, protocol, qsl, tf
from .dynamics import TimeGrid
from .errors import DegenerateDistributionError, IntegrationError

TWO_PI = 2.0 * np.pi


def _fmt(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return f"{float(value):.16g}"


def _write_csv(path: Path, manifest_name: str, header: list[str],
               columns: list) -> None:
    """Write the table with one ``%`` template: ``%.16g`` for float arrays,
    ``%s`` of ``_fmt`` for every other column."""
    fields, values = [], []
    for column in columns:
        if isinstance(column, np.ndarray) and column.dtype.kind == "f":
            fields.append("%.16g")
            values.append(column.tolist())
        else:
            fields.append("%s")
            values.append([_fmt(v) for v in column])
    flat = tuple(itertools.chain.from_iterable(zip(*values)))
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
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    return obj


def _write_report(path: Path, command: str, parameters: dict, seed: int,
                  inputs: dict, series_files: list[str], results: dict,
                  bounds: dict | None = None,
                  diagnostics: dict | None = None) -> None:
    payload = {
        "manifest": {
            "command": command,
            "parameters": _jsonable(parameters),
            "seed": seed,
            "version": __version__,
            "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        },
        "inputs": _jsonable(inputs),
        "series_files": list(series_files),
        "results": _jsonable(results),
        "bounds": _jsonable(bounds or {}),
        "diagnostics": _jsonable(diagnostics or {}),
    }
    path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")


def _resolve_seed(args) -> int:
    if getattr(args, "seed", None) is not None:
        return int(args.seed)
    return int(os.environ.get("TFLOW_SEED", "0"))


def _manifest_params(args, **extra) -> dict:
    params = {k: v for k, v in vars(args).items() if k != "func"}
    params.update(extra)
    return params


def _freq_factor(args) -> float:
    return TWO_PI if getattr(args, "units", "angular") == "mhz-cyclic" else 1.0


def _outdir(args) -> Path:
    out = Path(args.outdir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _point_kinds(rate: np.ndarray, dead_band: float) -> np.ndarray:
    return np.where(rate > dead_band, tf.KIND_TOA,
                    np.where(rate < -dead_band, tf.KIND_TOD, tf.KIND_NEUTRAL))


def _segments_json(series: tf.PopulationSeries) -> tuple[list[dict], list[float]]:
    split = tf.split_toa_tod(series)
    times = series.grid.times
    segments = [
        {"t_start": float(times[i0]), "t_end": float(times[i1]), "kind": kind}
        for i0, i1, kind in split.segments
    ]
    boundaries = [float(times[i0]) for i0, _, _ in split.segments[1:]]
    return segments, boundaries


# ---------------------------------------------------------------------------
# subcommands


def _run_two_level(args) -> int:
    out = _outdir(args)
    seed = _resolve_seed(args)
    factor = _freq_factor(args)
    omega0 = args.omega0 * factor

    if args.waveform == "constant":
        waveform = models.ControlWaveform.constant(omega0)
    elif args.waveform == "polynomial":
        coeffs = args.coefficients or [0.0, 0.0, 0.0, 0.0]
        waveform = models.ControlWaveform.polynomial(omega0, coeffs)
    else:
        if args.sigma is None or args.t0 is None:
            raise ValueError("the gaussian waveform needs --t0 and --sigma")
        waveform = models.ControlWaveform.gaussian_pulse(args.t0, args.sigma)

    init = models.TwoLevelInitial(theta=args.theta, phi=args.phi)
    t_end = args.t_end
    if t_end is None:
        if args.waveform == "constant" and omega0 > 0:
            t_end = np.pi / omega0
        else:
            raise ValueError("--t-end is required for this waveform")
    grid = TimeGrid(args.t_start, t_end, args.points)

    p = models.two_level_population(waveform, init, grid.times)
    rate = models.two_level_rate(waveform, init, grid.times)
    dist = models.two_level_tf_closed(waveform, init, grid)
    series = tf.PopulationSeries(grid, np.clip(p, 0.0, 1.0))
    fd = tf.tf_from_population(series)
    grid_moments = tf.moments(fd)
    closed_moments = models.two_level_moments_closed(
        waveform, init, grid.t_start, grid.t_end
    )
    segments, boundaries = _segments_json(series)

    manifest_name = "two_level_report.json"
    series_path = out / "two_level_series.csv"
    _write_csv(
        series_path, manifest_name,
        ["time", "p_1", "pi_tf", "segment"],
        [grid.times, p, dist.density, _point_kinds(rate, 1e-9 / grid.dt)],
    )
    files = [series_path.name]

    results = {
        "closed_form_mean": closed_moments.mean,
        "closed_form_std": closed_moments.std,
        "grid_mean": grid_moments.mean,
        "grid_std": grid_moments.std,
        "segments": segments,
        "boundaries": boundaries,
    }
    diagnostics = {}

    if args.protocol is not None:
        config = protocol.ProtocolConfig(
            n_trials=args.protocol, grid=grid, seed=seed,
            target=operators.projector(2, 1),
        )
        empirical = protocol.empirical_from_populations(p, config)
        report = protocol.convergence_report(empirical, fd, p_exact=p)
        protocol_path = out / "two_level_protocol.csv"
        _write_csv(
            protocol_path, manifest_name,
            ["time", "pi_hat", "pi_exact", "noise_density"],
            [empirical.midpoint_times, empirical.density, fd.density,
             report.noise_density],
        )
        freq_path = out / "two_level_frequencies.csv"
        _write_csv(
            freq_path, manifest_name,
            ["time", "f_empirical", "p_exact"],
            [grid.times, empirical.frequencies, p],
        )
        files += [protocol_path.name, freq_path.name]
        diagnostics["protocol"] = {
            "n_trials": args.protocol,
            "sup_distance": report.sup_distance,
            "l1_distance": report.l1_distance,
            "mean_abs_distance": report.mean_abs_distance,
            "freq_sup_error": report.freq_sup_error,
            "within_binomial_envelope": report.binomial_flag,
        }

    _write_report(
        out / manifest_name, "two-level", _manifest_params(args, seed=seed), seed,
        {"theta": args.theta, "phi": args.phi, "waveform": args.waveform,
         "omega0": omega0, "t_start": grid.t_start, "t_end": grid.t_end,
         "points": args.points},
        files, results, diagnostics=diagnostics,
    )
    return 0


def _run_sta(args) -> int:
    out = _outdir(args)
    config = models.STAConfig(alpha=args.alpha, t_final=args.t_final,
                              omega0=args.omega0)
    grid = TimeGrid(0.0, args.t_final, args.points)
    dist, closed_moments = models.sta_tf_closed(config, grid)
    p_closed = models.sta_population_closed(config, grid.times)

    manifest_name = "sta_report.json"
    series_path = out / "sta_series.csv"
    _write_csv(series_path, manifest_name, ["time", "p_plus"],
               [grid.times, p_closed])
    tf_path = out / "sta_tf.csv"
    _write_csv(tf_path, manifest_name, ["time", "pi_toa"],
               [dist.times, dist.density])
    files = [series_path.name, tf_path.name]

    results = {"mean": closed_moments.mean, "std": closed_moments.std,
               "mean_over_t_final": closed_moments.mean / args.t_final,
               "std_over_t_final": closed_moments.std / args.t_final}
    diagnostics = {}

    if args.numeric:
        traj = models.sta_propagate(config, grid)
        p_num = dynamics.population_series(
            traj, operators.projector_from_state(operators.plus_state())
        )
        ref = models.sta_population_closed(config, traj.grid.times)
        numeric_path = out / "sta_numeric.csv"
        _write_csv(
            numeric_path, manifest_name,
            ["time", "p_plus_numeric", "p_plus_closed", "deviation"],
            [traj.grid.times, p_num, ref, np.abs(p_num - ref)],
        )
        files.append(numeric_path.name)
        diagnostics["max_deviation"] = float(np.max(np.abs(p_num - ref)))

    _write_report(
        out / manifest_name, "sta", _manifest_params(args), _resolve_seed(args),
        {"alpha": args.alpha, "t_final": args.t_final, "omega0": args.omega0,
         "points": args.points},
        files, results, diagnostics=diagnostics,
    )
    return 0


def _run_lambda(args) -> int:
    out = _outdir(args)
    factor = _freq_factor(args)
    config = models.LambdaConfig(
        omega1=args.omega1 * factor, omega2=args.omega2 * factor,
        delta_initial=args.delta_i * factor, delta_final=args.delta_f * factor,
        t_final=args.t_final,
    )
    grid = TimeGrid(0.0, args.t_final, args.points)
    schedule = models.lambda_hamiltonian(config)
    traj = dynamics.propagate_schrodinger(
        schedule, operators.basis_state(3, 0), grid, args.substeps
    )
    pops = [dynamics.population_series(traj, operators.projector(3, k))
            for k in range(3)]
    gamma_op = models.lambda_gamma(config)
    gamma_series = dynamics.expectation_series(traj, gamma_op)
    current_dist = tf.tf_from_current(traj, gamma_op, align="grid")
    current_mid = tf.tf_from_current(traj, gamma_op, align="midpoints")

    fd_dists, stats = [], []
    for k in range(3):
        d = tf.tf_from_population(tf.PopulationSeries(grid, pops[k]))
        m = tf.moments(d)
        fd_dists.append(d)
        stats.append({"state": k + 1, "mean": m.mean, "std": m.std})

    dark = models.lambda_dark_state(config)
    probe_ts = np.linspace(0.0, args.t_final, 100)
    dark_defect = max(
        abs(complex(schedule(t)[1] @ dark)) for t in probe_ts
    )
    dens = fd_dists[1].density
    interior = (dens[1:-1] > dens[:-2]) & (dens[1:-1] > dens[2:])
    peak_count = int(np.sum(interior & (dens[1:-1] > 0.05 * dens.max())))

    manifest_name = "lambda_report.json"
    series_path = out / "lambda_series.csv"
    _write_csv(
        series_path, manifest_name,
        ["time", "p_1", "p_2", "p_3", "gamma_expectation", "pi_2_current"],
        [grid.times, pops[0], pops[1], pops[2], gamma_series,
         current_dist.density],
    )
    tf_path = out / "lambda_tf.csv"
    _write_csv(
        tf_path, manifest_name,
        ["time", "pi_1", "pi_2", "pi_3"],
        [grid.midpoints, fd_dists[0].density, fd_dists[1].density,
         fd_dists[2].density],
    )

    _write_report(
        out / manifest_name, "lambda", _manifest_params(args), _resolve_seed(args),
        {"omega1": config.omega1, "omega2": config.omega2,
         "delta_initial": config.delta_initial,
         "delta_final": config.delta_final, "t_final": args.t_final,
         "points": args.points, "units": args.units},
        [series_path.name, tf_path.name],
        {
            "tf_statistics": stats,
            "landau_zener_probability": models.landau_zener_probability(config),
            "omega_eff": config.omega_eff,
        },
        diagnostics={
            "population_sum_error": float(np.max(np.abs(sum(pops) - 1.0))),
            "dark_state_coupling": float(dark_defect),
            "dark_state_decoupled": bool(dark_defect <= 1e-12),
            "pi_2_peak_count": peak_count,
            "current_vs_fd_sup": float(
                np.max(np.abs(current_mid.density - fd_dists[1].density))
            ),
        },
    )
    return 0


def _run_dephasing(args) -> int:
    out = _outdir(args)
    gamma = args.gamma * _freq_factor(args)
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    t_end = args.t_end if args.t_end is not None else 10.0 / gamma
    grid = TimeGrid(0.0, t_end, args.points)
    analytics = models.dephasing_analytics(gamma, grid)

    model = models.dephasing_model(gamma)
    rho0 = operators.projector_from_state(operators.plus_state())
    traj = dynamics.propagate_lindblad(model, rho0, grid, args.substeps)
    minus = operators.projector_from_state(operators.minus_state())
    p_num = dynamics.population_series(traj, minus)
    fd = tf.tf_from_population(tf.PopulationSeries(grid, p_num))
    grid_moments = tf.moments(fd)

    exact = tf.Moments(
        mean=analytics.exact_mean, std=analytics.exact_std,
        raw=np.array([analytics.exact_mean,
                      2.0 * analytics.exact_mean ** 2]),
    )
    bounds = qsl.build_bounds_report(
        delta_theta=analytics.delta_theta,
        trace_term=analytics.trace_term,
        measured=exact,
        pi_max=2.0 * gamma,
        mt_bound=qsl.mt_dephasing_bound(gamma),
    ).to_dict()

    manifest_name = "dephasing_report.json"
    series_path = out / "dephasing_series.csv"
    _write_csv(
        series_path, manifest_name,
        ["time", "p_minus", "p_minus_numeric", "pi_minus"],
        [grid.times, analytics.population.values, p_num,
         analytics.distribution.density],
    )
    _write_report(
        out / manifest_name, "dephasing", _manifest_params(args), _resolve_seed(args),
        {"gamma": gamma, "t_end": t_end, "points": args.points},
        [series_path.name],
        {
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
    return 0


def _run_hadamard(args) -> int:
    out = _outdir(args)
    factor = _freq_factor(args)
    omega0 = args.omega0 * factor
    gamma = args.gamma * factor
    bundle = models.hadamard_model(omega0, gamma)
    t_end = args.t_end if args.t_end is not None else np.pi / omega0
    grid = TimeGrid(0.0, t_end, args.points)

    rho0 = operators.projector(2, 0).astype(complex)
    traj = dynamics.propagate_lindblad(bundle.model, rho0, grid, args.substeps)
    p_plus = dynamics.population_series(traj, bundle.target)
    series = tf.PopulationSeries(grid, p_plus)
    fd = tf.tf_from_population(series)
    fd_moments = tf.moments(fd)
    gamma_series = dynamics.expectation_series(traj, bundle.current_op)
    current_dist = tf.tf_from_current(traj, bundle.current_op, align="grid")
    current_mid = tf.tf_from_current(traj, bundle.current_op, align="midpoints")

    delta_theta = abs(float(p_plus[-1] - p_plus[0]))
    bounds = qsl.build_bounds_report(
        delta_theta=delta_theta,
        trace_term=bundle.trace_term,
        measured=fd_moments,
        pi_max=fd.peak,
        hamiltonian=bundle.model.hamiltonian(0.0),
        target=operators.plus_state(),
    ).to_dict()

    manifest_name = "hadamard_report.json"
    series_path = out / "hadamard_series.csv"
    _write_csv(
        series_path, manifest_name,
        ["time", "p_plus", "gamma_expectation", "pi_plus_current"],
        [grid.times, p_plus, gamma_series, current_dist.density],
    )
    tf_path = out / "hadamard_tf.csv"
    _write_csv(tf_path, manifest_name, ["time", "pi_plus"],
               [grid.midpoints, fd.density])
    _write_report(
        out / manifest_name, "hadamard", _manifest_params(args), _resolve_seed(args),
        {"omega0": omega0, "gamma": gamma, "t_end": t_end,
         "points": args.points},
        [series_path.name, tf_path.name],
        {"mean": fd_moments.mean, "std": fd_moments.std,
         "delta_theta": delta_theta},
        bounds=bounds,
        diagnostics={
            "current_vs_fd_sup": float(
                np.max(np.abs(current_mid.density - fd.density))
            ),
        },
    )
    return 0


def _run_optimize(args) -> int:
    from . import optimize as opt

    out = _outdir(args)
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

    manifest_name = "optimize_report.json"
    series_path = out / "optimize_series.csv"
    _write_csv(
        series_path, manifest_name,
        ["time", "omega", "p_1", "pi_1"],
        [grid.times, waveform.omega(grid.times), result.population.values,
         result.distribution.density],
    )
    _write_report(
        out / manifest_name, "optimize", _manifest_params(args, config_data=data),
        _resolve_seed(args),
        {k: getattr(config, k) for k in (
            "t_horizon", "omega0", "lambda_mono", "lambda_reg", "grid_points",
            "max_iterations", "simplex_scale", "tolerance")},
        [series_path.name],
        {
            "coefficients": list(result.coefficients),
            "cost": result.cost,
            "p1_final": result.p1_final,
            "n_false": result.n_false,
            "iterations": result.iterations,
            "converged": result.converged,
            "monotonicity_unconstrained": bool(config.lambda_mono == 0.0),
        },
    )
    return 0


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tflow",
        description="Transition-timing statistics for small quantum systems.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, units=True, seed=True, substeps=False):
        p.add_argument("--outdir", default=".", help="output directory")
        if units:
            p.add_argument("--units", choices=["angular", "mhz-cyclic"],
                           default="angular",
                           help="interpret frequency inputs as angular rad/time "
                                "(default) or cyclic MHz (multiplied by 2 pi)")
        if seed:
            p.add_argument("--seed", type=int, default=None,
                           help="sampling seed (default: TFLOW_SEED or 0)")
        if substeps:
            p.add_argument("--substeps", type=int, default=None,
                           help="integrator substeps per grid interval "
                                "(default: automatic)")

    p = sub.add_parser("two-level", help="driven two-level transfer")
    p.add_argument("--theta", type=float, default=0.0)
    p.add_argument("--phi", type=float, default=0.0)
    p.add_argument("--waveform", choices=["constant", "polynomial", "gaussian"],
                   default="constant")
    p.add_argument("--omega0", type=float, default=1.0)
    p.add_argument("--coefficients", type=float, nargs=4, default=None,
                   metavar=("A1", "A2", "A3", "A4"))
    p.add_argument("--t0", type=float, default=None, help="gaussian pulse center")
    p.add_argument("--sigma", type=float, default=None, help="gaussian pulse width")
    p.add_argument("--t-start", type=float, default=0.0)
    p.add_argument("--t-end", type=float, default=None)
    p.add_argument("--points", type=int, default=1000)
    p.add_argument("--protocol", type=int, default=None, metavar="N",
                   help="also sample the measurement protocol with N trials per point")
    add_common(p)
    p.set_defaults(func=_run_two_level)

    p = sub.add_parser("sta", help="counterdiabatic sweep arrival statistics")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--t-final", type=float, default=1.0)
    p.add_argument("--omega0", type=float, default=10.0)
    p.add_argument("--points", type=int, default=1000)
    p.add_argument("--numeric", action="store_true",
                   help="also propagate numerically and report the deviation")
    add_common(p, units=False)
    p.set_defaults(func=_run_sta)

    p = sub.add_parser("lambda", help="three-level detuning sweep")
    p.add_argument("--omega1", type=float, required=True)
    p.add_argument("--omega2", type=float, required=True)
    p.add_argument("--delta-i", type=float, required=True)
    p.add_argument("--delta-f", type=float, required=True)
    p.add_argument("--t-final", type=float, required=True)
    p.add_argument("--points", type=int, default=2000)
    add_common(p, substeps=True)
    p.set_defaults(func=_run_lambda)

    p = sub.add_parser("dephasing", help="pure dephasing transition")
    p.add_argument("--gamma", type=float, required=True)
    p.add_argument("--t-end", type=float, default=None)
    p.add_argument("--points", type=int, default=2000)
    add_common(p, substeps=True)
    p.set_defaults(func=_run_dephasing)

    p = sub.add_parser("hadamard", help="Hadamard rotation with dephasing")
    p.add_argument("--omega0", type=float, required=True)
    p.add_argument("--gamma", type=float, default=0.0)
    p.add_argument("--t-end", type=float, default=None)
    p.add_argument("--points", type=int, default=2000)
    add_common(p, substeps=True)
    p.set_defaults(func=_run_hadamard)

    p = sub.add_parser("optimize", help="polynomial drive optimization")
    p.add_argument("--config", required=True, help="JSON configuration file")
    add_common(p, units=False)
    p.set_defaults(func=_run_optimize)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
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
