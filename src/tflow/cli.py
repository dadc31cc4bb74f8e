"""Command-line front end.

Each subcommand describes its transfer as one ``Scenario`` and passes
it to ``_evaluate``, which runs every route whose input the scenario
holds: the FD TF and moments of each target; the deviation from a
reference population; one checked table of H on the grid and its
L^dag(M), from ``dynamics._adjoint_stack`` as in ``qsl.tf_qsl_open``, for
the resolution rule of ``models.grid_phase`` (``diagnostics.resolved``);
the bounds of ``qsl.build_bounds_report``, whose trace term is always the
grid's largest |Tr(L^dag(M)^2)| (the other keywords are the model's
closed forms where given, else the FD TF's moments, peak and transfer);
the current TF from a closed-form rate, or from <L^dag(M)> along a
trajectory, with ``current_vs_fd_sup``; and the protocol when asked. A
route that cannot be formed on a well-posed input (H not finite, or a
trace term that is not 0 or a normal float) writes null and its reason
under ``diagnostics.skipped``; it never changes the exit code. The
subcommand lays out its own tables, result keys and model-specific
diagnostics. ``two-level`` and ``optimize`` share one two-level transfer
(``_transfer``); the drive of ``optimize`` is the one its search ends on,
on the cost grid.

``_emit`` writes each table ``<name>`` of command ``<command>`` as
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
from .errors import DegenerateDistributionError, IntegrationError, OperatorConstraintError

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
    """A JSON-ready copy: numpy scalars as Python ones, non-finite floats as None."""
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.generic):
        obj = obj.item()
    return None if isinstance(obj, float) and not math.isfinite(obj) else obj


@dataclass
class Run:
    """Everything one subcommand computed, before any of it is written.

    ``tables`` maps a table name to ``(header, columns)`` in write order;
    ``parameters`` replace or extend the parsed arguments in the manifest.
    ``fd``, ``moments`` (by target), the signed ``rate`` of the transfer
    and its ``current`` TF are not written.
    """

    inputs: dict = field(default_factory=dict)
    tables: dict[str, tuple[list[str], list]] = field(default_factory=dict)
    results: dict = field(default_factory=dict)
    bounds: dict | None = None
    diagnostics: dict = field(default_factory=dict)
    parameters: dict = field(default_factory=dict)
    fd: dict[str, tf.TFDistribution] = field(default_factory=dict)
    moments: dict[str, tf.Moments] = field(default_factory=dict)
    rate: np.ndarray | None = None
    current: tf.TFDistribution | None = None

    def lay_out(self, inputs: dict, tables: dict, results: dict, **diagnostics) -> Run:
        """Add a subcommand's own parts; its tables and diagnostics come first."""
        self.inputs, self.results = inputs, results
        self.tables = {**tables, **self.tables}
        self.diagnostics = {**diagnostics, **self.diagnostics}
        return self


def _emit(args, run: Run) -> None:
    """Write the run's tables as ``<command>_<name>.csv``, then its report."""
    stem = args.command.replace("-", "_")
    out = Path(args.outdir)
    report_name = f"{stem}_report.json"
    series_files = []
    for name, (header, columns) in run.tables.items():
        series_files.append(f"{stem}_{name}.csv")
        _write_csv(out / series_files[-1], report_name, header, columns)
    parameters = {**vars(args), **run.parameters}
    manifest = {"command": args.command, "parameters": parameters,
                **({"seed": args.seed} if "seed" in parameters else {}),
                "version": __version__,
                "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat()}
    payload = {"manifest": manifest, "inputs": run.inputs, "series_files": series_files,
               "results": run.results, "bounds": run.bounds, "diagnostics": run.diagnostics}
    (out / report_name).write_text(json.dumps(_jsonable(payload), indent=2) + "\n",
                                   encoding="utf-8")


# ---------------------------------------------------------------------------
# the scenario pipeline


@dataclass(frozen=True)
class Scenario:
    """One transfer (see the module docstring). The first of ``targets``
    is the transfer's, into the state ``target`` under ``model``;
    ``rate`` is its closed-form signed rate, else a ``trajectory`` gives
    <L^dag(M)>; ``closed`` holds the ``qsl.build_bounds_report`` keywords
    the model gives in closed form (never the trace term, which is the
    grid's), ``drive`` a ControlWaveform whose angle step is
    the phase per grid step, ``reference`` a report key and the population
    to compare with, and ``protocol`` (trials, seed)."""

    grid: TimeGrid
    targets: dict[str, np.ndarray]
    model: dynamics.LindbladModel
    target: np.ndarray
    rate: np.ndarray | None = None
    trajectory: dynamics.Trajectory | None = None
    closed: dict = field(default_factory=dict)
    drive: models.ControlWaveform | None = None
    reference: tuple[str, np.ndarray] | None = None
    protocol: tuple[int, int] | None = None


def _evaluate(s: Scenario) -> Run:
    """Run every route whose input the scenario holds (module docstring)."""
    grid = s.grid
    # first, so that a grid too short for a density is refused as such
    fd = {name: tf.tf_from_population(tf.PopulationSeries(grid, p))
          for name, p in s.targets.items()}
    run = Run(fd=fd, moments={name: tf.moments(d) for name, d in fd.items()})
    diag = run.diagnostics
    name, p = next(iter(s.targets.items()))
    if s.reference is not None:
        diag[s.reference[0]] = float(np.max(np.abs(p - s.reference[1])))
    m, run.rate = operators.projector_from_state(s.target), s.rate
    # one checked table of H and its L^dag(M) serve the resolution rule, the
    # rate and the bounds; a constant H needs one time. An H or a trace term
    # too large for the arithmetic ends in inf or NaN, and so in a reason
    constant = s.model.hamiltonian.constant
    diag["phase_per_step"] = diag["resolved"] = None
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            table, adj = dynamics._adjoint_stack(
                s.model, m, grid.times[:1] if constant else grid.times, "times")
            diag["phase_per_step"], diag["resolved"] = models.grid_phase(
                grid.times, table if s.drive is None else s.drive)
            if run.rate is None and s.trajectory is not None:
                run.rate = dynamics.expectation_series(s.trajectory,
                                                       adj[0] if constant else adj)
            run.bounds = qsl.build_bounds_report(**{
                "delta_theta": abs(float(p[-1] - p[0])),
                "trace_term": qsl.largest_trace_term(adj),
                "measured": run.moments[name], "pi_max": fd[name].peak,
                "hamiltonian": table[0] if constant else None, "target": s.target,
                **s.closed})
        except OperatorConstraintError as exc:
            diag["skipped"] = {"bounds": str(exc)}
    if run.rate is not None:
        run.current = tf.tf_from_rate(grid, run.rate)
        mid = tf.tf_from_rate(grid, run.rate, align="midpoints").density
        diag["current_vs_fd_sup"] = float(np.max(np.abs(mid - fd[name].density)))
    if s.protocol is not None:
        n_trials, seed = s.protocol
        empirical = protocol.empirical_from_populations(p, protocol.ProtocolConfig(
            n_trials=n_trials, grid=grid, seed=seed, target=m))
        report = protocol.convergence_report(empirical, fd[name], p_exact=p)
        run.tables["protocol"] = (
            ["time", "pi_hat", "pi_exact", "noise_density"],
            [grid.midpoints, empirical.density, fd[name].density, report.noise_density])
        run.tables["frequencies"] = (["time", "f_empirical", "p_exact"],
                                    [grid.times, empirical.frequencies, p])
        diag["protocol"] = {
            "n_trials": n_trials, "sup_distance": report.sup_distance,
            "l1_distance": report.l1_distance, "mean_abs_distance": report.mean_abs_distance,
            "freq_sup_error": report.freq_sup_error,
            "within_binomial_envelope": report.binomial_flag}
    return run


# ---------------------------------------------------------------------------
# subcommands: each describes its scenario from the parsed arguments, with
# their frequencies in angular units, and lays out what _evaluate made of it


def _transfer(waveform: models.ControlWaveform, init: models.TwoLevelInitial,
              grid: TimeGrid, **extra) -> tuple[Scenario, np.ndarray]:
    """The two-level transfer |0> -> |1> under ``waveform`` on ``grid``, with
    the ``extra`` Scenario fields, and its closed-form p_1; the scenario's
    population is p_1 clipped to [0, 1]."""
    p = models.two_level_population(waveform, init, grid.times)
    return Scenario(
        grid, {"p_1": np.clip(p, 0.0, 1.0)},
        dynamics.LindbladModel(models.two_level_hamiltonian(waveform)),
        operators.basis_state(2, 1), rate=models.two_level_rate(waveform, init, grid.times),
        drive=waveform, **extra), p


def _run_two_level(args) -> Run:
    if args.waveform == "constant":
        waveform = models.ControlWaveform.constant(args.omega0)
    elif args.waveform == "polynomial":
        coeffs = args.coefficients or [0.0, 0.0, 0.0, 0.0]
        waveform = models.ControlWaveform.polynomial(args.omega0, coeffs)
    else:
        waveform = models.ControlWaveform.gaussian_pulse(args.t0, args.sigma)
    init = models.TwoLevelInitial(theta=args.theta, phi=args.phi)
    if args.t_end is None and not (args.waveform == "constant" and args.omega0 > 0):
        raise ValueError("--t-end is required for this waveform")
    t_end = np.pi / args.omega0 if args.t_end is None else args.t_end
    grid = TimeGrid(args.t_start, t_end, args.points)
    times = grid.times

    closed = models.two_level_moments_closed(waveform, init, grid.t_start, grid.t_end)
    scenario, p = _transfer(
        waveform, init, grid, closed={"measured": closed},
        protocol=None if args.protocol is None else (args.protocol, args.seed))
    run = _evaluate(scenario)
    segments = tf.split_toa_tod(tf.PopulationSeries(grid, scenario.targets["p_1"])).segments
    return run.lay_out(
        {"theta": args.theta, "phi": args.phi, "waveform": args.waveform,
         "omega0": args.omega0, "t_start": grid.t_start, "t_end": grid.t_end,
         "points": args.points},
        {"series": (["time", "p_1", "pi_tf", "segment"],
                    [times, p, run.current.density,
                     tf.point_kinds(scenario.rate, tf.DEAD_BAND / grid.dt)])},
        {"closed_form_mean": closed.mean, "closed_form_std": closed.std,
         "grid_mean": run.moments["p_1"].mean, "grid_std": run.moments["p_1"].std,
         "segments": [{"t_start": float(times[i0]), "t_end": float(times[i1]),
                       "kind": kind} for i0, i1, kind in segments],
         "boundaries": [float(times[i0]) for i0, _, _ in segments[1:]]})


def _run_sta(args) -> Run:
    config = models.STAConfig(alpha=args.alpha, t_final=args.t_final, omega0=args.omega0)
    grid = TimeGrid(0.0, args.t_final, args.points)
    dist, closed = models.sta_tf_closed(config, grid)
    # the scenario lives where H is finite, on the grid the sweep propagates on
    run_grid = models.sta_grid(config, grid)
    p_closed = models.sta_population_closed(config, run_grid.times)
    plus = operators.plus_state()
    traj = models.sta_propagate(config, grid) if args.numeric else None
    p = p_closed if traj is None else dynamics.population_series(
        traj, operators.projector_from_state(plus))
    run = _evaluate(Scenario(
        run_grid, {"p_plus": p}, dynamics.LindbladModel(models.sta_hamiltonian(config)),
        plus, trajectory=traj, closed={"measured": closed},
        reference=None if traj is None else ("max_deviation", p_closed)))
    tables = {"series": (["time", "p_plus"],
                         [grid.times, models.sta_population_closed(config, grid.times)]),
              "tf": (["time", "pi_toa"], [dist.times, dist.density])}
    if traj is not None:
        tables["numeric"] = (["time", "p_plus_numeric", "p_plus_closed", "deviation"],
                             [run_grid.times, p, p_closed, np.abs(p - p_closed)])
    return run.lay_out(
        {"alpha": args.alpha, "t_final": args.t_final, "omega0": args.omega0,
         "points": args.points},
        tables,
        {"mean": closed.mean, "std": closed.std,
         "mean_over_t_final": closed.mean / args.t_final,
         "std_over_t_final": closed.std / args.t_final})


def _run_lambda(args) -> Run:
    config = models.LambdaConfig(omega1=args.omega1, omega2=args.omega2,
                                 delta_initial=args.delta_i, delta_final=args.delta_f,
                                 t_final=args.t_final)
    grid = TimeGrid(0.0, args.t_final, args.points)
    schedule = models.lambda_hamiltonian(config)
    traj = dynamics.propagate_schrodinger(schedule, operators.basis_state(3, 0), grid,
                                          args.substeps)
    pops = [dynamics.population_series(traj, operators.projector(3, k)) for k in range(3)]
    # the transfer is the flow of |2>
    run = _evaluate(Scenario(
        grid, {"p_2": pops[1], "p_1": pops[0], "p_3": pops[2]},
        dynamics.LindbladModel(schedule), operators.basis_state(3, 1), trajectory=traj))
    dists = [run.fd[f"p_{k + 1}"] for k in range(3)]

    # <2|H(t)|dark> at 100 times; each (1, 3) @ (3,) product is one dot
    rows = schedule.sample(np.linspace(0.0, args.t_final, 100))[:, 1:2]
    dark_defect = np.max(np.abs(rows @ models.lambda_dark_state(config)))
    dens = dists[1].density
    interior = (dens[1:-1] > dens[:-2]) & (dens[1:-1] > dens[2:])
    return run.lay_out(
        {"omega1": config.omega1, "omega2": config.omega2,
         "delta_initial": config.delta_initial, "delta_final": config.delta_final,
         "t_final": args.t_final, "points": args.points, "units": args.units},
        {"series": (["time", "p_1", "p_2", "p_3", "gamma_expectation", "pi_2_current"],
                    [grid.times, *pops, run.rate, run.current.density]),
         "tf": (["time", "pi_1", "pi_2", "pi_3"],
                [grid.midpoints, *(d.density for d in dists)])},
        {"tf_statistics": [{"state": k + 1, "mean": run.moments[f"p_{k + 1}"].mean,
                            "std": run.moments[f"p_{k + 1}"].std} for k in range(3)],
         "landau_zener_probability": models.landau_zener_probability(config),
         "omega_eff": config.omega_eff},
        population_sum_error=float(np.max(np.abs(sum(pops) - 1.0))),
        dark_state_coupling=float(dark_defect),
        dark_state_decoupled=bool(dark_defect <= 1e-12),
        pi_2_peak_count=int(np.sum(interior & (dens[1:-1] > 0.05 * dens.max()))))


def _run_dephasing(args) -> Run:
    gamma = args.gamma
    model = models.dephasing_model(gamma)  # refuses gamma <= 0 before 10 / gamma
    t_end = args.t_end if args.t_end is not None else 10.0 / gamma
    grid = TimeGrid(0.0, t_end, args.points)
    analytics = models.dephasing_analytics(gamma, grid)

    rho0 = operators.projector_from_state(operators.plus_state())
    traj = dynamics.propagate_lindblad(model, rho0, grid, args.substeps)
    minus = operators.minus_state()
    p_num = dynamics.population_series(traj, operators.projector_from_state(minus))
    run = _evaluate(Scenario(
        grid, {"p_minus": p_num}, model, minus, trajectory=traj,
        closed={"delta_theta": analytics.delta_theta,
                "measured": tf.Moments(mean=analytics.exact_mean, std=analytics.exact_std),
                "pi_max": 2.0 * gamma, "mt_bound": qsl.mt_dephasing_bound(gamma)},
        reference=("numeric_vs_closed_sup", analytics.population.values)))
    return run.lay_out(
        {"gamma": gamma, "t_end": t_end, "points": args.points},
        {"series": (["time", "p_minus", "p_minus_numeric", "pi_minus"],
                    [grid.times, analytics.population.values, p_num,
                     analytics.distribution.density])},
        {"exact_mean": analytics.exact_mean, "exact_std": analytics.exact_std,
         "grid_mean": run.moments["p_minus"].mean, "grid_std": run.moments["p_minus"].std,
         "truncation_mass": analytics.truncation_mass})


def _run_hadamard(args) -> Run:
    bundle = models.hadamard_model(args.omega0, args.gamma)
    t_end = args.t_end if args.t_end is not None else np.pi / args.omega0
    grid = TimeGrid(0.0, t_end, args.points)

    rho0 = operators.projector(2, 0).astype(complex)
    traj = dynamics.propagate_lindblad(bundle.model, rho0, grid, args.substeps)
    p_plus = dynamics.population_series(traj, bundle.target)
    run = _evaluate(Scenario(grid, {"p_plus": p_plus}, bundle.model,
                             operators.plus_state(), trajectory=traj))
    moments = run.moments["p_plus"]
    return run.lay_out(
        {"omega0": args.omega0, "gamma": args.gamma, "t_end": t_end,
         "points": args.points},
        {"series": (["time", "p_plus", "gamma_expectation", "pi_plus_current"],
                    [grid.times, p_plus, run.rate, run.current.density]),
         "tf": (["time", "pi_plus"], [grid.midpoints, run.fd["p_plus"].density])},
        {"mean": moments.mean, "std": moments.std,
         "delta_theta": abs(float(p_plus[-1] - p_plus[0]))})


def _run_optimize(args) -> Run:
    from . import optimize as opt

    path = Path(args.config)
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ValueError(f"config {path}: invalid JSON at line {exc.lineno}, "
                         f"column {exc.colno}: {exc.msg}")
    try:
        config = opt.OptimizeConfig.from_dict(data)
    except KeyError as exc:
        raise ValueError(f"config {path}: missing required key {exc}")

    result = opt.optimize_polynomial(config)
    # the transfer under the drive the search ended on, on its cost grid. No
    # closed-form moments: their enumeration can refuse a drive the search
    # accepted, which would change the exit code
    waveform = models.ControlWaveform.polynomial(config.omega0, result.coefficients)
    grid = TimeGrid(0.0, config.t_horizon, config.grid_points)
    scenario, p = _transfer(waveform, models.TwoLevelInitial(), grid)
    run = _evaluate(scenario)
    run.parameters = {"config_data": data}
    return run.lay_out(
        {k: v for k, v in vars(config).items() if k != "initial_coefficients"},
        {"series": (["time", "omega", "p_1", "pi_1"],
                    [grid.times, waveform.omega(grid.times), p, run.current.density])},
        {"coefficients": list(result.coefficients), "cost": result.cost,
         "p1_final": result.p1_final, "n_false": result.n_false,
         "iterations": result.iterations, "converged": result.converged,
         "monotonicity_unconstrained": bool(config.lambda_mono == 0.0)})


_RUNNERS = {"two-level": _run_two_level, "sta": _run_sta, "lambda": _run_lambda,
            "dephasing": _run_dephasing, "hadamard": _run_hadamard,
            "optimize": _run_optimize}


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
            p.add_argument("--units", choices=["angular", "mhz-cyclic"], default="angular",
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

    p = sub.add_parser("sta", help="counterdiabatic sweep arrival statistics")
    p.add_argument("--alpha", type=finite, required=True)
    p.add_argument("--t-final", type=finite, default=1.0)
    p.add_argument("--omega0", type=finite, default=10.0)
    p.add_argument("--points", type=int, default=1000)
    p.add_argument("--numeric", action="store_true",
                   help="also propagate numerically and report the deviation")
    add_common(p, units=False)

    p = sub.add_parser("lambda", help="three-level detuning sweep")
    for name in ("--omega1", "--omega2", "--delta-i", "--delta-f", "--t-final"):
        p.add_argument(name, type=finite, required=True)
    p.add_argument("--points", type=int, default=2000)
    add_common(p, substeps=True)

    p = sub.add_parser("dephasing", help="pure dephasing transition")
    p.add_argument("--gamma", type=finite, required=True)
    p.add_argument("--t-end", type=finite, default=None)
    p.add_argument("--points", type=int, default=2000)
    add_common(p, substeps=True)

    p = sub.add_parser("hadamard", help="Hadamard rotation with dephasing")
    p.add_argument("--omega0", type=finite, required=True)
    p.add_argument("--gamma", type=finite, default=0.0)
    p.add_argument("--t-end", type=finite, default=None)
    p.add_argument("--points", type=int, default=2000)
    add_common(p, substeps=True)

    p = sub.add_parser("optimize", help="polynomial drive optimization")
    p.add_argument("--config", required=True, help="JSON configuration file")
    add_common(p, units=False)

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
        _emit(args, _RUNNERS[args.command](angular))
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
