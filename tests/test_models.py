import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import brentq

from tflow import dynamics, models, operators, tf
from tflow.dynamics import TimeGrid
from tflow.errors import DegenerateDistributionError, IntegrationError

M_PLUS = operators.projector_from_state(operators.plus_state())


# ---------------------------------------------------------------------------
# waveforms


def test_constant_waveform_cumulative():
    wf = models.ControlWaveform.constant(2.0)
    assert wf.cumulative(0.0) == 0.0
    assert wf.cumulative(1.5) == pytest.approx(3.0)


def test_polynomial_cumulative_matches_quadrature():
    coeffs = (0.4, -0.2, 0.05, 0.01)
    wf = models.ControlWaveform.polynomial(1.1, coeffs)
    for t in (0.3, 1.0, 2.7):
        want, _ = quad(lambda x: wf.omega(np.array(x)), 0.0, t, epsabs=1e-13)
        assert wf.cumulative(t) == pytest.approx(want, abs=1e-10)


def test_gaussian_cumulative_matches_quadrature():
    wf = models.ControlWaveform.gaussian_pulse(1.0, 0.2)
    for t in (0.5, 1.0, 2.0):
        want, _ = quad(lambda x: float(wf.omega(np.array(x))), 0.0, t, epsabs=1e-13)
        assert float(wf.cumulative(t)) == pytest.approx(want, abs=1e-10)
    # total angle approaches the pulse area minus the tail clipped at t < 0
    from scipy.special import ndtr
    want_total = np.pi * (1.0 - ndtr(-1.0 / 0.2))
    assert float(wf.cumulative(10.0)) == pytest.approx(want_total, abs=1e-12)


def test_custom_waveform_quadrature_fallback():
    wf = models.ControlWaveform.custom(lambda t: np.cos(t))
    assert float(wf.cumulative(1.3)) == pytest.approx(np.sin(1.3), abs=1e-10)


def test_two_level_initial_validation():
    with pytest.raises(ValueError):
        models.TwoLevelInitial(theta=4.0)
    with pytest.raises(ValueError):
        models.TwoLevelInitial(phi=7.0)
    psi = models.TwoLevelInitial(theta=np.pi / 3, phi=np.pi / 2).state()
    assert np.linalg.norm(psi) == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# two-level closed forms


def test_two_level_population_default_is_rabi():
    wf = models.ControlWaveform.constant(1.0)
    init = models.TwoLevelInitial()
    ts = np.linspace(0, np.pi, 64)
    assert np.allclose(models.two_level_population(wf, init, ts),
                       np.sin(ts / 2.0) ** 2)


def test_two_level_population_starts_in_target():
    wf = models.ControlWaveform.constant(1.0)
    init = models.TwoLevelInitial(theta=np.pi, phi=1.0)
    assert models.two_level_population(wf, init, 0.0) == pytest.approx(1.0)


def test_two_level_rate_extremum():
    # oracle: rate reduces to (1/2) sin(t - pi/3), vanishing at pi/3
    wf = models.ControlWaveform.constant(1.0)
    init = models.TwoLevelInitial(theta=np.pi / 3, phi=np.pi / 2)
    assert abs(models.two_level_rate(wf, init, np.pi / 3)) <= 1e-12
    h = 1e-5
    fd = (models.two_level_population(wf, init, np.pi / 3 + h)
          - models.two_level_population(wf, init, np.pi / 3 - h)) / (2 * h)
    assert abs(fd) <= 1e-8


def test_two_level_population_matches_propagation():
    wf = models.ControlWaveform.polynomial(0.8, (0.3, -0.1, 0.0, 0.02))
    init = models.TwoLevelInitial(theta=0.9, phi=2.2)
    grid = TimeGrid(0.0, 3.0, 601)
    traj = dynamics.propagate_schrodinger(
        models.two_level_hamiltonian(wf), init.state(), grid
    )
    p_num = dynamics.population_series(traj, operators.projector(2, 1))
    p_closed = models.two_level_population(wf, init, grid.times)
    assert np.max(np.abs(p_num - p_closed)) <= 1e-6


def test_two_level_tf_closed_sine():
    wf = models.ControlWaveform.constant(1.0)
    init = models.TwoLevelInitial()
    grid = TimeGrid(0.0, np.pi, 2001)
    dist = models.two_level_tf_closed(wf, init, grid)
    assert np.max(np.abs(dist.density - 0.5 * np.sin(grid.times))) <= 1e-3
    assert abs(np.sum(dist.density) * dist.dt - 1.0) <= 1e-9


def test_two_level_tf_closed_phase_quarter():
    # with phi = pi/2 the density is proportional to |sin(W - theta)|
    theta = np.pi / 3
    wf = models.ControlWaveform.constant(1.0)
    init = models.TwoLevelInitial(theta=theta, phi=np.pi / 2)
    grid = TimeGrid(0.0, np.pi, 501)
    dist = models.two_level_tf_closed(wf, init, grid)
    ref = np.abs(np.sin(grid.times - theta))
    ref /= np.sum(ref) * grid.dt
    assert np.max(np.abs(dist.density - ref)) <= 1e-9


def test_two_level_tf_closed_degenerate():
    # theta = pi/2, phi = 0 freezes the |1> population entirely
    wf = models.ControlWaveform.constant(1.0)
    init = models.TwoLevelInitial(theta=np.pi / 2, phi=0.0)
    with pytest.raises(DegenerateDistributionError):
        models.two_level_tf_closed(wf, init, TimeGrid(0.0, np.pi, 101))


def test_two_level_moments_closed_constant_drive():
    omega0 = 1.0
    wf = models.ControlWaveform.constant(omega0)
    m = models.two_level_moments_closed(
        wf, models.TwoLevelInitial(), 0.0, np.pi / omega0
    )
    assert m.mean == pytest.approx(np.pi / 2.0, rel=1e-9)
    want_std = (np.pi / 2.0) * np.sqrt(1.0 - 8.0 / np.pi ** 2)
    assert m.std == pytest.approx(want_std, rel=1e-9)


def test_two_level_moments_closed_with_sign_changes():
    # oracle: grid pipeline on a fine grid
    wf = models.ControlWaveform.constant(1.0)
    init = models.TwoLevelInitial(theta=np.pi / 3, phi=np.pi / 2)
    grid = TimeGrid(0.0, 2.0 * np.pi, 20001)
    series = tf.PopulationSeries(
        grid, np.clip(models.two_level_population(wf, init, grid.times), 0, 1)
    )
    grid_m = tf.moments(tf.tf_from_population(series))
    quad_m = models.two_level_moments_closed(wf, init, 0.0, 2.0 * np.pi)
    assert quad_m.mean == pytest.approx(grid_m.mean, abs=1e-4)
    assert quad_m.std == pytest.approx(grid_m.std, abs=1e-4)


def test_two_level_moments_closed_many_sign_changes():
    # 6366 sign changes; a fixed 4097-point probe returned 5.000797 / 2.884047
    m = models.two_level_moments_closed(
        models.ControlWaveform.constant(2000.0), models.TwoLevelInitial(), 0.0, 10.0
    )
    assert m.mean == pytest.approx(4.999918066, abs=1e-9)
    assert m.std == pytest.approx(2.886704028, abs=1e-9)


def _moments_by_segment_quad(omega0, init, t0, t1):
    """Reference: quad of t^p |rate| between the analytic roots."""
    a = np.cos(init.theta)
    b = np.sin(init.theta) * np.sin(init.phi)
    delta = np.arctan2(b, a)
    w, d = abs(omega0), (delta if omega0 > 0 else -delta)
    k = np.arange(np.ceil((w * t0 - d) / np.pi), np.floor((w * t1 - d) / np.pi) + 1)
    cuts = sorted({t0, t1, *((d + np.pi * k) / w)})

    def rate(t):
        return 0.5 * omega0 * (a * np.sin(omega0 * t) - b * np.cos(omega0 * t))

    mu = [sum(abs(quad(lambda t: t ** p * rate(t), lo, hi,
                       epsabs=1e-14, epsrel=1e-13)[0])
              for lo, hi in zip(cuts[:-1], cuts[1:])) for p in range(3)]
    mean = mu[1] / mu[0]
    return mean, np.sqrt(mu[2] / mu[0] - mean ** 2)


@pytest.mark.parametrize("theta, phi", [(0.0, 0.0), (np.pi / 3, np.pi / 2), (2.0, 4.0)])
@pytest.mark.parametrize("omega0, t0, t1", [
    (1.0, 0.0, 2.0 * np.pi),
    (7.3, 0.4, 5.0),
    (-2.5, 0.0, 3.0),
    (0.01, 0.0, 1.0),  # 0.01 rad of phase: sin/cos antiderivatives cancel here
])
def test_two_level_moments_closed_matches_segment_quadrature(theta, phi, omega0, t0, t1):
    init = models.TwoLevelInitial(theta=theta, phi=phi)
    m = models.two_level_moments_closed(models.ControlWaveform.constant(omega0),
                                        init, t0, t1)
    mean, std = _moments_by_segment_quad(omega0, init, t0, t1)
    assert m.mean == pytest.approx(mean, rel=1e-12)
    assert m.std == pytest.approx(std, rel=1e-12)


def test_two_level_moments_closed_zero_drive_degenerate():
    with pytest.raises(DegenerateDistributionError):
        models.two_level_moments_closed(models.ControlWaveform.constant(0.0),
                                        models.TwoLevelInitial(), 0.0, 1.0)


def test_probed_moments_resolve_every_sign_change():
    # a polynomial drive with zero coefficients is the constant drive, but
    # goes through the probe: 3183 sign changes on [0, 10]
    init = models.TwoLevelInitial()
    probed = models.two_level_moments_closed(
        models.ControlWaveform.polynomial(1000.0, [0.0, 0.0, 0.0, 0.0]), init, 0.0, 10.0
    )
    exact = models.two_level_moments_closed(
        models.ControlWaveform.constant(1000.0), init, 0.0, 10.0
    )
    assert probed.mean == pytest.approx(exact.mean, abs=1e-8)
    assert probed.std == pytest.approx(exact.std, abs=1e-8)


def test_probed_moments_refuse_an_unresolvable_drive():
    with pytest.raises(IntegrationError):
        models.two_level_moments_closed(
            models.ControlWaveform.polynomial(1e6, [0.0, 0.0, 0.0, 0.0]),
            models.TwoLevelInitial(), 0.0, 10.0,
        )


# 20 (t - 1)(t - 1.0001)(t + 1)(t + 2): w changes sign twice, 1e-4 apart
CLOSE_ROOTS = (40.004, (-19.998, -60.004, 19.998, 20.0))
# 2 (t - 0.7)(t - 2.1)(1 + t^2 / 10)
APART_ROOTS = (2.94, (-5.6, 2.294, -0.56, 0.2))
DRIVES = {
    "poly": (lambda: models.ControlWaveform.polynomial(1.1, (0.4, -0.2, 0.05, 0.01)),
             0.0, 3.0),
    "poly-apart": (lambda: models.ControlWaveform.polynomial(*APART_ROOTS), 0.0, 3.0),
    "poly-close": (lambda: models.ControlWaveform.polynomial(*CLOSE_ROOTS), 0.5, 1.5),
    "poly-1000": (lambda: models.ControlWaveform.polynomial(1000.0, [0.0] * 4), 0.0, 10.0),
    "gauss": (lambda: models.ControlWaveform.gaussian_pulse(1.0, 0.2), 0.0, 2.0),
    "gauss-narrow": (lambda: models.ControlWaveform.gaussian_pulse(0.505, 0.001), 0.0, 1.0),
    # clipped at t = 0, 2.5 sigma after the peak
    "gauss-clipped": (lambda: models.ControlWaveform.gaussian_pulse(0.05, 0.02), 0.0, 1.0),
    "custom-cos": (lambda: models.ControlWaveform.custom(np.cos), 0.0, 4.0),
}
INITS = ((0.0, 0.0), (np.pi / 3, np.pi / 2), (2.0, 4.0))

# (mean, std) from the scipy path these moments replaced (a probe grid,
# brentq at each bracketed sign change and quad on each piece), recorded
# before the change, for the initial states of INITS in order
SCIPY_MOMENTS = {
    "poly": [(1.7533065364141673, 0.8361134335252313),
             (1.67628411508951, 0.7944531918204631),
             (1.6801332630120596, 0.7910980233922055)],
    "poly-apart": [(2.199140669735632, 0.9774760907150393),
                   (2.0190650876742637, 1.0093683699810434),
                   (2.0347598332893, 1.0060153674602268)],
    "poly-close": [(1.1276872731008625, 0.36188274525677355),
                   (1.129962805450055, 0.36765786343584334),
                   (1.1302411668383578, 0.36745224692292894)],
    "poly-1000": [(4.999882286545195, 2.886683324021098),
                  (5.000295578803233, 2.8867708532994576),
                  (5.000299592283126, 2.886769041548276)],
    "gauss": [(1.000000189732724, 0.12944805089434144),
              (1.0475837510301804, 0.21958740420478434),
              (1.0489210894815066, 0.21798316060898532)],
    "gauss-narrow": [(0.505000000000001, 0.0006472402544295103),
                     (0.5052379188725932, 0.0010979458275752192),
                     (0.5052446055494678, 0.0010899245639708086)],
    "gauss-clipped": [(0.050405362923238835, 0.012951024219169445),
                      (0.05514801070428028, 0.02145740095564581),
                      (0.055282072067012626, 0.0212999624235287)],
    "custom-cos": [(2.052906590431869, 1.1742844620057586),
                   (2.4077159238956507, 1.354576464926761),
                   (2.423154184873231, 1.3559907699327518)],
}

# the narrow pulse by 30-digit mpmath quadrature between its exact sign
# changes, with the pulse split at t0 + j sigma
NARROW_PULSE_MOMENTS = [(0.505, 0.0006472402544804118),
                        (0.5052379188725931, 0.0010979458276388757),
                        (0.5052446055494679, 0.0010899245639087818)]


def _drive_moments(name, k):
    make, t0, t1 = DRIVES[name]
    return models.two_level_moments_closed(make(), models.TwoLevelInitial(*INITS[k]),
                                           t0, t1)


@pytest.mark.parametrize("k", range(len(INITS)))
@pytest.mark.parametrize("name", [n for n in DRIVES if n != "gauss-narrow"])
def test_drive_moments_match_the_scipy_path(name, k):
    m = _drive_moments(name, k)
    mean, std = SCIPY_MOMENTS[name][k]
    assert m.mean == pytest.approx(mean, rel=1e-11)
    assert m.std == pytest.approx(std, rel=1e-11)


@pytest.mark.parametrize("k", range(len(INITS)))
def test_narrow_pulse_keeps_its_spread(k):
    # a pulse 505 sigma from t = 0: raw moments about 0 leave the variance
    # to a difference that cancels 6e5-fold, which put the scipy path off
    # by up to 7.9e-11 in the spread; moments about piece centres do not
    m = _drive_moments("gauss-narrow", k)
    mean, std = NARROW_PULSE_MOMENTS[k]
    assert m.mean == pytest.approx(mean, rel=1e-13)
    assert m.std == pytest.approx(std, rel=1e-12)
    assert m.std == pytest.approx(SCIPY_MOMENTS["gauss-narrow"][k][1], rel=2e-10)


def _moments_by_exact_roots(waveform, init, t0, t1):
    """Reference: quad of t^p |rate| between the exact sign changes of a
    polynomial drive's rate: the real roots of w and, on each piece between
    them where W is monotone, brentq on W - delta - k pi."""
    a = np.cos(init.theta)
    b = np.sin(init.theta) * np.sin(init.phi)
    delta = np.arctan2(b, a)
    coeffs = [waveform.params["omega0"], *waveform.params["coefficients"]]
    roots = np.polynomial.polynomial.polyroots(coeffs)
    roots = roots.real[(roots.imag == 0) & (roots.real > t0) & (roots.real < t1)]
    breaks = sorted({t0, t1, *roots})
    cuts = set(breaks)
    for lo, hi in zip(breaks[:-1], breaks[1:]):
        w_lo, w_hi = sorted([float(waveform.cumulative(lo)), float(waveform.cumulative(hi))])
        for k in np.arange(np.ceil((w_lo - delta) / np.pi),
                           np.floor((w_hi - delta) / np.pi) + 1):
            cuts.add(brentq(lambda t: waveform.cumulative(t) - delta - k * np.pi, lo, hi,
                            xtol=1e-15, rtol=1e-15))
    cuts = sorted(cuts)

    def rate(t):
        return float(models.two_level_rate(waveform, init, t))

    mu = [sum(abs(quad(lambda t: t ** p * rate(t), lo, hi, epsabs=1e-15, epsrel=1e-13)[0])
              for lo, hi in zip(cuts[:-1], cuts[1:])) for p in range(3)]
    mean = mu[1] / mu[0]
    return mean, np.sqrt(mu[2] / mu[0] - mean ** 2)


@pytest.mark.parametrize("k", range(len(INITS)))
@pytest.mark.parametrize("name", ["poly", "poly-apart", "poly-close"])
def test_polynomial_moments_match_exact_root_quadrature(name, k):
    # the two roots of poly-close are 1e-4 apart, inside one interval of
    # the old probe grid, which missed them: it was off by up to 2.1e-12
    make, t0, t1 = DRIVES[name]
    init = models.TwoLevelInitial(*INITS[k])
    m = models.two_level_moments_closed(make(), init, t0, t1)
    mean, std = _moments_by_exact_roots(make(), init, t0, t1)
    assert m.mean == pytest.approx(mean, rel=1e-13)
    assert m.std == pytest.approx(std, rel=1e-13)


def test_custom_moments_with_and_without_antiderivative():
    init = models.TwoLevelInitial(2.0, 4.0)
    quadrature = models.two_level_moments_closed(
        models.ControlWaveform.custom(np.cos), init, 0.0, 4.0)
    exact = models.two_level_moments_closed(
        models.ControlWaveform.custom(np.cos, np.sin), init, 0.0, 4.0)
    assert quadrature.mean == pytest.approx(exact.mean, rel=1e-14)
    assert quadrature.std == pytest.approx(exact.std, rel=1e-14)


def test_custom_moments_match_the_polynomial_path():
    # the same drive as a custom callable: its two probe-bracketed sign
    # changes, refined by bisection, land on the exactly enumerated ones
    make, t0, t1 = DRIVES["poly"]
    exact = make()
    custom = models.ControlWaveform.custom(
        lambda t: 1.1 + t * (0.4 + t * (-0.2 + t * (0.05 + t * 0.01))),
        lambda t: t * (1.1 + t * (0.2 + t * (-0.2 / 3 + t * (0.0125 + t * 0.002)))))
    for theta, phi in INITS:
        init = models.TwoLevelInitial(theta, phi)
        want = models.two_level_moments_closed(exact, init, t0, t1)
        got = models.two_level_moments_closed(custom, init, t0, t1)
        assert got.mean == pytest.approx(want.mean, rel=1e-13)
        assert got.std == pytest.approx(want.std, rel=1e-13)


def test_custom_cumulative_composite_quadrature():
    t = np.array([[2.5, -0.7, 0.0], [1e-9, 7.3, 2.5]])
    wf = models.ControlWaveform.custom(np.cos)
    assert np.max(np.abs(wf.cumulative(t) - np.sin(t))) <= 1e-14
    assert isinstance(wf.cumulative(1.3), float)
    # 20 rad per time unit: resolved only by panels at most 2^-6 long
    fast = models.ControlWaveform.custom(lambda x: np.cos(20.0 * x))
    assert np.max(np.abs(fast.cumulative(t) - np.sin(20.0 * t) / 20.0)) <= 1e-14


def test_composite_cumulative_memory_does_not_grow_with_t():
    # t = 250 is one chunk of panels, t = 4000 sixteen; built at once, the
    # nodes alone of the longer run would take 16 MB
    import tracemalloc

    peaks = []
    for t in (250.0, 4000.0):
        tracemalloc.start()
        got = models._composite_cumulative(np.cos, t)
        peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()
        assert got == pytest.approx(np.sin(t), abs=1e-13)
    assert peaks[1] < 1.5 * peaks[0]


def test_drive_cut_memory_grows_by_the_cuts_only():
    # omega0 = 1e3 gives 25,467 cuts (two chunks of the pi/8 lattice), 4e3
    # gives 101,862 (seven). Beyond the 8 bytes of each cut, the peak stays
    # put; inverted all at once, it grew about 4x with the lattice (to
    # 11.4 MB), and the piece moments about 100 bytes a cut.
    import tracemalloc

    extra = {"cuts": [], "moments": []}
    for omega0 in (1e3, 4e3):
        wf = models.ControlWaveform.polynomial(omega0, [0.0] * 4)
        tracemalloc.start()
        cuts = models._drive_cuts(wf, 0.0, 0.0, 10.0)
        extra["cuts"].append(tracemalloc.get_traced_memory()[1] - cuts.nbytes)
        tracemalloc.stop()
        tracemalloc.start()
        got = models.two_level_moments_closed(wf, models.TwoLevelInitial(), 0.0, 10.0)
        extra["moments"].append(tracemalloc.get_traced_memory()[1] - cuts.nbytes)
        tracemalloc.stop()
        assert got.mean == pytest.approx(5.0, abs=1e-3)
    assert cuts.size > 6 * models._CHUNK
    assert extra["cuts"][1] < 1.5 * extra["cuts"][0]
    assert extra["moments"][1] < 1.5 * extra["moments"][0]


def test_ndtr_matches_scipy():
    from scipy.special import ndtr

    x = np.concatenate([np.linspace(-38.0, 38.0, 76001),
                        np.random.default_rng(7).normal(0.0, 10.0, 100000)])
    assert np.max(np.abs(models._ndtr(x) - ndtr(x))) <= 1e-15
    assert np.array_equal(models._ndtr([-np.inf, 0.0, np.inf]), [0.0, 0.5, 1.0])


@pytest.mark.parametrize("t0, sigma, t_end, points, theta, phi", [
    (0.5, 0.05, 1.0, 1000, 0.0, 0.0),
    (1.0, 0.2, 2.0, 2000, np.pi / 3, np.pi / 2),
    (0.505, 0.001, 1.0, 101, 0.0, 0.0),
])
def test_gaussian_outputs_move_by_rounding_only(t0, sigma, t_end, points, theta, phi):
    # the same pulse with scipy's ndtr in W: p_1 may move by 1e-15 and the
    # closed-form density by 1e-14 of its peak, no more
    from scipy.special import ndtr

    wf = models.ControlWaveform.gaussian_pulse(t0, sigma)
    ref = models.ControlWaveform(
        "custom", wf.omega,
        lambda t: np.pi * (ndtr((t - t0) / sigma) - ndtr(-t0 / sigma)), {})
    init = models.TwoLevelInitial(theta, phi)
    grid = TimeGrid(0.0, t_end, points)
    p_ref = models.two_level_population(ref, init, grid.times)
    assert np.max(np.abs(models.two_level_population(wf, init, grid.times) - p_ref)) <= 1e-15
    pi_ref = models.two_level_tf_closed(ref, init, grid).density
    pi = models.two_level_tf_closed(wf, init, grid).density
    assert np.max(np.abs(pi - pi_ref)) <= 1e-14 * np.max(pi_ref)


def _population_by_phase(waveform, init, t):
    """p_1 = (1 - R cos(W - delta))/2, the amplitude-phase form of
    ``two_level_population``, with W by Horner's rule or scipy's ndtr: one
    cosine per point, in place, and no code shared with the closed form."""
    from scipy.special import ndtr

    p = waveform.params
    if waveform.kind == "gaussian":
        w = (t - p["t0"]) / p["sigma"]
        ndtr(w, out=w)
        w -= ndtr(-p["t0"] / p["sigma"])
        w *= p["area"]
    else:
        a = [p["omega0"], *p.get("coefficients", ())]
        w = np.full_like(t, a[-1] / len(a))
        for k in range(len(a) - 1, 0, -1):  # W = t (a_0 + t (a_1/2 + ...))
            w *= t
            w += a[k - 1] / k
        w *= t
    b = np.sin(init.theta) * np.sin(init.phi)
    w -= np.arctan2(b, np.cos(init.theta))
    np.cos(w, out=w)
    w *= -0.5 * np.hypot(np.cos(init.theta), b)
    w += 0.5
    return w


def test_seeded_cross_route_sweep():
    """Random constant, polynomial and gaussian drives from random Bloch
    states: propagation against the closed-form population, and the
    closed-form moments against those of a 200,001-point grid. Pulses are
    at least 5 grid steps wide; narrower ones are the integrator's known
    narrow-pulse fault and are not drawn here."""
    rng = np.random.default_rng(20261018)
    for case in range(40):
        big_t = rng.uniform(1.0, 4.0)
        kind = case % 3
        if kind == 0:
            wf = models.ControlWaveform.constant(rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 8.0))
        elif kind == 1:
            wf = models.ControlWaveform.polynomial(
                rng.uniform(-4.0, 4.0), rng.uniform(-2.0, 2.0, 4) / big_t ** np.arange(1, 5))
        else:
            wf = models.ControlWaveform.gaussian_pulse(
                rng.uniform(0.1, 0.9) * big_t, rng.uniform(0.05, 0.3) * big_t,
                area=rng.uniform(0.5, 3.0) * np.pi)
        init = models.TwoLevelInitial(rng.uniform(0.0, np.pi), rng.uniform(0.0, 2.0 * np.pi))

        grid = TimeGrid(0.0, big_t, 101)
        traj = dynamics.propagate_schrodinger(models.two_level_hamiltonian(wf),
                                              init.state(), grid)
        p_num = dynamics.population_series(traj, operators.projector(2, 1))
        p_closed = models.two_level_population(wf, init, grid.times)
        assert np.max(np.abs(p_num - p_closed)) <= 1e-9, case

        fine = TimeGrid(0.0, big_t, 200001)
        p_fine = np.clip(_population_by_phase(wf, init, fine.times), 0.0, 1.0)
        grid_m = tf.moments(tf.tf_from_population(tf.PopulationSeries(fine, p_fine)))
        m = models.two_level_moments_closed(wf, init, 0.0, big_t)
        assert abs(m.mean - grid_m.mean) <= 2e-6 * big_t, case
        assert abs(m.std - grid_m.std) <= 2e-6 * big_t, case


# ---------------------------------------------------------------------------
# counterdiabatic sweep


def test_sta_config_validation():
    with pytest.raises(ValueError):
        models.STAConfig(alpha=-1.0, t_final=1.0, omega0=1.0)
    with pytest.raises(ValueError):
        models.STAConfig(alpha=1.0, t_final=0.0, omega0=1.0)


def test_sta_theta_dot_constant_for_linear_schedule():
    config = models.STAConfig(alpha=1.0, t_final=2.0, omega0=1.0)
    ts = np.linspace(0.0, 2.0, 7)
    assert np.allclose(config.theta_dot(ts), np.pi / 4.0)


def test_sta_theta_dot_alpha_below_one_rejects_origin():
    config = models.STAConfig(alpha=0.7, t_final=1.0, omega0=1.0)
    with pytest.raises(ValueError):
        config.theta_dot(0.0)
    assert np.isfinite(config.theta_dot(1e-6))


def test_sta_final_state_is_plus():
    config = models.STAConfig(alpha=3.0, t_final=1.0, omega0=5.0)
    final = models.sta_instantaneous_state(config, 1.0)
    assert np.max(np.abs(final - operators.plus_state())) <= 1e-12


def test_sta_propagation_reaches_target():
    config = models.STAConfig(alpha=2.0, t_final=1.0, omega0=20.0)
    traj = models.sta_propagate(config, TimeGrid(0.0, 1.0, 1001))
    p_plus = dynamics.population_series(traj, M_PLUS)
    assert abs(p_plus[-1] - 1.0) <= 1e-6


@pytest.mark.parametrize("alpha", [0.7, 1.0, 2.0, 5.0, 10.0])
@pytest.mark.parametrize("omega0", [5.0, 20.0])
def test_sta_exactness_sweep(alpha, omega0):
    config = models.STAConfig(alpha=alpha, t_final=1.0, omega0=omega0)
    traj = models.sta_propagate(config, TimeGrid(0.0, 1.0, 1001))
    p_num = dynamics.population_series(traj, M_PLUS)
    p_ref = models.sta_population_closed(config, traj.grid.times)
    assert np.max(np.abs(p_num - p_ref)) <= 1e-5


def test_sta_moments_linear_schedule():
    config = models.STAConfig(alpha=1.0, t_final=1.0, omega0=1.0)
    m = models.sta_moments_closed(config)
    assert m.mean == pytest.approx(1.0 - 2.0 / np.pi, rel=1e-9)
    assert m.std == pytest.approx(np.sqrt(4.0 / np.pi - 12.0 / np.pi ** 2), rel=1e-9)


@pytest.mark.parametrize("alpha", [0.05, 0.3, 0.5, 0.75, 1.0, 2.0, 7.0])
def test_sta_moments_match_quadrature(alpha):
    big_t = 1.3
    config = models.STAConfig(alpha=alpha, t_final=big_t, omega0=1.0)
    opts = dict(epsabs=1e-14, epsrel=1e-13, limit=500)
    i0 = quad(lambda t: models.sta_flow_cdf(config, t), 0.0, big_t, **opts)[0]
    i1 = quad(lambda t: t * models.sta_flow_cdf(config, t), 0.0, big_t, **opts)[0]
    mean = big_t - i0
    std = np.sqrt(big_t * big_t - 2.0 * i1 - mean * mean)
    m = models.sta_moments_closed(config)
    assert m.mean == pytest.approx(mean, rel=1e-12)
    assert m.std == pytest.approx(std, rel=1e-12)


def test_sta_tf_closed_normalized_and_consistent():
    for alpha in (0.7, 1.0, 4.0):
        config = models.STAConfig(alpha=alpha, t_final=1.0, omega0=1.0)
        dist, m = models.sta_tf_closed(config, TimeGrid(0.0, 1.0, 2001))
        assert abs(np.sum(dist.density) * dist.dt - 1.0) <= 1e-9
        grid_m = tf.moments(dist)
        assert grid_m.mean == pytest.approx(m.mean, abs=2e-3)


def test_sta_means_increase_with_alpha():
    means = [
        models.sta_moments_closed(models.STAConfig(a, 1.0, 1.0)).mean
        for a in (0.7, 1.0, 2.0, 5.0, 10.0)
    ]
    assert all(a < b for a, b in zip(means, means[1:]))


def test_sta_zero_alpha_degenerate():
    config = models.STAConfig(alpha=0.0, t_final=1.0, omega0=1.0)
    with pytest.raises(DegenerateDistributionError):
        models.sta_tf_closed(config, TimeGrid(0.0, 1.0, 101))


# ---------------------------------------------------------------------------
# Lambda sweep


def test_lambda_config_validation():
    with pytest.raises(ValueError):
        models.LambdaConfig(0.0, 1.0, -1.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        models.LambdaConfig(1.0, 1.0, 1.0, 2.0, 1.0)
    with pytest.raises(ValueError):
        models.LambdaConfig(1.0, 1.0, -1.0, -0.5, 1.0)


def test_lambda_cyclic_constructor():
    config = models.LambdaConfig.from_cyclic_mhz(1.0, 1.0, -10.0, 10.0, 4.0)
    assert config.omega1 == pytest.approx(2.0 * np.pi)
    assert config.delta_final == pytest.approx(20.0 * np.pi)


def test_lambda_resonance_crossing():
    config = models.LambdaConfig(1.0, 1.0, -4.0, 12.0, 2.0)
    t_cross = 2.0 * 4.0 / 16.0
    assert config.detuning(t_cross) == pytest.approx(0.0, abs=1e-12)


def test_lambda_effective_coupling():
    config = models.LambdaConfig(3.0, 4.0, -1.0, 1.0, 1.0)
    assert config.omega_eff == pytest.approx(5.0)


def test_lambda_hamiltonian_layout():
    config = models.LambdaConfig(2.0, 1.0, -3.0, 3.0, 6.0)
    h = models.lambda_hamiltonian(config)(3.0)  # mid-sweep: detuning zero
    want = np.array([[0, 1.0, 0], [1.0, 0, 0.5], [0, 0.5, 0]], dtype=complex)
    assert np.max(np.abs(h - want)) <= 1e-12


def test_lambda_dark_state_decoupled():
    config = models.LambdaConfig(2.0, 0.7, -5.0, 5.0, 2.0)
    schedule = models.lambda_hamiltonian(config)
    dark = models.lambda_dark_state(config)
    for t in np.linspace(0.0, 2.0, 100):
        assert abs(schedule(t)[1] @ dark) <= 1e-12


def test_lambda_bright_state_symmetric_couplings():
    config = models.LambdaConfig(1.0, 1.0, -5.0, 5.0, 2.0)
    want = np.array([1.0, 0.0, 1.0]) / np.sqrt(2.0)
    assert np.max(np.abs(models.lambda_bright_state(config) - want)) <= 1e-12


def test_lambda_gamma_properties():
    config = models.LambdaConfig(1.7, 0.9, -5.0, 5.0, 2.0)
    gamma = models.lambda_gamma(config)
    operators.assert_hermitian(gamma)
    assert np.max(np.abs(gamma @ models.lambda_dark_state(config))) <= 1e-12
    bright = models.lambda_bright_state(config)
    coupling = operators.basis_state(3, 1) @ (
        models.lambda_hamiltonian(config)(0.3) @ bright
    )
    assert abs(coupling - config.omega_eff / 2.0) <= 1e-12


def test_landau_zener_limits():
    slow = models.LambdaConfig(1.0, 1.0, -5.0, 5.0, 1e9)
    assert models.landau_zener_probability(slow) == pytest.approx(0.0, abs=1e-300)
    sudden = models.LambdaConfig(1e-8, 1e-8, -5.0, 5.0, 1.0)
    assert models.landau_zener_probability(sudden) == pytest.approx(1.0, abs=1e-12)


def test_landau_zener_formula_value():
    config = models.LambdaConfig(
        2.0 * np.pi, 2.0 * np.pi, -2.0 * np.pi * 10.0, 2.0 * np.pi * 10.0, 4.0
    )
    rate = (config.delta_final - config.delta_initial) / config.t_final
    want = np.exp(-np.pi * config.omega_eff ** 2 / (2.0 * rate))
    assert models.landau_zener_probability(config) == pytest.approx(want, rel=1e-12)


# ---------------------------------------------------------------------------
# open-system bundles


def test_dephasing_analytics_values():
    grid = TimeGrid(0.0, 10.0, 2001)
    analytics = models.dephasing_analytics(1.0, grid)
    assert analytics.exact_mean == pytest.approx(0.5)
    assert analytics.exact_std == pytest.approx(0.5)
    assert analytics.delta_theta == 0.5
    assert analytics.trace_term == pytest.approx(2.0)
    assert analytics.truncation_mass == pytest.approx(np.exp(-20.0), rel=1e-9)
    assert abs(np.sum(analytics.distribution.density) * grid.dt - 1.0) <= 1e-9


def test_dephasing_analytics_matches_propagation():
    gamma = 0.7
    grid = TimeGrid(0.0, 6.0, 801)
    analytics = models.dephasing_analytics(gamma, grid)
    traj = dynamics.propagate_lindblad(
        models.dephasing_model(gamma),
        operators.projector_from_state(operators.plus_state()), grid,
    )
    p_num = dynamics.population_series(
        traj, operators.projector_from_state(operators.minus_state())
    )
    assert np.max(np.abs(p_num - analytics.population.values)) <= 1e-7


def test_hadamard_trace_term_random_parameters():
    rng = np.random.default_rng(31)
    for _ in range(50):
        omega0 = rng.uniform(0.1, 50.0)
        gamma = rng.uniform(0.0, 20.0)
        bundle = models.hadamard_model(omega0, gamma)
        adj = dynamics.lindblad_adjoint(bundle.model, bundle.target)
        got = abs(np.real(np.trace(adj @ adj)))
        want = omega0 ** 2 / 4.0 + gamma ** 2 / 2.0
        assert abs(got - want) <= 1e-12 * max(1.0, want)
        assert bundle.trace_term == pytest.approx(want, rel=1e-15)


def test_hadamard_adjoint_square_proportional_to_identity():
    bundle = models.hadamard_model(3.0, 1.2)
    adj = dynamics.lindblad_adjoint(bundle.model, bundle.target)
    square = adj @ adj
    scale = (3.0 ** 2 / 8.0 + 1.2 ** 2 / 4.0)
    assert np.max(np.abs(square - scale * np.eye(2))) <= 1e-12


def test_hadamard_model_validation():
    with pytest.raises(ValueError):
        models.hadamard_model(0.0, 1.0)
    with pytest.raises(ValueError):
        models.hadamard_model(1.0, -1.0)
