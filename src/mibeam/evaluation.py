"""Evaluation artifacts: transmit beampatterns, Capon spatial spectra,
maximum-likelihood angle estimation, and RMSE sweeps over radar SNR.

All spectra are peak-normalized dB; Monte-Carlo trials draw independent RNG
streams keyed by (seed, grid index, trial index) so results are reproducible
and invariant to the number of trials run.  Steering vectors on an angle
grid come from one :func:`model.steering_matrix` call, and the RMSE sweep
builds the per-design part of the angle estimator (see
:func:`mle_estimator`) once per SNR point, not once per trial.  The Capon
denominator b^H R^-1 b over a grid is one BLAS product of the steering
matrix with the small inverse followed by a row dot (:func:`_row_forms`).
The estimator's statistics are forms b^H Q a between two half-wavelength
arrays, trigonometric polynomials in sin(theta) whose coefficients are the
diagonal sums of the small Q (:func:`_lag_sum_matrix`); all of them over a
grid are one product with the grid's array-lag basis (:func:`_lag_basis`).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from . import dispatch, model
from .errors import ConfigError, NumericalError

DEFAULT_DIAGONAL_LOAD = 1e-3
DEFAULT_ANGLE_STEP = 0.05
DEFAULT_PATTERN_STEP = 0.1
SWEEP_VARIABLES = ("power_dbm", "rate_target", "radar_snr_db")
# A grid direction whose filter norm ||S^H W^H a(theta)||^2 is below this
# fraction of the grid's largest carries no signal: at an exact transmit null
# the lag form leaves about 1e-15 of the largest, and the statistic there
# would be a ratio of roundoff.
FILTER_NORM_FLOOR = 1e-12


def check_variable(variable: str) -> None:
    """A sweep variable: one of SWEEP_VARIABLES."""
    if variable not in SWEEP_VARIABLES:
        raise ConfigError(f"sweep.variable: unknown variable {variable!r} "
                          f"(choose from {SWEEP_VARIABLES})")


def _is_integer(value) -> bool:
    """An int or numpy integer; never a boolean."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def check_seed(seed, source: str) -> int:
    """A seed as numpy's generators take it: a nonnegative integer."""
    if not _is_integer(seed):
        raise ConfigError(f"{source}: must be an integer, got {seed!r}")
    if seed < 0:
        raise ConfigError(f"{source}: must be >= 0, got {seed}")
    return seed


def check_grid(grid, source: str) -> None:
    """A sweep grid: non-empty, finite and strictly increasing."""
    if len(grid) == 0:
        raise ConfigError(f"{source}: must be non-empty")
    if not np.all(np.isfinite(grid)):
        raise ConfigError(f"{source}: must be finite")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ConfigError(f"{source}: must be strictly increasing")


@dataclass(frozen=True)
class SpectrumResult:
    angles_deg: np.ndarray
    values_db: np.ndarray   # peak-normalized, max exactly 0 dB


@dataclass(frozen=True)
class SweepSpec:
    """What to sweep, over which grid, with which solver scheme."""

    variable: str            # "power_dbm" | "rate_target" | "radar_snr_db"
    grid: tuple
    scheme: str
    trials: int = 1
    seed: int = 0

    def __post_init__(self):
        check_variable(self.variable)
        object.__setattr__(self, "grid", tuple(float(v) for v in self.grid))
        check_grid(self.grid, "sweep.grid")
        if not _is_integer(self.trials) or self.trials < 1:
            raise ConfigError(f"sweep.trials: must be an integer >= 1, got {self.trials!r}")
        check_seed(self.seed, "sweep.seed")


@dataclass(frozen=True)
class RmsePoint:
    value: float             # swept-variable value (radar SNR in dB)
    rmse_deg: float
    trials: int
    seed: int
    estimates_deg: tuple


def default_grid(step: float = DEFAULT_PATTERN_STEP) -> np.ndarray:
    """Symmetric angle grid inside [-90, 90] containing 0 exactly; it reaches
    endfire when ``step`` divides 90."""
    half = int(round(90.0 / step))
    if half * step > 90.0:
        half -= 1
    return np.arange(-half, half + 1) * step


def _row_forms(left: np.ndarray, mat: np.ndarray, right: np.ndarray) -> np.ndarray:
    """Row g of ``left @ mat`` dotted with row g of ``right``, unconjugated:
    one BLAS product with the small ``mat``, then one row dot."""
    return np.einsum("gk,gk->g", left @ mat, right)


def _normalize_db(values: np.ndarray) -> np.ndarray:
    peak = float(np.max(values))
    if peak <= 0.0:
        raise NumericalError("spectrum has no positive power to normalize")
    return 10.0 * np.log10(values / peak)


def beampattern(w, grid_deg) -> SpectrumResult:
    """Transmit power versus angle, a^H(theta) W W^H a(theta), in dB re peak."""
    w_mat = np.asarray(w, dtype=complex)
    if w_mat.ndim == 1:
        w_mat = w_mat[:, None]
    grid = np.asarray(grid_deg, dtype=float)
    steer = model.steering_matrix(grid, w_mat.shape[0])
    response = steer.conj() @ w_mat           # (G, K)
    power = np.sum(np.abs(response) ** 2, axis=1)
    return SpectrumResult(angles_deg=grid, values_db=_normalize_db(power))


def beampattern_dbw(w, theta_deg: float) -> float:
    """Absolute (un-normalized) transmit power toward one angle, in dB re 1 W."""
    w_mat = np.asarray(w, dtype=complex)
    if w_mat.ndim == 1:
        w_mat = w_mat[:, None]
    a = model.steering_vector(theta_deg, w_mat.shape[0])
    power = float(np.sum(np.abs(a.conj() @ w_mat) ** 2))
    return 10.0 * float(np.log10(power))


def capon_spectrum(y_r: np.ndarray, grid_deg,
                   diagonal_load: float = DEFAULT_DIAGONAL_LOAD) -> SpectrumResult:
    """Minimum-variance spatial spectrum 1 / (b^H R^-1 b) from echo snapshots.

    The sample covariance is diagonally loaded by ``diagonal_load`` times its
    average eigenvalue; with few snapshots the raw estimate is too ill
    conditioned to invert reliably.
    """
    y = np.asarray(y_r, dtype=complex)
    n_rx, n_snap = y.shape
    grid = np.asarray(grid_deg, dtype=float)
    cov = y @ y.conj().T / n_snap
    cov = cov + diagonal_load * (np.trace(cov).real / n_rx) * np.eye(n_rx)
    try:
        cov_inv = np.linalg.inv(cov)
    except np.linalg.LinAlgError as exc:
        raise NumericalError("sample covariance is singular even after loading") from exc
    steer = model.steering_matrix(grid, n_rx)
    denom = _row_forms(steer.conj(), cov_inv, steer).real
    power = 1.0 / denom
    return SpectrumResult(angles_deg=grid, values_db=_normalize_db(power))


def _lag_basis(grid_deg, n_lag: int) -> np.ndarray:
    """Array-lag basis of an angle grid, shape (G, 2 n_lag - 1).

    Entry (g, j) is exp(-i 2 pi d/lambda l sin(theta_g)) for the lag
    l = j - (n_lag - 1), the phase formula of :func:`model.steering_matrix`
    with the element index replaced by the lag.
    """
    lags = np.arange(1 - n_lag, n_lag)
    sines = np.sin(np.deg2rad(np.asarray(grid_deg, dtype=float)))
    return np.exp(-2j * np.pi * model.SPACING_OVER_LAMBDA * lags[None, :] * sines[:, None])


def _lag_sum_matrix(rows: int, cols: int, n_lag: int) -> np.ndarray:
    """The 0/1 matrix P with (P @ M.ravel())[j] = the sum of M[n, m] over
    m - n = j - (n_lag - 1), for a (rows, cols) matrix M, max(rows, cols) <=
    n_lag.  With b and a half-wavelength steering vectors of lengths rows and
    cols, b^H(theta) M a(theta) = row theta of the lag basis times P @ M.ravel().
    Complex, so the product with a complex M converts nothing."""
    n, m = np.indices((rows, cols))
    summer = np.zeros((2 * n_lag - 1, rows * cols), dtype=complex)
    summer[(m - n + n_lag - 1).ravel(), np.arange(rows * cols)] = 1.0
    return summer


def _lag_forms(lag_rows: np.ndarray, basis_rows: np.ndarray) -> np.ndarray:
    """Re(E c) over the grid for each row c of ``lag_rows``, shape (r, G).

    ``basis_rows`` is the lag basis E as real rows, (2 (2 n_lag - 1), G):
    Re and Im of each lag interleaved, one column per direction.  conj(c)
    viewed as floats dotted with column g is Re(E[g] c), so the forms are one
    real product; the complex product E @ c with E stored (G, 2 n_lag - 1)
    ran about 2.5 times slower at G = 3601.  Im(E c) is the row -1j c.
    """
    return np.ascontiguousarray(lag_rows.conj()).view(float) @ basis_rows


def mle_estimator(w, inst: model.Instance,
                  grid_deg) -> Callable[[np.ndarray, Optional[np.ndarray]], float]:
    """Grid-search maximum-likelihood estimator of the point-target angle
    for one design.

    The point-target echo is a rank-one term alpha * b(theta) (a^H(theta) W
    S); with the transmitted frame known the concentrated likelihood is the
    matched-subspace statistic |b^H Y c(theta)|^2 / ||b||^2 ||c(theta)||^2
    with c(theta) = S^H W^H a(theta).  Without ``tx_data`` the temporal
    filter drops and the classic single-source beamforming statistic
    b^H (Y Y^H) b is maximized instead.

    Every statistic is a form between steering vectors: the numerator reads
    b^H Q a with Q = (Y S^H) W^H, the filter norm a^H R a with R = W (S S^H)
    W^H, and the beamforming statistic b^H (Y Y^H) b.  On half-wavelength
    arrays such a form is the array-lag basis times the diagonal sums of the
    small matrix, so per echo the search forms the small matrices, sums
    their diagonals, and takes numerator and filter norm over the whole grid
    in one product with the basis.  A direction whose filter norm is below
    FILTER_NORM_FLOOR of the grid's largest carries no signal (statistic 0),
    as a zero filter does.

    The part fixed by the design and the grid, the lag basis and the
    diagonal-sum matrices, is built here once.  The returned function maps
    an echo ``y_r`` and its ``tx_data`` (or None) to the estimate in degrees.
    """
    cfg = inst.config
    grid = np.asarray(grid_deg, dtype=float)
    w_mat = model.as_beam_matrix(w, cfg)
    w_h = w_mat.conj().T
    n_lag = max(cfg.n_rx, cfg.n_tx)
    basis_rows = np.ascontiguousarray(_lag_basis(grid, n_lag).view(float).T)
    sum_numer = _lag_sum_matrix(cfg.n_rx, cfg.n_tx, n_lag)
    sum_filter = _lag_sum_matrix(cfg.n_tx, cfg.n_tx, n_lag)
    sum_cov = _lag_sum_matrix(cfg.n_rx, cfg.n_rx, n_lag)

    def estimate(y_r: np.ndarray, tx_data: Optional[np.ndarray] = None) -> float:
        y = np.asarray(y_r, dtype=complex)
        if tx_data is None:
            [stat] = _lag_forms((sum_cov @ (y @ y.conj().T).ravel())[None, :], basis_rows)
        else:
            numer_mat = (y @ tx_data.conj().T) @ w_h                 # (N_R, N_T)
            filter_mat = w_mat @ (tx_data @ tx_data.conj().T) @ w_h  # (N_T, N_T)
            numer_lags = sum_numer @ numer_mat.ravel()
            re_numer, im_numer, denom = _lag_forms(
                np.stack([numer_lags, -1j * numer_lags, sum_filter @ filter_mat.ravel()]),
                basis_rows)
            numer = re_numer ** 2 + im_numer ** 2
            floor = max(FILTER_NORM_FLOOR * float(np.max(denom)), 0.0)
            stat = np.divide(numer, denom, out=np.zeros_like(numer), where=denom > floor)
        return float(grid[int(np.argmax(stat))])

    return estimate


def mle_angle(y_r: np.ndarray, w, inst: model.Instance, grid_deg,
              tx_data: Optional[np.ndarray] = None) -> float:
    """One-shot maximum-likelihood angle estimate; see :func:`mle_estimator`."""
    return mle_estimator(w, inst, grid_deg)(y_r, tx_data)


def strength_for_radar_snr(snr_db: float, cfg: model.SystemConfig) -> float:
    """Average target strength for a radar SNR of 10 log10(b^2 L P0 / s_z^2)."""
    return 10.0 ** (snr_db / 10.0) * cfg.radar_noise / (cfg.n_slots * cfg.power_budget)


def apply_variable(scenario: model.Scenario, variable: str, value: float) -> model.Scenario:
    """The scenario at one grid point of a sweep variable (one of
    SWEEP_VARIABLES, see :func:`check_variable`)."""
    cfg = scenario.config
    if variable == "power_dbm":
        return replace(scenario, config=replace(cfg, power_budget=model.dbm_to_watts(value)))
    if variable == "rate_target":
        return replace(scenario, config=replace(cfg, rate_targets=(value,) * cfg.n_users))
    # radar_snr_db
    return scenario.with_target_strength(strength_for_radar_snr(value, cfg))


def rmse_sweep(spec: SweepSpec, scenario: model.Scenario, angle_step: float = DEFAULT_ANGLE_STEP,
               *, opts: dispatch.SolverOptions = dispatch.SolverOptions()) -> list[RmsePoint]:
    """Angle-estimation RMSE versus radar SNR for one solver scheme.

    For each grid point the target strength implied by the SNR is installed,
    the scheme is re-solved with the solver options ``opts``, and ``trials``
    echoes are drawn with per-trial seeds; each estimate comes from the
    matched-subspace search on a grid of ``angle_step`` degrees.  The
    per-design part of that search (the grid's array-lag basis) is built
    once per SNR point and shared by its trials.
    """
    if spec.variable != "radar_snr_db":
        raise ConfigError("rmse_sweep sweeps radar_snr_db only")
    truth = scenario.target.angles_deg[0]
    grid = default_grid(angle_step)
    points = []
    for idx, snr_db in enumerate(spec.grid):
        scen = apply_variable(scenario, spec.variable, snr_db)
        inst = model.build_instance(scen)
        result = dispatch.solve_scenario(scen, spec.scheme, opts)
        estimate = mle_estimator(result.w, inst, grid)
        estimates = []
        sq_sum = 0.0
        for trial in range(spec.trials):
            draw = model.simulate_echo_parts(inst, result.w, seed=[spec.seed, idx, trial])
            est = estimate(draw.y, draw.tx_data)
            estimates.append(est)
            sq_sum += (est - truth) ** 2
        points.append(RmsePoint(value=float(snr_db),
                                rmse_deg=float(np.sqrt(sq_sum / spec.trials)),
                                trials=spec.trials, seed=spec.seed,
                                estimates_deg=tuple(estimates)))
    return points
