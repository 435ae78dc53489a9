"""Evaluation artifacts: transmit beampatterns, Capon spatial spectra,
maximum-likelihood angle estimation, and RMSE sweeps over radar SNR.

All spectra are peak-normalized dB; Monte-Carlo trials draw independent RNG
streams keyed by (seed, grid index, trial index) so results are reproducible
and invariant to the number of trials run.  Steering vectors on an angle
grid come from one :func:`model.steering_matrix` call, and the RMSE sweep
builds the per-design part of the angle estimator (see
:func:`mle_estimator`) once per SNR point, not once per trial.  Every
quadratic or bilinear form over a grid (the Capon denominator, the
estimator's numerator and filter norms) is one BLAS product of the
grid-sized matrix with the small per-echo matrix followed by a row dot
(:func:`_row_forms`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import model
from .errors import ConfigError, NumericalError

DEFAULT_DIAGONAL_LOAD = 1e-3
DEFAULT_ANGLE_STEP = 0.05
DEFAULT_PATTERN_STEP = 0.1
SWEEP_VARIABLES = ("power_dbm", "rate_target", "radar_snr_db")


def check_grid(grid, source: str) -> None:
    """A sweep grid: non-empty and strictly increasing."""
    if len(grid) == 0:
        raise ConfigError(f"{source}: must be non-empty")
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
        if self.variable not in SWEEP_VARIABLES:
            raise ConfigError(f"sweep.variable: unknown variable {self.variable!r}")
        object.__setattr__(self, "grid", tuple(float(v) for v in self.grid))
        check_grid(self.grid, "sweep.grid")
        if self.trials < 1:
            raise ConfigError("sweep.trials: must be >= 1")


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

    The part of the statistic fixed by the design and the grid, the receive
    steering matrix and the transmit filters W^H a(theta), is built here
    once.  The returned function maps an echo ``y_r`` and its ``tx_data``
    (or None) to the estimate in degrees.
    """
    cfg = inst.config
    grid = np.asarray(grid_deg, dtype=float)
    w_mat = model.as_beam_matrix(w, cfg)
    steer_rx = model.steering_matrix(grid, cfg.n_rx)
    steer_rx_h = steer_rx.conj()
    filt_h = model.steering_matrix(grid, cfg.n_tx).conj() @ w_mat
    filt = filt_h.conj()                                 # (G, K): row g is W^H a(theta_g)

    def estimate(y_r: np.ndarray, tx_data: Optional[np.ndarray] = None) -> float:
        y = np.asarray(y_r, dtype=complex)
        if tx_data is None:
            cov = y @ y.conj().T
            stat = _row_forms(steer_rx_h, cov, steer_rx).real
        else:
            y_corr = y @ tx_data.conj().T                # (N_R, K)
            gram = tx_data @ tx_data.conj().T            # (K, K)
            numer = np.abs(_row_forms(steer_rx_h, y_corr, filt)) ** 2
            denom = _row_forms(filt_h, gram, filt).real
            with np.errstate(divide="ignore", invalid="ignore"):
                stat = np.where(denom > 0.0, numer / denom, 0.0)
        return float(grid[int(np.argmax(stat))])

    return estimate


def mle_angle(y_r: np.ndarray, w, inst: model.Instance, grid_deg,
              tx_data: Optional[np.ndarray] = None) -> float:
    """One-shot maximum-likelihood angle estimate; see :func:`mle_estimator`."""
    return mle_estimator(w, inst, grid_deg)(y_r, tx_data)


def strength_for_radar_snr(snr_db: float, cfg: model.SystemConfig) -> float:
    """Average target strength for a radar SNR of 10 log10(b^2 L P0 / s_z^2)."""
    return 10.0 ** (snr_db / 10.0) * cfg.radar_noise / (cfg.n_slots * cfg.power_budget)


def rmse_sweep(spec: SweepSpec, scenario: model.Scenario,
               angle_step: float = DEFAULT_ANGLE_STEP) -> list[RmsePoint]:
    """Angle-estimation RMSE versus radar SNR for one solver scheme.

    For each grid point the target strength implied by the SNR is installed,
    the scheme is re-solved, and ``trials`` echoes are drawn with per-trial
    seeds; each estimate comes from the matched-subspace search on a grid of
    ``angle_step`` degrees.  The per-design part of that search (steering
    matrix and transmit filters) is built once per SNR point and shared by
    its trials.
    """
    from . import dispatch

    if spec.variable != "radar_snr_db":
        raise ConfigError("rmse_sweep sweeps radar_snr_db only")
    truth = scenario.target.angles_deg[0]
    grid = default_grid(angle_step)
    points = []
    for idx, snr_db in enumerate(spec.grid):
        strength = strength_for_radar_snr(snr_db, scenario.config)
        scen = scenario.with_target_strength(strength)
        inst = model.build_instance(scen)
        result = dispatch.solve_scenario(scen, spec.scheme)
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
