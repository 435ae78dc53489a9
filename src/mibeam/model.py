"""Physical problem construction and the two design metrics.

Builds steering vectors, factored scatterer covariances and Rayleigh
channels, and evaluates the sensing mutual information and per-user
achievable rates for a given beamforming matrix.  Angles are degrees, powers
are linear watts, the mutual information is natural-log internally (bits
only at reporting boundaries).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from . import linalg
from .errors import ConfigError

LN2 = float(np.log(2.0))


def dbm_to_watts(dbm: float) -> float:
    return 10.0 ** ((dbm - 30.0) / 10.0)


def watts_to_dbm(watts: float) -> float:
    return 10.0 * float(np.log10(watts)) + 30.0


def nats_to_bits(nats: float) -> float:
    return nats / LN2


def rate_power_threshold(rate_bits: float, comm_noise: float) -> float:
    """Minimum received signal power implied by a single-user rate target."""
    return (2.0 ** rate_bits - 1.0) * comm_noise


@dataclass(frozen=True)
class SystemConfig:
    """Static system parameters.

    ``power_budget``, ``comm_noise`` and ``radar_noise`` are linear watts.
    ``rate_targets`` holds one bits/s/Hz target per user.
    """

    n_tx: int
    n_rx: int
    n_users: int
    n_slots: int
    power_budget: float
    comm_noise: float
    radar_noise: float
    rate_targets: tuple[float, ...]
    rng_seed: int = 0

    def __post_init__(self):
        for name in ("n_tx", "n_rx", "n_users", "n_slots"):
            if getattr(self, name) < 1:
                raise ConfigError(f"system.{name}: must be >= 1")
        for name in ("power_budget", "comm_noise", "radar_noise"):
            if not getattr(self, name) > 0.0:
                raise ConfigError(f"system.{name}: must be > 0")
        object.__setattr__(self, "rate_targets", tuple(float(r) for r in self.rate_targets))
        if len(self.rate_targets) != self.n_users:
            raise ConfigError("system.rate_targets: need one entry per user")
        if any(r < 0.0 for r in self.rate_targets):
            raise ConfigError("system.rate_targets: must be >= 0")


@dataclass(frozen=True)
class ScattererModel:
    """Point (one angle) or extended (many angles) scatterer.

    ``strengths[i]`` is the average reflected power of the i-th point-like
    component; the reflection coefficients themselves are circularly
    symmetric complex Gaussian with those variances.
    """

    angles_deg: tuple[float, ...]
    strengths: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "angles_deg", tuple(float(a) for a in self.angles_deg))
        object.__setattr__(self, "strengths", tuple(float(s) for s in self.strengths))
        if len(self.angles_deg) != len(self.strengths) or not self.angles_deg:
            raise ConfigError("scatterer: angles and strengths must be equal-length, non-empty")
        if any(not (-90.0 < a < 90.0) for a in self.angles_deg):
            raise ConfigError("scatterer: angles must lie in (-90, 90) degrees")
        if any(s < 0.0 for s in self.strengths):
            raise ConfigError("scatterer: strengths must be >= 0")

    @property
    def kind(self) -> str:
        return "point" if len(self.angles_deg) == 1 else "extended"

    @staticmethod
    def point(angle_deg: float, strength: float) -> "ScattererModel":
        return ScattererModel((angle_deg,), (strength,))

    @staticmethod
    def extended(lo_deg: float, hi_deg: float, count: int, strength: float) -> "ScattererModel":
        """Uniform angular grid over [lo, hi] with equal per-component strength."""
        if count < 1:
            raise ConfigError("scatterer: extended count must be >= 1")
        angles = np.linspace(lo_deg, hi_deg, count)
        return ScattererModel(tuple(angles), (strength,) * count)


@dataclass(frozen=True)
class Instance:
    """One solvable problem.

    ``channel`` has shape (K, N_T); row k is the conjugated user channel
    h_k^H, so ``channel[k] @ w`` is the received amplitude h_k^H w.
    ``target_factor`` / ``interf_factor`` are the factors F of the
    covariances of the vectorized target and interference response
    matrices, cov = F F^H, one column per scatterer component (see
    :func:`scatterer_factor`).  They are the only stored scatterer data: the
    mutual information, the MM surrogate and the echo draws all work from
    them.  ``target_cov`` / ``interf_cov`` form the dense (N_T N_R) x
    (N_T N_R) covariances on access, for tests and reference constructions.
    """

    config: SystemConfig
    channel: np.ndarray
    target_factor: np.ndarray
    interf_factor: np.ndarray

    @property
    def target_cov(self) -> np.ndarray:
        return _gram(self.target_factor)

    @property
    def interf_cov(self) -> np.ndarray:
        return _gram(self.interf_factor)


@dataclass(frozen=True)
class Scenario:
    """Physical scenario: system constants, scatterers and the channel."""

    config: SystemConfig
    target: ScattererModel
    interference: Optional[ScattererModel]
    channel: np.ndarray

    def with_target_strength(self, strength: float) -> "Scenario":
        new_target = ScattererModel(
            self.target.angles_deg, (strength,) * len(self.target.angles_deg)
        )
        return replace(self, target=new_target)


def steering_vector(theta_deg: float, n: int, spacing_over_lambda: float = 0.5) -> np.ndarray:
    """Uniform linear array response, entry m = exp(-i 2 pi d/lambda m sin(theta))."""
    m = np.arange(n)
    phase = -2j * np.pi * spacing_over_lambda * m * np.sin(np.deg2rad(theta_deg))
    return np.exp(phase)


def scatterer_factor(model: ScattererModel, cfg: SystemConfig) -> np.ndarray:
    """Factor F of the scatterer covariance, cov = F F^H.

    Column i is sqrt(strength_i) * conj(b(theta_i)) kron a(theta_i), shape
    (N_T N_R, number of components).
    """
    tx = np.stack([steering_vector(theta, cfg.n_tx) for theta in model.angles_deg], axis=1)
    rx = np.stack([steering_vector(theta, cfg.n_rx) for theta in model.angles_deg], axis=1)
    factor = (rx.conj()[:, None, :] * tx[None, :, :]).reshape(cfg.n_rx * cfg.n_tx, -1)
    return factor * np.sqrt(np.asarray(model.strengths))


def scatterer_covariance(model: ScattererModel, cfg: SystemConfig) -> np.ndarray:
    """Covariance of the vectorized response matrix of a scatterer.

    Sum over components of strength * u u^H with u = conj(b(theta)) kron
    a(theta); Hermitian PSD, rank <= number of components, trace equal to
    (sum of strengths) * N_T * N_R.
    """
    return _gram(scatterer_factor(model, cfg))


def _gram(a: np.ndarray) -> np.ndarray:
    """The Hermitian matrix a a^H."""
    return linalg.hermitianize(a @ a.conj().T)


def rayleigh_channel(n_users: int, n_tx: int, seed: int) -> np.ndarray:
    """I.i.d. unit-variance complex Gaussian channel rows h_k^H, (K, N_T)."""
    rng = np.random.default_rng(seed)
    re = rng.standard_normal((n_users, n_tx))
    im = rng.standard_normal((n_users, n_tx))
    return (re + 1j * im) / np.sqrt(2.0)


def build_instance(scenario: Scenario) -> Instance:
    cfg = scenario.config
    channel = np.asarray(scenario.channel, dtype=complex)
    if channel.shape != (cfg.n_users, cfg.n_tx):
        raise ConfigError(
            f"channel: expected shape {(cfg.n_users, cfg.n_tx)}, got {channel.shape}"
        )
    target_factor = scatterer_factor(scenario.target, cfg)
    if scenario.interference is None:
        interf_factor = np.zeros((cfg.n_tx * cfg.n_rx, 0), dtype=complex)
    else:
        interf_factor = scatterer_factor(scenario.interference, cfg)
    return Instance(cfg, channel, target_factor, interf_factor)


def as_beam_matrix(w, cfg: SystemConfig) -> np.ndarray:
    """Normalize a beamformer to shape (N_T, K); 1-D input means K = 1."""
    w = np.asarray(w, dtype=complex)
    if w.ndim == 1:
        w = w[:, None]
    if w.shape != (cfg.n_tx, cfg.n_users):
        raise ValueError(f"beamformer: expected shape {(cfg.n_tx, cfg.n_users)}, got {w.shape}")
    return w


def expand_beamformer(w_mat: np.ndarray, n_rx: int) -> np.ndarray:
    """The receive-stacked filter I_{N_R} kron W^H, shape (K N_R, N_T N_R).

    A reference construction for tests; the solvers apply it to scatterer
    factors through :func:`expanded_times` instead.
    """
    return np.kron(np.eye(n_rx), w_mat.conj().T)


def vec_expansion_matrix(n_tx: int, n_rx: int, n_users: int) -> np.ndarray:
    """Real 0/1 matrix F with vec(I_{N_R} kron W^H) = F @ conj(vec(W)).

    Column i of I_{N_R} kron W^H equals vec(W^H C_i) where C_i is the N_T x
    N_R elementary matrix with vec(C_i) = e_i; stacking those columns gives
    F as the vertical stack of (C_i^T kron I_K) times the commutation matrix
    of an N_T x K matrix.  Shape (N_T N_R * K N_R, N_T K); each row has at
    most one 1.  A reference construction for tests (the stacking identity
    and the surrogate oracle); no solver uses it.
    """
    comm = linalg.commutation_matrix(n_tx, n_users)
    blocks = []
    eye_k = np.eye(n_users)
    for i in range(n_tx * n_rx):
        c_i = np.zeros((n_tx, n_rx))
        c_i[i % n_tx, i // n_tx] = 1.0
        blocks.append(np.kron(c_i.T, eye_k))
    return np.vstack(blocks) @ comm


def expanded_times(w_mat: np.ndarray, factor: np.ndarray, n_rx: int) -> np.ndarray:
    """(I_{N_R} kron W^H) @ factor, one N_T-row block of the factor at a time.

    The projection Wt F of a scatterer factor, shared by the mutual
    information and the MM surrogate.
    """
    n_tx, n_users = w_mat.shape
    blocks = w_mat.conj().T @ factor.reshape(n_rx, n_tx, factor.shape[1])
    return blocks.reshape(n_rx * n_users, factor.shape[1])


def mutual_information(inst: Instance, w) -> float:
    """Sensing mutual information in nats for a beamformer.

    logdet(L Wt (R_target + R_interf) Wt^H + s_z^2 I) minus the same with the
    target covariance removed, where Wt = I_{N_R} kron W^H.  Each Wt R Wt^H
    is formed as the Gram matrix of Wt F (R = F F^H): near a deep null the
    dense product would carry a roundoff of about 1e-16 * ||R||, which at
    strong interference is 1e-9 nats of MI, while the Gram matrix keeps the
    precision of the small projections Wt F themselves.
    """
    cfg = inst.config
    w_mat = as_beam_matrix(w, cfg)
    scale = float(cfg.n_slots)
    noise = cfg.radar_noise
    eye = np.eye(cfg.n_users * cfg.n_rx)
    interf = _gram(expanded_times(w_mat, inst.interf_factor, cfg.n_rx))
    both = interf + _gram(expanded_times(w_mat, inst.target_factor, cfg.n_rx))
    num = linalg.logdet_hermitian(scale * both + noise * eye)
    den = linalg.logdet_hermitian(scale * interf + noise * eye)
    return num - den


def mutual_information_bits(inst: Instance, w) -> float:
    return nats_to_bits(mutual_information(inst, w))


def achievable_rate(inst: Instance, w, user: int) -> float:
    """Achievable rate of one user in bits/s/Hz (0-based user index)."""
    cfg = inst.config
    w_mat = as_beam_matrix(w, cfg)
    if not 0 <= user < cfg.n_users:
        raise ValueError(f"user index {user} out of range")
    amps = inst.channel[user] @ w_mat
    signal = float(np.abs(amps[user]) ** 2)
    interference = float(np.sum(np.abs(amps) ** 2)) - signal
    return float(np.log2(1.0 + signal / (interference + cfg.comm_noise)))


def achieved_rates(inst: Instance, w) -> np.ndarray:
    return np.array([achievable_rate(inst, w, k) for k in range(inst.config.n_users)])


@dataclass(frozen=True)
class EchoDraw:
    """One simulated receive frame together with everything that produced it."""

    y: np.ndarray        # (N_R, L) received echo
    tx_data: np.ndarray  # (K, L) unit-variance data streams
    g_target: np.ndarray  # (N_R, N_T) drawn target response
    g_interf: np.ndarray  # (N_R, N_T) drawn interference response
    noise: np.ndarray    # (N_R, L)


def _complex_normal(rng: np.random.Generator, shape) -> np.ndarray:
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)


def _draw_response(rng: np.random.Generator, factor: np.ndarray, cfg: SystemConfig) -> np.ndarray:
    g_vec = factor @ _complex_normal(rng, factor.shape[1])
    g_herm = linalg.unvec(g_vec, cfg.n_tx, cfg.n_rx)  # this is G^H
    return g_herm.conj().T


def simulate_echo_parts(inst: Instance, w, seed) -> EchoDraw:
    """Draw one echo frame Y = (G_target + G_interf) W S + Z.

    Deterministic given the seed; the draw order is fixed (target response,
    interference response, data, noise).  Each response is drawn as
    vec(G^H) = F z with z ~ CN(0, I), one entry per scatterer component, so
    vec(G^H) is complex Gaussian with the instance covariance F F^H.
    """
    cfg = inst.config
    w_mat = as_beam_matrix(w, cfg)
    rng = np.random.default_rng(seed)
    g_target = _draw_response(rng, inst.target_factor, cfg)
    g_interf = _draw_response(rng, inst.interf_factor, cfg)
    tx_data = _complex_normal(rng, (cfg.n_users, cfg.n_slots))
    noise = np.sqrt(cfg.radar_noise) * _complex_normal(rng, (cfg.n_rx, cfg.n_slots))
    y = (g_target + g_interf) @ w_mat @ tx_data + noise
    return EchoDraw(y=y, tx_data=tx_data, g_target=g_target, g_interf=g_interf, noise=noise)


def simulate_echo(inst: Instance, w, seed) -> np.ndarray:
    """Received echo frame only; see :func:`simulate_echo_parts`."""
    return simulate_echo_parts(inst, w, seed).y
