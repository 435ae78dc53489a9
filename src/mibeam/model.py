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
from .errors import ConfigError, NotPositiveDefinite

LN2 = float(np.log(2.0))
SPACING_OVER_LAMBDA = 0.5  # half-wavelength uniform linear arrays
# Share of the largest singular value below which a steering direction is
# dropped from the sensing subspace (see :func:`reduce_instance`).
REDUCTION_RTOL = 1e-10


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


def steering_matrix(grid_deg, n: int) -> np.ndarray:
    """Uniform linear array responses of a grid of angles, shape (G, n).

    Row g is the response toward grid[g], entry m = exp(-i 2 pi d/lambda m
    sin(theta_g)) with d/lambda = SPACING_OVER_LAMBDA.  The arithmetic is
    elementwise, so a row does not depend on the rest of the grid: it equals
    :func:`steering_vector` of its angle bit for bit.
    """
    m = np.arange(n)
    sines = np.sin(np.deg2rad(np.asarray(grid_deg, dtype=float)))
    phase = -2j * np.pi * SPACING_OVER_LAMBDA * m[None, :] * sines[:, None]
    return np.exp(phase)


def steering_vector(theta_deg: float, n: int) -> np.ndarray:
    """Uniform linear array response toward one angle; see :func:`steering_matrix`."""
    return steering_matrix([theta_deg], n)[0]


def scatterer_factor(model: ScattererModel, cfg: SystemConfig) -> np.ndarray:
    """Factor F of the scatterer covariance, cov = F F^H.

    Column i is sqrt(strength_i) * conj(b(theta_i)) kron a(theta_i), shape
    (N_T N_R, number of components).
    """
    # C order: on a transposed layout the BLAS products of the MI and the
    # MM surrogate round differently, which moves solver iterates.
    tx = np.ascontiguousarray(steering_matrix(model.angles_deg, cfg.n_tx).T)
    rx = np.ascontiguousarray(steering_matrix(model.angles_deg, cfg.n_rx).T)
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


def reduce_instance(inst: Instance) -> tuple[Instance, np.ndarray]:
    """The same design problem in the transmit subspace that carries it.

    The MI depends on W only through W^H a for the transmit steering
    vectors a of the scatterer components (block r of a factor column is
    conj(b_r) sqrt(strength) a), the rates only through the channel, and
    the power is ||W||^2.  B is an orthonormal basis of the span of the unit
    steering vectors of the nonzero components, truncated at REDUCTION_RTOL
    times the largest singular value, plus the parts of the user channels
    outside that span.  The reduced instance
    has n_tx = dim B, factors (I_{N_R} kron B^H) F and channel ``channel @
    B``; for any Z, W = B Z has the same MI, rates and power there as Z has
    in the reduced instance.  A component of W outside span(B) costs power
    and gains nothing, and the truncation only restricts the feasible set.

    Returns (reduced, B).  When B spans the whole space, returns ``inst``
    itself with the identity, so a solve on it is unchanged.
    """
    cfg = inst.config
    n_tx, n_rx = cfg.n_tx, cfg.n_rx
    # block 0 of a column is sqrt(strength) a, since b_0 = 1
    steering = np.hstack([inst.target_factor[:n_tx], inst.interf_factor[:n_tx]])
    norms = np.linalg.norm(steering, axis=0)
    steering = steering[:, norms > 0.0] / norms[norms > 0.0]
    span = np.zeros((n_tx, 0), dtype=complex)
    if steering.shape[1]:
        u, s, _ = np.linalg.svd(steering, full_matrices=False)
        span = u[:, s > REDUCTION_RTOL * s[0]]
    # the channels' parts outside the span, projected twice so that they
    # stay orthogonal to it to working precision
    users = inst.channel.conj().T
    outside = users
    for _ in range(2):
        outside = outside - span @ (span.conj().T @ outside)
    u, s, _ = np.linalg.svd(outside, full_matrices=False)
    scale = float(np.max(np.linalg.norm(users, axis=0)))
    basis = np.hstack([span, u[:, s > REDUCTION_RTOL * scale]])
    if basis.shape[1] >= n_tx:
        return inst, np.eye(n_tx, dtype=complex)
    reduced = Instance(
        replace(cfg, n_tx=basis.shape[1]), inst.channel @ basis,
        expanded_times(basis, inst.target_factor, n_rx),
        expanded_times(basis, inst.interf_factor, n_rx))
    return reduced, basis


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

    With Y = Wt F (Wt = I_{N_R} kron W^H, R = F F^H) for the target and the
    interference factors and delta = L / s_z^2, the MI is logdet(T_i +
    delta Y_t Y_t^H) - logdet(T_i), T_i = I + delta Y_i Y_i^H.  By the
    determinant lemma that difference is logdet(I + delta Z^H Z), with Z =
    L_i^{-1} Y_t, T_i = L_i L_i^H, and one row and column per target
    component.  No two large log-dets cancel, so a target inside a strong
    interferer keeps its small MI to the roundoff of Z itself.  The Gram
    matrix of Y_i, not Wt R Wt^H, keeps the precision of the projections
    near a deep null.
    """
    cfg = inst.config
    w_mat = as_beam_matrix(w, cfg)
    delta = float(cfg.n_slots) / cfg.radar_noise
    y_t = expanded_times(w_mat, inst.target_factor, cfg.n_rx)
    y_i = expanded_times(w_mat, inst.interf_factor, cfg.n_rx)
    try:
        chol = np.linalg.cholesky(np.eye(y_i.shape[0]) + delta * _gram(y_i))
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefinite("interference covariance is not positive definite") from exc
    z = np.linalg.solve(chol, y_t)
    return linalg.logdet_hermitian(np.eye(y_t.shape[1]) + delta * _gram(z.conj().T))


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
