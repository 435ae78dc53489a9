"""Physical problem construction and the two design metrics.

Builds steering vectors, factored scatterer covariances and Rayleigh
channels, and evaluates the sensing mutual information and per-user
achievable rates for a given beamforming matrix.  A scatterer covariance
exists only as its factor F (R = F F^H, one column per component), and the
receive-stacked filter I_{N_R} kron W^H only as its action on a factor
(:func:`expanded_times`): no (N_T N_R)-dimensional matrix is formed.  One
evaluation (:func:`sensing_point`) forms the projections of the sensing
problem at a beamformer and keeps their factorizations; the mutual
information, its Hessian (:func:`mi_hessian`) and the MM surrogate all read
that record, so an MM iterate is evaluated once.  Angles are degrees, powers
are linear watts, the mutual information is natural-log internally (bits
only at reporting boundaries).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
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


def sinr_targets(rate_bits) -> np.ndarray:
    """The SINR nu = 2^r - 1 that each rate target r (bits/s/Hz) needs, in
    numpy arithmetic, which every reader of nu shares: inf where it leaves
    the float range (r >= 1024), which :class:`SystemConfig` rejects."""
    with np.errstate(over="ignore"):
        return 2.0 ** np.asarray(rate_bits, dtype=float) - 1.0


def rate_power_threshold(rate_bits: float, comm_noise: float) -> float:
    """Minimum received signal power implied by a single-user rate target."""
    return float(sinr_targets(rate_bits) * comm_noise)


@dataclass(frozen=True)
class SystemConfig:
    """Static system parameters.

    ``power_budget``, ``comm_noise`` and ``radar_noise`` are linear watts.
    ``rate_targets`` holds one bits/s/Hz target per user, each at least 0
    and with a finite SINR target 2^r - 1 (:func:`sinr_targets`), so below
    1024 bits/s/Hz.
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
            if not 0.0 < getattr(self, name) < np.inf:
                raise ConfigError(f"system.{name}: must be finite and > 0")
        object.__setattr__(self, "rate_targets", tuple(float(r) for r in self.rate_targets))
        if len(self.rate_targets) != self.n_users:
            raise ConfigError("system.rate_targets: need one entry per user")
        if not all(0.0 <= r < np.inf for r in self.rate_targets):
            raise ConfigError("system.rate_targets: must be finite and >= 0")
        if not np.all(np.isfinite(sinr_targets(self.rate_targets))):
            raise ConfigError("system.rate_targets: must be below 1024 bits/s/Hz, where the "
                              "SINR target 2^r - 1 leaves the float range")
        if self.rng_seed < 0:
            raise ConfigError(f"system.rng_seed: must be >= 0, got {self.rng_seed}")


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
        if not all(0.0 <= s < np.inf for s in self.strengths):
            raise ConfigError("scatterer: strengths must be finite and >= 0")

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
    :func:`scatterer_factor`).  They are the only scatterer data: the
    mutual information, the MM surrogate and the echo draws all work from
    them, and no dense covariance is formed.
    """

    config: SystemConfig
    channel: np.ndarray
    target_factor: np.ndarray
    interf_factor: np.ndarray

    @cached_property
    def factors(self) -> np.ndarray:
        """The target and interference factors side by side, [F_t, F_i],
        formed on first use and kept with the instance."""
        return np.concatenate([self.target_factor, self.interf_factor], axis=1)


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


def _shifted_gram(a: np.ndarray, delta: float) -> np.ndarray:
    """I + delta (a a^H + (a a^H)^H) / 2, with the identity added to the
    diagonal in place: the operation order, and so the rounding, of
    ``np.eye(n) + delta * linalg.hermitianize(a @ a.conj().T)`` without
    forming the identity and the sum."""
    gram = delta * linalg.hermitianize(a @ a.conj().T)
    gram.reshape(-1)[::gram.shape[0] + 1] += 1.0
    return gram


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
    """Normalize a beamformer to shape (N_T, K), 1-D input meaning K = 1, in
    C order: BLAS rounds by layout, so one layout makes the MI, the rates and
    the certificate depend only on the design's values."""
    w = np.asarray(w, dtype=complex)
    if w.ndim == 1:
        w = w[:, None]
    if w.shape != (cfg.n_tx, cfg.n_users):
        raise ValueError(f"beamformer: expected shape {(cfg.n_tx, cfg.n_users)}, got {w.shape}")
    return np.ascontiguousarray(w)


def vec_expansion_matrix(n_tx: int, n_rx: int, n_users: int) -> np.ndarray:
    """Real 0/1 matrix F with vec(I_{N_R} kron W^H) = F @ conj(vec(W)).

    Column i = n + N_T r of I_{N_R} kron W^H holds conj(W[n, k]) at row
    r K + k, and conj(W[n, k]) is entry n + k N_T of conj(vec(W)); F has a 1
    at (i K N_R + r K + k, n + k N_T) for every n, r, k and zeros elsewhere.
    Shape (N_T N_R * K N_R, N_T K); each row has at most one 1.  No solver
    uses it; the package keeps it because the benchmark traces it by name.
    """
    f = np.zeros((n_tx * n_rx * n_rx * n_users, n_tx * n_users))
    n, r, k = np.meshgrid(np.arange(n_tx), np.arange(n_rx), np.arange(n_users), indexing="ij")
    f[(n + n_tx * r) * n_users * n_rx + r * n_users + k, n + k * n_tx] = 1.0
    return f


def expanded_times(w_mat: np.ndarray, factor: np.ndarray, n_rx: int) -> np.ndarray:
    """(I_{N_R} kron W^H) @ factor, one N_T-row block of the factor at a time.

    The projection Wt F of a scatterer factor, shared by the mutual
    information and the MM surrogate.
    """
    n_tx, n_users = w_mat.shape
    blocks = w_mat.conj().T @ factor.reshape(n_rx, n_tx, factor.shape[1])
    return blocks.reshape(n_rx * n_users, factor.shape[1])


@dataclass(frozen=True)
class SensingPoint:
    """A beamformer with the sensing quantities computed at it once, which
    the mutual information and the MM surrogate both read.

    ``w`` is the (N_T, K) beamformer.  With Y_t / Y_i = Wt F (not kept) for
    the target and interference factors, ``chol_i`` is the Cholesky factor
    L_i of T_i = I + delta Y_i Y_i^H, ``z`` = L_i^{-1} Y_t, ``chol_s`` the
    Cholesky factor C of S = I + delta Z^H Z, and ``mi`` = log det S, nats.
    """

    w: np.ndarray
    chol_i: np.ndarray
    z: np.ndarray
    chol_s: np.ndarray
    mi: float


def sensing_point(inst: Instance, w) -> SensingPoint:
    """Evaluate the sensing side of the problem at a beamformer.

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
        chol_i = np.linalg.cholesky(_shifted_gram(y_i, delta))
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefinite("interference covariance is not positive definite") from exc
    z = np.linalg.solve(chol_i, y_t)
    chol_s, mi = linalg.cholesky_logdet(_shifted_gram(z.conj().T, delta))
    return SensingPoint(w=w_mat, chol_i=chol_i, z=z, chol_s=chol_s, mi=mi)


def mi_hessian(inst: Instance, point: SensingPoint) -> np.ndarray:
    """Real Hessian of the MI at a sensing point in x = (Re vec W, Im vec W).

    The MI is logdet(I + delta Phi), Phi = Y_t^H T_i^{-1} Y_t = Z^H Z, so its
    Hessian is delta Tr(S^{-1} d2 Phi) - delta^2 Tr(S^{-1} dPhi_j S^{-1}
    dPhi_l), S = I + delta Phi = C C^H.  Every term is whitened by L_i and C
    (Hjorungnes, Complex-Valued Matrix Derivatives, 2011, for the calculus),
    so no two large Hessians cancel, as those of logdet T and logdet T_i
    would.  With Z_i = L_i^{-1} Y_i, dZ_t,j and dZ_i,j = L_i^{-1} times the
    change of Y_t and Y_i along the unit direction j of x, Q = Z C^{-H}, P_j
    = dZ_t,j C^{-H}, A_j = dZ_i,j^H Q, N_j = dZ_i,j Z_i^H + Z_i dZ_i,j^H and
    Psi_j = Q^H (P_j - delta Z_i A_j), which makes C^{-1} dPhi_j C^{-H} =
    Psi_j + Psi_j^H,

    H_jl = 2 delta Re<P_j - delta N_j Q, P_l - delta N_l Q>
           - 2 delta^2 Re<A_j, A_l> - delta^2 <Psi_j + Psi_j^H, Psi_l + Psi_l^H>

    with <A, B> = Tr(A^H B).  Direction (n, k) of Re W moves row (r, k) of
    Y = Wt F by row (r, n) of F, and i times it moves Y by -i times that.
    """
    cfg = inst.config
    n_tx, n_rx, n_users = cfg.n_tx, cfg.n_rx, cfg.n_users
    delta = float(cfg.n_slots) / cfg.radar_noise
    rows = n_rx * n_users
    whiten = np.linalg.solve(point.chol_i, np.eye(rows))             # L_i^{-1}
    d = np.einsum("ark,rnm->knam", whiten.reshape(rows, n_rx, n_users),
                  inst.factors.reshape(n_rx, n_tx, -1)).reshape(n_users * n_tx, rows, -1)
    d = np.concatenate([d, -1j * d])
    m_t = inst.target_factor.shape[1]
    d_t, d_i = d[..., :m_t], d[..., m_t:]
    z_i = whiten @ expanded_times(point.w, inst.interf_factor, n_rx)
    inv_c = np.linalg.solve(point.chol_s, np.eye(m_t)).conj().T       # C^{-H}
    q = point.z @ inv_c
    p = d_t @ inv_c
    a = d_i.conj().swapaxes(1, 2) @ q
    z_a = z_i @ a
    e = p - delta * (d_i @ (z_i.conj().T @ q) + z_a)
    psi = q.conj().T @ (p - delta * z_a)
    psi = psi + psi.conj().swapaxes(1, 2)

    def gram(stack):
        flat = stack.reshape(stack.shape[0], -1)
        return np.real(flat.conj() @ flat.T)

    return 2.0 * delta * gram(e) - 2.0 * delta ** 2 * gram(a) - delta ** 2 * gram(psi)


def mutual_information(inst: Instance, w) -> float:
    """Sensing mutual information in nats for a beamformer; see
    :func:`sensing_point`."""
    return sensing_point(inst, w).mi


def achievable_rate(inst: Instance, w, user: int) -> float:
    """Achievable rate of one user in bits/s/Hz (0-based user index)."""
    if not 0 <= user < inst.config.n_users:
        raise ValueError(f"user index {user} out of range")
    return float(achieved_rates(inst, w)[user])


def achieved_rates(inst: Instance, w) -> np.ndarray:
    """Achievable rate of every user in bits/s/Hz, from the one matrix of
    received powers |h_k^H w_j|^2 at (k, j): user k's signal is its
    diagonal entry, its interference the rest of row k."""
    power = np.abs(inst.channel @ as_beam_matrix(w, inst.config)) ** 2
    signal = power.diagonal()
    return np.log2(1.0 + signal / (power.sum(axis=1) - signal + inst.config.comm_noise))


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
