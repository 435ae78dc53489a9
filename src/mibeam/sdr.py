"""Single-user solver for a point target with a point interferer.

Reads the :class:`model.Instance` like every other solver: the response
matrix sqrt(strength) a b^H of each point scatterer is its one factor column
put back in matrix shape.  Lifts w to a PSD matrix, drops the rank-one
constraint, solves the resulting semidefinite program with
:mod:`mibeam.conic`, and recovers a feasible rank-one beamformer by Gaussian
randomization ranked by the exact mutual information.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import conic, mm, model
from .linalg import hermitian_sqrt, hermitianize, unvec

DEFAULT_RANDOMIZATIONS = 1000


def _point_response(factor: np.ndarray, cfg: model.SystemConfig) -> np.ndarray:
    """The N_T x N_R response sqrt(strength) a b^H of a point scatterer:
    vec of it is the factor's one column.  Zero when there is no column."""
    if factor.shape[1] > 1:
        raise ValueError("sdr: target and interferer must each be a single point")
    if factor.shape[1] == 0:
        return np.zeros((cfg.n_tx, cfg.n_rx), dtype=complex)
    return unvec(factor[:, 0], cfg.n_tx, cfg.n_rx)


def _responses(inst: model.Instance):
    cfg = inst.config
    if cfg.n_users != 1:
        raise ValueError("sdr: requires exactly one user")
    return _point_response(inst.target_factor, cfg), _point_response(inst.interf_factor, cfg)


def point_mutual_information(inst: model.Instance, cands: np.ndarray) -> np.ndarray:
    """Exact sensing mutual information (nats) of each row of ``cands``.

    With u = P^H w and v = Q^H w the projections on the target and
    interferer responses and delta = L / s_z^2, the MI is log(1 + delta
    ||z||^2), z = (I + delta v v^H)^{-1/2} u = u - c v (v^H u), c = delta /
    (s (1 + s)), s = sqrt(1 + delta ||v||^2): the whitened form of
    :func:`model.mutual_information` for one target and one interferer
    direction, without the cancellation of two large log-dets.
    """
    p, q = _responses(inst)
    delta = float(inst.config.n_slots) / inst.config.radar_noise
    u = cands @ p.conj()
    v = cands @ q.conj()
    s = np.sqrt(1.0 + delta * np.sum(np.abs(v) ** 2, axis=1))
    c = delta / (s * (1.0 + s))
    z = u - (c * np.sum(v.conj() * u, axis=1))[:, None] * v
    return np.log1p(delta * np.sum(np.abs(z) ** 2, axis=1))


def _omega(inst: model.Instance) -> float:
    return model.rate_power_threshold(inst.config.rate_targets[0], inst.config.comm_noise)


def build_sdp(inst: model.Instance) -> conic.SdpProblem:
    """Rank-relaxed SDP: maximize the auxiliary variable t subject to the
    2x2 LMI and the 1x1 blocks P0 - Tr W (power) and h^H W h - omega
    (received power).  Past the verdict of :func:`mm.zero_forcing_init`,
    m = P0 - omega / ||h||^2 > 0, and the start W0 = (P0 - 3m/4) h h^H /
    ||h||^2 + (m / 4n) I, t0 = half the LMI's Schur complement at W0, is
    strictly feasible."""
    p, q = _responses(inst)
    cfg = inst.config
    n = cfg.n_tx
    scale = float(cfg.n_slots)
    s2 = cfg.radar_noise
    qp = scale * (q @ p.conj().T)

    coeff = np.zeros((2, 2, n, n), dtype=complex)
    coeff[0, 0] = scale * hermitianize(p @ p.conj().T)
    coeff[0, 1] = qp
    coeff[1, 0] = qp.conj().T
    coeff[1, 1] = scale * hermitianize(q @ q.conj().T)
    const = np.array([[s2, 0.0], [0.0, s2]], dtype=complex)
    t_coeff = np.array([[-1.0, 0.0], [0.0, 0.0]], dtype=complex)
    lmi = conic.LmiBlock(coeff=coeff, const=const, t_coeff=t_coeff)

    h = inst.channel[0].conj()
    gram = np.outer(h, h.conj())
    gain = float(np.linalg.norm(h) ** 2)
    margin = cfg.power_budget - _omega(inst) / gain
    w0 = (cfg.power_budget - 0.75 * margin) / gain * gram + margin / (4.0 * n) * np.eye(n)
    lmi0 = const + np.einsum("pqij,ji->pq", coeff, w0)
    t0 = 0.5 * float((lmi0[0, 0] - abs(lmi0[0, 1]) ** 2 / lmi0[1, 1]).real)
    no_t = np.zeros((1, 1), dtype=complex)
    power = conic.LmiBlock(coeff=-np.eye(n, dtype=complex)[None, None],
                           const=np.array([[cfg.power_budget]], dtype=complex), t_coeff=no_t)
    received = conic.LmiBlock(coeff=gram[None, None],
                              const=np.array([[-_omega(inst)]], dtype=complex), t_coeff=no_t)
    return conic.SdpProblem(
        dim=n,
        obj_mat=np.zeros((n, n), dtype=complex),
        obj_t=-1.0,  # minimize -t
        start=(w0, t0),
        lmi_blocks=(lmi, power, received),
    )


def relaxed_mi_bound(t_value: float, sigma_z2: float) -> float:
    """Mutual-information upper bound (nats) implied by the relaxed optimum."""
    return float(np.log(t_value) - np.log(sigma_z2))


def randomize(w_bar: np.ndarray, inst: model.Instance, seed,
              n_randomizations: int = DEFAULT_RANDOMIZATIONS) -> np.ndarray:
    """Recover a feasible rank-one beamformer from the relaxed solution.

    Draws candidates from CN(0, w_bar), scales each to the full power budget,
    adds the full-power maximum-ratio-transmission direction, keeps those
    meeting the received-power constraint, and returns the one with the
    largest exact mutual information.  The feasibility verdict of
    :func:`mm.zero_forcing_init` makes the MRT candidate strictly feasible.
    """
    if n_randomizations < 1:
        raise ValueError("n_randomizations must be >= 1")
    rng = np.random.default_rng(seed)
    n = w_bar.shape[0]
    root = hermitian_sqrt(w_bar)
    h = inst.channel[0].conj()
    p0 = inst.config.power_budget
    omega = _omega(inst)

    draws = (rng.standard_normal((n_randomizations, n))
             + 1j * rng.standard_normal((n_randomizations, n))) / np.sqrt(2.0)
    cands = draws @ root.T
    norms = np.linalg.norm(cands, axis=1)
    keep = norms > 1e-14
    cands = np.vstack([cands[keep] * (np.sqrt(p0) / norms[keep])[:, None],
                       np.sqrt(p0) * h / np.linalg.norm(h)])
    feasible = cands[np.abs(cands @ h.conj()) ** 2 >= omega]
    return feasible[int(np.argmax(point_mutual_information(inst, feasible)))]


@dataclass
class SdrReport:
    w: np.ndarray
    bound_nats: float
    conic_report: conic.ConicReport


def solve_point_interference(inst: model.Instance, seed,
                             n_randomizations: int = DEFAULT_RANDOMIZATIONS) -> SdrReport:
    """Full pipeline: the feasibility verdict of :func:`mm.zero_forcing_init`
    (raises :class:`Infeasible`), then relax, solve, randomize.  Past the
    verdict the relaxation is strictly feasible, so a relaxed solve that
    :func:`conic.solve_sdp` cannot certify is a :class:`NumericalError`."""
    mm.zero_forcing_init(inst)
    report = conic.solve_sdp(build_sdp(inst))
    return SdrReport(
        w=randomize(report.solution, inst, seed, n_randomizations),
        bound_nats=relaxed_mi_bound(report.aux, inst.config.radar_noise),
        conic_report=report,
    )
