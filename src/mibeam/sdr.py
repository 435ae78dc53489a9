"""Single-user solver for a point target with at most one point interferer.

Reads the :class:`model.Instance` as the MM solvers do: the scatterers
through their factor columns, the power and rate constraints through the
stack :func:`mm.rate_cuts`.  Lifts w to a PSD matrix W = w w^H, drops the
rank-one constraint, solves the resulting semidefinite program with
:mod:`mibeam.conic`, and recovers a feasible rank-one beamformer by
Gaussian randomization ranked by the exact mutual information.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import conic, mm, model
from .linalg import hermitian_sqrt

DEFAULT_RANDOMIZATIONS = 1000


def _columns(inst: model.Instance) -> np.ndarray:
    """The target's factor column and the interferer's r <= 1 nonzero
    columns, each as N_R blocks f_a,k of length N_T: shape (1 + r, N_R,
    N_T).  A zero target column stays (a silent target); a silent
    interferer has no nonzero column, so it is absent, r = 0."""
    cfg = inst.config
    if cfg.n_users != 1:
        raise ValueError("sdr: requires exactly one user")
    interf = inst.interf_factor[:, np.any(inst.interf_factor, axis=0)]
    if inst.target_factor.shape[1] != 1 or interf.shape[1] > 1:
        raise ValueError("sdr: target and interferer must each be a single point")
    return np.concatenate([inst.target_factor, interf], axis=1).T.reshape(-1, cfg.n_rx, cfg.n_tx)


def point_mutual_information(inst: model.Instance, cands: np.ndarray) -> np.ndarray:
    """Exact sensing mutual information (nats) of each row of ``cands``.

    With u_k = f_0,k^H w and v_k = f_1,k^H w the projections, in one
    product, on the blocks of :func:`_columns` (v = 0 when r = 0) and delta
    = L / s_z^2, the MI is log(1 + delta ||z||^2), z = (I + delta v
    v^H)^{-1/2} u = u - c v (v^H u), c = delta / (s (1 + s)), s = sqrt(1 +
    delta ||v||^2): the whitened form of :func:`model.mutual_information`
    for r <= 1, without the cancellation of two large log-dets.
    """
    cfg = inst.config
    cols = _columns(inst)
    delta = float(cfg.n_slots) / cfg.radar_noise
    # one row per block and one column per candidate, so u and v are contiguous
    proj = (cols.reshape(-1, cfg.n_tx).conj() @ cands.T).reshape(-1, cfg.n_rx, cands.shape[0])
    u, v = proj[0], proj[1:].sum(axis=0)
    s = np.sqrt(1.0 + delta * np.sum(np.abs(v) ** 2, axis=0))
    c = delta / (s * (1.0 + s))
    z = u - c * np.sum(v.conj() * u, axis=0) * v
    return np.log1p(delta * np.sum(np.abs(z) ** 2, axis=0))


def _omega(inst: model.Instance) -> float:
    return model.rate_power_threshold(inst.config.rate_targets[0], inst.config.comm_noise)


def build_sdp(inst: model.Instance) -> conic.SdpProblem:
    """Rank-relaxed SDP: maximize t subject to the MI LMI, entry (a, b)
    s_z^2 delta_ab - t delta_a0 delta_b0 + Tr(C_ab W), C_ab = L sum_k f_b,k
    f_a,k^H over the columns of :func:`_columns`, whose Schur complement at
    W = w w^H bounds t by s_z^2 exp(MI), and the rows of :func:`mm.rate_cuts`
    lifted to 1x1 blocks -c_j + Tr((own_j - a_j) W).  Past the verdict of
    :func:`mm.zero_forcing_init`, m = P0 - omega / ||h||^2 > 0, and the start
    W0 = (P0 - 3m/4) h h^H / ||h||^2 + (m / 4n) I, t0 = half the LMI's
    Schur complement at W0, is strictly feasible."""
    cols = _columns(inst)
    cfg = inst.config
    n, size = cfg.n_tx, cols.shape[0]
    # row (a, i) holds entry i of every block of column a, so the product's
    # entry ((b, i), (a, j)) is C_ab[i, j]
    stacked = cols.transpose(0, 2, 1).reshape(size * n, cfg.n_rx)
    gram = float(cfg.n_slots) * (stacked @ stacked.conj().T)
    coeff = gram.reshape(size, n, size, n).transpose(2, 0, 1, 3)
    const = cfg.radar_noise * np.eye(size, dtype=complex)
    t_coeff = np.diag([-1.0] + [0.0] * (size - 1)).astype(complex)

    h = inst.channel[0].conj()
    gain = float(np.linalg.norm(h) ** 2)
    margin = cfg.power_budget - _omega(inst) / gain
    w0 = ((cfg.power_budget - 0.75 * margin) / gain * np.outer(h, h.conj())
          + margin / (4.0 * n) * np.eye(n))
    lmi0 = const + np.einsum("pqij,ji->pq", coeff, w0)
    schur = lmi0[0, 0] - lmi0[0, 1:] @ np.linalg.solve(lmi0[1:, 1:], lmi0[1:, 0])
    cuts = mm.rate_cuts(inst)
    no_t = np.zeros((1, 1), dtype=complex)
    stack = tuple(conic.LmiBlock(coeff=(own - a)[None, None], const=np.array([[-c]], dtype=complex),
                                 t_coeff=no_t) for a, own, c in zip(cuts.a, cuts.own, cuts.c))
    return conic.SdpProblem(
        dim=n,
        obj_mat=np.zeros((n, n), dtype=complex),
        obj_t=-1.0,  # minimize -t
        start=(w0, 0.5 * float(schur.real)),
        lmi_blocks=(conic.LmiBlock(coeff=coeff, const=const, t_coeff=t_coeff),) + stack,
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
