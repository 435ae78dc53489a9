"""Reference forms of what the package keeps factored or never forms.

The package stores a scatterer covariance only as its factor F (R = F F^H)
and applies the receive-stacked filter I_{N_R} kron W^H only to factors,
block by block (``model.expanded_times``).  Tests that check that code
against the textbook dense construction take the dense forms from here.
The MM surrogate's constant term, which moves no maximizer and so no solve
reads, is formed here too (:func:`surrogate_value`).
"""

import numpy as np

from mibeam import linalg, model


def gram(factor: np.ndarray) -> np.ndarray:
    """The Hermitian matrix F F^H of a factor."""
    return linalg.hermitianize(factor @ factor.conj().T)


def target_cov(inst: model.Instance) -> np.ndarray:
    """The (N_T N_R) x (N_T N_R) covariance of the vectorized target response."""
    return gram(inst.target_factor)


def interf_cov(inst: model.Instance) -> np.ndarray:
    """The (N_T N_R) x (N_T N_R) covariance of the vectorized interference response."""
    return gram(inst.interf_factor)


def scatterer_covariance(scatterer: model.ScattererModel, cfg: model.SystemConfig) -> np.ndarray:
    """Sum over components of strength * u u^H, u = conj(b(theta)) kron a(theta)."""
    return gram(model.scatterer_factor(scatterer, cfg))


def expand_beamformer(w_mat: np.ndarray, n_rx: int) -> np.ndarray:
    """The receive-stacked filter I_{N_R} kron W^H, shape (K N_R, N_T N_R)."""
    return np.kron(np.eye(n_rx), w_mat.conj().T)


def surrogate_value(inst: model.Instance, sur, w_ref: np.ndarray, w: np.ndarray) -> float:
    """The surrogate ``sur`` built at w_ref, evaluated at w, in nats:
    2 delta Re(w^H lin) - delta^2 w^H quad w + offset, w stacking the
    beamformer columns.  The offset makes the bound touch the mutual
    information at w_ref: the MI there less the linear term 2 delta Re
    tr(Y_t^H X) and plus the quadratic term delta^2 ||G^H Wt F||^2 over both
    factors, with the projections Y = Wt F, X = L_i^{-H} Z and G = X C^{-H}
    of the sensing point at w_ref.  The offset does not read lin or quad, so
    a test that the value touches the MI at w_ref checks them."""
    cfg = inst.config
    point = model.sensing_point(inst, w_ref)
    delta = sur.delta
    x = np.linalg.solve(point.chol_i.conj().T, point.z)
    gain = np.linalg.solve(point.chol_s, x.conj().T).conj().T
    y_t, y_i = (model.expanded_times(point.w, f, cfg.n_rx)
                for f in (inst.target_factor, inst.interf_factor))
    touch = 2.0 * delta * float(np.real(np.vdot(y_t, x)))
    curvature = (delta ** 2) * sum(float(np.linalg.norm(y.conj().T @ gain)) ** 2
                                   for y in (y_t, y_i))
    offset = point.mi - touch + curvature
    w_vec = linalg.vec(w)
    linear = 2.0 * delta * float(np.real(np.vdot(w_vec, sur.lin)))
    quadratic = (delta ** 2) * float(np.real(np.vdot(w_vec, sur.quad @ w_vec)))
    return linear - quadratic + offset
