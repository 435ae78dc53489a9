"""Dense reference forms of what the package keeps factored.

The package stores a scatterer covariance only as its factor F (R = F F^H)
and applies the receive-stacked filter I_{N_R} kron W^H only to factors,
block by block (``model.expanded_times``).  Tests that check that code
against the textbook dense construction take the dense forms from here.
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
