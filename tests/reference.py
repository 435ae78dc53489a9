"""Reference forms of what the package keeps factored or never forms.

The package stores a scatterer covariance only as its factor F (R = F F^H)
and applies the receive-stacked filter I_{N_R} kron W^H only to factors,
block by block (``model.expanded_times``).  Tests that check that code
against the textbook dense construction take the dense forms from here.
The MM surrogate's constant term, which moves no maximizer and so no solve
reads, is formed here too (:func:`surrogate_value`), and so is a 50-digit
second difference of the MI (:func:`mi_hessian_50_digits`), the reference
of the factored Hessian.
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


def mi_hessian_50_digits(inst: model.Instance, w, rstep: float = 1e-15) -> np.ndarray:
    """Real Hessian of the MI in x = (Re vec W, Im vec W) by central second
    differences in 50-digit arithmetic, at the double-precision design w.

    The MI is logdet(T) - logdet(T_i) with T = I + delta Wt R Wt^H over both
    factors and T_i over the interference factor alone; block (r, s) of Wt R
    Wt^H is W^H R_rs W with R_rs = F_r F_s^H, the N_T x N_T blocks of the
    dense covariance, formed once.  At 50 digits the two log-dets cancel
    harmlessly.  With D(u) = (MI(x + h u) - 2 MI(x) + MI(x - h u)) / h^2 and
    h = rstep ||x||, the diagonal is D(e_j) and the rest D(e_j + e_l) less
    both diagonals, halved; the truncation error is about h^2 and the
    rounding error 1e-50 / h^2, both far below double precision.
    """
    import mpmath

    cfg = inst.config
    n_tx, n_rx, n_users = cfg.n_tx, cfg.n_rx, cfg.n_users
    w_mat = model.as_beam_matrix(w, cfg)
    x0 = np.concatenate([linalg.vec(w_mat).real, linalg.vec(w_mat).imag])
    n = x0.size
    to_mp = np.vectorize(mpmath.mpmathify, otypes=[object])
    with mpmath.workdps(50):
        delta = mpmath.mpf(cfg.n_slots) / cfg.radar_noise
        grams = []
        for factor in (inst.factors, inst.interf_factor):
            blocks = to_mp(factor.reshape(n_rx, n_tx, -1))
            grams.append([[delta * (blocks[r] @ np.conjugate(blocks[s]).T) for s in range(n_rx)]
                          for r in range(n_rx)] if factor.shape[1] else None)

        def logdet(gram, w_mp):
            if gram is None:
                return 0
            w_h = np.conjugate(w_mp).T
            t = np.block([[w_h @ gram[r][s] @ w_mp for s in range(n_rx)] for r in range(n_rx)])
            t = t + np.eye(n_rx * n_users, dtype=int)
            total = 0
            for i in range(t.shape[0]):   # Hermitian elimination: the pivots are real
                pivot = mpmath.re(t[i, i])
                total += mpmath.log(pivot)
                t[i + 1:, i + 1:] -= np.outer(t[i + 1:, i], t[i, i + 1:]) / pivot
            return total

        def mi(x):
            w_mp = (x[:n // 2] + 1j * x[n // 2:]).reshape(n_users, n_tx).T
            return logdet(grams[0], w_mp) - logdet(grams[1], w_mp)

        x_mp = to_mp(x0)
        h = mpmath.mpf(rstep) * mpmath.sqrt(sum(v * v for v in x_mp))
        centre = mi(x_mp)
        unit = np.eye(n, dtype=int)

        def second(u):
            return (mi(x_mp + h * u) - 2 * centre + mi(x_mp - h * u)) / h ** 2

        diag = [second(unit[j]) for j in range(n)]
        hess = np.diag([float(d) for d in diag])
        for j in range(n):
            for k in range(j):
                hess[j, k] = hess[k, j] = float((second(unit[j] + unit[k]) - diag[j] - diag[k]) / 2)
    return hess
