import numpy as np
import pytest

from mibeam import linalg
from mibeam.errors import NotPositiveDefinite, NotPSD


def random_complex(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def test_vec_definition():
    a = np.array([[1.0, 3.0], [2.0, 4.0]])
    assert np.array_equal(linalg.vec(a), np.array([1.0, 2.0, 3.0, 4.0]))
    assert np.array_equal(linalg.vec(np.eye(2)), np.array([1.0, 0.0, 0.0, 1.0]))


def test_vec_of_triple_product():
    rng = np.random.default_rng(2)
    for _ in range(20):
        a, b, c = (random_complex(rng, 2, 2) for _ in range(3))
        lhs = linalg.vec(a @ b @ c)
        rhs = np.kron(c.T, a) @ linalg.vec(b)
        assert np.max(np.abs(lhs - rhs)) <= 1e-12


def test_unvec_roundtrip():
    rng = np.random.default_rng(3)
    a = random_complex(rng, 3, 5)
    assert np.array_equal(linalg.unvec(linalg.vec(a), 3, 5), a)


def test_logdet_identity_and_diagonal():
    assert linalg.logdet_hermitian(np.eye(5)) == pytest.approx(0.0, abs=1e-14)
    assert linalg.logdet_hermitian(np.diag([2.0, 3.0])) == pytest.approx(np.log(6.0), rel=1e-14)


def test_logdet_matches_eigenvalue_oracle():
    rng = np.random.default_rng(4)
    for n in (3, 8, 16, 36):
        b = random_complex(rng, n, n)
        a = b @ b.conj().T + np.eye(n)
        expected = float(np.sum(np.log(np.linalg.eigvalsh(a))))
        got = linalg.logdet_hermitian(a)
        assert abs(got - expected) <= 1e-9 * abs(expected)


def test_logdet_rejects_non_pd():
    with pytest.raises(NotPositiveDefinite):
        linalg.logdet_hermitian(np.diag([1.0, -1.0]))


def test_hermitian_sqrt_trivial():
    assert np.allclose(linalg.hermitian_sqrt(np.eye(3)), np.eye(3), atol=1e-14)
    assert np.allclose(linalg.hermitian_sqrt(np.diag([4.0, 9.0])), np.diag([2.0, 3.0]),
                       atol=1e-14)


def test_hermitian_sqrt_reconstruction():
    rng = np.random.default_rng(5)
    for _ in range(10):
        b = random_complex(rng, 6, 3)
        a = b @ b.conj().T  # PSD, rank deficient
        s = linalg.hermitian_sqrt(a)
        err = np.linalg.norm(s @ s - a) / np.linalg.norm(a)
        assert err <= 1e-9
        assert linalg.is_hermitian(s)
        assert np.min(np.linalg.eigvalsh(s)) >= -1e-12


def test_hermitian_sqrt_rejects_indefinite():
    with pytest.raises(NotPSD):
        linalg.hermitian_sqrt(np.diag([1.0, -0.5]))


def test_psd_floor_follows_the_square_root_policy():
    rng = np.random.default_rng(6)
    b = random_complex(rng, 6, 3)
    a = b @ b.conj().T  # PSD, rank deficient
    scale = np.linalg.norm(a, 2)
    null = np.linalg.qr(b, mode="complete")[0][:, 3:]
    assert np.linalg.norm(linalg.psd_floor(a) - a) <= 1e-12 * scale
    # negative eigenvalues in the null space, inside the clamp band and
    # between it and the reject band, are floored to zero; the projection
    # is the square of the square root
    dented = a - scale * (1e-11 * null[:, :1] @ null[:, :1].conj().T
                          + 1e-9 * null[:, 1:2] @ null[:, 1:2].conj().T)
    floor = linalg.psd_floor(dented)
    root = linalg.hermitian_sqrt(dented)
    assert linalg.is_hermitian(floor)
    assert np.linalg.norm(floor - a) <= 1e-12 * scale
    assert np.linalg.norm(floor - root @ root) <= 1e-12 * scale
    with pytest.raises(NotPSD):
        linalg.psd_floor(a - 1e-7 * scale * null[:, :1] @ null[:, :1].conj().T)


def test_pinv_trivial():
    assert np.allclose(linalg.pinv(np.eye(4)), np.eye(4), atol=1e-12)
    assert np.allclose(linalg.pinv(np.diag([2.0, 0.0])), np.diag([0.5, 0.0]), atol=1e-12)


def test_pinv_penrose_conditions():
    rng = np.random.default_rng(6)
    for shape in ((4, 4), (5, 3), (3, 5)):
        a = random_complex(rng, *shape)
        p = linalg.pinv(a)
        assert np.linalg.norm(a @ p @ a - a) <= 1e-8
        assert np.linalg.norm(p @ a @ p - p) <= 1e-8
        assert np.linalg.norm((a @ p).conj().T - a @ p) <= 1e-8
        assert np.linalg.norm((p @ a).conj().T - p @ a) <= 1e-8


def test_commutation_trivial():
    assert np.array_equal(linalg.commutation_matrix(1, 1), np.array([[1.0]]))


def test_commutation_transposes_vec():
    rng = np.random.default_rng(7)
    for m, n in ((2, 2), (3, 2), (2, 5)):
        k = linalg.commutation_matrix(m, n)
        a = random_complex(rng, m, n)
        assert np.array_equal(k @ linalg.vec(a), linalg.vec(a.T))
        assert np.array_equal(k.T @ k, np.eye(m * n))


def test_weinstein_aronszajn_identity():
    # det(I + AB) = det(I + BA), the reduction used throughout the solvers
    rng = np.random.default_rng(8)
    for n in (2, 3, 4):
        a = random_complex(rng, n, n + 1)
        b = random_complex(rng, n + 1, n)
        lhs = np.linalg.det(np.eye(n) + a @ b)
        rhs = np.linalg.det(np.eye(n + 1) + b @ a)
        assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs))
