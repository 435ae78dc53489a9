import numpy as np
import pytest

from mibeam import closed_form, model
from mibeam.closed_form import feasibility_bound, solve_closed_form
from mibeam.errors import Infeasible


def random_complex(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def test_feasibility_bound_simple():
    assert feasibility_bound(np.array([1.0, 1.0]), 1.0) == pytest.approx(2.0)
    assert feasibility_bound(np.zeros(3), 5.0) == 0.0


def test_feasibility_bound_matches_random_search():
    # 1e5 random directions lower-bound the optimum; projected gradient
    # ascent on the sphere from the best sample closes the sampling gap
    # without ever using the closed-form answer
    rng = np.random.default_rng(0)
    h = random_complex(rng, 4)
    p0 = 3.0
    draws = random_complex(rng, 100_000, 4)
    draws /= np.linalg.norm(draws, axis=1)[:, None]
    received = np.abs(draws @ h.conj()) ** 2
    assert float(np.max(received)) * p0 <= feasibility_bound(h, p0) * (1.0 + 1e-12)

    w = draws[int(np.argmax(received))]
    for _ in range(200):
        grad = h * np.vdot(h, w)
        w = w + 0.1 * grad
        w /= np.linalg.norm(w)
    best = p0 * float(np.abs(np.vdot(h, w)) ** 2)
    bound = feasibility_bound(h, p0)
    assert best <= bound * (1.0 + 1e-12)
    assert best >= bound * 0.999


def test_infeasible_raises():
    with pytest.raises(Infeasible):
        solve_closed_form(np.ones(2), np.zeros(2), 1.0, 0.5)


def test_aligned_channel_returns_matched_filter():
    rng = np.random.default_rng(1)
    a = model.steering_vector(20.0, 4)
    h = 2.5 * a  # parallel: r = 1
    p0 = 4.0
    omega = 0.5 * feasibility_bound(h, p0)
    w = solve_closed_form(a, h, p0, omega)
    assert np.linalg.norm(w) ** 2 == pytest.approx(p0, rel=1e-12)
    assert np.allclose(w, np.sqrt(p0) * h / np.linalg.norm(h), atol=1e-9)


def test_aligned_channel_at_the_bound_takes_the_matched_filter_branch(monkeypatch):
    # h is parallel to a up to 1e-14 in r and omega is the bound, so the
    # target beam misses the constraint and the two-vector combination,
    # divided by 1 - r^2, is replaced by the matched filter
    a = model.steering_vector(20.0, 4)
    perp = np.array([1.0, -1.0, 1.0, -1.0], dtype=complex)
    perp -= a * np.vdot(a, perp) / np.vdot(a, a)
    h = 2.5 * a + 1e-6 * perp / np.linalg.norm(perp)
    p0 = 4.0
    omega = feasibility_bound(h, p0)
    w = solve_closed_form(a, h, p0, omega)
    assert np.linalg.norm(w) ** 2 == pytest.approx(p0, rel=1e-12)
    assert abs(np.vdot(h, w)) ** 2 == pytest.approx(omega, rel=1e-12)
    assert np.allclose(w, np.sqrt(p0) * h / np.linalg.norm(h), atol=1e-12)
    # the answer comes from that branch: without it the same inputs take
    # the combination, which gives a different vector
    monkeypatch.setattr(closed_form, "ALIGNED_RTOL", 0.0)
    assert not np.array_equal(solve_closed_form(a, h, p0, omega), w)


@pytest.mark.parametrize("omega", [0.0, 0.5])
def test_zero_channel_is_infeasible(omega):
    with pytest.raises(Infeasible, match="channel is zero"):
        solve_closed_form(np.ones(2), np.zeros(2), 1.0, omega)


def test_slack_constraint_returns_target_beam():
    rng = np.random.default_rng(2)
    a = model.steering_vector(0.0, 4)
    h = random_complex(rng, 4)
    p0 = 2.0
    # make the full-power target beam satisfy the constraint strictly
    omega = 0.5 * p0 * abs(np.vdot(h, a)) ** 2 / np.linalg.norm(a) ** 2
    w = solve_closed_form(a, h, p0, omega)
    assert np.allclose(w, np.sqrt(p0) * a / np.linalg.norm(a), atol=1e-12)
    assert abs(np.vdot(h, w)) ** 2 > omega


def test_orthogonal_channel_spec_point():
    a = np.array([1.0, 1.0], dtype=complex)
    h = np.array([1.0, -1.0], dtype=complex)
    w = solve_closed_form(a, h, 1.0, 0.1)
    expected = np.sqrt(0.05) * h / np.linalg.norm(h) + np.sqrt(0.95) * a / np.linalg.norm(a)
    assert np.allclose(w, expected, atol=1e-12)
    assert abs(np.vdot(h, w)) ** 2 == pytest.approx(0.1, rel=1e-10)
    assert np.linalg.norm(w) ** 2 == pytest.approx(1.0, rel=1e-12)


def test_constraints_hold_on_random_instances():
    rng = np.random.default_rng(3)
    for _ in range(50):
        n = int(rng.integers(2, 7))
        a = model.steering_vector(float(rng.uniform(-80, 80)), n)
        h = random_complex(rng, n)
        p0 = float(rng.uniform(0.5, 20.0))
        omega = float(rng.uniform(0.0, 1.0)) * feasibility_bound(h, p0)
        w = solve_closed_form(a, h, p0, omega)
        assert np.linalg.norm(w) ** 2 == pytest.approx(p0, rel=1e-9)
        assert abs(np.vdot(h, w)) ** 2 >= omega - 1e-9


def test_boundary_feasible_not_slater():
    rng = np.random.default_rng(4)
    h = random_complex(rng, 3)
    a = model.steering_vector(10.0, 3)
    p0 = 1.5
    omega = feasibility_bound(h, p0)  # equality: unique feasible direction
    w = solve_closed_form(a, h, p0, omega)
    assert np.linalg.norm(w) ** 2 == pytest.approx(p0, rel=1e-9)
    assert abs(np.vdot(h, w)) ** 2 == pytest.approx(omega, rel=1e-9)


def test_branch_continuity_at_threshold():
    rng = np.random.default_rng(5)
    a = model.steering_vector(-15.0, 4)
    h = random_complex(rng, 4)
    p0 = 3.0
    omega_star = p0 * abs(np.vdot(a, h)) ** 2 / np.linalg.norm(a) ** 2

    def gain(omega):
        w = solve_closed_form(a, h, p0, omega)
        return abs(np.vdot(a, w)) ** 2

    below = gain(omega_star * (1.0 - 1e-9))
    above = gain(omega_star * (1.0 + 1e-9))
    assert abs(below - above) <= 1e-6 * max(1.0, below)


def test_desk_scale_optimality_audit():
    # the returned gain must be within 0.1% of the best of 1e6 feasible
    # random full-power samples
    rng = np.random.default_rng(6)
    for trial in range(3):
        n = int(rng.integers(2, 5))
        a = model.steering_vector(float(rng.uniform(-60, 60)), n)
        h = random_complex(rng, n)
        p0 = float(rng.uniform(0.5, 5.0))
        omega = float(rng.uniform(0.1, 0.9)) * feasibility_bound(h, p0)
        w = solve_closed_form(a, h, p0, omega)
        gain = abs(np.vdot(a, w)) ** 2

        best = 0.0
        for _ in range(10):
            draws = random_complex(rng, 100_000, n)
            draws *= (np.sqrt(p0) / np.linalg.norm(draws, axis=1))[:, None]
            feasible = np.abs(draws @ h.conj()) ** 2 >= omega
            if np.any(feasible):
                best = max(best, float(np.max(np.abs(draws[feasible] @ a.conj()) ** 2)))
        assert gain >= (1.0 - 1e-3) * best
