"""Property-based robustness of the MM solvers.

Over small systems (N_T in [2, 6], N_R in [1, 6], up to three users), rate
targets including 0, a point target at broadside, no interferer or a small
extended one of any strength, and budgets from just below to far above the
least power that meets the targets, every solve through
``dispatch.solve_scenario`` either returns a design within the budget that
meets every target, or raises ``Infeasible`` when the least power leaves the
map no room below the budget.  Any other exception or warning fails.  The
examples pin cases that once broke a solve.
"""

import warnings

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, strategies as st  # noqa: E402

from mibeam import dispatch, mm, model  # noqa: E402
from mibeam.errors import Infeasible  # noqa: E402
from mibeam.model import ScattererModel, Scenario, SystemConfig  # noqa: E402

RATES = (0.0, 0.1, 0.5, 2.0, 4.0, 6.0)
BUDGET_FACTORS = (1.0 - 1e-13, 1.0, 1.0 + 1e-13, 1.0 + 1e-9, 1.0 + 1e-6, 1.01, 2.0, 10.0)


@st.composite
def cases(draw):
    n_tx = draw(st.integers(2, 6))
    n_users = draw(st.integers(1, min(3, n_tx)))
    return dict(
        n_tx=n_tx, n_rx=draw(st.integers(1, 6)),
        rates=tuple(draw(st.sampled_from(RATES)) for _ in range(n_users)),
        interferer=draw(st.none() | st.tuples(st.integers(1, 8),
                                               st.sampled_from((0.0, 1.0, 100.0, 1e4)))),
        channel_seed=draw(st.integers(0, 10_000)),
        factor=draw(st.sampled_from(BUDGET_FACTORS)),
        scheme=draw(st.sampled_from(("mm-single", "mm-multi"))) if n_users == 1 else "mm-multi")


def scenario_at(case, budget):
    cfg = SystemConfig(n_tx=case["n_tx"], n_rx=case["n_rx"], n_users=len(case["rates"]),
                       n_slots=30, power_budget=budget, comm_noise=0.1, radar_noise=1.0,
                       rate_targets=case["rates"], rng_seed=0)
    interf = None
    if case["interferer"] is not None:
        interf = ScattererModel.extended(-30.0, -25.0, *case["interferer"])
    channel = model.rayleigh_channel(cfg.n_users, cfg.n_tx, case["channel_seed"])
    return Scenario(cfg, ScattererModel.point(0.0, 1.0), interf, channel)


def pinned(n_tx, n_rx, rates, interferer, channel_seed, factor, scheme="mm-multi"):
    return dict(n_tx=n_tx, n_rx=n_rx, rates=rates, interferer=interferer,
                channel_seed=channel_seed, factor=factor, scheme=scheme)


@given(cases())
# a zero target's cut was identically zero: the QCQP ended max_iter (exit 4)
@example(pinned(6, 6, (0.0, 6.0, 6.0), (8, 100.0), 1, 10.0))
@example(pinned(6, 6, (4.0, 0.0, 4.0), None, 1, 2.0))
# the least power of a zero-target user was -7e-18 W: a false Infeasible
@example(pinned(3, 1, (0.0, 0.5, 2.0), None, 0, 2.0))
# budgets at the least power left the map no room: exit 4, or an overflow
@example(pinned(6, 6, (6.0,), (8, 100.0), 3, 1.0, "mm-single"))
@example(pinned(6, 6, (6.0,), (8, 100.0), 3, 1.0 - 1e-13, "mm-single"))
@example(pinned(6, 6, (4.0, 4.0, 4.0), (8, 100.0), 1, 1.0 - 1e-13))
@example(pinned(6, 6, (4.0, 4.0, 4.0), (8, 100.0), 1, 1.0))
# without interference the tau = 0 step met the cut only through the curved
# directions and the multiplier was walked down to an overflow; a
# SQUAREM point far from feasible drove it up to a zero divisor
@example(pinned(2, 1, (0.0,), None, 3, 10.0, "mm-single"))
@example(pinned(4, 6, (2.0,), (8, 0.0), 1, 10.0, "mm-single"))
@example(pinned(2, 1, (0.5,), None, 29, 2.0, "mm-single"))
def test_solve_meets_the_constraints_or_is_infeasible(case):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        least_inst = model.build_instance(scenario_at(case, 1.0))
        least = float(np.linalg.norm(mm._minimum_power_design(least_inst)) ** 2)
        budget = case["factor"] * least if least > 0.0 else 10.0
        scenario = scenario_at(case, budget)
        try:
            result = dispatch.solve_scenario(scenario, case["scheme"],
                                             dispatch.SolverOptions(max_iters=30))
        except Infeasible:
            assert least >= budget * (1.0 - mm.POWER_RTOL)
            return
    assert np.linalg.norm(result.w) ** 2 <= budget * (1.0 + 1e-9)
    assert np.all(result.rates_bits >= np.asarray(case["rates"]) - 1e-6)
