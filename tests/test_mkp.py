"""Tests for the MKP solver: HiGHS's MILP against the brute-force oracle."""

import os
import random
import subprocess
import sys
import threading
import time
import warnings
from concurrent.futures import ThreadPoolExecutor

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.errors import ValidationError
from repro.solver.mkp import _EPS, MkpInstance, solve_mkp
from tests.brute_mkp import solve_mkp_brute_force


def random_instance(rng: random.Random, max_items: int = 12,
                    max_rows: int = 5) -> MkpInstance:
    n = rng.randint(1, max_items)
    k = rng.randint(0, max_rows)
    profits = [rng.uniform(0, 20) for _ in range(n)]
    weights = [
        [rng.choice([0.0, rng.uniform(0.1, 10.0)]) for _ in range(n)]
        for _ in range(k)
    ]
    capacities = [rng.uniform(1.0, 15.0) for _ in range(k)]
    return MkpInstance.from_lists(profits, weights, capacities)


class TestInstanceValidation:
    def test_shape_mismatches_rejected(self):
        with pytest.raises(ValidationError):
            MkpInstance.from_lists([1.0], [[1.0, 2.0]], [5.0])
        with pytest.raises(ValidationError):
            MkpInstance.from_lists([1.0], [[1.0]], [5.0, 5.0])

    def test_negative_values_rejected(self):
        with pytest.raises(ValidationError):
            MkpInstance.from_lists([-1.0], [[1.0]], [5.0])
        with pytest.raises(ValidationError):
            MkpInstance.from_lists([1.0], [[-1.0]], [5.0])
        with pytest.raises(ValidationError):
            MkpInstance.from_lists([1.0], [[1.0]], [-5.0])

    def test_nan_values_rejected(self):
        nan = float("nan")
        with pytest.raises(ValidationError):
            MkpInstance.from_lists([nan], [[1.0]], [5.0])
        with pytest.raises(ValidationError):
            MkpInstance.from_lists([1.0], [[nan]], [5.0])
        with pytest.raises(ValidationError):
            MkpInstance.from_lists([1.0], [[1.0]], [nan])

    def test_infinite_capacity_accepted(self):
        inst = MkpInstance.from_lists([1.0], [[1.0]], [float("inf")])
        assert inst.is_feasible([0])

    def test_feasibility_and_objective(self):
        inst = MkpInstance.from_lists([3.0, 4.0], [[2.0, 3.0]], [4.0])
        assert inst.is_feasible([0])
        assert not inst.is_feasible([0, 1])
        assert inst.objective([0, 1]) == 7.0

    def test_feasibility_bound_is_inclusive(self):
        """A row may reach ``_EPS`` past its capacity, that bound
        included: HiGHS's tolerances are set below it, so what the MILP
        returns always passes."""
        at_bound = MkpInstance.from_lists([1.0], [[1.0 + _EPS]], [1.0])
        assert at_bound.is_feasible([0])
        past = MkpInstance.from_lists([1.0], [[1.0 + 2 * _EPS]], [1.0])
        assert not past.is_feasible([0])


class TestSolverBasics:
    def test_empty_instance(self):
        solution = solve_mkp(MkpInstance.from_lists([], [], []))
        assert solution.selected == ()
        assert solution.objective == 0.0

    def test_unconstrained_takes_everything(self):
        inst = MkpInstance.from_lists([1.0, 2.0, 3.0], [], [])
        solution = solve_mkp(inst)
        assert set(solution.selected) == {0, 1, 2}

    def test_oversized_item_never_selected(self):
        inst = MkpInstance.from_lists([100.0, 1.0], [[50.0, 1.0]], [10.0])
        solution = solve_mkp(inst)
        assert 0 not in solution.selected

    def test_negative_tolerance_rejected(self):
        inst = MkpInstance.from_lists([1.0], [[1.0]], [1.0])
        with pytest.raises(ValidationError):
            solve_mkp(inst, tolerance=-0.1)

    def test_classic_knapsack(self):
        # profits/weights chosen so density-greedy is suboptimal
        inst = MkpInstance.from_lists(
            [60.0, 100.0, 120.0], [[10.0, 20.0, 30.0]], [50.0])
        solution = solve_mkp(inst, tolerance=0.0)
        assert solution.objective == pytest.approx(220.0)
        assert set(solution.selected) == {1, 2}


class TestAgainstBruteForce:
    def test_exact_mode_matches_brute_force(self):
        rng = random.Random(42)
        for _ in range(40):
            inst = random_instance(rng)
            exact = solve_mkp(inst, tolerance=0.0)
            reference = solve_mkp_brute_force(inst)
            assert exact.objective == pytest.approx(
                reference.objective, rel=1e-6)
            assert inst.is_feasible(exact.selected)

    def test_default_mode_within_one_percent(self):
        rng = random.Random(43)
        for _ in range(40):
            inst = random_instance(rng)
            approx = solve_mkp(inst)
            reference = solve_mkp_brute_force(inst)
            assert approx.objective >= reference.objective * 0.99 - 1e-9


#: Small hand-built instances: (profits, weight rows, capacities, the
#: optimal selection).
HAND_INSTANCES = {
    "textbook": ([60, 100, 120], [[1, 2, 3]], [5.0], {1, 2}),
    "zero-capacity-takes-free-items": ([5, 7], [[0.0, 1.0]], [0.0], {0}),
    "capacity-never-exceeded": (
        [10, 10, 10], [[0.4, 0.4, 0.4]], [1.0], {0, 1}),
    "three-thirds-overflow": (
        [1, 1, 1], [[0.34, 0.34, 0.34]], [1.0], {0, 1}),
    "dominating-row": (
        [1, 2, 3], [[2, 2, 2], [1, 1, 1]], [5.0, 5.0], {1, 2}),
    "incomparable-rows": ([1, 2], [[2, 0], [0, 2]], [2.0, 2.0], {0, 1}),
    "collapsing-rows": (
        [8, 7, 6, 5], [[3, 3, 2, 2], [1, 1, 1, 1]], [6.0, 6.0], {0, 1}),
    "two-rows": (
        [10, 8, 6, 4], [[3, 2, 2, 1], [1, 2, 3, 1]], [4.0, 4.0], {0, 3}),
    "two-rows-six-items": (
        [10, 8, 6, 4, 9, 2], [[3, 2, 2, 1, 3, 1], [1, 2, 3, 1, 2, 2]],
        [4.0, 4.0], {0, 3}),
    # 2e-7 over: inside HiGHS's default feasibility tolerance (1e-6),
    # outside is_feasible's 1e-9.
    "just-over-capacity": ([1, 1], [[0.5, 0.5000002]], [1.0], {0}),
    "exact-fit": ([1, 1], [[0.5, 0.5]], [1.0], {0, 1}),
}


@pytest.mark.parametrize("name", sorted(HAND_INSTANCES))
def test_hand_instance_matches_brute_force(name):
    profits, rows, capacities, optimum = HAND_INSTANCES[name]
    inst = MkpInstance.from_lists(profits, rows, capacities)
    exact = solve_mkp(inst, tolerance=0.0)
    reference = solve_mkp_brute_force(inst)
    assert exact.objective == pytest.approx(inst.objective(optimum))
    assert reference.objective == pytest.approx(inst.objective(optimum))
    assert inst.is_feasible(exact.selected)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 100_000))
def test_property_bnb_matches_brute_force(seed):
    rng = random.Random(seed)
    inst = random_instance(rng, max_items=10, max_rows=4)
    exact = solve_mkp(inst, tolerance=0.0)
    reference = solve_mkp_brute_force(inst)
    assert exact.objective == pytest.approx(reference.objective, rel=1e-6)
    assert inst.is_feasible(exact.selected)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.floats(0.0, 20.0), st.floats(0.0, 5.0)),
                min_size=1, max_size=10),
       st.floats(0.5, 8.0))
@example(items=[(1.0, 1.0), (1.0, 2.220446049250313e-16)], capacity=1.0)
def test_single_row_bnb_matches_brute_force(items, capacity):
    """One knapsack row.  In the pinned example the two weights sum
    2.2e-16 past the capacity: both solvers must read that through the
    same feasibility tolerance."""
    inst = MkpInstance.from_lists([p for p, _ in items],
                                  [[w for _, w in items]], [capacity])
    exact = solve_mkp(inst, tolerance=0.0)
    reference = solve_mkp_brute_force(inst)
    assert exact.objective == pytest.approx(reference.objective, rel=1e-6)
    assert inst.is_feasible(exact.selected)


def test_importing_repro_loads_no_scipy():
    """scipy costs ~60 MB of RSS; only solve_mkp imports it, so the
    paths that never select nodes do not pay for it."""
    code = ("import sys, repro, repro.cli, repro.engine, repro.serve; "
            "print(sorted(m for m in sys.modules "
            "if m.partition('.')[0] == 'scipy'))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         timeout=120, capture_output=True, text=True).stdout
    assert out.strip() == "[]"


def test_concurrent_solves_restore_stdout(monkeypatch):
    """Each solve points fd 1 at the null device. A second thread's solve
    that starts while the first is inside milp must wait for it: else
    it saves the null device as fd 1 and restores fd 1 to it."""
    import scipy.optimize

    real_milp = scipy.optimize.milp
    active, peak = [0], [0]
    inside = threading.Event()

    def slow_milp(*args, **kwargs):
        active[0] += 1
        peak[0] = max(peak[0], active[0])
        inside.set()
        time.sleep(0.05)  # the second solve starts meanwhile
        active[0] -= 1
        return real_milp(*args, **kwargs)

    monkeypatch.setattr(scipy.optimize, "milp", slow_milp)
    inst = MkpInstance.from_lists([1.0, 2.0], [[1.0, 1.0]], [1.0])
    before = os.fstat(1)

    def solve(after_first: bool):
        if after_first:
            assert inside.wait(timeout=10)
        return solve_mkp(inst).selected

    with ThreadPoolExecutor(max_workers=2) as pool:
        futures = [pool.submit(solve, after) for after in (False, True)]
        assert [f.result() for f in futures] == [(1,), (1,)]
    after = os.fstat(1)
    assert (after.st_dev, after.st_ino) == (before.st_dev, before.st_ino)
    assert peak[0] == 1


#: the one option ``solve_mkp`` passes that HiGHS only knows from 1.10 on
FEASIBILITY_JUMP = "mip_heuristic_run_feasibility_jump"


def highs_version() -> tuple[int, int] | None:
    """The installed HiGHS's (major, minor); None for a scipy whose
    HiGHS wrapper does not expose it (an older wrapper)."""
    try:
        from scipy.optimize._highspy._core import (HIGHS_VERSION_MAJOR,
                                                   HIGHS_VERSION_MINOR)
    except ImportError:
        return None
    return HIGHS_VERSION_MAJOR, HIGHS_VERSION_MINOR


def unforgiven_options(monkeypatch, version) -> list[str]:
    """The warnings of an unrecognised option that ``milp`` raises when
    handed every option ``solve_mkp`` passes, all warnings kept; on a
    HiGHS of ``version`` before 1.10 (None: unknown) the one about
    feasibility jump, which such a HiGHS does not have, is left out."""
    import numpy as np
    import scipy.optimize
    from scipy.optimize import Bounds, OptimizeWarning

    real_milp = scipy.optimize.milp
    passed = {}

    def spy(*args, options=None, **kwargs):
        passed.update(options or {})
        return real_milp(*args, options=options, **kwargs)

    with monkeypatch.context() as patch, warnings.catch_warnings():
        warnings.simplefilter("ignore", OptimizeWarning)
        patch.setattr(scipy.optimize, "milp", spy)
        solve_mkp(MkpInstance.from_lists([1.0, 2.0], [[1.0, 1.0]], [1.0]))
    assert {"mip_rel_gap", FEASIBILITY_JUMP} <= set(passed)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        real_milp(np.array([-1.0]), integrality=1, bounds=Bounds(0, 1),
                  options=dict(passed))
    unrecognised = [str(w.message) for w in caught
                    if issubclass(w.category, OptimizeWarning)]
    if version is None or version < (1, 10):
        unrecognised = [m for m in unrecognised
                        if repr(FEASIBILITY_JUMP) not in m]
    return unrecognised


def test_highs_recognises_every_option_solve_mkp_passes(monkeypatch):
    """``solve_mkp`` silences the warnings about the options it passes to
    HiGHS verbatim, so a name the installed HiGHS does not know would be
    dropped without a word: HiGHS must name none of them unrecognised,
    except feasibility jump on a HiGHS older than 1.10."""
    assert unforgiven_options(monkeypatch, highs_version()) == []


def test_only_feasibility_jump_is_forgiven_on_an_older_highs(monkeypatch):
    """Against a ``milp`` that does not know some options, as an older
    HiGHS's does not know feasibility jump, the check above forgives
    that one name before 1.10 only, and never a misspelt option."""
    import scipy.optimize
    from scipy.optimize import OptimizeWarning

    real_milp = scipy.optimize.milp
    unknown = {FEASIBILITY_JUMP}

    def older_milp(*args, options=None, **kwargs):
        options = dict(options)
        for key in sorted(unknown & set(options)):
            warnings.warn("Unrecognized options detected: "
                          f"{ {key: options.pop(key)} }", OptimizeWarning)
        return real_milp(*args, options=options, **kwargs)

    monkeypatch.setattr(scipy.optimize, "milp", older_milp)
    assert unforgiven_options(monkeypatch, (1, 9)) == []
    assert unforgiven_options(monkeypatch, None) == []
    assert unforgiven_options(monkeypatch, (1, 10)) != []
    unknown.add("mip_rel_gap")
    assert unforgiven_options(monkeypatch, (1, 9)) == [
        "Unrecognized options detected: {'mip_rel_gap': 0.01}"]


def test_a_highs_without_feasibility_jump_solves_silently(monkeypatch):
    """HiGHS before 1.10 has no feasibility jump: scipy's wrapper then
    warns that it does not know the option and solves without it.
    ``solve_mkp`` lets no warning out for that one option name."""
    import scipy.optimize
    from scipy.optimize import OptimizeWarning

    real_milp = scipy.optimize.milp

    def older_milp(*args, options=None, **kwargs):
        options = dict(options)
        value = options.pop("mip_heuristic_run_feasibility_jump")
        warnings.warn("Unrecognized options detected: "
                      f"{{'mip_heuristic_run_feasibility_jump': {value}}}",
                      OptimizeWarning)
        return real_milp(*args, options=options, **kwargs)

    monkeypatch.setattr(scipy.optimize, "milp", older_milp)
    inst = MkpInstance.from_lists([1.0, 2.0], [[1.0, 1.0]], [1.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert solve_mkp(inst).selected == (1,)
