"""End-to-end acceptance checks.

Each test asserts one headline behavior of the full stack and records a
PASS/FAIL line for the terminal summary. Thresholds are fixed here and the
underlying quantities are computed against independent references (brute
force grids, active-set enumeration, byte comparison), not against the
implementation under test.
"""

import time

import numpy as np
import pytest

from tests.conftest import record_criterion
from tests.oracles import (box_qp_oracle, grid_capped_simplex,
                           penalized_tracking_objective, sample_capped_simplex)
from twinalloc.cli import main
from twinalloc.core import AllocationConstraints, ScenarioConfig
from twinalloc.engine import compare_policies, save_scenario
from twinalloc.manager import (PolicyKind, allocate_event, allocate_online,
                               allocate_static)
from twinalloc.solver import (BoxSet, PGAConfig, SmoothConvexProblem,
                              pga_solve, project_capped_simplex)
from twinalloc.twin import (DigitalTwin, compute_requirement, step_control,
                            update_regret)

N_SEEDS = 10
BAND = 10.0          # tolerated per-resource shortfall
TOL = 1e-6


@pytest.fixture(scope="module")
def ten_seed_runs():
    config = ScenarioConfig()
    start = time.perf_counter()
    runs = {seed: compare_policies(config, seed) for seed in range(N_SEEDS)}
    elapsed = time.perf_counter() - start
    return config, runs, elapsed


def test_criterion_1_policy_ordering(ten_seed_runs):
    desc = ("online < static < equal mean residual on every seed, online <= "
            "event-triggered on average, ten comparison runs inside 60 s")
    passed = False
    try:
        config, runs, elapsed = ten_seed_runs
        means = {kind: np.array([runs[s][kind].mean_residual_after_prefix
                                 for s in range(N_SEEDS)])
                 for kind in PolicyKind}
        assert np.all(means[PolicyKind.ONLINE_DYNAMIC]
                      < means[PolicyKind.STATIC])
        assert np.all(means[PolicyKind.STATIC] < means[PolicyKind.EQUAL])
        assert (means[PolicyKind.ONLINE_DYNAMIC].mean()
                <= means[PolicyKind.EVENT_TRIGGERED].mean())
        assert elapsed < 60.0
        passed = True
    finally:
        record_criterion(1, desc, passed)


def test_criterion_2_deviation_band(ten_seed_runs):
    desc = ("whenever requests fit the budget, online residuals stay inside "
            "the tolerated shortfall band; event-triggered does so at its "
            "reallocation ticks and on post-prefix average")
    passed = False
    try:
        _, runs, _ = ten_seed_runs
        for seed in range(N_SEEDS):
            online = runs[seed][PolicyKind.ONLINE_DYNAMIC]
            fits = (online.requirement_series.sum(axis=1)
                    <= online.capacity_b + 1e-9)
            assert fits.any()
            assert np.all(online.residual_inf_series[fits] <= BAND + TOL)

            event = runs[seed][PolicyKind.EVENT_TRIGGERED]
            for t in event.reallocation_ticks:
                if fits[t]:
                    assert event.residual_inf_series[t] <= BAND + TOL
            assert event.mean_residual_after_prefix <= BAND + TOL
        passed = True
    finally:
        record_criterion(2, desc, passed)


def test_criterion_3_event_realloc_count(ten_seed_runs):
    desc = ("event-triggered policy reallocates between 2 and 30 times per "
            "hundred-tick run on every seed")
    passed = False
    try:
        _, runs, _ = ten_seed_runs
        for seed in range(N_SEEDS):
            count = len(runs[seed][PolicyKind.EVENT_TRIGGERED]
                        .reallocation_ticks)
            assert 2 <= count <= 30
        passed = True
    finally:
        record_criterion(3, desc, passed)


def test_criterion_4_certificate_bound():
    desc = ("after k certified steps on 100 random box quadratics the "
            "suboptimality never exceeds start_distance^2 / (2 alpha k)")
    passed = False
    try:
        rng = np.random.default_rng(2024)
        worst = -np.inf
        for _ in range(100):
            n = int(rng.integers(1, 6))
            M = rng.normal(size=(n, n))
            Q = M.T @ M + 0.1 * np.eye(n)
            c = rng.normal(scale=2.0, size=n)
            upper = rng.uniform(1, 5, n)
            lipschitz = float(np.linalg.eigvalsh(Q).max())
            alpha = 1.0 / lipschitz
            problem = SmoothConvexProblem(
                objective=lambda x, Q=Q, c=c: float(0.5 * x @ Q @ x + c @ x),
                gradient=lambda x, Q=Q, c=c: Q @ x + c,
                lipschitz_l=lipschitz,
                feasible_set=BoxSet(np.zeros(n), upper))
            k = int(rng.integers(1, 201))
            x0 = rng.uniform(0, upper)
            result = pga_solve(problem, x0,
                               PGAConfig(step_alpha=alpha, max_iterations=k,
                                         stall_tolerance=0.0))
            assert result.iterations == k
            x_star, f_star = box_qp_oracle(Q, c, np.zeros(n), upper)
            bound = float(np.sum((x0 - x_star) ** 2)) / (2.0 * alpha * k)
            gap = problem.objective(result.x) - f_star
            rel_excess = (gap - bound) / max(1.0, abs(bound))
            worst = max(worst, rel_excess)
        assert worst <= 1e-9
        passed = True
    finally:
        record_criterion(4, desc, passed)


def test_criterion_5_solver_oracles():
    desc = ("on 50 small instances every policy solve beats a brute-force "
            "grid within 1e-2 and projections beat 10000 sampled feasible "
            "points")
    passed = False
    try:
        rng = np.random.default_rng(777)
        steps = {1: 0.002, 2: 0.02, 3: 0.05}
        for i in range(50):
            n = int(rng.integers(1, 4))
            capacity = float(rng.uniform(2.0, 4.0))
            requested = rng.uniform(1.0, 10.0, n)
            lower = np.maximum(requested - rng.uniform(0.5, 4.0, n), 0.0)
            max_dev = float(rng.uniform(1.0, 10.0))
            constraints = AllocationConstraints(
                capacity_b=capacity, max_deviation=max_dev,
                slack_penalty_rho=1e3)
            dev_floor = requested - constraints.max_deviation
            grid = grid_capped_simplex(n, capacity, steps[n])
            track = np.sum((grid - requested) ** 2, axis=1)
            hinge = (np.sum(np.maximum(lower - grid, 0.0) ** 2, axis=1)
                     + np.sum(np.maximum(dev_floor - grid, 0.0) ** 2, axis=1))

            which = i % 3
            if which == 0:
                a = allocate_static(requested, capacity)
                best = float(track.min())
                rho, weight = 0.0, 1.0
            elif which == 1:
                a = allocate_online(requested, lower, constraints)
                best = float((track + 1e3 * hinge).min())
                rho, weight = 1e3, 1.0
            else:
                a = allocate_event(requested, lower, constraints, N_e=2)
                best = float((2.0 * track + 1e3 * hinge).min())
                rho, weight = 1e3, 2.0
            objective = penalized_tracking_objective(
                a, requested, lower, dev_floor, rho, weight=weight)
            assert objective <= best + 1e-2
            assert np.all(a >= -1e-12)
            assert a.sum() <= capacity + 1e-9

        for _ in range(10):
            n = int(rng.integers(1, 4))
            lower = rng.uniform(0, 2, n)
            capacity = float(lower.sum() + rng.uniform(0.5, 6.0))
            x = rng.uniform(-4, 12, n)
            p = project_capped_simplex(x, lower, capacity)
            samples = sample_capped_simplex(rng, n, lower, capacity, 10_000)
            best = float(np.min(np.sum((samples - x) ** 2, axis=1)))
            assert float(np.sum((p - x) ** 2)) <= best + 1e-9
        passed = True
    finally:
        record_criterion(5, desc, passed)


def test_criterion_6_zero_regret_on_full_grant():
    desc = ("granting exactly the requested iterations leaves every twin's "
            "cumulative regret at zero, and regret telescopes over any trace")
    passed = False
    try:
        for seed in (0, 1, 2):
            rng = np.random.default_rng(seed)
            twins = [DigitalTwin() for _ in range(5)]
            targets = [np.random.default_rng((seed, i)) for i in range(5)]
            regret = np.zeros(len(twins))
            for tick in range(50):
                reqs = rng.integers(1, 45, len(twins))
                for twin, req, target in zip(twins, reqs, targets):
                    twin.assign_task(int(req), target.uniform(0.0, 10.0))
                k_prime, _ = compute_requirement(reqs, 10.0)
                update_regret(regret, [step_control(twin, grant) for twin, grant
                                       in zip(twins, k_prime.tolist())])
                assert np.all(np.abs(regret) <= 1e-9)

        rng = np.random.default_rng(8)
        regret = np.zeros(1)
        total = 0.0
        for t in range(300):
            achieved = float(rng.uniform(0, 3))
            baseline = float(rng.uniform(0, 3))
            update_regret(regret, [achieved - baseline])
            total += achieved - baseline
            assert abs(regret[0] - total) <= 1e-12
        passed = True
    finally:
        record_criterion(6, desc, passed)


def test_criterion_7_reproducible_compare(tmp_path):
    desc = ("the compare command writes byte-identical CSV, SVG and summary "
            "files across reruns")
    passed = False
    try:
        scenario = tmp_path / "scenario.json"
        save_scenario(ScenarioConfig(), scenario)
        outs = []
        for name in ("a", "b", "c"):
            out = tmp_path / name
            code = main(["compare", "--scenario", str(scenario),
                         "--out", str(out)])
            assert code == 0
            outs.append(out)
        names = [f"metrics_{k.value}.csv" for k in PolicyKind]
        names += ["comparison.csv", "comparison.svg", "summary.txt"]
        for name in names:
            ref = (outs[0] / name).read_bytes()
            assert (outs[1] / name).read_bytes() == ref
            assert (outs[2] / name).read_bytes() == ref
        passed = True
    finally:
        record_criterion(7, desc, passed)


def test_criterion_8_stationary_prefix_agreement(ten_seed_runs):
    desc = ("static, event-triggered and online residual traces coincide "
            "through the stationary prefix on every seed")
    passed = False
    try:
        config, runs, _ = ten_seed_runs
        prefix = config.stationary_prefix
        assert prefix >= 10
        for seed in range(N_SEEDS):
            static = runs[seed][PolicyKind.STATIC]
            event = runs[seed][PolicyKind.EVENT_TRIGGERED]
            online = runs[seed][PolicyKind.ONLINE_DYNAMIC]
            s = static.residual_inf_series[:prefix]
            e = event.residual_inf_series[:prefix]
            o = online.residual_inf_series[:prefix]
            assert float(np.max(np.abs(s - e))) <= 1e-9
            assert float(np.max(np.abs(s - o))) <= 1e-9
        passed = True
    finally:
        record_criterion(8, desc, passed)
