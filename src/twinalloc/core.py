"""Shared domain types for network resource allocation.

Requirements and allocations are plain float ndarrays indexed by resource id.
Requirements are integer-valued counts of solver iterations requested by each
digital twin; allocations are real and may be fractional (twins floor them at
grant time).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, fields

import numpy as np

# Per-resource bound on how far a grant may fall short of the request before
# the shortfall is treated as a soft-constraint violation.
DEFAULT_MAX_DEVIATION = 10.0
# Quadratic penalty weight on soft-constraint slack.
DEFAULT_SLACK_PENALTY = 1e3
# Largest n_resources * n_ticks a scenario may ask for. A compare run keeps
# twelve (n_ticks, n_resources) arrays of 8-byte cells: the requirement and
# target walks, the reports and their floors, and per policy its regret and
# allocation series; this cap holds them in 4 GiB. It is below 2**32, the
# walk's substream index limit on n_resources.
MAX_RUN_CELLS = 2 ** 32 // (12 * 8)


class DimensionMismatch(ValueError):
    """Vector lengths disagree with the declared resource count."""


class InfeasibleSetError(ValueError):
    """A constraint set admits no feasible point."""


class ScenarioValidationError(ValueError):
    """A scenario config violates one or more invariants."""

    def __init__(self, diagnostics):
        self.diagnostics = list(diagnostics)
        super().__init__("; ".join(self.diagnostics))


@dataclass(frozen=True)
class AllocationConstraints:
    """The allocation constants of one run, checked when built.

    capacity_b (the per-tick budget) and nonnegativity are hard. Each
    tick's minimum acceptable grants and the largest tolerated shortfall
    below the request, max_deviation, are soft, enforced through a
    quadratic slack penalty weighted by slack_penalty_rho.
    """

    capacity_b: float
    max_deviation: float = DEFAULT_MAX_DEVIATION
    slack_penalty_rho: float = DEFAULT_SLACK_PENALTY

    def __post_init__(self):
        if not self.capacity_b > 0:
            raise ValueError("capacity_b must be positive")
        if not self.max_deviation >= 0:
            raise ValueError("max_deviation must be nonnegative")
        if not self.slack_penalty_rho >= 0:
            raise ValueError("slack_penalty_rho must be nonnegative")


def compute_residual(r, a):
    """Signed per-resource allocation residual and its infinity norm.

    Returns (r - a, max |r_i - a_i|): a float for vectors, one norm per row
    for (T, n) arrays. Signed entries keep over-allocation observable; the
    inf norm is the headline per-tick metric.
    """
    r = np.asarray(r, dtype=float)
    a = np.asarray(a, dtype=float)
    if r.shape != a.shape:
        raise DimensionMismatch(
            f"requirement length {r.shape} != allocation length {a.shape}")
    per_resource = r - a
    norm = np.max(np.abs(per_resource), axis=-1)
    return per_resource, float(norm) if norm.ndim == 0 else norm


def _as_float(value):
    """value as a finite Python float, or None: a bool, a non-number, NaN,
    an infinity and an int beyond float range have no such form."""
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        try:
            value = float(value)
        except OverflowError:
            return None
        if math.isfinite(value):
            return value
    return None


def _as_int(value):
    """value as a Python int, or None; an integral finite float counts."""
    if isinstance(value, numbers.Integral):
        return None if isinstance(value, bool) else int(value)
    value = _as_float(value)
    return int(value) if value is not None and value.is_integer() else None


def _as_pair(value):
    """value as a tuple of two Python ints, or None."""
    if isinstance(value, (tuple, list)) and len(value) == 2:
        pair = tuple(map(_as_int, value))
        if None not in pair:
            return pair
    return None


# each ScenarioConfig annotation: its canonical form and the rule it names
_FIELD_KINDS = {
    "int": (_as_int, "must be an integer"),
    "tuple[int, int]": (_as_pair, "must be a pair of integers"),
    "float": (_as_float, "must be a finite number"),
    "float | None": (_as_float, "must be a finite number when given"),
}


@dataclass(frozen=True)
class ScenarioConfig:
    """Simulation scenario parameters, checked and made canonical when built.

    Each field is stored in the canonical form its annotation names: a
    Python int (an integral finite float counts, a bool never does), a
    finite Python float, or a tuple of two ints; None stays None where the
    annotation allows it. A config that breaks a rule raises one
    ScenarioValidationError naming every broken type rule or, once the
    types hold, every broken value rule.

    capacity_b None means "sum of the realized initial requirements";
    epsilon_per_step None means each twin gets a regret budget of 0.1 x its
    initial certificate tolerance per elapsed tick.
    """

    n_resources: int = 20
    n_ticks: int = 100
    stationary_prefix: int = 10
    capacity_b: float | None = None
    requirement_step_bound: int = 1
    requirement_range: tuple[int, int] = (1, 45)
    initial_requirement_range: tuple[int, int] = (2, 38)
    gap: float = 10.0
    epsilon_per_step: float | None = None
    rho: float = DEFAULT_SLACK_PENALTY
    master_seed: int = 0

    def __post_init__(self):
        diags = []
        for field in fields(self):
            value = getattr(self, field.name)
            if value is None and field.type.endswith("| None"):
                continue
            as_kind, rule = _FIELD_KINDS[field.type]
            canonical = as_kind(value)
            if canonical is None:
                diags.append(f"{field.name} {rule}")
            else:
                object.__setattr__(self, field.name, canonical)
        if diags:
            raise ScenarioValidationError(diags)

        if self.n_resources < 1:
            diags.append("n_resources must be >= 1")
        if self.n_ticks < 1:
            diags.append("n_ticks must be >= 1")
        elif self.n_resources * self.n_ticks > MAX_RUN_CELLS:
            diags.append(f"n_resources * n_ticks must be <= {MAX_RUN_CELLS}, "
                         "the cells a run's arrays hold in 4 GiB")
        if self.stationary_prefix < 0:
            diags.append("stationary_prefix must be >= 0")
        if self.stationary_prefix > self.n_ticks:
            diags.append("stationary_prefix must be <= n_ticks")
        if self.capacity_b is not None and not 0 < self.capacity_b <= 1e300:
            # a larger equal split can sum its residuals past the float range
            diags.append("capacity_b must lie in (0, 1e300] when given")
        if self.requirement_step_bound < 0:
            diags.append("requirement_step_bound must be >= 0")
        r_lo, r_hi = self.requirement_range
        i_lo, i_hi = self.initial_requirement_range
        if r_lo > r_hi:
            diags.append("requirement_range must satisfy min <= max")
        if i_lo > i_hi:
            diags.append("initial_requirement_range must satisfy min <= max")
        if r_lo < 1:
            diags.append("requirement_range minimum must be >= 1")
        if r_hi + self.requirement_step_bound >= 2 ** 63:
            diags.append("requirement_range maximum + requirement_step_bound "
                         "must be < 2**63 (the walk's int64 limit)")
        if i_lo < r_lo or i_hi > r_hi:
            diags.append(
                "initial_requirement_range must lie inside requirement_range")
        if self.gap < 0:
            diags.append("gap must be >= 0")
        eps = self.epsilon_per_step
        if eps is not None and not 0 < eps <= 1e300:
            # the trigger's regret bound eps * (T + 1) must stay finite
            diags.append("epsilon_per_step must lie in (0, 1e300] when given")
        if self.rho < 0:
            diags.append("rho must be >= 0")
        elif abs(r_hi) < 2 ** 63 and not math.isfinite(
                (1.0 + 2.0 * self.rho) * (r_hi + DEFAULT_MAX_DEVIATION)):
            # the allocation solve's largest intermediate would overflow
            diags.append("rho must keep (1 + 2 rho) * (requirement_range "
                         "maximum + max deviation) finite")
        if not 0 <= self.master_seed < 2 ** 64:
            diags.append("master_seed must fit in an unsigned 64-bit int")
        if diags:
            raise ScenarioValidationError(diags)
