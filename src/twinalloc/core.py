"""Shared domain types for network resource allocation.

Requirements and allocations are plain float ndarrays indexed by resource id.
Requirements are integer-valued counts of solver iterations requested by each
digital twin; allocations are real and may be fractional (twins floor them at
grant time).
"""

from __future__ import annotations

import math
import numbers
import warnings
from dataclasses import dataclass

import numpy as np

# Per-resource bound on how far a grant may fall short of the request before
# the shortfall is treated as a soft-constraint violation.
DEFAULT_MAX_DEVIATION = 10.0
# Quadratic penalty weight on soft-constraint slack.
DEFAULT_SLACK_PENALTY = 1e3


class DimensionMismatch(ValueError):
    """Vector lengths disagree with the declared resource count."""


class InfeasibleSetError(ValueError):
    """A constraint set admits no feasible point."""


class ScenarioValidationError(ValueError):
    """A scenario config violates one or more invariants."""

    def __init__(self, diagnostics):
        self.diagnostics = list(diagnostics)
        super().__init__("; ".join(self.diagnostics))


def _as_readonly(values, name: str) -> np.ndarray:
    arr = np.array(values, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError(f"{name} must be a non-empty 1-d vector")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must be finite")
    arr.flags.writeable = False
    return arr


def requirement_vector(values) -> np.ndarray:
    """Validate a per-resource requirement vector (entries >= 0)."""
    arr = _as_readonly(values, "requirement vector")
    if np.any(arr < 0):
        raise ValueError("requirements must be nonnegative")
    return arr


def allocation_vector(values) -> np.ndarray:
    """Validate a per-resource allocation vector (entries >= 0)."""
    arr = _as_readonly(values, "allocation vector")
    if np.any(arr < 0):
        raise ValueError("allocations must be nonnegative")
    return arr


@dataclass(frozen=True)
class AllocationConstraints:
    """Constraint data the manager receives each tick.

    capacity_b and nonnegativity are hard; lower_bounds (minimum acceptable
    grants) and max_deviation (largest tolerated shortfall versus requested)
    are soft, enforced through a quadratic slack penalty weighted by
    slack_penalty_rho.
    """

    capacity_b: float
    lower_bounds: np.ndarray      # minimum acceptable grant per resource
    requested: np.ndarray         # iterations requested per resource
    max_deviation: np.ndarray | float = DEFAULT_MAX_DEVIATION
    slack_penalty_rho: float = DEFAULT_SLACK_PENALTY

    def __post_init__(self):
        lower = requirement_vector(self.lower_bounds)
        requested = requirement_vector(self.requested)
        if lower.shape != requested.shape:
            raise DimensionMismatch("lower_bounds and requested lengths differ")
        if np.any(lower > requested):
            raise ValueError("lower bounds must not exceed requested values")
        dev = np.broadcast_to(np.asarray(self.max_deviation, dtype=float),
                              requested.shape).copy()
        if np.any(dev < 0):
            raise ValueError("max_deviation must be nonnegative")
        dev.flags.writeable = False
        if not self.capacity_b > 0:
            raise ValueError("capacity_b must be positive")
        if self.slack_penalty_rho < 0:
            raise ValueError("slack_penalty_rho must be nonnegative")
        object.__setattr__(self, "lower_bounds", lower)
        object.__setattr__(self, "requested", requested)
        object.__setattr__(self, "max_deviation", dev)

    @property
    def n(self) -> int:
        return self.requested.size


@dataclass(frozen=True)
class NetworkState:
    """Current effective allocation state of the network."""

    xi: np.ndarray

    def __post_init__(self):
        xi = np.atleast_1d(np.asarray(self.xi, dtype=float))
        if not np.all(np.isfinite(xi)):
            raise ValueError("network state must be finite")
        xi.flags.writeable = False
        object.__setattr__(self, "xi", xi)

    @property
    def n(self) -> int:
        return self.xi.size

    @classmethod
    def zeros(cls, n: int) -> "NetworkState":
        return cls(np.zeros(n))


def compute_residual(r, a):
    """Signed per-resource allocation residual and its infinity norm.

    Returns (r - a, max |r_i - a_i|). Signed entries keep over-allocation
    observable; the inf norm is the headline per-tick metric.
    """
    r = np.asarray(r, dtype=float)
    a = np.asarray(a, dtype=float)
    if r.shape != a.shape:
        raise DimensionMismatch(
            f"requirement length {r.shape} != allocation length {a.shape}")
    per_resource = r - a
    return per_resource, float(np.max(np.abs(per_resource)))


@dataclass(frozen=True)
class ScenarioConfig:
    """Simulation scenario parameters.

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


_RANGE_FIELDS = ("requirement_range", "initial_requirement_range")
_INT_FIELDS = ("n_resources", "n_ticks", "stationary_prefix",
               "requirement_step_bound", "master_seed")
_OPTIONAL_FLOAT_FIELDS = ("capacity_b", "epsilon_per_step")
_FLOAT_FIELDS = ("gap", "rho")


def _is_integer(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _is_finite(value) -> bool:
    # integers first: math.isfinite overflows on ints beyond float range
    return _is_integer(value) or (isinstance(value, numbers.Real)
                                  and math.isfinite(value))


def validate_scenario(config: ScenarioConfig,
                      requirements: np.ndarray | None = None) -> ScenarioConfig:
    """Check every ScenarioConfig invariant; raise with named diagnostics.

    With a realized initial requirement vector, additionally warns when the
    implied soft lower bounds cannot all fit inside the capacity.
    """
    diags = [f"{key} must be an integer" for key in _INT_FIELDS
             if not _is_integer(getattr(config, key))]
    diags += [f"{key} must be a pair of integers" for key in _RANGE_FIELDS
              if not (len(getattr(config, key)) == 2
                      and all(map(_is_integer, getattr(config, key))))]
    diags += [f"{key} must be a finite number" for key in _FLOAT_FIELDS
              if not _is_finite(getattr(config, key))]
    diags += [f"{key} must be a finite number when given"
              for key in _OPTIONAL_FLOAT_FIELDS
              if getattr(config, key) is not None
              and not _is_finite(getattr(config, key))]
    if diags:
        raise ScenarioValidationError(diags)

    if config.n_resources < 1:
        diags.append("n_resources must be >= 1")
    if config.n_ticks < 1:
        diags.append("n_ticks must be >= 1")
    if config.stationary_prefix < 0:
        diags.append("stationary_prefix must be >= 0")
    if config.stationary_prefix > config.n_ticks:
        diags.append("stationary_prefix must be <= n_ticks")
    if config.capacity_b is not None and not config.capacity_b > 0:
        diags.append("capacity_b must be positive when given")
    if config.requirement_step_bound < 0:
        diags.append("requirement_step_bound must be >= 0")
    r_lo, r_hi = config.requirement_range
    i_lo, i_hi = config.initial_requirement_range
    if r_lo > r_hi:
        diags.append("requirement_range must satisfy min <= max")
    if i_lo > i_hi:
        diags.append("initial_requirement_range must satisfy min <= max")
    if r_lo < 1:
        diags.append("requirement_range minimum must be >= 1")
    if i_lo < r_lo or i_hi > r_hi:
        diags.append("initial_requirement_range must lie inside requirement_range")
    if config.gap < 0:
        diags.append("gap must be >= 0")
    if config.epsilon_per_step is not None and not config.epsilon_per_step > 0:
        diags.append("epsilon_per_step must be positive when given")
    if config.rho < 0:
        diags.append("rho must be >= 0")
    if not 0 <= config.master_seed < 2 ** 64:
        diags.append("master_seed must fit in an unsigned 64-bit int")
    if diags:
        raise ScenarioValidationError(diags)

    if requirements is not None and config.capacity_b is not None:
        lower = np.maximum(np.asarray(requirements, dtype=float) - config.gap, 1.0)
        if lower.sum() > config.capacity_b:
            warnings.warn(
                "sum of soft lower bounds exceeds capacity_b; "
                "allocations will violate some minimum-grant bounds",
                RuntimeWarning, stacklevel=2)
    return config
