"""Finite probability space, random variables, and the aggregate risk.

A random variable is a plain 1-d float array with one entry per state.
States carrying zero probability are rejected at load time, so "almost
surely" and "everywhere" coincide for everything built on top.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import StructuralError, ValidationError

# How far a probability vector's sum may be from 1, and how close a prior must
# come to the reference probability to count as it.
PROB_TOL = 1e-12


def _as_float_array(values, name: str) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1:
        raise StructuralError(f"{name} must be one-dimensional, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValidationError(f"{name} contains non-finite entries")
    return arr


@dataclass(frozen=True)
class StateSpace:
    """Ordered finite state space with a full-support reference probability."""

    states: tuple[str, ...]
    probs: np.ndarray = field(repr=False)

    def __init__(self, states: Sequence[str], probs) -> None:
        states = tuple(str(s) for s in states)
        probs = np.asarray(probs, dtype=float)
        errors = []
        if len(states) == 0:
            errors.append("state space is empty")
        if len(set(states)) != len(states):
            errors.append("state identifiers are not unique")
        if probs.ndim != 1 or len(probs) != len(states):
            errors.append(
                f"expected {len(states)} probabilities, got shape {probs.shape}"
            )
        else:
            if not np.all(np.isfinite(probs)):
                errors.append("probabilities contain non-finite entries")
            else:
                if np.any(probs <= 0.0):
                    errors.append("probs must be strictly positive "
                                  "(drop zero-probability states)")
                total = float(probs.sum())
                if abs(total - 1.0) > PROB_TOL:
                    errors.append(f"probs sum to {total!r}, not 1")
        if errors:
            raise ValidationError(errors)
        probs = probs.copy()
        probs.setflags(write=False)
        object.__setattr__(self, "states", states)
        object.__setattr__(self, "probs", probs)

    @property
    def n_states(self) -> int:
        return len(self.states)

    def check_variable(self, values, name: str = "random variable") -> np.ndarray:
        """Validate a per-state value vector against this space."""
        arr = _as_float_array(values, name)
        if len(arr) != self.n_states:
            raise StructuralError(
                f"{name} has {len(arr)} entries for {self.n_states} states"
            )
        return arr


@dataclass(frozen=True)
class EndowmentProfile:
    """Per-agent initial risk positions on a common state space."""

    space: StateSpace
    endowments: np.ndarray = field(repr=False)

    def __init__(self, space: StateSpace, endowments) -> None:
        arr = np.asarray(endowments, dtype=float)
        if arr.ndim != 2:
            raise StructuralError(
                f"endowments must be an (agents x states) matrix, got shape {arr.shape}"
            )
        if arr.shape[0] < 2:
            raise ValidationError("at least two agents are required")
        if arr.shape[1] != space.n_states:
            raise StructuralError(
                f"endowment rows have {arr.shape[1]} states, space has {space.n_states}"
            )
        if not np.all(np.isfinite(arr)):
            raise ValidationError("endowments contain non-finite entries")
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "endowments", arr)

    @property
    def n_agents(self) -> int:
        return self.endowments.shape[0]


def aggregate_risk(profile: EndowmentProfile) -> np.ndarray:
    """Total risk: the coordinatewise sum of all agents' endowments."""
    return profile.endowments.sum(axis=0)
