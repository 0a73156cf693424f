"""Built-in example model files used by the golden tests and the CLI."""

from __future__ import annotations

import numpy as np

from .io import _json
from .semigroup import KrausChannel, LindbladModel, _kind
from .oqrw import RateMatrix


def _unit(i: int, j: int, n: int = 2) -> np.ndarray:
    m = np.zeros((n, n), dtype=complex)
    m[i, j] = 1.0
    return m


def faithful_2d() -> LindbladModel:
    """Unique faithful invariant state: the maximally mixed qubit state."""
    return LindbladModel.create(np.zeros((2, 2)), [_unit(0, 1), _unit(1, 0)])


def unfaithful_2d() -> LindbladModel:
    """Unique invariant state |e0><e0| with a one-dimensional transient part."""
    return LindbladModel.create(np.zeros((2, 2)), [_unit(0, 1)])


def two_enclosures_2d() -> LindbladModel:
    """Dephasing by a rank-one projector jump: two orthogonal enclosures."""
    return LindbladModel.create(np.zeros((2, 2)), [_unit(0, 0)])


def zero_generator_2d() -> LindbladModel:
    """Null generator: every state invariant, a continuum of enclosures."""
    return LindbladModel.create(np.zeros((2, 2)), [])


def rotation_channel(theta: float = np.pi / 4) -> KrausChannel:
    """Unitary rotation channel: unique decomposition, no word separates it."""
    u = np.array(
        [[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]], dtype=complex
    )
    return KrausChannel.create([u])


def two_state_chain() -> RateMatrix:
    """Irreducible two-state chain with invariant measure (2/3, 1/3)."""
    return RateMatrix.create([[-1.0, 1.0], [2.0, -2.0]])


def _model_doc(obj: LindbladModel | KrausChannel) -> dict:
    return {"mode": _kind(obj, "write"), **_json(obj)}


def _rates_doc(rate: RateMatrix) -> dict:
    return {"mode": "rates", "dim": rate.n, "rates": rate.q.tolist()}


FIXTURES = {
    "faithful-2d": lambda: _model_doc(faithful_2d()),
    "unfaithful-2d": lambda: _model_doc(unfaithful_2d()),
    "two-enclosures-2d": lambda: _model_doc(two_enclosures_2d()),
    "zero-generator-2d": lambda: _model_doc(zero_generator_2d()),
    "rotation-channel": lambda: _model_doc(rotation_channel()),
    "two-state-chain": lambda: _rates_doc(two_state_chain()),
}


def fixture_document(name: str) -> dict:
    if name not in FIXTURES:
        known = ", ".join(sorted(FIXTURES))
        raise KeyError(f"unknown fixture {name!r}; available: {known}")
    return FIXTURES[name]()
