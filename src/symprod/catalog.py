"""Boundary data and holomorphic maps: one function type, and the one
descriptor grammar, which the domain descriptors of ``geometry`` share.

The boundary-data catalog spans smooth and genuinely rough cases: monomials,
poles placed outside the closed domain or inside a hole, the non-holomorphic
trace conj(t), and a truncated lacunar cosine series

    W_alpha(theta) = sum_{k=0}^{K} 2^(-alpha*k) * cos(2^k * theta),

which has Holder exponent alpha down to scale 2^(-K) and feeds the exponent
experiments.  The maps that induce proper maps of symmetric products
(monomials, finite Blaschke products) are the same kind of object: the
integral route samples their boundary trace as it samples any data.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import ConfigError, SymprodError

DEFAULT_WEIERSTRASS_DEPTH = 12
# Past 2^52 the phase of cos(2^k * theta) is rounding noise of theta, and
# 2.0**k overflows beyond k = 1023.
MAX_WEIERSTRASS_DEPTH = 52


def weierstrass(theta, alpha: float, depth: int = DEFAULT_WEIERSTRASS_DEPTH):
    theta = np.asarray(theta, dtype=float)
    out = np.zeros_like(theta)
    for k in range(depth + 1):
        out += 2.0 ** (-alpha * k) * np.cos(2.0**k * theta)
    return out


@dataclass(frozen=True)
class CatalogFunction:
    """A named function, used as boundary data phi or as an inducing map.

    ``label`` is its canonical descriptor.  ``fun`` gives its values in the
    plane and ``derivatives(k)`` its k-th analytic derivative, where the
    function has them.  ``trace(t, theta)`` gives the boundary values of
    data that are not the trace of a function in the plane.
    """

    label: str
    fun: Callable | None = field(default=None, repr=False)
    derivatives: Callable[[int], Callable] | None = field(default=None, repr=False)
    trace: Callable | None = field(default=None, repr=False)

    def __call__(self, z):
        return self.fun(z)

    def derivative(self, order: int) -> Callable | None:
        if order == 0:
            return self.fun
        if self.derivatives is None:
            return None
        return self.derivatives(order)

    def boundary(self, t: np.ndarray, theta: np.ndarray) -> np.ndarray:
        """Values at the boundary nodes ``t`` of contour parameters ``theta``."""
        if self.trace is not None:
            return self.trace(t, theta)
        return self.fun(t)


def _complex(z) -> np.ndarray:
    return np.asarray(z, dtype=complex)


def monomial_phi(m: int) -> CatalogFunction:
    """z^m, with its derivatives."""
    if m < 0:
        raise ConfigError("monomial degree must be >= 0")
    m = int(m)

    def deriv(k):
        if k > m:
            return lambda z: np.zeros_like(_complex(z))
        c = math.factorial(m) / math.factorial(m - k)
        return lambda z: c * _complex(z) ** (m - k)

    return CatalogFunction(f"monomial {m}", lambda z: _complex(z) ** m, deriv)


def pole_phi(a: complex, power: int = 1) -> CatalogFunction:
    """(z - a)^(-power), with its derivatives."""
    if power < 1:
        raise ConfigError("pole order must be >= 1")
    a, power = complex(a), int(power)

    def deriv(k):
        # d^k/dz^k (z - a)^(-p) = (-1)^k * (p+k-1)!/(p-1)! * (z - a)^(-p-k)
        c = (-1.0) ** k * (math.factorial(power + k - 1) // math.factorial(power - 1))
        return lambda z: c * (_complex(z) - a) ** (-power - k)

    return CatalogFunction(f"pole {a.real:g} {a.imag:g} {power}",
                           lambda z: (_complex(z) - a) ** (-power), deriv)


def conj_phi() -> CatalogFunction:
    return CatalogFunction("conj", trace=lambda t, theta: np.conj(_complex(t)))


def weierstrass_phi(alpha: float, depth: int = DEFAULT_WEIERSTRASS_DEPTH) -> CatalogFunction:
    if not 0 < alpha <= 1:
        raise ConfigError("weierstrass exponent must lie in (0, 1]")
    if not 0 <= depth <= MAX_WEIERSTRASS_DEPTH:
        raise ConfigError(f"weierstrass depth {depth} outside 0..{MAX_WEIERSTRASS_DEPTH}")
    alpha, depth = float(alpha), int(depth)
    return CatalogFunction(f"weierstrass {alpha:g} {depth}",
                           trace=lambda t, theta: weierstrass(theta, alpha, depth).astype(complex))


def exp_function() -> CatalogFunction:
    return CatalogFunction("exp", np.exp, lambda k: np.exp)


def blaschke_function(zeros) -> CatalogFunction:
    """Finite Blaschke product prod (z - a_i) / (1 - a_i z) of real zeros a_i
    in the open unit disc."""
    zs = tuple(complex(float(a)) for a in zeros)
    if any(abs(a) >= 1 for a in zs):
        raise ConfigError("Blaschke zeros must lie strictly inside the unit disc")

    def fun(z):
        z = _complex(z)
        out = np.ones_like(z)
        for a in zs:
            out = out * (z - a) / (1.0 - np.conj(a) * z)
        return out

    return CatalogFunction(" ".join(["blaschke"] + [f"{a.real:g}" for a in zs]), fun)


def smooth_phi_suite() -> list[CatalogFunction]:
    """Smooth catalog entries used by the identity suites."""
    return [monomial_phi(m) for m in range(4)] + [pole_phi(3.0)]


# ---------------------------------------------------------------------------
# The descriptor grammar
# ---------------------------------------------------------------------------

def parse_descriptor(text: str, kinds: dict, what: str, error: type[SymprodError] = ConfigError):
    """Build what ``text``, a kind followed by its numbers, describes.

    ``kinds`` gives each kind's factory, the converters of its numbers (a bare
    converter takes any count) and how many it requires.  Every number must be
    finite.  A descriptor that does not parse, or whose factory raises
    ConfigError, is refused with ``error``; other refusals pass through."""
    tokens = text.split()
    if not tokens:
        raise error(f"empty {what} descriptor")
    kind, args = tokens[0], tokens[1:]
    if kind in kinds:
        factory, types, required = kinds[kind]
        if not isinstance(types, tuple):
            types = (types,) * len(args)
        if required <= len(args) <= len(types):
            try:
                return factory(*(_finite(convert(arg), arg) for convert, arg in zip(types, args)))
            except (ValueError, ConfigError) as exc:
                raise error(f"bad {what} descriptor {text!r}: {exc}") from exc
    raise error(f"bad {what} descriptor {text!r}")


def _finite(x, token: str):
    if not math.isfinite(x):
        raise ValueError(f"{token} is not a finite number")
    return x


def _proper_monomial(degree: int) -> CatalogFunction:
    if degree < 1:
        raise ConfigError("monomial degree must be >= 1")
    return monomial_phi(degree)


# Each role's kinds, in the form parse_descriptor reads.
_ROLES = {
    "phi": {
        "monomial": (monomial_phi, (int,), 1),
        "pole": (lambda x, y, power: pole_phi(complex(x, y), power), (float, float, int), 3),
        "conj": (conj_phi, (), 0),
        "weierstrass": (weierstrass_phi, (float, int), 1),
    },
    "proper-map": {
        "monomial": (_proper_monomial, (int,), 1),
        "blaschke": (lambda *zeros: blaschke_function(zeros), float, 1),
        "identity": (functools.partial(monomial_phi, 1), (), 0),
    },
}


def parse_function(text: str, role: str) -> CatalogFunction:
    """Parse a descriptor of ``role`` 'phi' ('monomial 3', 'pole 3 0 1',
    'weierstrass 0.5 12', 'conj') or 'proper-map' ('monomial 2',
    'blaschke 0.5 -0.3', 'identity')."""
    return parse_descriptor(text, _ROLES[role], role)
