"""Boundary data and holomorphic test functions used across the library.

The boundary-data catalog spans smooth and genuinely rough cases: monomials,
poles placed outside the closed domain or inside a hole, the non-holomorphic
trace conj(t), and a truncated lacunar cosine series

    W_alpha(theta) = sum_{k=0}^{K} 2^(-alpha*k) * cos(2^k * theta),

which has Holder exponent alpha down to scale 2^(-K) and feeds the exponent
experiments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import ConfigError

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
class PhiSpec:
    """Descriptor of boundary data phi, evaluated from node and parameter."""

    kind: str
    params: tuple = ()

    def evaluate(self, t: np.ndarray, theta: np.ndarray) -> np.ndarray:
        if self.kind == "monomial":
            return np.asarray(t, dtype=complex) ** self.params[0]
        if self.kind == "pole":
            a, power = self.params
            return (np.asarray(t, dtype=complex) - a) ** (-power)
        if self.kind == "conj":
            return np.conj(np.asarray(t, dtype=complex))
        if self.kind == "weierstrass":
            alpha, depth = self.params
            return weierstrass(theta, alpha, depth).astype(complex)
        raise ConfigError(f"unknown phi kind {self.kind!r}")

    def holomorphic_extension(self) -> Callable | None:
        """Interior extension when phi is the trace of a holomorphic function."""
        if self.kind == "monomial":
            m = self.params[0]
            return lambda z: np.asarray(z, dtype=complex) ** m
        if self.kind == "pole":
            a, power = self.params
            return lambda z: (np.asarray(z, dtype=complex) - a) ** (-power)
        return None

    def describe(self) -> str:
        if self.kind == "monomial":
            return f"monomial {self.params[0]}"
        if self.kind == "pole":
            a, power = self.params
            return f"pole {a.real:g} {a.imag:g} {power}"
        if self.kind == "weierstrass":
            return f"weierstrass {self.params[0]:g} {self.params[1]}"
        return self.kind


def monomial_phi(m: int) -> PhiSpec:
    if m < 0:
        raise ConfigError("monomial degree must be >= 0")
    return PhiSpec("monomial", (int(m),))


def pole_phi(a: complex, power: int = 1) -> PhiSpec:
    if power < 1:
        raise ConfigError("pole order must be >= 1")
    return PhiSpec("pole", (complex(a), int(power)))


def conj_phi() -> PhiSpec:
    return PhiSpec("conj")


def weierstrass_phi(alpha: float, depth: int = DEFAULT_WEIERSTRASS_DEPTH) -> PhiSpec:
    if not 0 < alpha <= 1:
        raise ConfigError("weierstrass exponent must lie in (0, 1]")
    if not 0 <= depth <= MAX_WEIERSTRASS_DEPTH:
        raise ConfigError(f"weierstrass depth {depth} outside 0..{MAX_WEIERSTRASS_DEPTH}")
    return PhiSpec("weierstrass", (float(alpha), int(depth)))


def parse_phi(text: str) -> PhiSpec:
    """Parse descriptors like 'monomial 3', 'pole 3 0 1', 'weierstrass 0.5 12', 'conj'."""
    tokens = text.split()
    if not tokens:
        raise ConfigError("empty phi descriptor")
    kind, args = tokens[0], tokens[1:]
    try:
        if kind == "monomial" and len(args) == 1:
            return monomial_phi(int(args[0]))
        if kind == "pole" and len(args) == 3:
            return pole_phi(complex(float(args[0]), float(args[1])), int(args[2]))
        if kind == "conj" and not args:
            return conj_phi()
        if kind == "weierstrass" and len(args) in (1, 2):
            depth = int(args[1]) if len(args) == 2 else DEFAULT_WEIERSTRASS_DEPTH
            return weierstrass_phi(float(args[0]), depth)
    except (ValueError, ConfigError) as exc:
        raise ConfigError(f"bad phi descriptor {text!r}: {exc}") from exc
    raise ConfigError(f"bad phi descriptor {text!r}")


def smooth_phi_suite() -> list[PhiSpec]:
    """Smooth catalog entries used by the identity suites."""
    return [monomial_phi(m) for m in range(4)] + [pole_phi(3.0)]


# ---------------------------------------------------------------------------
# Holomorphic function handles with derivative access
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AnalyticFunction:
    """A vectorized holomorphic function with optional analytic derivatives."""

    label: str
    fun: Callable
    deriv_factory: Callable[[int], Callable] | None = field(default=None, repr=False)

    def __call__(self, z):
        return self.fun(z)

    def derivative(self, order: int) -> Callable | None:
        if order == 0:
            return self.fun
        if self.deriv_factory is None:
            return None
        return self.deriv_factory(order)


def exp_function() -> AnalyticFunction:
    return AnalyticFunction("exp", np.exp, lambda k: np.exp)


def monomial_function(m: int) -> AnalyticFunction:
    def deriv(k):
        if k > m:
            return lambda z: np.zeros_like(np.asarray(z, dtype=complex))
        c = math.factorial(m) / math.factorial(m - k)
        return lambda z: c * np.asarray(z, dtype=complex) ** (m - k)

    return AnalyticFunction(f"z^{m}", lambda z: np.asarray(z, dtype=complex) ** m, deriv)


def pole_function(a: complex) -> AnalyticFunction:
    """The simple pole 1/(z - a)."""
    a = complex(a)

    def deriv(k):
        # d^k/dz^k (z - a)^(-1) = (-1)^k * k! * (z - a)^(-1-k)
        c = (-1.0) ** k * math.factorial(k)
        return lambda z: c * (np.asarray(z, dtype=complex) - a) ** (-1 - k)

    return AnalyticFunction(f"1/(z-{a:g})", lambda z: (np.asarray(z, dtype=complex) - a) ** (-1), deriv)


def identity_function() -> AnalyticFunction:
    return monomial_function(1)


def blaschke_function(zeros) -> AnalyticFunction:
    """Finite Blaschke product prod (z - a_i) / (1 - conj(a_i) z) on the disc."""
    zs = tuple(complex(a) for a in zeros)
    if any(abs(a) >= 1 for a in zs):
        raise ConfigError("Blaschke zeros must lie strictly inside the unit disc")

    def fun(z):
        z = np.asarray(z, dtype=complex)
        out = np.ones_like(z)
        for a in zs:
            out = out * (z - a) / (1.0 - np.conj(a) * z)
        return out

    label = "blaschke(" + ", ".join(f"{a:g}" for a in zs) + ")"
    return AnalyticFunction(label, fun)
