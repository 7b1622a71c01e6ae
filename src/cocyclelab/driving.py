"""Invertible driving systems over the environment space.

Two surrogate families: finite permutation/rotation systems (points are
indices, the invariant measure is a sigma-invariant probability vector) and
the two-sided Bernoulli shift (points are bi-infinite symbol sequences,
resolved lazily and deterministically from a per-point seed).

Bernoulli symbols are addressed by a counter-based generator, so the symbol
at any coordinate is a pure function of (point seed, coordinate): extending
a window or revisiting a coordinate can never change an already-resolved
symbol, and shifting is re-indexing.
"""

from __future__ import annotations

import dataclasses

import numpy as np

FINITE_KINDS = ("finite_permutation", "finite_rotation")
BERNOULLI = "bernoulli_shift"


class DrivingError(ValueError):
    """Malformed driving system or misuse of its points."""


def _zigzag(k: int) -> int:
    return 2 * k if k >= 0 else -2 * k - 1


class _SymbolStream:
    """Lazily resolved two-sided symbol sequence for one Bernoulli point."""

    __slots__ = ("seed", "cum", "cache")

    def __init__(self, seed: int, cum: np.ndarray):
        self.seed = int(seed)
        self.cum = cum
        self.cache: dict[int, int] = {}

    def symbol(self, k: int) -> int:
        s = self.cache.get(k)
        if s is None:
            bg = np.random.Philox(key=self.seed)
            bg.advance(_zigzag(k))
            u = np.random.Generator(bg).random()
            s = int(np.searchsorted(self.cum, u, side="right"))
            self.cache[k] = s
        return s


@dataclasses.dataclass(frozen=True, eq=False)
class DrivingSystem:
    """Invertible measure-preserving driving over the environment.

    Parameters
    ----------
    kind : str
        "finite_permutation", "finite_rotation", or "bernoulli_shift".
    sigma : ndarray or None
        Permutation table for finite kinds (sigma[i] is the successor of i).
    probs : ndarray
        Invariant probabilities on points (finite kinds) or i.i.d. symbol
        probabilities (bernoulli).
    window : int
        Half-width of the symbol window resolved eagerly on sampling
        (bernoulli only).
    """

    kind: str
    probs: np.ndarray
    sigma: np.ndarray | None = None
    window: int = 2

    def __post_init__(self):
        p = np.array(self.probs, dtype=float)
        if (p.ndim != 1 or p.size == 0 or not np.all(np.isfinite(p))
                or np.any(p < 0) or abs(p.sum() - 1.0) > 1e-12):
            raise DrivingError("probs must be a probability vector summing to 1")
        p.setflags(write=False)
        object.__setattr__(self, "probs", p)
        if self.kind in FINITE_KINDS:
            s = np.array(self.sigma, dtype=int)
            if sorted(s.tolist()) != list(range(p.size)):
                raise DrivingError("sigma must be a permutation of the point indices")
            if not np.allclose(p, p[s], atol=1e-12):
                raise DrivingError(
                    "invariant violation: probs must be constant on sigma orbits")
            s.setflags(write=False)
            object.__setattr__(self, "sigma", s)
            inv = np.empty_like(s)
            inv[s] = np.arange(s.size)
            inv.setflags(write=False)
            object.__setattr__(self, "_inverse", inv)
        elif self.kind == BERNOULLI:
            if self.sigma is not None:
                raise DrivingError("bernoulli driving takes no permutation table")
            if self.window < 0:
                raise DrivingError("window must be nonnegative")
            cum = np.cumsum(p)
            cum.setflags(write=False)
            object.__setattr__(self, "_cum", cum)
        else:
            raise DrivingError(f"unknown driving kind {self.kind!r}")

    @property
    def n_points(self) -> int:
        if self.kind not in FINITE_KINDS:
            raise DrivingError("n_points is defined for finite driving only")
        return self.probs.size

    @property
    def n_symbols(self) -> int:
        if self.kind != BERNOULLI:
            raise DrivingError("n_symbols is defined for bernoulli driving only")
        return self.probs.size


def finite_permutation(sigma, probs=None) -> DrivingSystem:
    sigma = np.asarray(sigma, dtype=int)
    if probs is None:
        probs = np.full(sigma.size, 1.0 / sigma.size)
    return DrivingSystem(kind="finite_permutation", probs=probs, sigma=sigma)


def finite_rotation(q: int, probs=None) -> DrivingSystem:
    sigma = (np.arange(q) + 1) % q
    if probs is None:
        probs = np.full(q, 1.0 / q)
    return DrivingSystem(kind="finite_rotation", probs=probs, sigma=sigma)


def bernoulli_shift(probs, window: int = 2) -> DrivingSystem:
    return DrivingSystem(kind=BERNOULLI, probs=np.asarray(probs, dtype=float),
                         window=window)


@dataclasses.dataclass(frozen=True, eq=False)
class EnvPoint:
    """One environment point: a finite index, or a Bernoulli symbol stream
    with an origin offset (shifting moves the origin)."""

    system: DrivingSystem
    index: int | None = None
    stream: _SymbolStream | None = None
    origin: int = 0

    def symbol(self, k: int) -> int:
        """Symbol at coordinate k relative to the current origin (bernoulli)."""
        if self.stream is None:
            raise DrivingError("symbols are defined for bernoulli points only")
        return self.stream.symbol(self.origin + k)

    def window_symbols(self, lo: int, hi: int) -> list[int]:
        return [self.symbol(k) for k in range(lo, hi + 1)]

    def __eq__(self, other):
        if not isinstance(other, EnvPoint):
            return NotImplemented
        if self.system.kind != other.system.kind:
            return False
        if self.index is not None:
            return self.index == other.index
        return (self.stream.seed == other.stream.seed
                and self.origin == other.origin)

    def __hash__(self):
        if self.index is not None:
            return hash((self.system.kind, self.index))
        return hash((self.system.kind, self.stream.seed, self.origin))


def point(d: DrivingSystem, index: int) -> EnvPoint:
    """The finite-driving point with the given index."""
    if d.kind not in FINITE_KINDS:
        raise DrivingError("point(index) is defined for finite driving only")
    if not 0 <= index < d.n_points:
        raise DrivingError(f"point index {index} out of range")
    return EnvPoint(system=d, index=int(index))


def points(d: DrivingSystem) -> list[EnvPoint]:
    """All points of a finite driving system, in index order."""
    return [point(d, i) for i in range(d.n_points)]


def advance(d: DrivingSystem, omega: EnvPoint, n: int) -> EnvPoint:
    """sigma^n of a point; n may be negative (driving is invertible)."""
    if omega.system is not d and omega.system.kind != d.kind:
        raise DrivingError("point does not belong to this driving system")
    if d.kind in FINITE_KINDS:
        idx = omega.index
        table = d.sigma if n >= 0 else d._inverse
        for _ in range(abs(n)):
            idx = int(table[idx])
        return EnvPoint(system=d, index=idx)
    new = EnvPoint(system=d, stream=omega.stream, origin=omega.origin + n)
    for k in range(-d.window, d.window + 1):
        new.symbol(k)  # eager window; resolution is order-independent
    return new


def feature(d: DrivingSystem, omega: EnvPoint) -> int:
    """Coordinate the operator/observable tables key on: the point index for
    finite driving, the symbol at coordinate 0 for bernoulli."""
    if d.kind in FINITE_KINDS:
        return omega.index
    return omega.symbol(0)


def sample_env(d: DrivingSystem, count: int, seed: int) -> list[EnvPoint]:
    """i.i.d. sample of environment points from the invariant measure.

    Deterministic given the seed; bernoulli points get independent derived
    stream seeds and an eagerly resolved window [-window, window].
    """
    if d.kind in FINITE_KINDS:
        rng = np.random.default_rng(seed)
        idx = rng.choice(d.n_points, size=count, p=d.probs)
        return [EnvPoint(system=d, index=int(i)) for i in idx]
    children = np.random.SeedSequence(seed).spawn(count)
    out = []
    for child in children:
        stream_seed = int(child.generate_state(1, np.uint64)[0])
        pt = EnvPoint(system=d, stream=_SymbolStream(stream_seed, d._cum))
        for k in range(-d.window, d.window + 1):
            pt.symbol(k)
        out.append(pt)
    return out


def point_probability(d: DrivingSystem, omega: EnvPoint) -> float:
    if d.kind not in FINITE_KINDS:
        raise DrivingError("point_probability is defined for finite driving only")
    return float(d.probs[omega.index])


def cylinder_probability(d: DrivingSystem, constraints: dict[int, int]) -> float:
    """Exact measure of a cylinder {omega : omega_k = s for (k, s) given}."""
    if d.kind != BERNOULLI:
        raise DrivingError("cylinders are defined for bernoulli driving only")
    out = 1.0
    for k, s in constraints.items():
        if not 0 <= s < d.n_symbols:
            raise DrivingError(f"symbol {s} out of range at coordinate {k}")
        out *= float(d.probs[s])
    return out


def shifted_constraints(constraints: dict[int, int], n: int) -> dict[int, int]:
    """Constraints describing sigma^{-n} of a cylinder: coordinate k of
    sigma^n(omega) is coordinate k + n of omega."""
    return {k + n: s for k, s in constraints.items()}


def intersect_constraints(a: dict[int, int], b: dict[int, int]) -> dict[int, int] | None:
    """Merge two cylinder constraint sets; None when they are incompatible."""
    out = dict(a)
    for k, s in b.items():
        if out.get(k, s) != s:
            return None
        out[k] = s
    return out
