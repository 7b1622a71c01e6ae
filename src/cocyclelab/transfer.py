"""Transfer-operator builders for interval and planar maps.

``pf_exact`` constructs the exact mass-transport kernel for maps whose cell
partition is dyadically aligned (doubling, cyclic bit-shift baker).
``pf_ulam`` estimates the kernel for any pointwise map by seeded Monte-Carlo:
uniform draws inside each cell (stratified by cell, one independent derived
seed per row: the stream of ``default_rng(child)`` for the row's spawned
child, its PCG64 state set from ``seeding.spawned_words`` on one reused
generator that draws into one block buffer), counting which target cell the
mapped point lands in, found by floor-and-check (``_locate``).  Both build
index arrays through ``measure.stored_entries``: CSR when N >= 512 and
nnz <= N^2 / 32, else dense, filled without importing scipy.sparse.
``duality_residual`` checks the discrete kernel against the
underlying map through the adjoint pairing, using midpoint quadrature on a
refined partition.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from cocyclelab.measure import (
    Density,
    FiniteMeasureSpace,
    MarkovMatrix,
    Observable,
    PreconditionError,
    apply,
    integrate,
    require_count,
    stored_entries,
)
from cocyclelab.seeding import spawned_words

MAP_PARAMS = {"doubling": (), "tent": (), "baker_planar": (), "baker_cyclic": ("bits",),
              "piecewise_linear": ("breakpoints", "slopes", "intercepts")}


@dataclasses.dataclass(frozen=True)
class MapSpec:
    """Pointwise map of the unit interval (dimension 1) or unit square
    (dimension 2).

    kind:
      doubling          x -> 2x mod 1
      tent              x -> 1 - |1 - 2x|
      piecewise_linear  affine on [breakpoints[i], breakpoints[i+1]) with
                        slope slopes[i] and value intercepts[i] at the left
                        endpoint, taken mod 1
      baker_cyclic      cyclic left bit-shift on 2^bits dyadic cells
                        (piecewise translation realizing the permutation)
      baker_planar      (x, y) -> (2x mod 1, (y + [x >= 1/2]) / 2)
    """

    kind: str
    bits: int | None = None
    breakpoints: np.ndarray | None = None
    slopes: np.ndarray | None = None
    intercepts: np.ndarray | None = None

    def __post_init__(self):
        if self.kind not in MAP_PARAMS:
            raise ValueError(f"unknown map kind {self.kind!r}")
        if extra := [f.name for f in dataclasses.fields(self)[1:]
                     if getattr(self, f.name) is not None
                     and f.name not in MAP_PARAMS[self.kind]]:
            raise ValueError(f"map kind {self.kind!r} does not read {extra}")
        if self.kind == "baker_cyclic":
            if not self.bits or self.bits < 2 or self.bits % 2:
                raise ValueError("baker_cyclic needs an even bit count >= 2")
        if self.kind == "piecewise_linear":
            b = np.asarray(self.breakpoints, dtype=float)
            s = np.asarray(self.slopes, dtype=float)
            c = np.asarray(self.intercepts, dtype=float)
            # written so that NaN fails: a NaN breakpoint has no order
            if b.ndim != 1 or b.size < 2 or b[0] != 0.0 or b[-1] != 1.0 \
                    or not np.all(np.diff(b) > 0):
                raise ValueError("breakpoints must increase from 0 to 1")
            if s.shape != (b.size - 1,) or c.shape != s.shape:
                raise ValueError("need one slope and one intercept per piece")
            if not (np.isfinite(s).all() and np.isfinite(c).all()):
                raise ValueError("slopes and intercepts must be finite")
            object.__setattr__(self, "breakpoints", b)
            object.__setattr__(self, "slopes", s)
            object.__setattr__(self, "intercepts", c)

    @property
    def dimension(self) -> int:
        return 2 if self.kind == "baker_planar" else 1


def bit_shift_permutation(bits: int) -> np.ndarray:
    """Cyclic left bit-shift on indices read as MSB-first bit strings."""
    n = 1 << bits
    i = np.arange(n)
    return ((i << 1) | (i >> (bits - 1))) & (n - 1)


_TOP = np.nextafter(1.0, 0.0)


def map_point(spec: MapSpec, x, y=None):
    """Evaluate the map on coordinate arrays; outputs stay inside [0, 1)."""
    x = np.asarray(x, dtype=float)
    if spec.dimension == 2:
        ybr = np.asarray(y, dtype=float)
        b = (x >= 0.5).astype(float)
        return (np.clip(2.0 * x - b, 0.0, _TOP),
                np.clip((ybr + b) / 2.0, 0.0, _TOP))
    if spec.kind == "doubling":
        out = 2.0 * x
        out -= np.floor(out)  # the bits of (2x) % 1 for every x, at less cost
    elif spec.kind == "tent":
        out = 1.0 - np.abs(1.0 - 2.0 * x)
    elif spec.kind == "piecewise_linear":
        piece = np.clip(np.searchsorted(spec.breakpoints, x, side="right") - 1,
                        0, spec.slopes.size - 1)
        out = (spec.intercepts[piece]
               + spec.slopes[piece] * (x - spec.breakpoints[piece])) % 1.0
    elif spec.kind == "baker_cyclic":
        n = 1 << spec.bits
        cell = np.minimum((x * n).astype(int), n - 1)
        perm = bit_shift_permutation(spec.bits)
        out = perm[cell] / n + (x - cell / n)
    else:  # pragma: no cover
        raise ValueError(spec.kind)
    return np.clip(out, 0.0, _TOP)


def _require_uniform(space: FiniteMeasureSpace, what: str):
    if not np.allclose(space.weights, 1.0 / space.n, atol=1e-15):
        raise PreconditionError(f"{what} requires a uniform partition")


def _planar_side(space: FiniteMeasureSpace, what: str) -> int:
    """Side g of the uniform g x g grid that a planar map needs."""
    _require_uniform(space, what)
    g = math.isqrt(space.n)
    if g * g != space.n:
        raise PreconditionError(f"{what} needs N = g^2 grid cells")
    return g


def _planar_cell(x, y, g: int) -> np.ndarray:
    """Grid cell of points of the unit square, x fastest."""
    return np.minimum((x * g).astype(int), g - 1) \
        + g * np.minimum((y * g).astype(int), g - 1)


def pf_exact(spec: MapSpec, space: FiniteMeasureSpace) -> MarkovMatrix:
    """Exact transfer kernel; defined when the partition resolves the map.

    doubling: N = 2^p uniform cells, cell i splits evenly onto cells
    2i mod N and 2i+1 mod N.  baker_cyclic: N = 2^bits uniform cells, the
    kernel is the bit-shift permutation.  Both are built from index arrays
    and stored as CSR from N = 512 cells on (the storage rule), dense below.
    """
    n = space.n
    if spec.kind not in ("doubling", "baker_cyclic"):
        raise PreconditionError(
            f"no exact kernel for map kind {spec.kind!r}; use pf_ulam")
    _require_uniform(space, f"pf_exact({spec.kind})")
    if spec.kind == "doubling":
        if n & (n - 1):
            raise PreconditionError("doubling exact kernel needs N = 2^p cells")
        cols, value = (2 * np.arange(n)[:, None] + np.arange(2)) % n, 0.5
    else:
        if n != 1 << spec.bits:
            raise PreconditionError(
                f"baker_cyclic with {spec.bits} bits needs N = {1 << spec.bits}")
        cols, value = bit_shift_permutation(spec.bits)[:, None], 1.0
    rows = np.repeat(np.arange(n), cols.shape[1])
    k = stored_entries((n, n), n, rows, cols.ravel(),
                       np.full(rows.size, value))
    return MarkovMatrix(space, k, exact=True)


def _cell_edges(space: FiniteMeasureSpace) -> np.ndarray:
    return np.concatenate([[0.0], np.cumsum(space.weights)])


def _locate(edges: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Cell of each point, clip(searchsorted(edges, x, "right") - 1, 0, N - 1):
    the guess floor(x N) stands where edges[i] <= x < edges[i + 1] (on uniform
    cells all points but roundings at an edge), and only the points it misses
    go through ``searchsorted``, so any weights give the same cells."""
    n = edges.size - 1
    i = (x * n).astype(np.intp)
    np.clip(i, 0, n - 1, out=i)
    hit = edges[i] <= x
    hit &= x < edges[1:][i]
    if not hit.all():
        miss = ~hit
        i[miss] = np.clip(np.searchsorted(edges, x[miss], side="right") - 1,
                          0, n - 1)
    return i


_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK128 = (1 << 128) - 1


def _pcg64_state(w0: int, w1: int, w2: int, w3: int) -> dict:
    """The state ``PCG64(child)`` starts from, given the child's
    ``generate_state(4, np.uint64)`` words: numpy's
    pcg_setseq_128_srandom_r with initstate w0:w1 and initseq w2:w3."""
    inc = ((w2 << 64 | w3) << 1 | 1) & _MASK128
    state = ((inc + (w0 << 64 | w1)) * _PCG64_MULT + inc) & _MASK128
    return {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
            "has_uint32": 0, "uinteger": 0}


def pf_ulam(spec: MapSpec, space: FiniteMeasureSpace, samples_per_cell: int,
            seed: int) -> MarkovMatrix:
    """Monte-Carlo Ulam kernel: row i estimates the split of cell i's mass
    over target cells from independent uniform draws inside cell i (one
    derived seed per row), counted in blocks of about 2^14 draws into index
    arrays that a CSR kernel is built from without visiting its N^2 zeros.
    Row i draws the stream of ``default_rng(SeedSequence(seed).spawn(N)[i])
    .random((dim, s))``: ``spawned_words`` derives every row's seed words in
    one vectorised hash, and one reused generator takes each row's PCG64
    state (``_pcg64_state``) and fills the row's slice of one block buffer.
    Mapped points find their cell by floor-and-check (``_locate``).
    samples_per_cell >= 1 and seed >= 0 must be integers, numpy ones
    included."""
    s = require_count(samples_per_cell, "samples_per_cell", 1)
    seed = require_count(seed, "seed", 0)
    n, dim = space.n, spec.dimension
    edges = _cell_edges(space)
    g = _planar_side(space, "pf_ulam on the unit square") if dim == 2 else None
    words = spawned_words(seed, n, 4).tolist()
    bit_gen = np.random.PCG64(seed)  # every row sets its own state
    gen = np.random.Generator(bit_gen)
    block = max(1, (1 << 14) // s)
    buf = np.empty((min(block, n), dim, s))
    found = []  # (keys row * n + col, their counts) per block
    for start in range(0, n, block):
        rows = np.arange(start, min(start + block, n))
        u = buf[:rows.size]
        for k, row_words in enumerate(words[start:start + rows.size]):
            bit_gen.state = _pcg64_state(*row_words)
            gen.random(out=u[k])
        if dim == 1:
            x = edges[rows, None] + u[:, 0] * (edges[rows + 1]
                                               - edges[rows])[:, None]
            j = _locate(edges, map_point(spec, x))
        else:
            j = _planar_cell(*map_point(spec, ((rows % g)[:, None] + u[:, 0]) / g,
                                        ((rows // g)[:, None] + u[:, 1]) / g), g)
        found.append(np.unique(rows[:, None] * n + j, return_counts=True))
    key, count = map(np.concatenate, zip(*found))
    kernel = stored_entries((n, n), n, key // n, key % n, count / s)
    return MarkovMatrix(space, kernel, exact=False)


def duality_residual(P: MarkovMatrix, spec: MapSpec, f: Density,
                     g: Observable, refinement: int = 8) -> float:
    """| integral (Pf) g dm  -  integral f (g o T) dm |.

    The first integral pairs through the kernel; the second is midpoint
    quadrature of the underlying map on each cell refined `refinement`-fold
    (per axis in dimension 2), locating g's cell at the mapped point.  Exact
    kernels give rounding-scale residuals unless a mapped midpoint meets a
    cell edge, where g o T jumps: at an odd refinement r ``doubling`` maps
    each cell's middle point onto one, an O(1/r) residual.  Ulam kernels
    give residuals that shrink under partition refinement.
    """
    r = require_count(refinement, "refinement", 1)
    space = f.space
    lhs = integrate(apply(P, f), g)
    sub = (np.arange(r) + 0.5) / r
    if spec.dimension == 1:
        edges = _cell_edges(space)
        x = (edges[:-1, None] + space.weights[:, None] * sub[None, :]).ravel()
        fx = np.repeat(f.values, r)
        quad_w = np.repeat(space.weights / r, r)
        gx = g.values[_locate(edges, map_point(spec, x))]
        rhs = float(np.sum(quad_w * fx * gx))
    else:
        gsz = _planar_side(space, "duality_residual on the unit square")
        xs = ((np.arange(gsz)[:, None] + sub) / gsz).ravel()  # per-axis midpoints
        X, Y = (a.ravel() for a in np.meshgrid(xs, xs, indexing="ij"))
        j = _planar_cell(*map_point(spec, X, Y), gsz)
        src_cell = _planar_cell(X, Y, gsz)  # the cell each midpoint lies in
        rhs = float(np.sum(f.values[src_cell] * g.values[j]) / X.size)
    return abs(lhs - rhs)
