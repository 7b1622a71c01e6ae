"""Scenario ingestion: YAML files describing a measure space, a driving
system, named Markov operators, and the cocycle table, plus analysis knobs.

Layout (keys in parentheses are optional)::

    space:     N, (weights)
    driving:   kind in {finite_rotation, finite_permutation, bernoulli},
               (q) (sigma) (p) (seed) (samples)
    operators: name -> one of
                 map:    {kind, (params: {bits, breakpoints, slopes,
                          intercepts})}          exact transfer kernel
                 + ulam: {samples, seed}          Monte-Carlo Ulam kernel
                 kernel: [[...], ...]             explicit row-stochastic matrix
                 synthetic: identity | uniform | {block_cycle: r}
    cocycle:   table: {feature -> operator name}  or  constant: name
    analysis:  (horizon) (tol) (rmax) (eps) (tail_fraction) (basis_count)
               (asymp_tol)

One rule table checks the analysis values, ``driving.samples`` and
``driving.seed`` included, at load.  A CLI flag that replaces one of them
(``ANALYSIS_KEYS``) goes through the same table, and an error names it.

Operators are built once per name and shared by reference, so a table whose
entries all point at one name is recognized as a constant family.  All
invariants of the referenced objects (row-stochasticity, permutation
validity, probability normalization) are checked eagerly at load time.

Product-set files for the skew runner hold a ``sets`` list; each entry has
an ``id`` and two sides ``a``/``b`` with ``cells`` (an explicit list or
``{range: [start, stop]}``) and optionally ``env_indices`` (point indices in
0..q-1, finite driving only) or ``env_constraints`` (coordinate -> symbol,
symbols in the alphabet, bernoulli driving only).  The skew functions check
the environment part against the scenario's driving; any other raises
``PreconditionError``, exit code 2 in the CLI.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np
import yaml

from .cocycle import CocycleFamily
from .curves import tail_start
from .driving import (
    DrivingSystem,
    bernoulli_shift,
    finite_permutation,
    finite_rotation,
)
from .measure import FiniteMeasureSpace, MarkovMatrix
from .skew import ProductSet
from .transfer import MapSpec, pf_exact, pf_ulam


class ScenarioError(ValueError):
    """Configuration problem: parse failure or an invariant violation,
    with the failing check named in the message."""


class UnresolvedReferenceError(ScenarioError):
    """A name used in the scenario has no definition."""


DRIVING_KINDS = ("finite_rotation", "finite_permutation", "bernoulli")
SYNTHETIC_KINDS = ("identity", "uniform", "block_cycle")

# The longest horizon a scenario or a --horizon flag may ask for.  A curve
# that decays by a factor 0.965 or less per step is below double rounding
# (1e-16) by n = 1000, so longer curves read rounding noise; the shipped
# scenarios use 40 steps, and at 1000 steps the largest shipped curve array
# (bernoulli_doubling: 64 points x 12 x 12 curves) holds 74 MB.
MAX_HORIZON = 1000


@dataclass(frozen=True)
class AnalysisConfig:
    """Per-scenario analysis knobs; CLI flags replace individual fields."""

    horizon: int = 40
    tol: float = 1e-6
    rmax: int = 8
    eps: tuple = (0.25, 0.125)
    tail_fraction: float = 0.1
    basis_count: int | None = None
    env_samples: int = 64
    env_seed: int = 0
    # structure residual accepted by the periodicity detector; Monte-Carlo
    # kernels need a looser value than the exact-model default
    asymp_tol: float = 1e-10


# Each analysis field: the scenario key that sets it, and the command-line
# flag that replaces it (None where no flag does).
ANALYSIS_KEYS = {
    "horizon": ("analysis.horizon", "--horizon"),
    "tol": ("analysis.tol", "--tol"),
    "rmax": ("analysis.rmax", "--rmax"),
    "eps": ("analysis.eps", "--eps"),
    "tail_fraction": ("analysis.tail_fraction", None),
    "basis_count": ("analysis.basis_count", None),
    "env_samples": ("driving.samples", "--mc-samples"),
    "env_seed": ("driving.seed", "--seed-override"),
    "asymp_tol": ("analysis.asymp_tol", None),
}


@dataclass(frozen=True)
class Scenario:
    name: str
    space: FiniteMeasureSpace
    driving: DrivingSystem
    operators: dict = field(repr=False)
    cocycle: CocycleFamily = field(repr=False)
    analysis: AnalysisConfig = AnalysisConfig()


def _require_mapping(node, what: str) -> dict:
    if not isinstance(node, dict):
        raise ScenarioError(f"{what} must be a mapping, got {type(node).__name__}")
    return node


def _get(node: dict, key: str, what: str):
    if key not in node:
        raise ScenarioError(f"{what} is missing the required key {key!r}")
    return node[key]


def _load_yaml(path: str) -> dict:
    try:
        with open(path) as fh:
            doc = yaml.safe_load(fh)
    except FileNotFoundError:
        raise ScenarioError(f"scenario file not found: {path}")
    except yaml.YAMLError as exc:  # marks carry line/column info
        raise ScenarioError(f"parse error in {path}: {exc}")
    return _require_mapping(doc, f"top level of {path}")


def _build_space(node) -> FiniteMeasureSpace:
    node = _require_mapping(node, "space block")
    n = int(_get(node, "N", "space block"))
    if n < 1:
        raise ScenarioError("space.N must be a positive integer")
    weights = node.get("weights")
    if weights is None:
        return FiniteMeasureSpace.uniform(n)
    w = np.asarray([float(v) for v in weights], dtype=float)
    if w.shape != (n,):
        raise ScenarioError(f"space.weights must list {n} values, got {w.size}")
    try:
        return FiniteMeasureSpace(weights=w)
    except ValueError as exc:
        raise ScenarioError(str(exc))


def _build_driving(node) -> DrivingSystem:
    node = _require_mapping(node, "driving block")
    kind = _get(node, "kind", "driving block")
    if kind not in DRIVING_KINDS:
        raise ScenarioError(
            f"driving.kind must be one of {DRIVING_KINDS}, got {kind!r}")
    try:
        if kind == "finite_rotation":
            return finite_rotation(int(_get(node, "q", "finite_rotation driving")))
        if kind == "finite_permutation":
            sigma = _get(node, "sigma", "finite_permutation driving")
            return finite_permutation([int(v) for v in sigma])
        probs = _get(node, "p", "bernoulli driving")
        return bernoulli_shift([float(v) for v in probs])
    except ScenarioError:
        raise
    except ValueError as exc:
        raise ScenarioError(f"invariant violation in driving: {exc}")


def _build_map_spec(node) -> MapSpec:
    node = _require_mapping(node, "operator map block")
    kind = _get(node, "kind", "map block")
    params = dict(node.get("params") or {})
    extra = {k: v for k, v in node.items() if k not in ("kind", "params")}
    params.update(extra)
    try:
        return MapSpec(kind, **params)
    except (TypeError, ValueError) as exc:
        raise ScenarioError(f"bad map spec ({kind!r}): {exc}")


def _synthetic_kernel(node, n: int) -> np.ndarray:
    from .asymptotic import block_cycle_kernel

    if isinstance(node, str):
        kind, arg = node, None
    else:
        node = _require_mapping(node, "synthetic operator")
        if len(node) != 1:
            raise ScenarioError("synthetic operator takes exactly one kind")
        kind, arg = next(iter(node.items()))
    if kind == "identity":
        return np.eye(n)
    if kind == "uniform":
        return np.full((n, n), 1.0 / n)
    if kind == "block_cycle":
        return block_cycle_kernel(n, int(arg))
    raise ScenarioError(
        f"synthetic operator kind must be one of {SYNTHETIC_KINDS}, got {kind!r}")


def _build_operator(name: str, node, space: FiniteMeasureSpace) -> MarkovMatrix:
    node = _require_mapping(node, f"operator {name!r}")
    sources = [k for k in ("map", "kernel", "synthetic") if k in node]
    if len(sources) != 1:
        raise ScenarioError(
            f"operator {name!r} needs exactly one of map/kernel/synthetic")
    try:
        if sources[0] == "map":
            spec = _build_map_spec(node["map"])
            if "ulam" in node:
                ulam = _require_mapping(node["ulam"], f"operator {name!r} ulam")
                return pf_ulam(spec, space,
                               int(_get(ulam, "samples", "ulam block")),
                               int(_get(ulam, "seed", "ulam block")))
            return pf_exact(spec, space)
        if sources[0] == "kernel":
            k = np.asarray(node["kernel"], dtype=float)
            return MarkovMatrix(space, k)
        return MarkovMatrix(space, _synthetic_kernel(node["synthetic"], space.n))
    except ScenarioError:
        raise
    except ValueError as exc:
        raise ScenarioError(f"invariant violation in operator {name!r}: {exc}")


def _build_cocycle(node, d: DrivingSystem, operators: dict) -> CocycleFamily:
    node = _require_mapping(node, "cocycle block")
    features = d.n_features

    def resolve(name) -> MarkovMatrix:
        if name not in operators:
            raise UnresolvedReferenceError(
                f"unresolved reference: operator {name!r} is not defined "
                f"(defined: {sorted(operators)})")
        return operators[name]

    if "constant" in node:
        P = resolve(node["constant"])
        table = {f: P for f in range(features)}
    else:
        raw = _require_mapping(_get(node, "table", "cocycle block"),
                               "cocycle table")
        table = {}
        for key, name in raw.items():
            f = int(key)
            if not 0 <= f < features:
                raise ScenarioError(
                    f"cocycle table feature {f} is out of range "
                    f"(driving has {features} features)")
            table[f] = resolve(name)
        missing = sorted(set(range(features)) - set(table))
        if missing:
            raise ScenarioError(
                f"cocycle table is missing features {missing}")
    try:
        return CocycleFamily(driving=d, table=table)
    except ValueError as exc:
        raise ScenarioError(f"invariant violation in cocycle: {exc}")


def _build_analysis(doc: dict, flags: dict) -> AnalysisConfig:
    """Each analysis field from its flag where `flags` (argparse dests to
    values, None for an absent flag) gives one, else from its scenario key,
    else the default; then one rule table checks them all."""
    blocks = {"analysis": _require_mapping(doc.get("analysis") or {},
                                           "analysis block"),
              "driving": doc["driving"]}
    base, values, names = AnalysisConfig(), {}, {}
    for name, (key, flag) in ANALYSIS_KEYS.items():
        block, k = key.split(".")
        dest = flag and flag[2:].replace("-", "_")
        names[name] = key
        if dest and flags.get(dest) is not None:
            names[name], value = flag, flags[dest]
        elif k in blocks[block]:
            value = blocks[block][k]
        else:
            continue
        try:
            if name == "eps":  # a list, one number, or the flag's "0.1,0.01"
                items = value.split(",") if isinstance(value, str) else value
                value = tuple(map(float, items if isinstance(items, (list, tuple))
                                  else [items]))
            elif isinstance(getattr(base, name), float):
                value = float(value)
            elif value is not None:  # basis_count may be null
                value = int(value)
        except (TypeError, ValueError, OverflowError) as exc:
            raise ScenarioError(
                f"bad analysis value for {names[name]}: {exc}") from None
        values[name] = value
    cfg = replace(base, **values)
    _check_analysis(cfg, names)
    return cfg


def _check_analysis(cfg: AnalysisConfig, names: dict):
    """The rules every analysis value obeys, whether a scenario key or a flag
    set it; an error names the value as `names` does."""
    # the comparisons are written so that NaN fails them
    checks = (
        (0 < cfg.tail_fraction <= 1, "tail_fraction", "lie in (0, 1]"),
        (cfg.basis_count is None or cfg.basis_count >= 1, "basis_count",
         "be >= 1"),
        (0 < cfg.tol < np.inf, "tol", "be finite and > 0"),
        (0 < cfg.asymp_tol < np.inf, "asymp_tol", "be finite and > 0"),
        (cfg.rmax >= 0, "rmax", "be >= 0"),
        (bool(cfg.eps) and all(0 < v < np.inf for v in cfg.eps), "eps",
         "be nonempty, finite and > 0"),
        (cfg.env_samples >= 1, "env_samples", "be >= 1"),
        (cfg.env_seed >= 0, "env_seed", "be >= 0"),
        (0 <= cfg.horizon <= MAX_HORIZON, "horizon",
         f"lie in [0, {MAX_HORIZON}]"),
    )
    for ok, name, rule in checks:
        if not ok:
            value = getattr(cfg, name)
            raise ScenarioError(f"{names[name]} must {rule}, got "
                                f"{list(value) if name == 'eps' else value}")
    # a window that holds n = 0 reads every curve before it can decay;
    # horizon 0 has no other entry and is exempt
    h = cfg.horizon
    if h >= 1 and tail_start(h + 1, cfg.tail_fraction) == 0:
        raise ScenarioError(
            f"{names['tail_fraction']} {cfg.tail_fraction} puts n = 0 in the "
            f"verdict window at horizon {h}; it must be at most "
            f"{h}/{h + 1}")


def load_scenario(path: str, flags: dict | None = None) -> Scenario:
    """Parse and eagerly validate a scenario file.  `flags` maps argparse
    dests to command-line values; each that is not None replaces the
    analysis field of ANALYSIS_KEYS that its flag names."""
    doc = _load_yaml(path)
    space = _build_space(_get(doc, "space", path))
    driving = _build_driving(_get(doc, "driving", path))
    analysis = _build_analysis(doc, flags or {})
    op_nodes = _require_mapping(_get(doc, "operators", path), "operators block")
    operators = {str(name): _build_operator(str(name), node, space)
                 for name, node in op_nodes.items()}
    cocycle = _build_cocycle(_get(doc, "cocycle", path), driving, operators)
    name = str(doc.get("name") or path.rsplit("/", 1)[-1].rsplit(".", 1)[0])
    return Scenario(name=name, space=space, driving=driving,
                    operators=operators, cocycle=cocycle, analysis=analysis)


# -- product-set files for the skew runner -----------------------------------


def _parse_cells(node, n: int) -> np.ndarray:
    if isinstance(node, dict) and set(node) == {"range"}:
        start, stop = (int(v) for v in node["range"])
        if not 0 <= start < stop <= n:
            raise ScenarioError(
                f"cell range [{start}, {stop}) does not fit in {n} cells")
        return np.arange(start, stop)
    return np.asarray([int(v) for v in node], dtype=np.int64)


def _parse_product_set(node, n: int, what: str) -> ProductSet:
    node = _require_mapping(node, what)
    unknown = set(node) - {"cells", "env_indices", "env_constraints"}
    if unknown:
        raise ScenarioError(f"{what} has unknown keys {sorted(unknown)}")
    kwargs = {"cells": _parse_cells(_get(node, "cells", what), n)}
    if "env_indices" in node:
        kwargs["env_indices"] = tuple(int(v) for v in node["env_indices"])
    if "env_constraints" in node:
        cons = _require_mapping(node["env_constraints"], f"{what} constraints")
        kwargs["env_constraints"] = {int(k): int(v) for k, v in cons.items()}
    try:
        return ProductSet(**kwargs)
    except ValueError as exc:
        raise ScenarioError(f"invariant violation in {what}: {exc}")


def load_product_sets(path: str, n_cells: int) -> list:
    """Parse a sets file into (pair_id, A, B) triples."""
    doc = _load_yaml(path)
    entries = _get(doc, "sets", path)
    if not isinstance(entries, list) or not entries:
        raise ScenarioError("sets file needs a non-empty 'sets' list")
    out = []
    for i, entry in enumerate(entries):
        entry = _require_mapping(entry, f"sets[{i}]")
        pair_id = str(entry.get("id", i))
        a = _parse_product_set(_get(entry, "a", f"sets[{i}]"), n_cells,
                               f"set pair {pair_id!r} side a")
        b = _parse_product_set(_get(entry, "b", f"sets[{i}]"), n_cells,
                               f"set pair {pair_id!r} side b")
        out.append((pair_id, a, b))
    return out
