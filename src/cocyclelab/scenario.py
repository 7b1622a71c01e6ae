"""Scenario ingestion: YAML files describing a measure space, a driving
system, named Markov operators, and the cocycle table, plus analysis knobs.

Layout (keys in parentheses are optional)::

    space:     N, (weights)
    driving:   kind: finite_rotation with q | finite_permutation with
               sigma | bernoulli with p; (seed) (samples)
    operators: name -> one of
                 map:    {kind, (bits | breakpoints, slopes,
                          intercepts)}            exact transfer kernel
                 + ulam: {samples, seed}          Monte-Carlo Ulam kernel
                 kernel: [[...], ...]             explicit row-stochastic matrix
                 synthetic: identity | uniform | {block_cycle: r}
    cocycle:   table: {feature -> operator name}  or  constant: name
    analysis:  (horizon) (tol) (rmax) (eps) (basis_count)

Every number goes through one strict reader, a key that is not read (a map
parameter that its kind does not read too) is an error, and an error names
its key.  One rule table checks the analysis values (``driving.samples`` and
``driving.seed`` too) at load, and so it checks a CLI flag that replaces one
of them (``ANALYSIS_KEYS``); an error names the flag.

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
from .driving import (
    DrivingSystem,
    bernoulli_shift,
    finite_permutation,
    finite_rotation,
)
from .measure import FiniteMeasureSpace, MarkovMatrix
from .skew import ProductSet
from .transfer import MAP_PARAMS, MapSpec, pf_exact, pf_ulam


class ScenarioError(ValueError):
    """Configuration problem: parse failure or an invariant violation,
    with the failing check named in the message."""


class UnresolvedReferenceError(ScenarioError):
    """A name used in the scenario has no definition."""


# each driving kind and its key; seed and samples are ANALYSIS_KEYS
DRIVING_KINDS = {"finite_rotation": "q", "finite_permutation": "sigma",
                 "bernoulli": "p"}
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
    basis_count: int | None = None
    env_samples: int = 64
    env_seed: int = 0


# Each analysis field: the scenario key that sets it, and the command-line
# flag that replaces it (None where no flag does).
ANALYSIS_KEYS = {
    "horizon": ("analysis.horizon", "--horizon"),
    "tol": ("analysis.tol", "--tol"),
    "rmax": ("analysis.rmax", "--rmax"),
    "eps": ("analysis.eps", "--eps"),
    "basis_count": ("analysis.basis_count", None),
    "env_samples": ("driving.samples", "--mc-samples"),
    "env_seed": ("driving.seed", "--seed-override"),
}


@dataclass(frozen=True)
class Scenario:
    name: str
    space: FiniteMeasureSpace
    driving: DrivingSystem
    cocycle: CocycleFamily = field(repr=False)
    analysis: AnalysisConfig = AnalysisConfig()


def _require_mapping(node, what: str) -> dict:
    if not isinstance(node, dict):
        raise ScenarioError(f"{what} must be a mapping, got {type(node).__name__}")
    return node


def _require_known(keys, known, what: str):
    """Reject a key the loader does not read, so that a typo is not ignored."""
    if unknown := set(keys) - set(known):
        raise ScenarioError(f"{what} has unknown keys {sorted(unknown, key=str)}")


def _get(node: dict, key: str, what: str):
    if key not in node:
        raise ScenarioError(f"{what} is missing the required key {key!r}")
    return node[key]


def _number(value, key: str, integer: bool = False):
    """The number a scenario key or flag holds: with `integer` an int or an
    integral float, else a real or a numeric string (YAML reads 1e-6 as one).
    Anything else, a bool included, is a ScenarioError naming the key."""
    try:
        if not isinstance(value, bool) and not (integer and isinstance(value, str)):
            if integer and isinstance(value, (int, np.integer)):
                return int(value)
            x = float(value)
            if not integer or x.is_integer():
                return int(x) if integer else x
    except (TypeError, ValueError, OverflowError):
        pass
    kind = "an integer" if integer else "a number"
    raise ScenarioError(f"{key} must be {kind}, got {value!r}")


def _numbers(node, key: str, integer: bool = False) -> list:
    """A list of numbers, each read by ``_number`` under key[i]."""
    if not isinstance(node, (list, tuple)):
        raise ScenarioError(f"{key} must be a list, got {node!r}")
    return [_number(v, f"{key}[{i}]", integer) for i, v in enumerate(node)]


def _load_yaml(path: str, what: str) -> dict:
    try:
        with open(path) as fh:
            doc = yaml.safe_load(fh)
    except FileNotFoundError:
        raise ScenarioError(f"{what} not found: {path}")
    except yaml.YAMLError as exc:  # marks carry line/column info
        raise ScenarioError(f"parse error in {what} {path}: {exc}")
    return _require_mapping(doc, f"top level of {path}")


def _build_space(node) -> FiniteMeasureSpace:
    node = _require_mapping(node, "space block")
    _require_known(node, ("N", "weights"), "space block")
    n = _number(_get(node, "N", "space block"), "space.N", integer=True)
    if n < 1:
        raise ScenarioError("space.N must be a positive integer")
    weights = node.get("weights")
    if weights is None:
        return FiniteMeasureSpace.uniform(n)
    w = np.asarray(_numbers(weights, "space.weights"), dtype=float)
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
            f"driving.kind must be one of {tuple(DRIVING_KINDS)}, got {kind!r}")
    key = DRIVING_KINDS[kind]
    value = _get(node, key, f"{kind} driving")
    try:
        if kind == "finite_rotation":
            return finite_rotation(_number(value, "driving.q", integer=True))
        if kind == "finite_permutation":
            return finite_permutation(_numbers(value, "driving.sigma", integer=True))
        return bernoulli_shift(_numbers(value, "driving.p"))
    except ScenarioError:
        raise
    except ValueError as exc:
        raise ScenarioError(f"invariant violation in driving: {exc}")


def _build_map_spec(node, key: str) -> MapSpec:
    node = _require_mapping(node, "operator map block")
    kind = _get(node, "kind", "map block")
    if not (isinstance(kind, str) and kind in MAP_PARAMS):
        raise ScenarioError(f"{key}.kind: unknown map kind {kind!r}")
    _require_known(node, ("kind", *MAP_PARAMS[kind]), key)
    params = {k: (_number if k == "bits" else _numbers)(v, f"{key}.{k}", k == "bits")
              for k, v in node.items() if k != "kind"}
    try:
        return MapSpec(kind, **params)
    except ValueError as exc:
        raise ScenarioError(f"bad map spec ({kind!r}): {exc}")


def _synthetic_kernel(node, n: int, key: str) -> np.ndarray:
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
        return block_cycle_kernel(n, _number(arg, f"{key}.block_cycle", integer=True))
    raise ScenarioError(
        f"synthetic operator kind must be one of {SYNTHETIC_KINDS}, got {kind!r}")


def _build_operator(name: str, node, space: FiniteMeasureSpace) -> MarkovMatrix:
    node = _require_mapping(node, f"operator {name!r}")
    key = f"operators.{name}"
    sources = [k for k in ("map", "kernel", "synthetic") if k in node]
    if len(sources) != 1:
        raise ScenarioError(
            f"operator {name!r} needs exactly one of map/kernel/synthetic")
    _require_known(node, {sources[0], "ulam"} if sources[0] == "map"
                   else sources, f"operator {name!r}")
    try:
        if sources[0] == "map":
            spec = _build_map_spec(node["map"], f"{key}.map")
            if "ulam" in node:
                ulam = _require_mapping(node["ulam"], f"operator {name!r} ulam")
                _require_known(ulam, ("samples", "seed"), f"operator {name!r} ulam")
                return pf_ulam(spec, space, *(
                    _number(_get(ulam, k, "ulam block"), f"{key}.ulam.{k}",
                            integer=True) for k in ("samples", "seed")))
            return pf_exact(spec, space)
        if sources[0] == "kernel":
            rows = node["kernel"]  # a non-list kernel fails as its row 0
            rows = rows if isinstance(rows, list) else [rows]
            return MarkovMatrix(space, np.array(
                [_numbers(r, f"{key}.kernel[{i}]") for i, r in enumerate(rows)]))
        return MarkovMatrix(space, _synthetic_kernel(node["synthetic"], space.n,
                                                     f"{key}.synthetic"))
    except ScenarioError:
        raise
    except ValueError as exc:
        raise ScenarioError(f"invariant violation in operator {name!r}: {exc}")


def _build_cocycle(node, d: DrivingSystem, operators: dict) -> CocycleFamily:
    node = _require_mapping(node, "cocycle block")
    _require_known(node, ["constant" if "constant" in node else "table"], "cocycle block")
    features = d.n_features

    def resolve(name, key: str) -> MarkovMatrix:
        if isinstance(name, (list, dict)):  # unhashable: no operator name
            raise ScenarioError(
                f"{key} must be an operator name, got {type(name).__name__}")
        if name not in operators:
            raise UnresolvedReferenceError(
                f"unresolved reference: operator {name!r} is not defined "
                f"(defined: {sorted(operators)})")
        return operators[name]

    if "constant" in node:
        P = resolve(node["constant"], "cocycle.constant")
        table = {f: P for f in range(features)}
    else:
        raw = _require_mapping(_get(node, "table", "cocycle block"),
                               "cocycle table")
        table = {}
        for key, name in raw.items():
            f = _number(key, "cocycle.table feature", integer=True)
            if not 0 <= f < features:
                raise ScenarioError(
                    f"cocycle table feature {f} is out of range "
                    f"(driving has {features} features)")
            table[f] = resolve(name, f"cocycle.table[{f}]")
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
    driving_key = f"driving.{DRIVING_KINDS[blocks['driving']['kind']]}"
    _require_known({f"{b}.{k}" for b, node in blocks.items() for k in node},
                   {key for key, _ in ANALYSIS_KEYS.values()}
                   | {"driving.kind", driving_key}, "scenario file")
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
        if name == "eps":  # a list, one number, or the flag's "0.1,0.01"
            items = value.split(",") if isinstance(value, str) else value
            value = tuple(_numbers(items if isinstance(items, (list, tuple))
                                   else [items], names[name]))
        elif value is not None or name != "basis_count":  # it may be null
            value = _number(value, names[name],
                            integer=not isinstance(getattr(base, name), float))
        values[name] = value
    cfg = replace(base, **values)
    _check_analysis(cfg, names)
    return cfg


def _check_analysis(cfg: AnalysisConfig, names: dict):
    """The rules every analysis value obeys, whether a scenario key or a flag
    set it; an error names the value as `names` does."""
    # the comparisons are written so that NaN fails them
    checks = (
        (cfg.basis_count is None or cfg.basis_count >= 1, "basis_count",
         "be >= 1"),
        (0 < cfg.tol < np.inf, "tol", "be finite and > 0"),
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


def load_scenario(path: str, flags: dict | None = None) -> Scenario:
    """Parse and eagerly validate a scenario file.  `flags` maps argparse
    dests to command-line values; each that is not None replaces the
    analysis field of ANALYSIS_KEYS that its flag names."""
    doc = _load_yaml(path, "scenario file")
    _require_known(doc, ("name", "space", "driving", "operators", "cocycle",
                         "analysis"), "scenario file")
    space = _build_space(_get(doc, "space", path))
    driving = _build_driving(_get(doc, "driving", path))
    analysis = _build_analysis(doc, flags or {})
    op_nodes = _require_mapping(_get(doc, "operators", path), "operators block")
    operators = {str(name): _build_operator(str(name), node, space)
                 for name, node in op_nodes.items()}
    cocycle = _build_cocycle(_get(doc, "cocycle", path), driving, operators)
    name = str(doc.get("name") or path.rsplit("/", 1)[-1].rsplit(".", 1)[0])
    return Scenario(name=name, space=space, driving=driving, cocycle=cocycle,
                    analysis=analysis)


# -- product-set files for the skew runner -----------------------------------


def _parse_cells(node, n: int, key: str) -> np.ndarray:
    if isinstance(node, dict) and set(node) == {"range"}:
        bounds = _numbers(node["range"], f"{key}.range", integer=True)
        if len(bounds) != 2 or not 0 <= bounds[0] < bounds[1] <= n:
            raise ScenarioError(f"{key}.range {bounds} does not fit in {n} "
                                "cells as [start, stop)")
        return np.arange(*bounds)
    return np.asarray(_numbers(node, key, integer=True), dtype=np.int64)


def _parse_product_set(node, n: int, what: str) -> ProductSet:
    node = _require_mapping(node, what)
    _require_known(node, ("cells", "env_indices", "env_constraints"), what)
    kwargs = {"cells": _parse_cells(_get(node, "cells", what), n,
                                    f"{what} cells")}
    if "env_indices" in node:
        kwargs["env_indices"] = tuple(_numbers(
            node["env_indices"], f"{what} env_indices", integer=True))
    if "env_constraints" in node:
        key = f"{what} env_constraints"
        cons = _require_mapping(node["env_constraints"], key)
        kwargs["env_constraints"] = {
            _number(k, f"{key} coordinate", integer=True):
            _number(v, f"{key}[{k!r}]", integer=True) for k, v in cons.items()}
    try:
        return ProductSet(**kwargs)
    except ValueError as exc:
        raise ScenarioError(f"invariant violation in {what}: {exc}")


def load_product_sets(path: str, n_cells: int) -> list:
    """Parse a sets file into (pair_id, A, B) triples."""
    doc = _load_yaml(path, "sets file")
    _require_known(doc, ("sets",), "sets file")
    entries = _get(doc, "sets", path)
    if not isinstance(entries, list) or not entries:
        raise ScenarioError("sets file needs a non-empty 'sets' list")
    out = []
    for i, entry in enumerate(entries):
        entry = _require_mapping(entry, f"sets[{i}]")
        _require_known(entry, ("id", "a", "b"), f"sets[{i}]")
        pair_id = str(entry.get("id", i))
        sides = [_parse_product_set(_get(entry, s, f"sets[{i}]"), n_cells,
                                    f"set pair {pair_id!r} side {s}") for s in "ab"]
        out.append((pair_id, *sides))
    return out
