"""Decay-curve reading along the last axis of a curve array, shared by the
mixing, exactness and skew reports: one decay verdict rule (a curve's settle
index is at most its verdict window's start), plus geometric rate fits."""

from __future__ import annotations

import dataclasses

import numpy as np

from cocyclelab.measure import PreconditionError

RATE_FLOOR = 1e-14  # curve values at or below it take no part in a rate fit


def tail_start(length: int, tail_fraction: float = 0.1) -> int:
    """Index where the verdict window begins: the last ceil(length * frac)
    entries of the curve."""
    if length < 1:
        raise PreconditionError("curves must have at least one entry")
    if not 0 < tail_fraction <= 1:
        raise PreconditionError(
            f"tail_fraction must lie in (0, 1], got {tail_fraction}")
    width = max(1, int(np.ceil(length * tail_fraction)))
    return length - width


def suffix_envelope(values) -> np.ndarray:
    """env[..., i] = max_{j >= i} |values[..., j]| along the last axis;
    non-increasing by construction."""
    v = np.abs(np.asarray(values, dtype=float))
    return np.maximum.accumulate(v[..., ::-1], axis=-1)[..., ::-1]


def settle_index(values, tol: float) -> np.ndarray:
    """Per curve: the first n from which |value| stays below tol, else its
    length; one past the last entry not below tol (NaN included), 0 if none."""
    v = np.asarray(values, dtype=float)
    if v.ndim == 0 or v.shape[-1] == 0:
        raise PreconditionError("curves must have at least one entry")
    above = ~(np.abs(v) < tol)
    return (v.shape[-1] - above[..., ::-1].argmax(axis=-1)) * above.any(axis=-1)


def decay_verdict(settle, horizon: int, tail_fraction: float = 0.1) -> bool:
    """Every settle index lies at or before the verdict window's start."""
    return bool(np.max(settle) <= tail_start(horizon + 1, tail_fraction))


@dataclasses.dataclass(frozen=True, eq=False)
class RateFit:
    """Geometric rate fits |value_n| ~ C * rate^n for an array of curves:
    four read-only arrays shaped like the curves' leading axes (0-d for one
    curve).  ``len`` is the number of curves fitted."""

    rate: np.ndarray
    log_c: np.ndarray
    r_squared: np.ndarray
    n_points: np.ndarray

    def __post_init__(self):
        for arr in (self.rate, self.log_c, self.r_squared, self.n_points):
            arr.flags.writeable = False

    def __len__(self) -> int:
        return self.rate.size


def fit_geometric_rates(values) -> RateFit:
    """Least squares of log|value| against n along the last axis of a curve
    array, over each curve's decaying segment: the indices up to the last
    point where the suffix envelope still exceeds RATE_FLOOR, skipping
    exact-zero crossings.  Curves that die instantly (fewer than two usable
    points) report rate 0.

    Rows are processed in chunks so the masked least-squares scratch arrays
    stay bounded regardless of how many curves are fitted at once.
    """
    v = np.abs(np.asarray(values, dtype=float))
    if v.ndim == 0 or v.shape[-1] == 0:
        raise PreconditionError("curves must have at least one entry")
    flat = v.reshape(-1, v.shape[-1])
    m, length = flat.shape
    x = np.arange(length, dtype=float)
    rate, log_c = np.empty(m), np.empty(m)
    r_squared, n_points = np.empty(m), np.empty(m, dtype=np.int64)
    for start in range(0, m, 65536):
        rows = flat[start:start + 65536]
        env = suffix_envelope(rows)
        last = np.sum(env > RATE_FLOOR, axis=1) - 1  # -1: nothing clears it
        mask = (rows > RATE_FLOOR) & (x[None, :] <= last[:, None])
        k = mask.sum(axis=1)
        usable = k >= 2
        y = np.where(mask, np.log(np.where(mask, rows, 1.0)), 0.0)
        xm = np.where(mask, x[None, :], 0.0)
        kf = k.astype(float)
        sx, sy = xm.sum(axis=1), y.sum(axis=1)
        sxx, sxy = (xm * xm).sum(axis=1), (xm * y).sum(axis=1)
        slope = np.zeros(rows.shape[0])
        intercept = np.full(rows.shape[0], -np.inf)
        denom = kf * sxx - sx * sx
        slope[usable] = (kf * sxy - sx * sy)[usable] / denom[usable]
        intercept[usable] = (sy[usable] - slope[usable] * sx[usable]) / kf[usable]
        r2 = np.ones(rows.shape[0])
        if np.any(usable):
            u = usable
            pred = np.where(mask[u], slope[u, None] * x[None, :]
                            + intercept[u, None], 0.0)
            resid = np.where(mask[u], y[u] - pred, 0.0)
            ss_res = (resid * resid).sum(axis=1)
            ybar = sy[u] / kf[u]
            dev = np.where(mask[u], y[u] - ybar[:, None], 0.0)
            ss_tot = (dev * dev).sum(axis=1)
            r2[u] = np.where(ss_tot == 0.0, 1.0,
                             1.0 - ss_res / np.where(ss_tot == 0.0, 1.0, ss_tot))
        chunk = slice(start, start + rows.shape[0])
        rate[chunk] = np.where(usable, np.exp(np.where(usable, slope, 0.0)), 0.0)
        log_c[chunk], r_squared[chunk], n_points[chunk] = intercept, r2, k
    lead = v.shape[:-1]
    return RateFit(rate.reshape(lead), log_c.reshape(lead),
                   r_squared.reshape(lead), n_points.reshape(lead))
