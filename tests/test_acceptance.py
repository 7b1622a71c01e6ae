"""Release gates for the laboratory as a whole.

Each test is one end-to-end guarantee, run at its stated tolerance and
wall-clock budget, so ``pytest -v`` prints exactly one pass/fail line per
gate.  Expected values are oracle constants: exact arithmetic identities,
planted constructions whose answers are known by design, or quantities
cross-checked through an independent route (power iteration, quadrature),
never outputs copied back from the code under test.
"""

import contextlib
import time
from pathlib import Path

import numpy as np

from cocyclelab.asymptotic import (
    block_cycle_kernel,
    detect_periodicity,
    restricted_power_cocycle,
)
from cocyclelab.cocycle import (
    CocycleFamily,
    NormalizedCocycle,
    build_invariant_density_map,
)
from cocyclelab.curves import fit_geometric_rates
from cocyclelab.driving import BERNOULLI, finite_rotation, point
from cocyclelab.exactness import exactness_report
from cocyclelab.measure import (
    Density,
    FiniteMeasureSpace,
    MarkovMatrix,
    Observable,
    apply,
    integrate,
)
from cocyclelab.mixing import (
    NOTIONS,
    counterexample_run,
    estimate_mixing,
    indicator_basis,
    step_map_basis,
    zero_mean_basis,
)
from cocyclelab.scenario import load_product_sets, load_scenario
from cocyclelab.skew import env_probability, skew_mixing_curve
from cocyclelab.transfer import MapSpec, duality_residual, pf_exact, pf_ulam
from references import dual_apply

SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"


@contextlib.contextmanager
def budget(seconds: float):
    """Fail the gate when its work exceeds the stated wall-clock budget."""
    t0 = time.perf_counter()
    yield
    elapsed = time.perf_counter() - t0
    assert elapsed < seconds, (
        f"runtime {elapsed:.2f}s exceeds the {seconds:.0f}s budget")


def constant_cocycle(P: MarkovMatrix):
    d = finite_rotation(1)
    return CocycleFamily(driving=d, table={0: P}), point(d, 0)


def second_eigenvalue(kernel: np.ndarray, iters: int = 2000,
                      tail: int = 500) -> float:
    """Independent rate oracle: modulus of the second-largest eigenvalue by
    deflated power iteration, averaging log-growth over the final iterations
    (single-step growth oscillates on non-normal kernels whose dominant
    deflated mode is a complex pair)."""
    n = kernel.shape[0]
    v = np.cos(np.linspace(0.0, np.pi, n))
    v -= v.mean()
    v /= np.linalg.norm(v)
    logs = []
    for _ in range(iters):
        v = v @ kernel
        v -= v.mean()
        norm = np.linalg.norm(v)
        if norm < 1e-300:
            return 0.0
        logs.append(np.log(norm))
        v /= norm
    return float(np.exp(np.mean(logs[-tail:])))


def test_travelling_observable_correlation_stays_half_with_disjoint_supports():
    with budget(1.0):
        rep = counterexample_run(8, horizon=16)
        assert not rep.horizon_capped
        assert rep.inhom_values.size == 17
        assert np.all(np.abs(rep.inhom_values[1:] - 0.5) <= 1e-12)
        assert np.all(rep.disjoint_overlaps == 0.0)
        assert np.all(rep.square_integrals == 0.5)
        assert rep.passes


def test_exactness_routes_give_identical_verdicts_across_families():
    with budget(30.0):
        cases = {
            "doubling_1024": (
                pf_exact(MapSpec("doubling"), FiniteMeasureSpace.uniform(1024)),
                True, False),
            "cyclic_baker_16bit": (
                pf_exact(MapSpec("baker_cyclic", bits=16),
                         FiniteMeasureSpace.uniform(1 << 16)),
                False, True),
            "identity_8": (
                MarkovMatrix(FiniteMeasureSpace.uniform(8), np.eye(8)),
                False, True),
            # two block-swap flavors: the cell permutation exchanging the
            # halves (a cell map, so the tail route runs) and the
            # block-uniformizing cycle (fractional rows, operator routes only)
            "block_swap_permutation_4": (
                MarkovMatrix(FiniteMeasureSpace.uniform(4),
                             np.roll(np.eye(4), 2, axis=1)),
                False, True),
            "block_swap_uniformizing_4": (
                MarkovMatrix(FiniteMeasureSpace.uniform(4),
                             block_cycle_kernel(4, 2)),
                False, False),
        }
        for name, (P, expect_exact, expect_tail_route) in cases.items():
            c, w = constant_cocycle(P)
            rep = exactness_report(
                c, w, zero_mean_basis(c.space, count=32),
                indicator_basis(c.space, count=32), horizon=40, tol=1e-8)
            assert rep.routes_agree, (
                f"{name}: norm route {rep.norms_decayed} "
                f"!= dual route {rep.dual_decayed}")
            assert rep.exact_verdict == expect_exact, name
            assert (rep.tail is not None) == expect_tail_route, name
            if rep.tail is not None:
                assert rep.tail.trivial == rep.exact_verdict, (
                    f"{name}: tail-partition route disagrees")


def test_mixing_estimators_agree_on_all_finite_driving_scenarios():
    with budget(120.0):
        names = []
        for path in sorted(SCENARIOS.glob("*.yaml")):
            if path.name.startswith("sets_"):
                continue
            sc = load_scenario(str(path))
            if sc.driving.kind == BERNOULLI:
                continue
            names.append(sc.name)
            c = sc.cocycle
            q = c.driving.n_points
            omegas = [point(c.driving, i % q) for i in range(64)]
            f_basis = zero_mean_basis(sc.space)
            g_obs = indicator_basis(sc.space)
            verdicts = {}
            for notion in NOTIONS:
                g_basis = (step_map_basis(c, g_obs)
                           if notion.endswith("inhom") else g_obs)
                rep = estimate_mixing(c, notion, f_basis, g_basis, omegas,
                                      horizon=40, tol=1e-6)
                verdicts[notion] = rep.decayed
            assert len(set(verdicts.values())) == 1, (
                f"{sc.name}: estimators disagree {verdicts}")
        assert len(names) >= 9, f"finite-driving scenarios missing: {names}"


def test_planted_block_cycles_recovered_with_matching_exactness():
    with budget(30.0):
        for n_cells in (4, 8, 12):
            space = FiniteMeasureSpace.uniform(n_cells)
            f_basis = zero_mean_basis(space)
            g_basis = indicator_basis(space)
            for r in (1, 2, 3):
                P = MarkovMatrix(space, block_cycle_kernel(n_cells, r))
                c, w = constant_cocycle(P)
                dec = detect_periodicity(c, w, horizon=40, r_max=8)
                label = f"N={n_cells} r={r}"
                assert dec.found, label
                assert dec.r == r, f"{label}: detected r={dec.r}"
                assert np.array_equal(dec.rho, (np.arange(r) + 1) % r), (
                    f"{label}: detected cycle {dec.rho}")
                assert dec.residual < 1e-10, (
                    f"{label}: residual {dec.residual:.3e}")
                rep = exactness_report(c, w, f_basis, g_basis,
                                       horizon=40, tol=1e-8)
                assert (dec.r == 1) == rep.exact_verdict, label


def test_block_swap_restricted_square_is_immediately_exact():
    with budget(5.0):
        space = FiniteMeasureSpace.uniform(4)
        c, w = constant_cocycle(MarkovMatrix(space, block_cycle_kernel(4, 2)))
        dec = detect_periodicity(c, w, horizon=16, r_max=4)
        assert dec.found and dec.r == 2
        for comp in range(dec.r):
            assert dec.cycle_length(comp) == 2
            rc, cells = restricted_power_cocycle(c, dec, comp)
            assert cells.size == 2
            rep = exactness_report(
                rc, point(rc.driving, 0), zero_mean_basis(rc.space),
                indicator_basis(rc.space), horizon=8, tol=1e-12)
            assert rep.exact_verdict and rep.routes_agree, f"component {comp}"
            assert np.all(rep.norm_curves[:, 1:] == 0.0), (
                f"component {comp}: norms after one restricted step "
                f"{rep.norm_curves[:, 1:].max():.3e}")


def test_skew_product_cylinder_sets_mix_and_env_factorizes():
    with budget(60.0):
        sc = load_scenario(str(SCENARIOS / "bernoulli_doubling.yaml"))
        nc = NormalizedCocycle(cocycle=sc.cocycle,
                               h=build_invariant_density_map(sc.cocycle))
        pairs = load_product_sets(str(SCENARIOS / "sets_halves.yaml"),
                                  sc.space.n)
        assert {pid for pid, _, _ in pairs} == {
            "cyl_halves", "fiber_quarters", "wide_cylinder"}
        for pair_id, a, b in pairs:
            rep = skew_mixing_curve(nc, a, b, horizon=40, tol=1e-3)
            assert rep.method == "cylinder-product", pair_id
            assert rep.decayed, pair_id
            assert abs(rep.discrepancy[30]) < 1e-3, (
                f"{pair_id}: |joint - product| at n=30 is "
                f"{abs(rep.discrepancy[30]):.3e}")
            if a.env_constraints and b.env_constraints:
                width = max(b.env_constraints) - min(a.env_constraints) + 1
                assert rep.factorizes_from == width, pair_id
                target = (env_probability(sc.driving, a)
                          * env_probability(sc.driving, b))
                assert np.all(rep.env_factor[width:] == target), (
                    f"{pair_id}: environment factor not exactly multiplicative "
                    f"beyond the cylinder width")
                assert rep.env_factor[0] != target, pair_id


def test_operator_primitives_randomized_hygiene():
    with budget(30.0):
        rng = np.random.default_rng(20260816)
        worst = {"conservation": 0.0, "positivity": 0.0, "contraction": 0.0,
                 "bilinearity": 0.0, "adjoint": 0.0}
        for _ in range(10_000):
            n = int(rng.integers(2, 25))
            w = rng.random(n) + 0.1
            space = FiniteMeasureSpace(w / w.sum())
            kernel = rng.random((n, n)) + 1e-3
            P = MarkovMatrix(space, kernel / kernel.sum(axis=1, keepdims=True))
            f = Density(space, rng.normal(size=n))
            f2 = Density(space, rng.normal(size=n))
            g = Observable(space, rng.normal(size=n))
            ones = Observable(space, np.ones(n))

            pf = apply(P, f)
            ppf = apply(P, pf)
            worst["conservation"] = max(
                worst["conservation"],
                abs(integrate(pf, ones) - integrate(f, ones)))
            worst["positivity"] = max(
                worst["positivity"],
                -float(apply(P, Density(space, np.abs(f.values))).values.min()))
            l1 = [float(np.abs(d.mass).sum()) for d in (f, pf, ppf)]
            worst["contraction"] = max(worst["contraction"],
                                       l1[1] - l1[0], l1[2] - l1[1])
            sa, sb = rng.normal(size=2)
            combo = Density(space, sa * f.values + sb * f2.values)
            worst["bilinearity"] = max(
                worst["bilinearity"],
                abs(integrate(combo, g)
                    - (sa * integrate(f, g) + sb * integrate(f2, g))))
            worst["adjoint"] = max(
                worst["adjoint"],
                abs(integrate(pf, g) - integrate(f, dual_apply(P, g))))
        for name, value in worst.items():
            assert value <= 1e-10, f"{name}: worst deviation {value:.3e}"


def test_ulam_refinement_residual_shrinks_and_rate_bounded():
    with budget(60.0):
        spec = MapSpec("doubling")
        kernels = {}
        residuals = {}
        lam = {}
        for n in (64, 256):
            space = FiniteMeasureSpace.uniform(n)
            kernels[n] = pf_ulam(spec, space, 2000, 42)
            lam[n] = second_eigenvalue(np.asarray(kernels[n].kernel))
            # one scalar residual fluctuates at the size of its own mean, so
            # the refinement comparison averages a pinned batch of draws
            x = (np.arange(n) + 0.5) / n
            f = Density(space, 1.0 + 0.5 * np.sin(2 * np.pi * x))
            g = Observable(space,
                           np.cos(2 * np.pi * x) + 0.3 * np.sin(6 * np.pi * x))
            residuals[n] = np.mean([
                duality_residual(pf_ulam(spec, space, 2000, seed), spec, f, g)
                for seed in range(8)])
        assert residuals[256] < residuals[64], (
            f"duality residual did not shrink under refinement: {residuals}")
        assert lam[64] <= 0.6 and lam[256] <= 0.6, lam

        space = kernels[256].space
        c, w = constant_cocycle(kernels[256])
        rep = estimate_mixing(c, "prior-hom",
                              zero_mean_basis(space, count=12),
                              indicator_basis(space, count=12),
                              [w], horizon=40, tol=1e-6)
        assert rep.decayed
        fits = fit_geometric_rates(rep.values)
        fitted = fits.rate[fits.n_points >= 2].max()
        assert fitted <= 0.6, f"fitted mixing rate {fitted:.4f}"
        assert abs(fitted - lam[256]) <= 0.15, (
            f"fitted rate {fitted:.4f} far from eigenvalue oracle "
            f"{lam[256]:.4f}")
