"""Acceptance gate: one pass/fail line per shipped guarantee.

Run ``pytest -s tests/test_acceptance.py`` to see the lines stream; each
criterion is its own test so one failure never masks another. Tolerances
are pinned here and nowhere else.
"""

from __future__ import annotations

import math
import subprocess
import sys
import time

import numpy as np

from badgd.dataset import Dataset, Trigger, sufficient_stats
from badgd.gdp import (
    delta_of_epsilon,
    epsilon_of_mu,
    epsilon_of_tradeoff,
    gaussian_tradeoff,
)
from badgd.risk import risk_gradient
from badgd.sim import monte_carlo_tradeoff, noisy_gd_step
from badgd.triggers import (
    TriggerConstraints,
    graddistwarp_snr,
    gradwarp_objective,
    make_gradwarp_trigger,
    make_riskwarp_trigger,
    riskwarp_objective,
)
from conftest import TWO_POINT_CSV, corpus, gaps_of, magnitude, make_two_point

CORPUS_COUNT = 1000
CORPUS_SEED = 90210
GRID_POINTS = 10_000
MC_TRIALS = 100_000
MC_SEED = 7
W_FIXTURE = np.array([1.0, 0.0])


def _report(num: int, description: str, check) -> None:
    try:
        check()
    except BaseException:
        print(f"ACCEPTANCE {num:02d} FAIL {description}")
        raise
    print(f"ACCEPTANCE {num:02d} PASS {description}")


def test_criterion_01_gap_identities():
    def check():
        start = time.perf_counter()
        count = 0
        for w, d0, v in corpus(CORPUS_COUNT, CORPUS_SEED):
            gaps = gaps_of(w, d0, v)
            rg = gaps.risk
            assert rg.discrepancy <= 1e-10 * (
                1.0 + magnitude(rg.direct, rg.closed_form)
            )
            gg = gaps.gradient
            assert gg.discrepancy <= 1e-10 * (
                1.0 + magnitude(gg.direct, gg.closed_form)
            )
            mi = gaps.mixture
            assert mi.discrepancy <= 1e-10 * (
                1.0 + magnitude(mi.direct, mi.closed_form)
            )
            count += 1
        elapsed = time.perf_counter() - start
        assert count >= 1000
        assert elapsed < 5.0, f"identity sweep took {elapsed:.2f}s"

    _report(1, "risk, gradient, and mixture identities on the random corpus", check)


def test_criterion_02_scaling_reductions():
    def check():
        rng = np.random.default_rng(CORPUS_SEED + 1)
        for w, d0, v in corpus(CORPUS_COUNT, CORPUS_SEED):
            stats = sufficient_stats(d0)
            m = d0.n + 1

            j = riskwarp_objective(w, stats, v.x_v, v.y_v)
            gaps = gaps_of(w, d0, v)
            rg = gaps.risk
            assert abs(j - m * rg.direct) <= 1e-10 * (1.0 + magnitude(j))

            g = gradwarp_objective(w, stats, v.x_v, v.y_v)
            gap_norm = float(np.linalg.norm(gaps.gradient.direct))
            assert abs(g - 0.5 * m * gap_norm) <= 1e-10 * (1.0 + magnitude(g))

            sigma = float(rng.uniform(0.1, 3.0))
            snr = graddistwarp_snr(w, stats, v.x_v, v.y_v, sigma)
            assert abs(snr - gap_norm / sigma) <= 1e-10 * (1.0 + magnitude(snr))

    _report(2, "stats objectives match gap values under the scaling ledger", check)


def test_criterion_03_riskwarp_restricted_optimality():
    def check():
        fixture_stats = sufficient_stats(make_two_point())
        best = make_riskwarp_trigger(
            W_FIXTURE, TriggerConstraints(response_bound=2.0, trigger_scale=1.0)
        )
        value = riskwarp_objective(W_FIXTURE, fixture_stats, best.x_v, best.y_v)
        assert abs(value - 8.5) <= 1e-10

        rng = np.random.default_rng(CORPUS_SEED + 2)
        for idx, (w, d0, _) in enumerate(corpus(200, CORPUS_SEED + 3)):
            stats = sufficient_stats(d0)
            scale = float(rng.uniform(0.05, 2.0))
            bound = float(rng.uniform(0.5, 5.0))
            c = TriggerConstraints(response_bound=bound, trigger_scale=scale)
            v = make_riskwarp_trigger(w, c)
            value = riskwarp_objective(w, stats, v.x_v, v.y_v)

            wn2 = float(w @ w)
            expr = (
                bound**2
                - stats.s_y
                + 2.0 * float(w @ stats.s_yx)
                + 2.0 * scale * bound * wn2
                + scale**2 * wn2**2
                - float(w @ stats.s_xx @ w)
            )
            assert abs(value - expr) <= 1e-10 * (1.0 + magnitude(value, expr))

            # grid the fixed-direction slice on a subset; the endpoint wins
            if idx < 12:
                for y in np.linspace(-bound, bound, GRID_POINTS):
                    assert riskwarp_objective(w, stats, v.x_v, float(y)) <= value + 1e-9

    _report(3, "risk trigger is optimal on its slice and matches its formula", check)


def test_criterion_04_gradwarp_completing_square():
    def check():
        fixture_stats = sufficient_stats(make_two_point())
        best = make_gradwarp_trigger(W_FIXTURE, TriggerConstraints(), fixture_stats)
        value = gradwarp_objective(W_FIXTURE, fixture_stats, best.x_v, best.y_v)
        assert abs(value - math.sqrt(1.25)) <= 1e-12

        rng = np.random.default_rng(CORPUS_SEED + 5)
        for idx, (w, d0, _) in enumerate(corpus(200, CORPUS_SEED + 6)):
            stats = sufficient_stats(d0)
            scale = float(rng.uniform(0.05, 2.0))
            v = make_gradwarp_trigger(w, TriggerConstraints(trigger_scale=scale), stats)
            value = gradwarp_objective(w, stats, v.x_v, v.y_v)

            wn2 = float(w @ w)
            proj = float(w @ stats.s_yx) / wn2
            expr = float(
                np.linalg.norm(
                    stats.s_yx - proj * w + scale**2 * wn2 * w - stats.s_xx @ w
                )
            )
            assert abs(value - expr) <= 1e-10 * (1.0 + magnitude(value, expr))

            # the response choice minimizes the s_yx alignment square; grid it
            if idx < 12:
                width = 5.0 * (1.0 + abs(v.y_v))
                grid = np.linspace(v.y_v - width, v.y_v + width, GRID_POINTS)
                squares = np.sum(
                    (stats.s_yx[None, :] - grid[:, None] * v.x_v[None, :]) ** 2,
                    axis=1,
                )
                base = float(np.sum((stats.s_yx - v.y_v * v.x_v) ** 2))
                assert float(np.min(squares)) >= base - 1e-9

    _report(4, "gradient trigger response is the alignment minimizer", check)


def _zero_gap_instance():
    # duplicating an existing point leaves every gap exactly zero
    clean = Dataset([[1.0, 0.5]], [2.0])
    v = Trigger(x_v=[1.0, 0.5], y_v=2.0)
    return np.array([0.2, -0.1]), clean, v


def test_criterion_05_monte_carlo_matches_analytic():
    alphas = (0.01, 0.05, 0.2)

    def instance(d_target: float):
        if d_target == 0.0:
            w, clean, v = _zero_gap_instance()
        else:
            clean = make_two_point()
            w = W_FIXTURE
            v = make_gradwarp_trigger(
                w, TriggerConstraints(), sufficient_stats(clean)
            )
        gaps = gaps_of(w, clean, v)
        gap_norm = float(np.linalg.norm(gaps.gradient.direct))
        sigma = gap_norm / d_target if d_target else 1.0
        return gaps.grad_clean, gaps.grad_bad, sigma

    def check():
        start = time.perf_counter()
        for d_target in (0.0, 0.5, 1.0, 2.0):
            grad_clean, grad_bad, sigma = instance(d_target)
            for res in monte_carlo_tradeoff(
                grad_clean, grad_bad, sigma, alphas, MC_TRIALS, MC_SEED
            ):
                alpha, est_type2 = res["alpha"], res["est_type2"]
                type2, power = gaussian_tradeoff(d_target, alpha)
                se = math.sqrt(type2 * (1.0 - type2) / MC_TRIALS)
                assert abs(est_type2 - type2) <= 3.0 * se, (
                    f"d={d_target}, alpha={alpha}: "
                    f"{est_type2} vs {type2} (se {se:.2e})"
                )
                assert abs((1.0 - est_type2) - power) <= 3.0 * se
        elapsed = time.perf_counter() - start
        assert elapsed < 60.0, f"distinguisher sweep took {elapsed:.2f}s"

    _report(5, "simulated error rates bracket the analytic curve at 3 SE", check)


def test_criterion_06_delta_engine():
    def check():
        for mu in (0.5, 1.0, 2.0, 4.0):
            deltas = [delta_of_epsilon(e, mu) for e in np.linspace(0.0, 5.0, 101)]
            assert np.all(np.diff(deltas) < 0.0), f"not strictly decreasing at mu={mu}"

        for mu in (0.3, 0.8, 1.0, 2.0, 3.5):
            for delta in (1e-5, 1e-3, 1e-1):
                # round trip is only meaningful when epsilon = 0 does not
                # already satisfy the target
                if delta_of_epsilon(0.0, mu) > delta:
                    eps = epsilon_of_mu(mu, delta)
                    assert abs(delta_of_epsilon(eps, mu) - delta) <= 1e-8

        assert abs(delta_of_epsilon(0.0, 1.0) - 0.382925) <= 1e-6

    _report(6, "delta engine is strictly monotone and the solver round-trips", check)


def test_criterion_07_epsilon_monotone_in_mu():
    def check():
        mus = np.arange(1, 41) / 10.0
        for delta in (1e-5, 1e-3, 1e-1):
            values = [epsilon_of_mu(float(mu), delta) for mu in mus]
            diffs = np.diff(values)
            assert np.all(diffs >= 0.0), f"violations at delta={delta}: {diffs.min()}"

    _report(7, "required budget never shrinks as the mean gap grows", check)


def test_criterion_08_budget_routes_agree():
    def check():
        for mu in (0.3, 0.8, 1.0, 2.0, 3.5, 10.0, 50.0, 200.0, 248.0):
            for delta in (1e-5, 1e-3, 1e-1):
                primal = epsilon_of_mu(mu, delta)
                dual = epsilon_of_tradeoff(mu, delta)
                tol = 1e-9 * (1.0 + max(primal, dual))
                assert abs(primal - dual) <= tol, f"mu={mu}, delta={delta}"

    _report(8, "bisection and tradeoff-curve budgets agree to 1e-9", check)


def test_criterion_09_noisy_step_moments():
    def check():
        clean = make_two_point()
        gamma, sigma = 0.1, 1.0
        n = 100_000
        rng = np.random.default_rng(2024)
        noise = sigma * rng.standard_normal((n, clean.feature_dim))
        samples = np.empty((n, clean.feature_dim))
        for i in range(n):
            samples[i] = noisy_gd_step(W_FIXTURE, clean, gamma, noise[i])

        target_mean = W_FIXTURE - gamma * risk_gradient(W_FIXTURE, clean)
        sg = gamma * sigma
        mean_tol = 4.0 * sg / math.sqrt(n)
        assert np.all(np.abs(samples.mean(axis=0) - target_mean) <= mean_tol)

        variances = samples.var(axis=0, ddof=1)
        assert np.all(np.abs(variances - sg**2) <= 0.05 * sg**2)

    _report(9, "one-step update matches its mean and isotropic variance", check)


def test_criterion_10_end_to_end_determinism(tmp_path):
    def check():
        base = [
            sys.executable,
            "-m",
            "badgd.cli",
            "audit",
            "--data",
            str(TWO_POINT_CSV),
            "--weights",
            "1,0",
            "--trials",
            "2000",
            "--seed",
            "7",
        ]
        payloads = []
        for name in ("first", "second"):
            out = tmp_path / name
            proc = subprocess.run(
                base + ["--out", str(out)], capture_output=True, text=True
            )
            assert proc.returncode == 0, proc.stderr
            payloads.append((out / "report.json").read_bytes())
        assert payloads[0] == payloads[1]

    _report(10, "audit report bytes are identical across two runs", check)
