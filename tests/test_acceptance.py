"""End-to-end acceptance suite.

Each test exercises one release criterion at its stated tolerance and prints
a single PASS/FAIL line (run with ``pytest -s`` to see them).  Statistical
checks use fixed seeds, so the suite is deterministic.
"""

import time

import numpy as np

import proctomo as pt
from proctomo.linalg import (
    dagger,
    from_herm_coords,
    haar_unitary,
    hermitian_part,
    partial_trace_first,
)
from proctomo.metrics import loglog_slope
from proctomo.oracle import dense_estimates, dense_expansion_matrix, reshuffle_index
from proctomo.studies import ExperimentConfig, run_m_scaling_study, run_scaling_study


def verdict(num: int, name: str, ok: bool, detail: str) -> bool:
    print(f"ACCEPTANCE {num} {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    return ok


def test_acceptance_1_noiseless_exactness():
    t0 = time.perf_counter()
    worst = 0.0
    for d in (2, 4):
        ensemble = pt.mub_states(d)
        povm = pt.cube_povm(1 if d == 2 else 2)
        rec = pt.TwoStageReconstructor(ensemble, povm)
        channels = [pt.random_channel(d, tp=True, seed=s) for s in range(5)]
        channels += [
            pt.random_channel(d, tp=False, seed=100 + s) for s in range(2 if d == 2 else 3)
        ]
        for ch in channels:
            x_true = pt.process_matrix(ch).mat
            probs = pt.ideal_probabilities(ch, ensemble, povm)
            est = rec.estimate(pt.exact_record(probs, povm))
            worst = max(worst, np.linalg.norm(est.x_hat - x_true))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-8 and elapsed < 10.0
    assert verdict(1, "noiseless-exactness", ok, f"worst dev {worst:.2e}, {elapsed:.2f} s")


def test_acceptance_2_structure_correctness():
    worst_factor = 0.0
    for d, ensemble in ((2, pt.sic_states(2)), (3, pt.random_states(3, 9, seed=7))):
        v = ensemble.parameterization()
        dense = dense_expansion_matrix(ensemble)
        structured = np.kron(np.eye(d * d), v.T) @ np.eye(d**4)[reshuffle_index(d)]
        worst_factor = max(worst_factor, np.abs(dense - structured).max())

    worst_two_step = 0.0
    bases3 = [haar_unitary(3, np.random.default_rng(100 + k)) for k in range(4)]
    cases = [
        (pt.mub_states(2), pt.cube_povm(1), pt.random_channel(2, tp=True, seed=8)),
        (pt.random_states(3, 10, seed=9), pt.projective_povm(bases3), pt.random_channel(3, tp=True, seed=11)),
    ]
    for ensemble, povm, channel in cases:
        probs = pt.ideal_probabilities(channel, ensemble, povm)
        noisy = pt.sample_record(probs, 4000 * povm.num_sets, povm, seed=12)
        rec = pt.TwoStageReconstructor(ensemble, povm)
        d_struct = rec.process_least_squares(rec.output_coefficients(noisy.freq))
        d_dense, _ = dense_estimates(noisy, ensemble, povm)
        worst_two_step = max(worst_two_step, np.linalg.norm(d_struct - d_dense))

    ok = worst_factor <= 1e-12 and worst_two_step <= 1e-10
    assert verdict(
        2,
        "structure-correctness",
        ok,
        f"factorization dev {worst_factor:.2e}, two-step dev {worst_two_step:.2e}",
    )


def test_acceptance_3_design_exactness():
    checks = []

    rv = pt.design_metrics_V(pt.sic_states(4))
    checks.append(abs(rv.cost - 304.0) <= 1e-6 and abs(rv.cond - np.sqrt(5)) <= 1e-6)
    rv = pt.design_metrics_V(pt.mub_states(4))
    checks.append(abs(rv.cost - 304.0) <= 1e-6 and abs(rv.cond - np.sqrt(5)) <= 1e-6)

    rc = pt.design_metrics_C(pt.mub_povm(4))
    checks.append(abs(rc.cost - 76.0) <= 1e-6 and abs(rc.cond - np.sqrt(5)) <= 1e-6)

    rp = pt.design_metrics_V(pt.InputEnsemble(parts=[pt.mub_states(2), pt.mub_states(2)]))
    checks.append(abs(rp.cost - 400.0) <= 1e-6 and abs(rp.cond - 3.0) <= 1e-6)

    rcube = pt.design_metrics_C(pt.cube_povm(1))
    eig_ok = np.allclose(rcube.eigvals, [3.0, 1.0, 1.0, 1.0], atol=1e-9)
    checks.append(abs(rcube.cost - 10.0) <= 1e-6 and abs(rcube.cond - np.sqrt(3)) <= 1e-6 and eig_ok)

    checks = [bool(c) for c in checks]
    ok = all(checks)
    assert verdict(3, "design-exactness", ok, f"sic/mub/mub-povm/product/cube flags {checks}")


def test_acceptance_4_step1_statistical_bound():
    # Single-set SIC measurement at d=4: the per-state least-squares error of
    # step 1 stays below J/(4N) tr((C^dag C)^-1) with Monte-Carlo slack.
    channel = pt.random_channel(4, tp=True, seed=5)
    ensemble = pt.sic_states(4)
    povm = pt.sic_povm(4)
    copies, reps = 10_000, 500
    bound = povm.num_sets / (4 * copies) * (pt.design_metrics_C(povm).cost / povm.num_sets)
    rec = pt.TwoStageReconstructor(ensemble, povm)
    probs = pt.ideal_probabilities(channel, ensemble, povm)
    outputs = [sum(a @ rho @ dagger(a) for a in channel.kraus) for rho in ensemble.states]
    a_true = np.array([out.reshape(-1, order="F") for out in outputs])
    sq = np.zeros((reps, ensemble.num_states))
    for r in range(reps):
        record = pt.sample_record(probs, copies, povm, seed=40_000 + r, keep_ideal=False)
        a_hat = from_herm_coords(rec.output_coefficients(record.freq)).reshape(len(a_true), -1)
        sq[r] = np.sum(np.abs(a_hat - a_true) ** 2, axis=1)
    mse = sq.mean(axis=0)
    se = sq.std(axis=0) / np.sqrt(reps)
    ok = bool(np.all(mse <= bound + 3 * se))
    assert verdict(
        4,
        "step1-statistical-bound",
        ok,
        f"bound {bound:.3e}, worst per-state mse {mse.max():.3e} "
        f"({mse.max() / bound:.2f}x bound, {reps} reps)",
    )


def test_acceptance_5_copy_scaling():
    t0 = time.perf_counter()
    cfg = ExperimentConfig(
        channel="cnot",
        ensembles=("cube-states:2",),
        povm="cube-povm:2",
        copies=(10_800, 54_000, 270_000, 1_350_000),
        trials=10,
        seed=0,
    )
    result = run_scaling_study(cfg)
    mse_slope = result.slopes["mse[cube-states-2]"]
    infid_slope = result.slopes["infidelity[cube-states-2]"]
    elapsed = time.perf_counter() - t0
    ok = -1.15 <= mse_slope <= -0.85 and -0.65 <= infid_slope <= -0.35 and elapsed < 600
    assert verdict(
        5,
        "copy-scaling",
        ok,
        f"mse slope {mse_slope:.3f}, infidelity slope {infid_slope:.3f}, {elapsed:.1f} s",
    )


def test_acceptance_6_state_count_scaling():
    """Mean MSE versus the number of random input states, grid {16,32,64,128}.

    The grid starts at M = d*d = 16, where a random ensemble is only barely
    informationally complete: the inverse Gram of the stacked states is
    heavy-tailed (its mean is orders of magnitude above the large-M trend)
    and the constrained estimator saturates.  The measured four-point slope
    is therefore far below the asymptotic -1 law, which this check encodes;
    grids clear of the M = d*d corner land in or near the window (printed
    below as INFO).  Kept faithful to the stated grid; expected to fail.
    """
    result = run_m_scaling_study(
        d=4,
        num_states=(16, 32, 64, 128),
        copies_per_state=90_000,
        povm_spec="cube-povm:2",
        channel_spec="random:4:tp:7",
        trials=10,
        seed=0,
    )
    slope = result.slopes["mse[num_states]"]
    ok = -1.3 <= slope <= -0.8
    for shifted in ((32, 64, 128, 256), (64, 128, 256, 512)):
        res2 = run_m_scaling_study(
            d=4,
            num_states=shifted,
            copies_per_state=90_000,
            povm_spec="cube-povm:2",
            channel_spec="random:4:tp:7",
            trials=10,
            seed=0,
        )
        print(
            f"INFO acceptance 6: shifted grid {shifted} slope "
            f"{res2.slopes['mse[num_states]']:.3f} (window [-1.3, -0.8])"
        )
    assert verdict(6, "state-count-scaling", ok, f"slope {slope:.3f} on grid (16,32,64,128)")


def test_acceptance_7_ensemble_ordering():
    cfg = ExperimentConfig(
        channel="random:4:tp:11",
        ensembles=("sic:4", "mub:4", "random:4:20:3"),
        povm="cube-povm:2",
        copies=(320_000,),
        trials=20,
        seed=1,
    )
    result = run_scaling_study(cfg)
    mse = {row[0]: row[2] for row in result.rows}
    ok = mse["sic-4"] <= mse["random-4-20"] and mse["mub-4"] <= mse["random-4-20"]
    assert verdict(
        7,
        "ensemble-ordering",
        ok,
        f"mse sic {mse['sic-4']:.3e}, mub {mse['mub-4']:.3e}, random {mse['random-4-20']:.3e}",
    )


def test_acceptance_8_physicality_under_adversarial_noise():
    rng = np.random.default_rng(2024)
    cases = [(2, 700), (4, 300)]
    worst_eig, worst_cap = 0.0, 0.0
    for d, n_cases in cases:
        ensemble = pt.mub_states(d)
        povm = pt.cube_povm(1 if d == 2 else 2)
        rec = pt.TwoStageReconstructor(ensemble, povm)
        for _ in range(n_cases):
            freq = rng.uniform(0.0, 1.0, size=(ensemble.num_states, povm.num_elements))
            x = rec.estimate(freq).x_hat
            assert np.linalg.norm(x - dagger(x)) <= 1e-12
            worst_eig = min(worst_eig, np.linalg.eigvalsh(hermitian_part(x)).min())
            f = np.linalg.eigvalsh(hermitian_part(partial_trace_first(x, d))).max()
            worst_cap = max(worst_cap, f)
    ok = worst_eig >= -1e-9 and worst_cap <= 1 + 1e-9
    assert verdict(
        8,
        "adversarial-physicality",
        ok,
        f"1000 cases, min eig {worst_eig:.1e}, max partial-trace eig {worst_cap:.12f}",
    )


def test_acceptance_9_complexity_trend():
    # Informational only: wall clock of the full reconstruction versus qubit
    # count.  The flop-count ratio per added qubit approaches 96 here
    # (log10 ~ 1.98), but at these sizes fixed interpreter and LAPACK
    # overheads dominate the one- and two-qubit timings, so the measured
    # slope undershoots.  Reported, not gated.
    times = []
    for m, reps in ((1, 100), (2, 30), (3, 8)):
        d = 2**m
        ensemble = pt.random_states(d, d * (d + 1), seed=m)
        povm = pt.cube_povm(m)
        channel = pt.random_channel(d, tp=True, seed=m)
        probs = pt.ideal_probabilities(channel, ensemble, povm)
        record = pt.sample_record(probs, 270 * povm.num_sets, povm, seed=m, keep_ideal=False)
        best = np.inf
        for _ in range(reps):
            t0 = time.perf_counter()
            pt.TwoStageReconstructor(ensemble, povm).estimate(record)
            best = min(best, time.perf_counter() - t0)
        times.append(best)
    slope = loglog_slope([10.0, 100.0, 1000.0], times)
    tail = np.log10(times[2] / times[1])
    in_window = 1.5 <= slope <= 2.5
    verdict(
        9,
        "complexity-trend (informational)",
        True,
        f"slope {slope:.2f} vs theoretical ~1.98 (window hit: {in_window}; "
        f"2->3 qubit segment {tail:.2f}); times "
        + ", ".join(f"{t * 1e3:.2f} ms" for t in times),
    )
