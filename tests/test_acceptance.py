"""Acceptance gate: eleven binding checks with pinned tolerances.

Each test prints exactly one `[criterion N] name: PASS/FAIL (detail)`
line (visible under `pytest -s`) and then asserts the same condition,
so a red run still reports every criterion it reached.
"""

import contextlib
import io
import math
import statistics
import time

import numpy as np

from bnt.cli import main as cli_main
from bnt.data import Dataset, GeneratorSpec, generate_dataset, stratified_split
from bnt.linalg import gram_schmidt
from bnt.metrics import auroc
from bnt.model import CentersMode, ModelConfig, Readout, forward, init_params, loss_and_grad, trainable_names
from bnt.rng import Rng
from bnt.theory import (
    correlated_unit_centers,
    orthonormal_centers,
    variance_functional_2d,
    variance_functional_mc,
    vif,
)

from _oracles import auroc_pairs, finite_difference_grads, held, max_relative_error


def _criterion(index, name, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {index:2d}] {name}: {status} ({detail})")
    assert ok, f"criterion {index} {name}: {detail}"


def _quiet_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli_main(argv)
    assert code == 0, f"bnt {argv[0]} failed ({code}): {err.getvalue().strip()}"


# ---------------------------------------------------------------------------


def test_criterion_01_analytic_gradients_match_finite_differences():
    started = time.monotonic()
    spec = GeneratorSpec(
        nodes=8, modules=2, subjects_per_class=1, sites=1, series_length=32, seed=1
    )
    graphs = held(generate_dataset(spec))
    batch = list(zip(graphs.matrices, graphs.labels.tolist()))
    assert sorted(graphs.labels.tolist()) == [0, 1]

    worst = 0.0
    tested = 0
    for readout in Readout:
        for centers in CentersMode:
            config = ModelConfig(
                nodes=8, layers=1, heads=2, clusters=3, mlp_hidden=(6, 4),
                readout=readout, centers_mode=centers,
            )
            params = init_params(config, Rng(7))
            _, grads = loss_and_grad(graphs.matrices, params, config, graphs.labels)
            numeric = finite_difference_grads(batch, params, config, h=1e-5)
            analytic = dict(grads.named_tensors())
            for name in trainable_names(config):
                worst = max(worst, max_relative_error(analytic[name], numeric[name]))
                tested += 1
    elapsed = time.monotonic() - started
    _criterion(
        1,
        "analytic gradients match central differences",
        worst < 1e-4 and elapsed < 60.0,
        f"worst rel err {worst:.3e} over {tested} tensors in 15 configs, {elapsed:.1f}s",
    )


def test_criterion_02_gram_schmidt_orthonormality_at_scale():
    worst = 0.0
    for k, dim in ((4, 16), (10, 100), (100, 400)):
        basis = gram_schmidt(Rng(k * 1000 + dim).normal(k * dim).reshape(k, dim))
        gram = basis @ basis.T
        worst = max(worst, float(np.abs(gram - np.eye(k)).max()))
    _criterion(
        2,
        "orthonormalized rows satisfy E E^T = I",
        worst < 1e-10,
        f"worst |E E^T - I| entry {worst:.3e} across (4,16),(10,100),(100,400)",
    )


def test_criterion_03_quadrature_functional_increases_with_center_angle():
    at_zero = variance_functional_2d(0.0, 3.0, quad_nodes=64)
    grid = [math.pi / 8, math.pi / 4, 3 * math.pi / 8, math.pi / 2]
    values = [variance_functional_2d(phi, 3.0, quad_nodes=64) for phi in grid]
    conv_errs = [
        abs(v - variance_functional_2d(phi, 3.0, quad_nodes=32))
        for phi, v in zip(grid, values)
    ]
    ladder = [at_zero] + values
    increments = [b - a for a, b in zip(ladder, ladder[1:])]
    floor = 3.0 * max(conv_errs)
    ok = at_zero == 0.0 and all(inc > floor for inc in increments)
    _criterion(
        3,
        "2-D assignment variance grows with center separation",
        ok,
        f"F(0)={at_zero!r}, min increment {min(increments):.4f} "
        f"vs 3x convergence error {floor:.2e}",
    )


def test_criterion_04_monte_carlo_favors_orthonormal_centers():
    started = time.monotonic()
    orth = variance_functional_mc(orthonormal_centers(4, 8, seed=0), 3.0, 1_000_000, seed=0)
    corr = variance_functional_mc(correlated_unit_centers(4, 8, 0.5), 3.0, 1_000_000, seed=0)
    combined = math.hypot(orth.standard_error, corr.standard_error)
    gap_sigma = (orth.value - corr.value) / combined
    elapsed = time.monotonic() - started
    _criterion(
        4,
        "10^6-sample MC separates orthonormal from cosine-0.5 centers",
        gap_sigma > 3.0 and elapsed < 120.0,
        f"{orth.value:.6f} vs {corr.value:.6f}, gap {gap_sigma:.0f} "
        f"combined standard errors, {elapsed:.1f}s",
    )


def test_criterion_05_vif_calibration():
    rng = Rng(0)
    raw = rng.derive(1).normal(4 * 1024).reshape(4, 1024)
    orthogonal = gram_schmidt(np.vstack([np.ones((1, 1024)), raw]))[1:].T
    orth_dev = max(abs(v - 1.0) for v in vif(orthogonal).vif)

    x = rng.derive(2).normal(10_000)
    z = rng.derive(3).normal(10_000)
    y = 0.9 * x + math.sqrt(1.0 - 0.81) * z
    rho_mean = vif(np.column_stack([x, y])).mean_vif
    rho_dev = abs(rho_mean - 5.263) / 5.263
    _criterion(
        5,
        "VIF is 1 on orthogonal columns and 1/(1-rho^2) under correlation",
        orth_dev < 1e-9 and rho_dev < 0.02,
        f"orthogonal max |VIF-1| {orth_dev:.2e}; rho=0.9 mean VIF {rho_mean:.4f} "
        f"({rho_dev:.2%} from 5.263)",
    )


def test_criterion_06_rank_auroc_equals_pair_counting():
    rng = Rng(123)
    worst = 0.0
    for case in range(100):
        srng = rng.derive(case)
        n = 2 + int(srng.uniform(1)[0] * 199)
        labels = (srng.uniform(n) < 0.5).astype(int)
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]  # both classes must appear
        # draw from a small alphabet so ties are common
        scores = np.floor(srng.uniform(n) * 10.0) / 10.0
        worst = max(worst, abs(auroc(scores, labels) - auroc_pairs(scores, labels)))
    _criterion(
        6,
        "midrank AUROC equals exhaustive pair counting",
        worst <= 1e-12,
        f"max |difference| {worst:.2e} over 100 tied instances up to n=200",
    )


def test_criterion_07_planted_signal_is_learned_and_null_is_chance(trend_runs):
    medians = trend_runs["medians"]
    ok = (
        medians["planted_ocread"] >= 0.90
        and medians["planted_ocread"] >= medians["planted_mean"]
        and 0.4 <= medians["null_ocread"] <= 0.6
        and trend_runs["duration"] < 1800.0
    )
    _criterion(
        7,
        "planted structure is learned, label-free data stays at chance",
        ok,
        f"median AUROC: clustering readout {medians['planted_ocread']:.4f}, "
        f"mean readout {medians['planted_mean']:.4f}, "
        f"null {medians['null_ocread']:.4f}; {trend_runs['duration']:.0f}s for 15 runs",
    )


def test_criterion_08_orthonormal_centers_stabilize_training(ablate_workspace):
    import csv

    with open(ablate_workspace["csv"], newline="", encoding="utf-8") as f:
        rows = list(csv.reader(f))[1:]
    std = {row[1]: float(row[5]) for row in rows if row[3] == "std"}
    with open(ablate_workspace["csv"] + ".manifest", encoding="utf-8") as f:
        produced_by_ablate = any(
            line.strip() == "command = ablate" for line in f
        )
    ok = std["orthonormal"] <= std["random_unit"] and produced_by_ablate
    _criterion(
        8,
        "orthonormal centers give lower seed-to-seed AUROC spread",
        ok,
        f"std {std['orthonormal']:.5f} (orthonormal) vs {std['random_unit']:.5f} "
        f"(random unit) over 5 seeds, from the ablate sweep CSV",
    )


def test_criterion_09_stratified_cells_stay_proportional():
    rng = Rng(2024)
    worst = 0.0
    for case in range(100):
        srng = rng.derive(case)
        sites = 1 + int(srng.uniform(1)[0] * 5)
        per_class = 2 + int(srng.uniform(1)[0] * 49)
        site_draw = srng.uniform(2 * per_class)
        n = 2 * per_class
        labels = np.arange(n) % 2
        site_of = (site_draw * sites).astype(int)
        graphs = Dataset(np.arange(n), labels, site_of, np.ones((n, 1, 1)))
        fractions = (0.7, 0.1, 0.2)
        plan = stratified_split(graphs, fractions, srng.derive(1))
        totals = {}
        for i in range(n):
            cell = (site_of[i], labels[i])
            totals[cell] = totals.get(cell, 0) + 1
        for fraction, ids in zip(fractions, (plan.train, plan.val, plan.test)):
            counts = {}
            for i in ids:  # subject i is row i
                cell = (site_of[i], labels[i])
                counts[cell] = counts.get(cell, 0) + 1
            for cell, total in totals.items():
                worst = max(worst, abs(counts.get(cell, 0) - fraction * total))
    _criterion(
        9,
        "every (split, site, label) cell deviates at most 1 from proportional",
        worst <= 1.0,
        f"max cell deviation {worst:.3f} subjects over 100 random configurations",
    )


def test_criterion_10_seeded_cli_chain_is_byte_reproducible(tmp_path):
    def chain(root):
        root.mkdir()
        dataset = str(root / "data.bntd")
        split = str(root / "split.txt")
        run_dir = str(root / "run")
        metrics = str(root / "metrics.csv")
        _quiet_cli(
            ["generate", "--nodes", "12", "--modules", "3", "--subjects-per-class", "10",
             "--sites", "2", "--series-length", "48", "--seed", "11", "--out", dataset]
        )
        _quiet_cli(
            ["split", "--dataset", dataset, "--fractions", "0.6,0.2,0.2",
             "--seed", "2", "--out", split]
        )
        _quiet_cli(
            ["train", "--dataset", dataset, "--split", split, "--epochs", "2",
             "--seed", "0", "--out", run_dir]
        )
        _quiet_cli(
            ["eval", "--checkpoint", run_dir + "/checkpoint.bnt", "--dataset", dataset,
             "--split", split, "--out", metrics]
        )
        return [dataset, split, run_dir + "/checkpoint.bnt", run_dir + "/report.txt", metrics]

    first = chain(tmp_path / "a")
    second = chain(tmp_path / "b")
    mismatched = []
    for path_a, path_b in zip(first, second):
        with open(path_a, "rb") as fa, open(path_b, "rb") as fb:
            if fa.read() != fb.read():
                mismatched.append(path_a.rsplit("/", 1)[-1])
    _criterion(
        10,
        "two identical seeded CLI chains produce byte-identical artifacts",
        not mismatched,
        "dataset, split, checkpoint, report, metrics all match"
        if not mismatched
        else f"mismatch in {', '.join(mismatched)}",
    )


def test_criterion_11_forward_cost_scales_at_most_cubically():
    def correlation_input(v, seed):
        rng = Rng(seed)
        series = rng.normal(v * 2 * v).reshape(v, 2 * v)
        m = np.corrcoef(series)
        m = 0.5 * (m + m.T)
        np.clip(m, -1.0, 1.0, out=m)
        np.fill_diagonal(m, 1.0)
        return m

    def median_forward_time(v):
        config = ModelConfig(nodes=v)
        params = init_params(config, Rng(0))
        x = correlation_input(v, 1)
        for _ in range(5):
            forward(x, params, config)
        times = []
        for _ in range(20):
            t0 = time.perf_counter()
            forward(x, params, config)
            times.append(time.perf_counter() - t0)
        return statistics.median(times)

    t64 = median_forward_time(64)
    t128 = median_forward_time(128)
    ratio = t128 / t64
    _criterion(
        11,
        "doubling node count costs at most 8x forward wall time",
        ratio <= 8.0,
        f"median of 20: {t64 * 1e3:.2f} ms at V=64, {t128 * 1e3:.2f} ms at V=128, "
        f"ratio {ratio:.2f}",
    )
