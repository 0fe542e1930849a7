"""Release acceptance suite: one test per numbered criterion.

``pytest -v tests/test_acceptance.py`` prints exactly one pass/fail line
per criterion.  Every test is seeded and self-contained, and the
tolerances asserted here are the release tolerances — nothing is
loosened relative to the per-module suites.
"""

import json
import time

import numpy as np

from kreinflat import activations as act
from kreinflat import analysis, cli, ksvm, netcore
from kreinflat import kreinkernel as kk
from kreinflat import pushforward as pf


# ---------------------------------------------------------------------------
# shared draw helpers
# ---------------------------------------------------------------------------

def _random_poly_spec(rng, max_degree=3):
    """A random valid polynomial activation (a_0 >= 0, a_1 > 0) and its degree."""
    deg = int(rng.integers(1, max_degree + 1))
    coeffs = [float(rng.uniform(0.0, 0.5)), float(rng.uniform(0.2, 1.0))]
    for _ in range(deg - 1):
        coeffs.append(float(rng.uniform(0.1, 0.8)) * float(rng.choice((-1.0, 1.0))))
    return act.polynomial(tuple(coeffs)), deg


def _random_shape(rng, max_depth=3, max_dim=3):
    d = int(rng.integers(1, max_depth + 1))
    dim = int(rng.integers(1, max_dim + 1))
    widths = tuple(int(rng.integers(1, max_dim + 1)) for _ in range(d - 1)) + (1,)
    return d, dim, widths


def _uniform_weights(rng, arch, scale):
    return netcore.WeightSet(
        tuple(rng.uniform(-scale, scale, size=s) for s in arch.layer_shapes())
    )


def _unit_frobenius(rng, shapes):
    """Admissible draw: each layer normalized to unit Frobenius norm.

    Unit Frobenius makes every entry magnitude <= 1 automatically, so the
    draw satisfies the per-layer admissibility condition with equality.
    """
    mats = []
    for s in shapes:
        m = rng.uniform(-1.0, 1.0, size=s)
        m /= np.sqrt(np.sum(m * m))
        mats.append(m)
    return netcore.WeightSet(tuple(mats))


def _flat_forward(arch, weights, x, trunc):
    phi = pf.flatten_feature_map(arch, x, trunc)
    metric = pf.flatten_metric(arch, trunc)
    return pf.flat_eval(pf.flat_weight(arch, weights, trunc), phi, metric)


# ---------------------------------------------------------------------------
# 1. exact flattening equivalence for polynomial networks
# ---------------------------------------------------------------------------

def test_criterion_01_polynomial_flattening_equivalence():
    rng = np.random.default_rng(101)
    started = time.monotonic()
    accepted = 0
    attempts = 0
    worst = 0.0
    while accepted < 20:
        attempts += 1
        assert attempts < 500, "random polynomial networks kept exceeding the size guard"
        d, dim, widths = _random_shape(rng)
        spec, deg = _random_poly_spec(rng)
        arch = netcore.Architecture(dim, widths, (spec,) * d)
        trunc = deg ** d
        try:
            pf.level_counts(arch, trunc, max_entries=60_000)
        except pf.SizeLimitError:
            continue
        weights = _uniform_weights(rng, arch, 0.7)
        metric = pf.flatten_metric(arch, trunc)
        flat_w = pf.flat_weight(arch, weights, trunc)
        for x in rng.uniform(-1.0, 1.0, size=(50, dim)):
            f = netcore.forward(arch, weights, x)
            flat = pf.flat_eval(flat_w, pf.flatten_feature_map(arch, x, trunc), metric)
            worst = max(worst, abs(f - flat) / (1.0 + abs(f)))
        accepted += 1
    elapsed = time.monotonic() - started
    assert worst <= 1e-9
    assert elapsed <= 60.0


# ---------------------------------------------------------------------------
# 2. analytic activations agree at truncation 10 for small arguments
# ---------------------------------------------------------------------------

def _max_nested_argument(arch, weights, x):
    h = np.asarray(x, dtype=float)
    peak = 0.0
    for q in range(arch.depth):
        z = weights.matrices[q] @ h
        peak = max(peak, float(np.max(np.abs(z))))
        h = act.evaluate(arch.activations[q], z)
    return peak


def test_criterion_02_analytic_flattening_small_arguments():
    rng = np.random.default_rng(202)
    accepted = 0
    attempts = 0
    worst = 0.0
    while accepted < 6:
        attempts += 1
        assert attempts < 500, "could not find networks with all arguments below 0.3"
        d, dim, widths = _random_shape(rng)
        specs = tuple(
            (act.erf() if rng.integers(2) else act.tanh()) for _ in range(d)
        )
        arch = netcore.Architecture(dim, widths, specs)
        try:
            pf.level_counts(arch, 10, max_entries=60_000)
        except pf.SizeLimitError:
            continue
        weights = netcore.WeightSet(
            tuple(
                rng.uniform(-0.45, 0.45, size=s) / np.sqrt(s[1])
                for s in arch.layer_shapes()
            )
        )
        xs = rng.uniform(-0.5, 0.5, size=(5, dim))
        if max(_max_nested_argument(arch, weights, x) for x in xs) > 0.3:
            continue
        metric = pf.flatten_metric(arch, 10)
        flat_w = pf.flat_weight(arch, weights, 10)
        for x in xs:
            f = netcore.forward(arch, weights, x)
            flat = pf.flat_eval(flat_w, pf.flatten_feature_map(arch, x, 10), metric)
            worst = max(worst, abs(f - flat))
        accepted += 1
    assert worst <= 1e-5


# ---------------------------------------------------------------------------
# 3. kernel chains match truncated feature inner products, both variants
# ---------------------------------------------------------------------------

def test_criterion_03_kernel_identity_both_variants():
    rng = np.random.default_rng(303)

    worst_poly = 0.0
    accepted = 0
    attempts = 0
    while accepted < 12:
        attempts += 1
        assert attempts < 500
        d, dim, widths = _random_shape(rng, max_depth=2)
        spec, deg = _random_poly_spec(rng)
        arch = netcore.Architecture(dim, widths, (spec,) * d)
        trunc = deg ** d
        try:
            pf.level_counts(arch, trunc, max_entries=60_000)
        except pf.SizeLimitError:
            continue
        metric = pf.flatten_metric(arch, trunc)
        folded = metric.like(np.abs(metric.values))
        x, xp = rng.uniform(-0.8, 0.8, size=(2, dim))
        phi = pf.flatten_feature_map(arch, x, trunc)
        phip = pf.flatten_feature_map(arch, xp, trunc)
        kdef = kk.KernelDefinition(arch)
        adef = kk.KernelDefinition(arch, variant="associated")
        worst_poly = max(
            worst_poly,
            abs(kk.kernel_value(kdef, x, xp) - pf.flat_inner(metric, phi, phip)),
            abs(kk.kernel_value(adef, x, xp) - pf.flat_inner(folded, phi, phip)),
        )
        accepted += 1
    assert worst_poly <= 1e-10

    worst_erf = 0.0
    for _ in range(8):
        d = int(rng.integers(1, 3))
        dim = int(rng.integers(1, 3))
        widths = tuple(int(rng.integers(1, 3)) for _ in range(d - 1)) + (1,)
        arch = netcore.Architecture(dim, widths, tuple(act.erf() for _ in range(d)))
        metric = pf.flatten_metric(arch, 12)
        folded = metric.like(np.abs(metric.values))
        x, xp = rng.uniform(-0.2, 0.2, size=(2, dim))
        phi = pf.flatten_feature_map(arch, x, 12)
        phip = pf.flatten_feature_map(arch, xp, 12)
        kdef = kk.KernelDefinition(arch)
        adef = kk.KernelDefinition(arch, variant="associated")
        worst_erf = max(
            worst_erf,
            abs(kk.kernel_value(kdef, x, xp) - pf.flat_inner(metric, phi, phip)),
            abs(kk.kernel_value(adef, x, xp) - pf.flat_inner(folded, phi, phip)),
        )
    assert worst_erf <= 1e-6


# ---------------------------------------------------------------------------
# 4. multinomial coefficients against brute-force polynomial expansion
# ---------------------------------------------------------------------------

def _expand_power_sum(n, p):
    """Integer coefficients of (z_0 + ... + z_{n-1})**p by repeated distribution."""
    terms = {(0,) * n: 1}
    for _ in range(p):
        grown = {}
        for expo, coef in terms.items():
            for j in range(n):
                bumped = expo[:j] + (expo[j] + 1,) + expo[j + 1:]
                grown[bumped] = grown.get(bumped, 0) + coef
        terms = grown
    return terms


def test_criterion_04_multinomial_gamma_oracle():
    # The activation contract requires a positive linear coefficient, so the
    # pure power t**p is carried as the degree-p slice of t + t**p.  That
    # slice depends only on the degree-p coefficient (here 1), so it must
    # equal the brute-force integer expansion of (z_0 + ... + z_{n-1})**p
    # exactly, with no tolerance.
    for p in range(1, 5):
        if p == 1:
            spec = act.linear()
        else:
            spec = act.polynomial((0.0, 1.0) + (0.0,) * (p - 2) + (1.0,))
        for n in range(1, 4):
            gamma = pf.flatten_metric(netcore.Architecture(n, (1,), (spec,)), p)
            brute = _expand_power_sum(n, p)
            for expo, coef in brute.items():
                assert gamma.entries.get(expo, 0.0) == float(coef)
            stored = sum(1 for key in gamma.entries if sum(key) == p)
            assert stored == len(brute)


# ---------------------------------------------------------------------------
# 5. representer stationarity of the eigensolver; descent agrees
# ---------------------------------------------------------------------------

def test_criterion_05_representer_stationarity():
    rng = np.random.default_rng(505)
    tanh_arch = netcore.Architecture(2, (2, 1), (act.tanh(), act.tanh()))
    tanh_def = kk.KernelDefinition(tanh_arch)
    solved = 0
    attempts = 0
    indefinite_total = 0
    indefinite_kernel = 0
    while solved < 100:
        attempts += 1
        assert attempts < 300
        n = int(rng.integers(2, 21))
        from_kernel = solved % 3 == 2
        if from_kernel:
            pts = rng.uniform(-0.6, 0.6, size=(n, 2))
            gram = kk.gram(tanh_def, pts)
        else:
            raw = rng.normal(size=(n, n))
            gram = (raw + raw.T) / 2.0
        y = rng.normal(size=n)
        lam = float(rng.uniform(0.05, 2.0))
        try:
            alpha, residual = ksvm.train_squared(gram, y, lam)
        except ksvm.NearSingularError:
            continue
        if float(np.linalg.eigvalsh(gram).min()) < -1e-12:
            indefinite_total += 1
            indefinite_kernel += from_kernel
        lhs = (gram + lam * n * np.eye(n)) @ alpha - y
        budget = 1e-10 * (1.0 + float(np.linalg.norm(y)))
        assert float(np.linalg.norm(lhs)) <= budget
        assert residual <= budget
        solved += 1
    assert indefinite_total >= 30
    assert indefinite_kernel >= 5  # tanh-derived grams do go indefinite

    worst = 0.0
    for _ in range(12):
        n = int(rng.integers(2, 13))
        q, _ = np.linalg.qr(rng.normal(size=(n, n)))
        gram = (q * rng.uniform(0.5, 2.0, size=n)) @ q.T
        y = rng.normal(size=n)
        direct = ksvm.train_squared(gram, y, 0.3).alpha
        descent = ksvm.train_gd(gram, y, 0.3, steps=4000, step_size=0.05)
        worst = max(worst, float(np.max(np.abs(descent.alpha - direct))))
    assert worst <= 1e-4


# ---------------------------------------------------------------------------
# 6. associated grams are positive semidefinite up to round-off
# ---------------------------------------------------------------------------

def test_criterion_06_associated_gram_positive_semidefinite():
    rng = np.random.default_rng(606)
    checked = 0
    attempts = 0
    while checked < 50:
        attempts += 1
        assert attempts < 500
        d, dim, widths = _random_shape(rng, max_depth=2)
        kind = int(rng.integers(4))
        if kind == 0:
            specs = tuple(act.linear() for _ in range(d))
        elif kind == 1:
            specs = tuple(act.erf() for _ in range(d))
        elif kind == 2:
            specs = tuple(act.tanh() for _ in range(d))
        else:
            specs = (_random_poly_spec(rng)[0],) * d
        arch = netcore.Architecture(dim, widths, specs)
        adef = kk.KernelDefinition(arch, variant="associated")
        pts = rng.uniform(-0.15, 0.15, size=(int(rng.integers(3, 8)), dim))
        try:
            gram = kk.gram(adef, pts)
        except (kk.DomainError, act.DomainError):
            continue
        eigs = np.linalg.eigvalsh(gram)
        scale = float(np.max(np.abs(eigs)))
        assert float(eigs.min()) >= -1e-8 * scale
        checked += 1


# ---------------------------------------------------------------------------
# 7. capacity and sparsity inequality suites, 1000 admissible draws each
# ---------------------------------------------------------------------------

# Byte ceiling on one block of stacked weight pushes in the inequality suites:
# the tanh family's tower has 16,532 entries, so the pushed vectors of one
# draw take about 0.5 MB.
_PUSH_BYTES = 4 << 20


def _inequality_family(arch, trunc, lip_global, with_associated, seed, draws=1000):
    """Inequality sweep for one architecture family; returns violations.

    Chain evaluations carry the exact two-sided penalty statements.  The
    truncated quadratic forms are checked through claims that stay valid
    under truncation: the triangle inequality against the folded
    (absolute-coefficient) form, that nonnegative folded sums under-count
    their chain value, and the sup/count ceilings, which only shrink when
    coordinates are dropped.  Draws are pushed to the flat space in stacked
    blocks, then checked one by one on their rows.
    """
    rng = np.random.default_rng(seed)
    metric = pf.flatten_metric(arch, trunc)
    folded_metric = metric.like(np.abs(metric.values))
    d, dim = arch.depth, arch.input_dim
    width_gm, _ = netcore.geometric_means(arch)
    metric_sup = float(np.max(np.abs(metric.values)))
    slack = 1.0 + 1e-9
    bad = []
    block = max(1, _PUSH_BYTES // (8 * (d + 1) * len(metric.values)))
    for start in range(0, draws, block):
        drawn = [_unit_frobenius(rng, arch.layer_shapes()) for _ in range(min(block, draws - start))]
        stacked = netcore.WeightSet(tuple(np.stack(mats) for mats in zip(*drawn)))
        pushed_layers, pushed_flat = pf.pushed_weights(arch, stacked, trunc)
        for j, weights in enumerate(drawn):
            k = start + j
            fro = weights.frobenius_sq()
            radius = analysis.weight_ball_radius(arch, weights)
            layer_vecs = [v.like(v.values[j]) for v in pushed_layers]
            flat_vec = pushed_flat.like(pushed_flat.values[j])
            cap_scale = (width_gm * lip_global) ** d
            pen = analysis.penalties(arch, weights)
            for q in range(d):
                below = float(dim) if q == 0 else float(arch.widths[q - 1])
                cap = cap_scale * dim / (arch.widths[q] * below) * fro[q]
                penalty = pen.layers[q]
                if not -1e-12 <= penalty <= cap * slack:
                    bad.append(f"draw {k}: layer {q} penalty {penalty} outside [0, {cap}]")
                signed = pf.flat_inner(metric, layer_vecs[q], layer_vecs[q])
                folded = pf.flat_inner(folded_metric, layer_vecs[q], layer_vecs[q])
                if abs(signed) > folded * slack + 1e-12:
                    bad.append(f"draw {k}: layer {q} |signed| {signed} above folded {folded}")
                if float(np.max(np.abs(layer_vecs[q].values))) > d * radius * slack:
                    bad.append(f"draw {k}: layer {q} sup above depth*radius")
            flat_chain = pen.flat
            cap_product = lip_global ** d * float(np.prod(fro))
            cap_ball = (lip_global * radius) ** d
            if not -1e-12 <= flat_chain <= cap_product * slack:
                bad.append(f"draw {k}: flat penalty {flat_chain} outside [0, {cap_product}]")
            if cap_product > cap_ball * slack:
                bad.append(f"draw {k}: product cap {cap_product} above ball cap {cap_ball}")
            flat_signed = pf.flat_inner(metric, flat_vec, flat_vec)
            flat_folded = pf.flat_inner(folded_metric, flat_vec, flat_vec)
            if abs(flat_signed) > flat_folded * slack + 1e-12:
                bad.append(f"draw {k}: |flat signed| {flat_signed} above folded {flat_folded}")
            if float(np.max(np.abs(flat_vec.values))) > max(1.0, radius) ** d * slack:
                bad.append(f"draw {k}: flat sup above radius**depth")
            if not with_associated:
                continue
            assoc_pen = analysis.penalties(arch.associated(), weights)
            _, lip_folded = netcore.geometric_means(arch.associated(), assoc_pen.intervals)
            folded_scale = (width_gm * lip_folded) ** d
            for q in range(d):
                below = float(dim) if q == 0 else float(arch.widths[q - 1])
                cap = folded_scale * dim / (arch.widths[q] * below) * fro[q]
                chain = assoc_pen.layers[q]
                truncated = pf.flat_inner(folded_metric, layer_vecs[q], layer_vecs[q])
                if not 0.0 <= truncated <= chain * slack:
                    bad.append(f"draw {k}: folded layer {q} truncated {truncated} above chain {chain}")
                if chain > cap * slack:
                    bad.append(f"draw {k}: folded layer {q} chain {chain} above cap {cap}")
            folded_chain = assoc_pen.flat
            cap_product = lip_folded ** d * float(np.prod(fro))
            cap_ball = (lip_folded * radius) ** d
            if flat_folded > folded_chain * slack or folded_chain > cap_product * slack:
                bad.append(f"draw {k}: folded flat ordering broke")
            if cap_product > cap_ball * slack:
                bad.append(f"draw {k}: folded product cap above ball cap")
            constants = analysis.SparsityConstants(width_gm, lip_folded, dim, radius)
            levels = tuple(f * d * radius * metric_sup for f in (0.5, 0.1, 0.01))
            profile = analysis.sparsity_profile(
                metric.values, flat_vec.values, d, constants, epsilons=levels
            )
            if profile.bridge_norm > profile.bridge_bound * slack:
                bad.append(
                    f"draw {k}: bridge norm {profile.bridge_norm} above {profile.bridge_bound}"
                )
            for eps, count, ceiling in profile.epsilon_counts:
                if count > ceiling:
                    bad.append(f"draw {k}: {count} entries above {eps} vs ceiling {ceiling}")
    return bad


def test_criterion_07_inequality_suites():
    # tanh on multi-dimensional input has no folded chain (the folded series
    # leaves its convergence domain at the seed argument), so that family
    # checks the signed statements only; the 1-d tanh family carries the
    # folded checks with interval Lipschitz constants.
    families = (
        ("linear", netcore.Architecture(2, (3, 2, 1), (act.linear(),) * 3), 3, 1.0, True, 71),
        ("erf", netcore.Architecture(2, (3, 1), (act.erf(),) * 2), 8, 2.0 / np.sqrt(np.pi), True, 72),
        ("tanh", netcore.Architecture(2, (3, 2, 1), (act.tanh(),) * 3), 6, 1.0, False, 73),
        ("tanh-1d", netcore.Architecture(1, (2, 1), (act.tanh(), act.tanh())), 9, 1.0, True, 74),
    )
    failures = []
    for name, arch, trunc, lip, assoc, seed in families:
        for line in _inequality_family(arch, trunc, lip, assoc, seed):
            failures.append(f"{name}: {line}")
    assert failures == []


# ---------------------------------------------------------------------------
# 8. Monte-Carlo capacity estimates sit below every applicable bound
# ---------------------------------------------------------------------------

def test_criterion_08_bound_ordering():
    rng = np.random.default_rng(808)
    for make, scale, has_linear_form in ((act.linear, 1.0, True), (act.tanh, 0.3, False)):
        for d, widths in ((1, (1,)), (2, (2, 1)), (3, (2, 2, 1))):
            arch = netcore.Architecture(2, widths, tuple(make() for _ in range(d)))
            for n in (25, 100):
                xs = rng.uniform(-scale, scale, size=(n, 2))
                estimate = analysis.empirical_rademacher(
                    arch, 0.8, xs, trials=200, hypothesis_draws=200, seed=9
                )
                report = analysis.rademacher_bound_net(arch, 0.8, xs, n=n)
                tight = analysis.tight_bound(arch, 0.8, xs, n=n)
                ceilings = [
                    report.bound_kernel_trace,
                    report.bound_growth,
                    tight.general,
                    tight.lipschitz_form,
                    tight.bounded_form,
                ]
                if has_linear_form:
                    ceilings.append(report.bound_linear)
                for ceiling in ceilings:
                    if ceiling is not None:
                        assert estimate <= ceiling

    # closed-form check: depth-2 linear net with width mean 2, radius 1,
    # unit-norm inputs and 100 samples gives exactly 0.2 in both forms
    arch = netcore.Architecture(3, (4, 1), (act.linear(), act.linear()))
    report = analysis.rademacher_bound_net(arch, 1.0, np.eye(3), n=100)
    assert report.bound_linear == 0.2
    assert report.bound_kernel_trace == 0.2


# ---------------------------------------------------------------------------
# 9. analytic gradients match central finite differences
# ---------------------------------------------------------------------------

def test_criterion_09_gradient_finite_difference():
    rng = np.random.default_rng(909)
    step = 1e-6

    kinds = (act.linear, act.tanh, act.erf)
    for i in range(50):
        d, dim, widths = _random_shape(rng, max_depth=2)
        specs = tuple(kinds[int(rng.integers(3))]() for _ in range(d))
        arch = netcore.Architecture(dim, widths, specs)
        weights = _uniform_weights(rng, arch, 0.6)
        pairs = [
            (rng.uniform(-0.5, 0.5, size=dim), float(rng.normal()))
            for _ in range(int(rng.integers(2, 6)))
        ]
        xs, ys = np.array([x for x, _ in pairs]), np.array([y for _, y in pairs])
        loss = "squared" if i % 2 == 0 else "logistic"
        lam = float(rng.uniform(0.0, 1.0))
        grad = netcore.gradient(arch, weights, xs, ys, loss, lam)
        for q in range(d):
            for idx in np.ndindex(weights.matrices[q].shape):
                probes = []
                for sign in (1.0, -1.0):
                    mats = [m.copy() for m in weights.matrices]
                    mats[q][idx] += sign * step
                    shifted = netcore.WeightSet(tuple(mats))
                    probes.append(netcore.objective(arch, shifted, xs, ys, loss, lam))
                want = (probes[0] - probes[1]) / (2.0 * step)
                got = grad.matrices[q][idx]
                assert abs(got - want) <= 1e-5 * (1.0 + abs(want))

    for i in range(50):
        n = int(rng.integers(2, 9))
        raw = rng.normal(size=(n, n))
        gram = (raw + raw.T) / 2.0
        y = rng.normal(size=n)
        alpha = rng.normal(size=n)
        lam = float(rng.uniform(0.05, 1.0))
        loss = "squared" if i % 2 == 0 else "logistic"
        grad = ksvm.objective_gradient(alpha, gram, y, lam, loss=loss)
        for j in range(n):
            up = alpha.copy()
            up[j] += step
            down = alpha.copy()
            down[j] -= step
            want = (
                ksvm.stabilized_objective(up, gram, y, lam, loss=loss).total
                - ksvm.stabilized_objective(down, gram, y, lam, loss=loss).total
            ) / (2.0 * step)
            assert abs(grad[j] - want) <= 1e-5 * (1.0 + abs(want))


# ---------------------------------------------------------------------------
# 10. identical config and seed produce byte-identical artifacts
# ---------------------------------------------------------------------------

def _write_dataset(path, rng, n, dim):
    header = ",".join([f"x{j}" for j in range(dim)] + ["y"])
    lines = [header]
    for _ in range(n):
        row = list(rng.uniform(-0.4, 0.4, size=dim)) + [float(rng.normal())]
        lines.append(",".join("%.17g" % v for v in row))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


def test_criterion_10_byte_identical_reports(tmp_path):
    rng = np.random.default_rng(1010)
    dataset = _write_dataset(tmp_path / "data.csv", rng, 10, 2)
    poly_layer = {"kind": "polynomial", "coefficients": [0.0, 1.0, 0.4]}
    configs = {
        "flatten": {
            "architecture": {
                "input_dim": 2,
                "widths": [2, 1],
                "activations": [poly_layer, poly_layer],
            },
            "dataset": dataset,
            "truncation": 4,
            "seed": 5,
        },
        "compare": {
            "architecture": {
                "input_dim": 2,
                "widths": [2, 1],
                "activations": ["tanh", "tanh"],
            },
            "dataset": dataset,
            "truncation": 6,
            "seed": 5,
            "lambda": 0.5,
            "train": {"steps": 10, "step_size": 0.01},
        },
    }
    for command, cfg in configs.items():
        cfg_path = tmp_path / f"{command}.json"
        cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
        runs = []
        for tag in ("run1", "run2"):
            outdir = tmp_path / command / tag
            outdir.mkdir(parents=True)
            rc = cli.main(
                [command, "--config", str(cfg_path), "--out", str(outdir / "report.json")]
            )
            assert rc == 0
            runs.append(sorted(outdir.iterdir()))
        assert [p.name for p in runs[0]] == [p.name for p in runs[1]]
        for first, second in zip(runs[0], runs[1]):
            assert first.read_bytes() == second.read_bytes()
