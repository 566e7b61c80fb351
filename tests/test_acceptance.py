"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Criterion 3 checks the scaling limit at large lags through its rate:
the deviation of log(n) * (1 - rho) from delta is second order, at most
delta^2 / log(n), so a 1% agreement needs log(n) >= 100 * delta (see the
test docstring).
"""

import json
import math

import numpy as np
import pytest

from stormfields import (
    GneitingModel,
    MarginalKind,
    SmoothnessExpansion,
    SpaceTimeGrid,
    StormModelParams,
    bivariate_cdf_hr,
    delta_from_storm,
    delta_values,
    exponent_measure,
    husler_reiss_block,
    low_rank_factor,
    pickands,
    rescaled_factor,
    scaling_sequences,
    storm_block,
    variogram_to_covariance,
)
from stormfields.cli import main
from stormfields.gaussfield import RANK_TOLERANCE
from dense_oracle import per_block_reference
from storm_oracles import oracle_cdf_smith, oracle_cdf_spatial, oracle_cdf_temporal

Z99 = 2.5758293035489004
GNEITING = GneitingModel(a=0.03, b=0.03, nu=1.5, gamma=1.0)


def report(number, ok, detail):
    print(f"ACCEPTANCE {number:02d}: {'PASS' if ok else 'FAIL'} - {detail}")


def random_spd(rng):
    a = rng.normal(size=(2, 2))
    return a @ a.T + 0.1 * np.eye(2)


def half_width(p_hat, n):
    return Z99 * math.sqrt(p_hat * (1.0 - p_hat) / n)


def test_criterion_01_closed_form_consistency():
    """The storm CDF, the Huesler-Reiss kernel at delta_from_storm, is the paper's A_ij form."""
    rng = np.random.default_rng(1001)
    worst = 0.0
    for _ in range(1000):
        sigma = random_spd(rng)
        s3sq = float(np.exp(rng.uniform(np.log(0.1), np.log(10.0))))
        params = StormModelParams(sigma, s3sq)
        y1, y2 = rng.uniform(0.1, 10.0, 2)
        h = rng.uniform(-3.0, 3.0, 2)
        u = float(rng.uniform(-3.0, 3.0))
        diff = abs(
            bivariate_cdf_hr(y1, y2, delta_from_storm(params, h, u))
            - oracle_cdf_smith(y1, y2, h, u, params)
        )
        worst = max(worst, diff)
    ok = worst <= 1e-12
    report(1, ok, f"max |F_storm - F_paper| = {worst:.3e} (tol 1e-12, 1000 draws)")
    assert ok


def test_criterion_02_reduction_identities():
    """The storm CDF at u = 0 and at h = 0 matches the paper's two reductions."""
    rng = np.random.default_rng(1002)
    worst_u0 = 0.0
    worst_h0 = 0.0
    for _ in range(1000):
        sigma = random_spd(rng)
        s3sq = float(np.exp(rng.uniform(np.log(0.1), np.log(10.0))))
        params = StormModelParams(sigma, s3sq)
        y1, y2 = rng.uniform(0.1, 10.0, 2)

        h = rng.uniform(-3.0, 3.0, 2)
        while np.allclose(h, 0.0):
            h = rng.uniform(-3.0, 3.0, 2)
        worst_u0 = max(worst_u0, abs(
            bivariate_cdf_hr(y1, y2, delta_from_storm(params, h, 0.0))
            - oracle_cdf_spatial(y1, y2, h, params)
        ))

        u = float(rng.uniform(0.1, 3.0) * rng.choice([-1.0, 1.0]))
        worst_h0 = max(worst_h0, abs(
            bivariate_cdf_hr(y1, y2, delta_from_storm(params, (0.0, 0.0), u))
            - oracle_cdf_temporal(y1, y2, u, params)
        ))
    ok = worst_u0 <= 1e-14 and worst_h0 <= 1e-14
    report(2, ok, f"max diff u=0: {worst_u0:.3e}, h=0: {worst_h0:.3e} (tol 1e-14, 1000 draws)")
    assert ok


def test_criterion_03_expansion_limit_large_lags():
    """Scaling limit and its rate for 100 random lags up to 10.

    Write L = log(n) and, for the Gneiting model with beta1 = beta2 = 1,
    X = C1*||h||^2, Y = C2*u^2 and delta = X + Y.  At the shrunken lags
    (s_n h, t_n u) one has x = b*||s_n h||^2 = X / (nu L) and
    y = a*(t_n u)^2 = 2Y / (gamma d L), and g = -log(rho) is

        g = (gamma d / 2) * log(1 + y) + nu * log(1 + x * (1 + y)^(-gamma)).

    Upper side: log(1 + z) <= z gives g <= delta / L, hence
    L * (1 - rho) <= L * g <= delta.  Lower side: log(1 + z) >= z - z^2/2,
    (1 + y)^(-gamma) >= 1 - gamma*y and 1 - exp(-g) >= g - g^2/2 give

        L * (1 - rho) >= delta - (Q + delta^2/2) / L,
        Q = Y^2 / (gamma d) + (2/d) * X * Y + X^2 / (2 nu),

    which is also the exact second-order term.  Q <= delta^2 / 2 whenever
    gamma*d >= 2, d >= 2 and nu >= 1 (here 2, 2 and 1.5), so

        0 <= delta - L * (1 - rho) <= delta^2 / L.

    The limit is therefore not uniform in the lag: the relative deviation is
    up to delta / L, and the drawn lags reach delta = 10.5, where at n = 1e8
    (L = 18.42) every correct implementation is off by about 35%.  The
    criterion asserts
      1. the rate at n = 1e8, through ``scaling_sequences``: the two-sided
         bound above for every lag (it is sharp: the largest observed
         L * deviation / delta^2 is 0.976);
      2. the limit within 1%, at the pair L^(-1/a1), L^(-1/a2) computed
         from L itself: along a ladder of L values the worst relative
         deviation falls strictly, and it is at most 0.01 once
         L >= 100 * max(delta), which the bound guarantees;
      3. that the target ``delta_values`` is the paper's C1 = 0.045,
         C2 = 0.03 expansion;
      4. that ``GneitingModel.rho`` agrees with a 50-digit evaluation of the
         same formula at the n = 1e8 lags, so a failure above points at the
         program, not at floating-point cancellation.
    """
    expansion = GNEITING.expansion()
    rng = np.random.default_rng(1003)
    h = rng.uniform(-10.0, 10.0, size=(100, 2))
    u = rng.uniform(-10.0, 10.0, size=100)
    target = delta_values(expansion, h, u)
    paper_ok = bool(np.allclose(
        target, 0.045 * np.sum(h * h, axis=1) + 0.03 * u * u, rtol=1e-12, atol=0.0
    ))

    def scaled(log_n, s_n, t_n):
        return log_n * (1.0 - GNEITING.rho(s_n * h, t_n * u))

    n = 1e8
    log_n = math.log(n)
    s_n, t_n = scaling_sequences(expansion, n)
    lhs = scaled(log_n, s_n, t_n)
    gap = target - lhs
    rate = float(np.max(gap * log_n / target ** 2))
    rate_ok = bool(np.all(gap >= 0.0)) and rate <= 1.0

    threshold = 100.0 * float(np.max(target))
    ladder = np.sort([log_n, 1e2, 1e3, 1e4, threshold])
    worst = np.array([
        np.max(np.abs(scaled(L, L ** (-1.0 / expansion.alpha_space),
                             L ** (-1.0 / expansion.alpha_time)) / target - 1.0))
        for L in ladder
    ])
    limit_ok = bool(np.all(np.diff(worst) < 0.0) and np.all(worst[ladder >= threshold] <= 0.01))

    ok = paper_ok and rate_ok and limit_ok
    steps = ", ".join(f"{w:.4f} at log n={L:.1f}" for L, w in zip(ladder, worst))
    report(3, ok, f"n=1e8: min gap {gap.min():.3e}, max log(n)*gap/delta^2 = {rate:.3f} "
                  f"(bound 1); worst rel. deviation {steps} (tol 0.01 from log n={threshold:.1f}); "
                  f"target is paper's C1, C2: {paper_ok}")
    assert ok

    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        mp = mpmath.mpf
        a, b, nu, gamma = (mp(v) for v in (GNEITING.a, GNEITING.b, GNEITING.nu, GNEITING.gamma))
        exact = []
        for hi, ui in zip(s_n * h, t_n * u):
            psi = (1 + a * mp(ui) ** 2) ** gamma
            hsq = mp(hi[0]) ** 2 + mp(hi[1]) ** 2
            rho = psi ** (-mp(GNEITING.dimension) / 2) * (1 + b * hsq / psi) ** (-nu)
            exact.append(float(log_n * (1 - rho)))
    oracle = float(np.max(np.abs(lhs - np.array(exact))))
    assert oracle <= 1e-12, f"log(n)*(1-rho) is {oracle:.3e} off its 50-digit evaluation"


def test_criterion_04_storm_monte_carlo():
    """Empirical storm joint non-exceedance within the 99% band of theory."""
    params = StormModelParams(np.eye(2), 1.0)
    grid = SpaceTimeGrid(np.array([[0.0, 0.0], [1.0, 0.0]]), np.array([0.0, 1.0, 2.0]))
    pairs = {
        "(0,0)": (0, 0, (0.0, 0.0), 0.0),
        "((1,0),0)": (0, 1, (1.0, 0.0), 0.0),
        "(0,2)": (0, 4, (0.0, 0.0), 2.0),
        "((1,0),1)": (0, 3, (1.0, 0.0), 1.0),
    }
    # flat order: t=0 -> [s0, s1], t=1 -> [2, 3], t=2 -> [4, 5]
    thresholds = (0.5, 1.0, 2.0)
    count = 10_000
    fields = storm_block(params, grid, 1004, range(count))
    worst_margin = -math.inf
    ok = True
    for label, (ia, ib, h, u) in pairs.items():
        for y in thresholds:
            empirical = float(np.mean((fields[:, ia] <= y) & (fields[:, ib] <= y)))
            theory = bivariate_cdf_hr(y, y, delta_from_storm(params, h, u))
            margin = abs(empirical - theory) - (half_width(empirical, count) + 0.01)
            worst_margin = max(worst_margin, margin)
            ok = ok and margin <= 0.0
    report(4, ok, f"worst (diff - band) = {worst_margin:.4f} over 4 pairs x 3 thresholds, 1e4 runs")
    assert ok


def test_criterion_05_rescaled_gaussian_monte_carlo():
    """Two-site maxima construction against its limiting joint law."""
    n = 1000
    count = 10_000
    grid = SpaceTimeGrid(np.array([[0.0, 0.0], [2.0, 0.0]]), np.array([0.0, 1.0]))
    factor = rescaled_factor(GNEITING, grid, n)
    fields = husler_reiss_block(factor, n, MarginalKind.FRECHET, 1005, range(count))
    # sites: (0,0) at t=0 (flat 0) and (2,0) at t=1 (flat 3): lag h=(2,0), u=1
    dependence = delta_values(GNEITING.expansion(), (2.0, 0.0), 1.0)
    ok = True
    worst_margin = -math.inf
    for y1, y2 in ((0.5, 0.5), (1.0, 1.0), (2.0, 2.0), (1.0, 2.0)):
        empirical = float(np.mean((fields[:, 0] <= y1) & (fields[:, 3] <= y2)))
        theory = bivariate_cdf_hr(y1, y2, dependence)
        margin = abs(empirical - theory) - (half_width(empirical, count) + 0.02)
        worst_margin = max(worst_margin, margin)
        ok = ok and margin <= 0.0
    report(5, ok, f"worst (diff - band) = {worst_margin:.4f}; n=1000, 1e4 runs, band = hw99 + 0.02")
    assert ok


def _ks_distance(sample, cdf):
    x = np.sort(sample)
    n = len(x)
    theory = cdf(x)
    return max(np.max(np.arange(1, n + 1) / n - theory), np.max(theory - np.arange(0, n) / n))


def test_criterion_06_marginal_laws():
    """Single-site maxima follow the three standard limit laws (KS < 0.02)."""
    n = 1000
    count = 10_000
    grid = SpaceTimeGrid(np.array([[0.0, 0.0]]), np.array([0.0]))
    factor = rescaled_factor(GNEITING, grid, n)
    laws = {
        MarginalKind.FRECHET: lambda y: np.exp(-1.0 / np.maximum(y, 1e-300)),
        MarginalKind.GUMBEL: lambda y: np.exp(-np.exp(-y)),
        MarginalKind.WEIBULL: lambda y: np.exp(np.minimum(y, 0.0)),
    }
    distances = {}
    for kind, law in laws.items():
        values = husler_reiss_block(factor, n, kind, 1006, range(count))[:, 0]
        distances[kind.value] = _ks_distance(values, law)
    ok = all(d < 0.02 for d in distances.values())
    detail = ", ".join(f"{k}: KS={d:.4f}" for k, d in distances.items())
    report(6, ok, detail + " (tol 0.02, n=1000, 1e4 runs)")
    assert ok


def test_criterion_07_extremal_range_shorter(tmp_path, monkeypatch):
    """Tail dependence dies out strictly before correlation, both axes."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "cfg.yaml").write_text(
        "seed: 1007\nsurfaces: {n_h: 201, n_u: 301, h_max: 20.0, u_max: 30.0}\n",
        encoding="utf-8",
    )
    assert main(["surfaces", "-c", "cfg.yaml"]) == 0
    rows = (tmp_path / "surfaces.csv").read_text().splitlines()[1:]
    data = np.array([[float(x) for x in r.split(",")] for r in rows])
    crossings = {}
    for label, axis_mask, col in (
        ("space", data[:, 1] == 0.0, 0),
        ("time", data[:, 0] == 0.0, 1),
    ):
        axis_data = data[axis_mask]
        chi_cross = axis_data[axis_data[:, 3] <= 0.05][:, col].min()
        rho_cross = axis_data[axis_data[:, 2] <= 0.05][:, col].min()
        crossings[label] = (chi_cross, rho_cross)
    ok = all(chi < rho for chi, rho in crossings.values())
    detail = ", ".join(
        f"{k}: chi<=0.05 at {c:.2f} vs rho<=0.05 at {r:.2f}" for k, (c, r) in crossings.items()
    )
    report(7, ok, detail)
    assert ok


def test_criterion_08_anisotropic_level_set(tmp_path, monkeypatch):
    """The chi = 0.5 level set is longest within 5 degrees of 45 degrees."""
    ConvexHull = pytest.importorskip("scipy.spatial").ConvexHull
    monkeypatch.chdir(tmp_path)
    (tmp_path / "cfg.yaml").write_text(
        "seed: 1008\n"
        "model:\n  family: gneiting\n"
        "  anisotropy: {a_max: 3.0, a_min: 1.0, angle_deg: 45.0}\n"
        "surfaces: {h_max: 12.0, n_h: 201}\n",
        encoding="utf-8",
    )
    assert main(["surfaces", "-c", "cfg.yaml"]) == 0
    rows = (tmp_path / "surfaces.csv").read_text().splitlines()[1:]
    data = np.array([[float(x) for x in r.split(",")] for r in rows])
    region = data[data[:, 3] >= 0.5][:, :2]
    hull = region[ConvexHull(region).vertices]
    best = (0.0, 0.0)
    for i in range(len(hull)):
        diffs = hull[i + 1:] - hull[i]
        if len(diffs) == 0:
            continue
        lengths = np.hypot(diffs[:, 0], diffs[:, 1])
        j = int(np.argmax(lengths))
        if lengths[j] > best[0]:
            angle = math.degrees(math.atan2(diffs[j, 1], diffs[j, 0])) % 180.0
            best = (float(lengths[j]), angle)
    chord, angle = best
    deviation = min(abs(angle - 45.0), 180.0 - abs(angle - 45.0))
    ok = deviation <= 5.0
    report(8, ok, f"longest chord {chord:.2f} at {angle:.2f} deg (|dev from 45| = {deviation:.2f})")
    assert ok


def test_criterion_09_property_suites():
    """Structural properties: PD assembly, Pickands, CDF shape, homogeneity, PSD."""
    checks = []

    # positive definiteness with tiny jitter on a 500-point grid, and the
    # pivoted factor reproducing the same matrix
    grid = SpaceTimeGrid.regular(shape=(10, 10), times=(0.0, 1.0, 2.0, 3.0, 4.0))
    matrix = per_block_reference(GNEITING, grid)
    try:
        np.linalg.cholesky(matrix + 1e-12 * np.eye(grid.size))
        definite = True
    except np.linalg.LinAlgError:
        definite = False
    checks.append(("assembly jitter <= 1e-8", definite and np.array_equal(matrix, matrix.T)))
    factor = low_rank_factor(GNEITING, grid)
    reproduced = np.abs(factor.lower @ factor.lower.T - matrix).max() <= RANK_TOLERANCE
    checks.append(("pivoted factor within RANK_TOLERANCE", reproduced))

    # Pickands bounds, symmetry, convexity
    lams = np.linspace(0.001, 0.999, 999)
    pick_ok = True
    for d in (0.1, 1.0, 10.0):
        values = np.array([pickands(l, d) for l in lams])
        pick_ok &= bool(np.all(values <= 1.0 + 1e-14))
        pick_ok &= bool(np.all(values >= np.maximum(lams, 1.0 - lams) - 1e-14))
        pick_ok &= bool(np.max(np.abs(values - values[::-1])) <= 1e-13)
        pick_ok &= bool(np.min(np.diff(values, 2)) >= -1e-10)
    checks.append(("Pickands bounds/symmetry/convexity", pick_ok))

    # joint CDF monotonicity and rectangle inequality
    rng = np.random.default_rng(1009)
    y_grid = np.linspace(0.2, 5.0, 20)
    d_grid = np.linspace(0.0, 9.0, 10)
    cdf = np.array([[[bivariate_cdf_hr(a, b, d) for d in d_grid] for b in y_grid] for a in y_grid])
    mono = (
        bool(np.all(np.diff(cdf, axis=0) >= -1e-15))
        and bool(np.all(np.diff(cdf, axis=1) >= -1e-15))
        and bool(np.all(np.diff(cdf, axis=2) <= 1e-15))
    )
    rect_ok = True
    for _ in range(500):
        x1, x2 = np.sort(rng.uniform(0.1, 5.0, 2))
        y1, y2 = np.sort(rng.uniform(0.1, 5.0, 2))
        d = float(rng.uniform(0.0, 20.0))
        mass = (
            bivariate_cdf_hr(x2, y2, d) - bivariate_cdf_hr(x1, y2, d)
            - bivariate_cdf_hr(x2, y1, d) + bivariate_cdf_hr(x1, y1, d)
        )
        rect_ok &= mass >= -1e-12
    checks.append(("joint CDF monotone + rectangle", mono and rect_ok))

    # exponent-measure homogeneity of order -1
    hom_ok = all(
        abs(exponent_measure(c * 1.3, c * 0.4, 2.0) - exponent_measure(1.3, 0.4, 2.0) / c) <= 1e-12
        for c in (0.5, 3.0, 7.0)
    )
    checks.append(("exponent measure homogeneity", hom_ok))

    # variogram-to-covariance matrices are PSD on random point sets
    expansion = SmoothnessExpansion(2.0, 2.0, 0.045, 0.03)
    psd_ok = True
    for seed in range(5):
        rng = np.random.default_rng(seed)
        pts = [(tuple(rng.uniform(-3, 3, 2)), float(rng.uniform(0, 3))) for _ in range(6)]
        mat = np.array([[variogram_to_covariance(expansion, a, b) for b in pts] for a in pts])
        psd_ok &= bool(np.min(np.linalg.eigvalsh(mat)) >= -1e-10)
    checks.append(("variogram covariance PSD", psd_ok))

    ok = all(flag for _, flag in checks)
    report(9, ok, "; ".join(f"{name}: {'ok' if flag else 'FAIL'}" for name, flag in checks))
    assert ok


def test_criterion_10_determinism_across_workers(tmp_path, monkeypatch):
    """Byte-identical outputs with worker counts 1 and 8, all commands."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "cfg.yaml").write_text(
        "seed: 1010\n"
        "grid: {shape: [6, 6], times: [0.0, 1.0]}\n"
        "simulate: {n: 40, realizations: 8, output_dir: simdir}\n"
        "validate:\n"
        "  realizations: 1000\n"
        "  pairs: [{h: [0.0, 0.0], u: 0.0}, {h: [1.0, 0.0], u: 1.0}]\n"
        "  thresholds: [0.5, 1.0]\n",
        encoding="utf-8",
    )
    outputs = {}
    for workers in (1, 8):
        sim_dir = f"simdir_w{workers}"
        report_name = f"report_w{workers}.csv"
        assert main(["simulate", "-c", "cfg.yaml", "--workers", str(workers),
                     "--set", f"simulate.output_dir={sim_dir}"]) == 0
        code = main(["validate", "-c", "cfg.yaml", "--workers", str(workers),
                     "--set", f"validate.report={report_name}"])
        assert code in (0, 4)
        blobs = [(f"field_{i:04d}.csv", (tmp_path / sim_dir / f"field_{i:04d}.csv").read_bytes())
                 for i in range(8)]
        blobs.append(("report.csv", (tmp_path / report_name).read_bytes()))
        outputs[workers] = blobs

    matching = all(a == b for (_, a), (_, b) in zip(outputs[1], outputs[8]))
    # sidecars echo the worker count by design, so compare their payloads
    # with the worker/output keys normalized instead of raw bytes
    meta_match = True
    for i in range(8):
        m1 = json.loads((tmp_path / "simdir_w1" / f"field_{i:04d}.json").read_text())
        m8 = json.loads((tmp_path / "simdir_w8" / f"field_{i:04d}.json").read_text())
        for meta in (m1, m8):
            meta["config"]["workers"] = None
            meta["config"]["simulate"]["output_dir"] = None
        meta_match &= m1 == m8
    ok = matching and meta_match
    report(10, ok, f"8 field files + validation report byte-identical across workers: {matching}")
    assert ok
