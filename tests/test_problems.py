"""Problem zoo: closed forms, constants, the LIBSVM parser, the reference
minimizer."""

import dataclasses
import decimal
import os
import subprocess
import sys
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import zonewton
from zonewton import (
    FixedDirections,
    Oracle,
    RngStream,
    SolverConfig,
    estimate_gradient,
    gradient_error_bound,
    load_libsvm,
    logistic_gap_objective,
    logistic_objective,
    make_cubic_box,
    make_logistic,
    make_quadratic,
    make_synthetic_dataset,
    quadratic_objective,
    random_spd,
    run,
    stiefel_sample,
)
from zonewton import _helpers as helpers_module
from zonewton import problems as problems_module
from zonewton.cli import ExperimentConfig, _build_problem
from zonewton.problems import Dataset, check_known_derivatives
from zonewton.solver import STOPPED_NUMERICAL
from tests.test_experiments import created_oracles
from tests.test_helpers import fresh_helpers  # noqa: F401 (a fixture)


class TestQuadratic:
    def test_identity(self):
        p = make_quadratic(np.eye(2), np.zeros(2))
        np.testing.assert_array_equal(p.known.x_star, np.zeros(2))
        assert p.known.f_star == 0.0
        assert p.known.m == 1.0 and p.known.L1 == 1.0

    def test_solved_by_hand(self):
        p = make_quadratic(np.diag([1.0, 100.0]), np.array([1.0, 100.0]))
        np.testing.assert_allclose(p.known.x_star, np.ones(2), atol=1e-12)
        assert p.known.f_star == pytest.approx(-50.5)

    def test_quadratics_have_exact_gradient_estimates(self):
        assert p2_bound() == 0.0

    def test_rejects_non_spd(self):
        with pytest.raises(ValueError):
            make_quadratic(np.diag([1.0, -1.0]), np.zeros(2))
        with pytest.raises(ValueError):
            make_quadratic(np.array([[1.0, 0.5], [0.0, 1.0]]), np.zeros(2))

    def test_constants_match_spectrum(self):
        a = random_spd(6, 50.0, RngStream(0))
        p = make_quadratic(a, np.zeros(6))
        w = np.linalg.eigvalsh(a)
        assert p.known.m == pytest.approx(w[0], abs=1e-10)
        assert p.known.L1 == pytest.approx(w[-1], abs=1e-10)


def p2_bound():
    p = make_quadratic(np.eye(3), np.zeros(3))
    return gradient_error_bound(3, p.known.L2, 0.5)


class TestCubicBox:
    def test_derivatives_at_one(self):
        p = make_cubic_box(1, 2.0)
        assert p.known.hessian(np.array([1.0]))[0, 0] == 3.0
        assert p.known.L2 == 2.0

    def test_strong_convexity_from_radius(self):
        assert make_cubic_box(3, 0.4).known.m == pytest.approx(0.2)
        assert make_cubic_box(3, 0.6).known.m is None  # not reported

    def test_gradient_bound_holds_at_random_points(self):
        d, mu = 4, 0.1
        p = make_cubic_box(d, 1.0)
        bound = gradient_error_bound(d, p.known.L2, mu)
        assert bound == pytest.approx(4 * 2 * 0.01 / 6)
        gen = np.random.default_rng(1)
        rng = RngStream(2)
        for _ in range(20):
            x = gen.uniform(-1.0, 1.0, size=d)
            probe = p.make_oracle().probe_batch(x, stiefel_sample(d, d, rng), mu)
            err = np.linalg.norm(p.known.gradient(x) - estimate_gradient(probe))
            assert err <= bound


class TestLogistic:
    def test_single_sample_closed_form(self):
        data_set = _single_sample_dataset()
        p = make_logistic(data_set, ridge=1.0)
        assert p.fn(np.zeros(1)) == pytest.approx(np.log(2.0))
        assert p.known.gradient(np.zeros(1))[0] == pytest.approx(-0.5)
        assert p.known.m == 1.0

    def test_gradient_matches_central_difference(self):
        data_set = _single_sample_dataset()
        p = make_logistic(data_set, ridge=1.0)
        mu = 1e-5
        fd = (p.fn(np.array([mu])) - p.fn(np.array([-mu]))) / (2 * mu)
        assert fd == pytest.approx(p.known.gradient(np.zeros(1))[0], abs=1e-8)

    def test_reference_minimizer_is_tight(self):
        data_set = make_synthetic_dataset(50, 4, RngStream(3))
        p = make_logistic(data_set, ridge=0.1)
        assert np.linalg.norm(p.known.gradient(p.known.x_star)) <= 1e-12

    def test_l1_formula(self):
        data_set = make_synthetic_dataset(30, 3, RngStream(4))
        p = make_logistic(data_set, ridge=0.5)
        expected = 0.5 + np.sum(data_set.features**2) / (4 * 30)
        assert p.known.L1 == pytest.approx(expected)

    def test_rejects_bad_ridge(self):
        with pytest.raises(ValueError):
            make_logistic(_single_sample_dataset(), ridge=0.0)


def _single_sample_dataset():
    return Dataset(np.array([1.0]), np.array([[1.0]]))


def _exact_gap_loss(z_star: float, a: float) -> float:
    """log(sigma(z*) + sigma(-z*) e^a), the gap loss at margin shift a, to
    50 digits, as softplus(a - z*) - softplus(-z*)."""
    def softplus(x):
        e = x.exp()
        return (1 + e).ln() if e > decimal.Decimal("1e-30") else e - e * e / 2

    with decimal.localcontext() as ctx:
        ctx.prec = 50
        z, a = decimal.Decimal(z_star), decimal.Decimal(a)
        return float(softplus(a - z) - softplus(-z))


def _one_sample_gap(z_star: float):
    """The gap objective of one sample (feature 1, label 1) with ridge 0 and
    reference x* = z*: its value at x is the loss at margin shift
    a = z* - x."""
    return logistic_gap_objective(_single_sample_dataset(), 0.0,
                                  np.array([z_star]))


class TestGapObjective:
    def test_zero_at_reference(self):
        data_set = make_synthetic_dataset(40, 5, RngStream(5))
        p = make_logistic(data_set, ridge=0.2)
        gap = logistic_gap_objective(data_set, 0.2, p.known.x_star)
        assert gap(p.known.x_star) == 0.0

    def test_matches_raw_difference(self):
        data_set = make_synthetic_dataset(40, 5, RngStream(6))
        p = make_logistic(data_set, ridge=0.2)
        gap = logistic_gap_objective(data_set, 0.2, p.known.x_star)
        gen = np.random.default_rng(7)
        for _ in range(10):
            x = p.known.x_star + gen.standard_normal(5)
            assert gap(x) == pytest.approx(p.fn(x) - p.known.f_star,
                                           rel=1e-9, abs=1e-12)

    def test_matches_raw_difference_where_exp_overflows(self):
        # the quadratic-rate gate's problem; a margin shift of 1000 is past
        # the overflow of exp at about 709
        data_set = make_synthetic_dataset(200, 10, RngStream(1), scale=2.0)
        p = make_logistic(data_set, ridge=0.1)
        gap = logistic_gap_objective(data_set, 0.1, p.known.x_star)
        u = np.random.default_rng(1).standard_normal(10)
        x = p.known.x_star + 1000.0 * u / np.linalg.norm(u)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            value = gap(x)
        assert value == pytest.approx(p.fn(x) - p.known.f_star, rel=1e-12)

    def test_overflowing_loss_with_a_vanishing_reference_sigmoid(self):
        # sigma(-800) is 0 in double precision; the loss at margin -800 is
        # softplus(800) - softplus(-800) = 800
        data_set = Dataset(np.array([1.0]), np.array([[1.0]]))
        gap = logistic_gap_objective(data_set, 0.0, np.array([800.0]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert gap(np.array([-800.0])) == 800.0

    def test_cancelling_loss_with_a_saturated_reference_sigmoid(self):
        # sigma(40) and exp(-40) - 1 round to 1 and -1, so the plain form's
        # sum cancels to 0; the loss is log(sigma(-40) + sigma(40) e^-40)
        # = log 2 - softplus(40), and the ridge term 0.05 (0 - 40^2)
        data_set = Dataset(np.array([1.0]), np.array([[1.0]]))
        gap = logistic_gap_objective(data_set, 0.1, np.array([-40.0]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            value = gap(np.array([0.0]))
        want = np.log(2.0) - np.logaddexp(0.0, 40.0) - 0.05 * 1600.0
        assert value == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("z_star, a",
                             [(-36.0, -36.0), (-30.0, -38.0), (710.0, 709.0)])
    def test_loss_where_the_reference_sigmoid_loses_digits(self, z_star, a):
        # at z* = -36 and -30 sigma(-z*) is 1 - e^z*, and
        # 1 + sigma(-z*) (e^a - 1) keeps only the digits left after its
        # cancellation; at z* = 710, 1 / (1 + e^z*) is 0 in place of the
        # subnormal e^-710, and the loss log(1 + e^-1) would read 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            value = _one_sample_gap(z_star)(np.array([z_star - a]))
        assert value == pytest.approx(_exact_gap_loss(z_star, a), rel=1e-12)

    def test_loss_sweep_against_a_decimal_reference(self):
        # each z* is one batch over every a, so a batch mixes both formulas;
        # the loss's own margin shift is z* - x, with x = z* - a rounded
        gen = np.random.default_rng(19)
        z_stars = np.concatenate([gen.uniform(-60, 60, 12),
                                  gen.uniform(-800, -37, 4),
                                  gen.uniform(700, 800, 8)])
        a = np.concatenate([gen.uniform(-60, 60, 20),
                            gen.uniform(-1000, 1000, 10),
                            gen.uniform(650, 1000, 10)])
        with np.errstate(over="ignore", invalid="ignore"):
            s = 1.0 / (1.0 + np.exp(z_stars))  # sigma(-z*)
            growth = np.expm1(a)
            t = s[:, None] * growth
        assert (s == 1.0).any() and (s == 0.0).any()
        assert np.isinf(growth).any()
        assert (t < -0.5).any() and ((t >= -0.5) & (t < np.inf)).any()
        for z_star in z_stars:
            x = z_star - a
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = _one_sample_gap(z_star).batch(x[:, None])
            want = [_exact_gap_loss(z_star, shift) for shift in z_star - x]
            # below the smallest normal double a value holds fewer digits
            np.testing.assert_allclose(
                got, want, rtol=1e-12,
                atol=4 * np.finfo(float).smallest_subnormal)

    def test_nan_point_gives_nan(self):
        data_set = make_synthetic_dataset(40, 5, RngStream(5))
        p = make_logistic(data_set, ridge=0.2)
        gap = logistic_gap_objective(data_set, 0.2, p.known.x_star)
        points = np.stack([p.known.x_star, np.full(5, np.nan)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            values = gap.batch(points)
        assert values[0] == 0.0
        assert np.isnan(values[1])

    def test_keeps_relative_accuracy_near_optimum(self):
        # the raw difference loses all digits at distance 1e-8; the gap
        # form must still agree with the quadratic model there
        data_set = make_synthetic_dataset(40, 5, RngStream(8))
        p = make_logistic(data_set, ridge=0.2)
        gap = logistic_gap_objective(data_set, 0.2, p.known.x_star)
        h = p.known.hessian(p.known.x_star)
        gen = np.random.default_rng(9)
        v = gen.standard_normal(5)
        v /= np.linalg.norm(v)
        for scale in (1e-4, 1e-6, 1e-8):
            w = scale * v
            measured = gap(p.known.x_star + w)
            model = 0.5 * float(w @ h @ w)
            assert measured == pytest.approx(model, rel=1e-3)


class TestLoadLibsvm(object):
    def test_basic_line(self, tmp_path):
        path = tmp_path / "data.txt"
        path.write_text("+1 1:0.5 3:2.0\n")
        ds = load_libsvm(path)
        assert ds.labels[0] == 1.0
        assert ds.dimension == 3
        np.testing.assert_array_equal(ds.features[0], [0.5, 0.0, 2.0])

    def test_zero_one_label_mapping(self, tmp_path):
        path = tmp_path / "data.txt"
        path.write_text("0 1:1\n1 1:2\n")
        ds = load_libsvm(path)
        np.testing.assert_array_equal(ds.labels, [-1.0, 1.0])

    def test_non_increasing_index_rejected(self, tmp_path):
        path = tmp_path / "data.txt"
        path.write_text("1 3:1 2:1\n")
        with pytest.raises(ValueError, match="non-increasing index at line 1"):
            load_libsvm(path)

    def test_malformed_label(self, tmp_path):
        path = tmp_path / "data.txt"
        path.write_text("yes 1:1\n")
        with pytest.raises(ValueError, match="line 1"):
            load_libsvm(path)

    def test_malformed_feature(self, tmp_path):
        path = tmp_path / "data.txt"
        path.write_text("+1 1:one\n")
        with pytest.raises(ValueError, match="line 1"):
            load_libsvm(path)

    def test_label_out_of_range(self, tmp_path):
        path = tmp_path / "data.txt"
        path.write_text("2 1:1\n")
        with pytest.raises(ValueError, match="line 1"):
            load_libsvm(path)

    def test_dimension_override(self, tmp_path):
        path = tmp_path / "data.txt"
        path.write_text("+1 2:1.0\n")
        assert load_libsvm(path, dimension=5).dimension == 5
        with pytest.raises(ValueError):
            load_libsvm(path, dimension=1)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "data.txt"
        path.write_text("\n\n")
        with pytest.raises(ValueError, match="no samples"):
            load_libsvm(path)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e400"])
    def test_non_finite_feature_rejected(self, tmp_path, value):
        path = tmp_path / "data.txt"
        path.write_text(f"+1 1:0.5\n-1 1:0.2 3:{value}\n")
        with pytest.raises(ValueError,
                           match=f"non-finite feature '3:{value}' at line 2"):
            load_libsvm(path)


class TestDataset:
    def test_features_become_a_float_array(self):
        ds = Dataset([1, -1], [[1, 2], [3, 4]])
        assert isinstance(ds.features, np.ndarray)
        assert ds.features.dtype == float
        assert ds.dimension == 2

    def test_one_dimensional_features_rejected(self):
        with pytest.raises(ValueError, match="2-d"):
            Dataset(np.array([1.0, -1.0]), np.array([0.5, 0.2]))


def test_file_dataset_minimizer_writes_no_file(tmp_path):
    path = tmp_path / "train.libsvm"
    gen = np.random.default_rng(10)
    lines = []
    for _ in range(40):
        label = "+1" if gen.standard_normal() > 0 else "-1"
        feats = " ".join(f"{j + 1}:{gen.standard_normal():.6f}" for j in range(4))
        lines.append(f"{label} {feats}")
    path.write_text("\n".join(lines) + "\n")
    p = make_logistic(load_libsvm(path), ridge=0.3)
    assert os.listdir(tmp_path) == ["train.libsvm"]
    assert np.linalg.norm(p.known.gradient(p.known.x_star)) <= 1e-12


def test_import_leaves_scipy_optimize_unloaded(tmp_path):
    """The package runs with scipy blocked: importing any scipy module from
    it raises, so a logistic run and the quadratic gate exiting 0 show that
    neither scipy.optimize nor any other part of scipy is needed. The
    threads of a logistic batch need no ``concurrent.futures`` either,
    whose import alone costs milliseconds."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(zonewton.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    out = tmp_path / "trace.csv"
    code = (
        "import sys\n"
        "sys.modules['scipy'] = None\n"
        "sys.modules['concurrent'] = None\n"
        "from zonewton import cli\n"
        "assert cli.main(['run', '--problem', 'logistic', '--d', '5',\n"
        f"                 '--max-iters', '3', '--out', {str(out)!r}]) == 0\n"
        "assert cli.main(['verify-quadratic', '--seed', '1']) == 0\n"
        "print(sorted(m for m in sys.modules if m.startswith('scipy')))\n")
    result = subprocess.run([sys.executable, "-c", code], env=env,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1] == "['scipy']"
    assert len(out.read_text().splitlines()) == 4


def test_wide_file_loads_dense(tmp_path):
    """A 10^4-wide file with five nonzeros per row loads as the dense array
    of its entries, exactly."""
    path = tmp_path / "wide.libsvm"
    gen = np.random.default_rng(21)
    lines = []
    dense = np.zeros((8, 10_000))
    labels = []
    for i in range(8):
        label = 1.0 if gen.standard_normal() > 0 else -1.0
        labels.append(label)
        idx = np.sort(gen.choice(10_000, size=5, replace=False))
        vals = np.array([float(f"{v:.6f}") for v in gen.standard_normal(5)])
        dense[i, idx] = vals
        feats = " ".join(f"{j + 1}:{v:.6f}" for j, v in zip(idx, vals))
        lines.append(f"{'+1' if label > 0 else '-1'} {feats}")
    path.write_text("\n".join(lines) + "\n")

    loaded = load_libsvm(path, dimension=10_000)
    dense_ds = Dataset(np.array(labels), dense)
    assert type(loaded.features) is np.ndarray
    assert loaded.features.shape == (8, 10_000)
    np.testing.assert_array_equal(loaded.features, dense_ds.features)
    np.testing.assert_array_equal(loaded.labels, dense_ds.labels)


def test_synthetic_dataset_deterministic():
    a = make_synthetic_dataset(20, 3, RngStream(11))
    b = make_synthetic_dataset(20, 3, RngStream(11))
    np.testing.assert_array_equal(a.features, b.features)
    np.testing.assert_array_equal(a.labels, b.labels)
    assert set(np.unique(a.labels)) <= {-1.0, 1.0}


def test_random_spd_spectrum():
    a = random_spd(5, 40.0, RngStream(12))
    assert np.array_equal(a, a.T)
    w = np.linalg.eigvalsh(a)
    np.testing.assert_allclose(w, np.linspace(1.0, 40.0, 5), rtol=1e-10)


@pytest.mark.parametrize("cond", [float("nan"), float("inf"), 0.5])
def test_random_spd_rejects_bad_cond_by_name(cond):
    with pytest.raises(ValueError, match=f"cond must be .* got {cond}"):
        random_spd(4, cond, RngStream(0))


def _seeded_quadratic(d, cond, seed):
    """A random SPD quadratic with a Gaussian linear term, both drawn from
    one stream, as the linear-rate gate and the benchmark build it."""
    stream = RngStream(seed)
    a = random_spd(d, cond, stream)
    return make_quadratic(a, stream.generator.standard_normal(d))


def _cli_problem(name):
    return _build_problem(ExperimentConfig(problem=name))[0]


# Every problem the package builds: (builder, check_known_derivatives
# keywords). The factories do not check their own closed forms, so this is
# where a transcription error in a gradient or Hessian shows.
_BUILT_PROBLEMS = {
    "quadratic_d4": (lambda: make_quadratic(
        random_spd(4, 20.0, RngStream(13)), np.ones(4)), {"seed": 15}),
    "cubic_d4_r0.5": (lambda: make_cubic_box(4, 0.5), {"seed": 15}),
    "logistic_n30_d4": (lambda: make_logistic(
        make_synthetic_dataset(30, 4, RngStream(14)), 0.2), {"seed": 15}),
    # the run/fedrun defaults
    "cli_quadratic_d10": (lambda: _cli_problem("quadratic"), {}),
    "cli_cubic_d10": (lambda: _cli_problem("cubic"), {}),
    "cli_logistic_n200_d10": (lambda: _cli_problem("logistic"), {}),
    # each gate's problem at gate seed 0
    "rate_gate_d5": (lambda: make_quadratic(
        random_spd(5, 3.0, RngStream(0)), np.zeros(5)), {}),
    "gradient_bound_gate_cubic_d4": (lambda: make_cubic_box(4, 1.0), {}),
    "linear_gate_d10": (lambda: _seeded_quadratic(10, 100.0, 0), {}),
    "quadratic_gate_logistic_n200_d10": (lambda: make_logistic(
        make_synthetic_dataset(200, 10, RngStream(0), scale=2.0), 0.1), {}),
    "sampling_gate_d20": (lambda: make_quadratic(
        random_spd(20, 10.0, RngStream(0)), np.zeros(20)), {}),
    "stopping_gate_cubic_d4": (lambda: make_cubic_box(4, 0.4), {}),
    # the benchmark's workloads at benchmark seed 0
    "logistic_n2000_d200": (lambda: make_logistic(
        make_synthetic_dataset(2000, 200, RngStream(0)), 0.1), {}),
    "quadratic_d100": (lambda: _seeded_quadratic(100, 100.0, 0), {}),
}


@pytest.mark.parametrize("build, check_kwargs", _BUILT_PROBLEMS.values(),
                         ids=_BUILT_PROBLEMS.keys())
def test_closed_forms_agree_with_finite_differences(build, check_kwargs):
    check_known_derivatives(build(), **check_kwargs)


def test_factories_construct_no_oracle():
    with created_oracles() as created:
        make_quadratic(random_spd(4, 20.0, RngStream(13)), np.ones(4))
        make_cubic_box(4, 0.5)
        make_logistic(make_synthetic_dataset(30, 4, RngStream(14)), 0.2)
    assert created == []


@pytest.mark.parametrize("field, scale, message", [
    ("gradient", -1.0, "closed-form gradient disagrees"),
    ("hessian", 2.0, "closed-form Hessian diagonal disagrees"),
])
def test_derivative_check_catches_a_wrong_closed_form(field, scale, message):
    problem = make_logistic(make_synthetic_dataset(30, 4, RngStream(14)), 0.2)
    exact = getattr(problem.known, field)
    problem.known = dataclasses.replace(
        problem.known, **{field: lambda x: scale * exact(x)})
    with pytest.raises(ValueError, match=f"logistic: {message}"):
        check_known_derivatives(problem)


# Sample count at which a logistic batch is formed in blocks of 8 rows.
_EIGHT_ROW_SAMPLES = problems_module._block_rows(1) // 8
assert problems_module._block_rows(_EIGHT_ROW_SAMPLES) == 8


def _objectives(d, seed):
    gen = np.random.default_rng(seed)
    data_set = make_synthetic_dataset(_EIGHT_ROW_SAMPLES, d, RngStream(seed))
    return {
        "quadratic": quadratic_objective(random_spd(d, 10.0, RngStream(seed)),
                                         gen.standard_normal(d)),
        "cubic": make_cubic_box(d, 0.4).fn,
        "logistic": logistic_objective(data_set, 0.1, 1.0 / len(data_set.labels)),
        "gap": logistic_gap_objective(data_set, 0.1, gen.standard_normal(d)),
    }


@settings(max_examples=40, deadline=None)
@given(d=st.integers(1, 6), m=st.sampled_from([1, 2, 7, 8, 9, 17, 24]),
       seed=st.integers(0, 2**16))
def test_batch_agrees_with_single_point_calls(d, m, seed):
    points = np.random.default_rng(seed).standard_normal((m, d))
    for name, fn in _objectives(d, seed).items():
        batch = fn.batch(points)
        assert batch.shape == (m,)
        single = np.array([fn(p) for p in points])
        # relative, or absolute where a value is below 1
        np.testing.assert_allclose(batch, single, rtol=1e-13, atol=1e-13,
                                   err_msg=name)


def test_logistic_objective_weights_the_sample_sum():
    data_set = make_synthetic_dataset(30, 4, RngStream(16))
    x = np.random.default_rng(17).standard_normal(4)
    z = data_set.labels * (data_set.features @ x)
    expected = 0.7 * np.sum(np.logaddexp(0.0, -z)) + 0.5 * 0.2 * float(x @ x)
    assert logistic_objective(data_set, 0.2, 0.7)(x) == pytest.approx(
        expected, rel=1e-14)


def _same_bits(a, b):
    """NaN at the same places and the same bits elsewhere, the signs of
    zeros included. A NaN's sign bit is left out: numpy does not specify
    it, and its SIMD and scalar loops set it differently."""
    nan = np.isnan(a)
    return bool(np.array_equal(nan, np.isnan(b))
                and np.array_equal(a[~nan].view(np.uint64),
                                   b[~nan].view(np.uint64)))


# Three blocks of 8 rows and a short tail of 5.
_FOUR_BLOCKS = 29


def _block_dataset_and_points(seed):
    d = 4
    data_set = make_synthetic_dataset(_EIGHT_ROW_SAMPLES, d, RngStream(seed))
    points = np.random.default_rng(seed).standard_normal((_FOUR_BLOCKS, d))
    return data_set, points


@pytest.mark.parametrize("seed", [20, 21])
def test_batch_values_do_not_depend_on_the_worker_count(monkeypatch, seed):
    data_set, points = _block_dataset_and_points(seed)
    points[3] = np.nan
    points[20, 1] = np.inf
    fns = {"logistic": logistic_objective(data_set, 0.1, 0.5),
           "gap": logistic_gap_objective(data_set, 0.1, points[0])}
    for name, fn in fns.items():
        values = []
        for workers in (1, 2, 3):
            monkeypatch.setattr(helpers_module, "_WORKERS", workers)
            values.append(fn.batch(points))
        assert np.isnan(values[0][3]) and values[0][20] == np.inf, name
        for other in values[1:]:
            assert np.array_equal(values[0], other, equal_nan=True), name


def test_many_workers_with_frequent_switches_keep_every_value(monkeypatch):
    # more workers than CPUs, switching threads as often as possible: a
    # worker that wrote outside its own blocks would change some sum
    data_set, _ = _block_dataset_and_points(25)
    points = np.random.default_rng(25).standard_normal((97, 4))
    fn = logistic_objective(data_set, 0.1, 0.5)
    monkeypatch.setattr(helpers_module, "_WORKERS", 1)
    expected = fn.batch(points)
    monkeypatch.setattr(helpers_module, "_WORKERS", 5)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(20):
            assert np.array_equal(fn.batch(points), expected)
    finally:
        sys.setswitchinterval(interval)


class _ThirdBlockError(Exception):
    pass


def _loss_raising_on_zero_margins(z, scratch):
    if not z.any():
        raise _ThirdBlockError
    problems_module._logistic_loss(z, scratch)


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_worker_exception_reaches_the_caller(monkeypatch, fresh_helpers,
                                             workers):
    monkeypatch.setattr(helpers_module, "_WORKERS", workers)
    data_set, points = _block_dataset_and_points(22)
    points[16:24] = 0.0  # the third block, a worker's with 2 or 3 workers
    with pytest.raises(_ThirdBlockError):
        problems_module._sample_sums(points, data_set,
                                     _loss_raising_on_zero_margins)
    # the helpers outlive the run that raised, and no batch starts more
    assert len(fresh_helpers) <= workers - 1
    assert all(helper.is_alive() for helper in fresh_helpers)
    fn = logistic_objective(data_set, 0.1, 0.5)
    monkeypatch.setattr(helpers_module, "_WORKERS", 1)
    expected = fn.batch(points)
    monkeypatch.setattr(helpers_module, "_WORKERS", workers)
    assert np.array_equal(fn.batch(points), expected)


@pytest.mark.parametrize("workers", [1, 2])
def test_workers_keep_the_caller_error_state(monkeypatch, workers):
    monkeypatch.setattr(helpers_module, "_WORKERS", workers)
    data_set, points = _block_dataset_and_points(23)
    points[16:24] = 1e308  # the margins of the third block overflow
    loss = problems_module._logistic_loss
    with np.errstate(all="raise"), pytest.raises(FloatingPointError):
        problems_module._sample_sums(points, data_set, loss)
    with np.errstate(all="ignore"), warnings.catch_warnings():
        warnings.simplefilter("error")
        sums = problems_module._sample_sums(points, data_set, loss)
    assert np.isinf(sums[16:24]).all()
    assert np.isfinite(np.delete(sums, np.s_[16:24])).all()


@pytest.mark.parametrize("workers", [1, 2])
def test_a_one_block_batch_matches_its_rows_in_a_batch_of_several(
        monkeypatch, workers):
    # a batch of one block takes its own path, with no block loop
    monkeypatch.setattr(helpers_module, "_WORKERS", workers)
    data_set, points = _block_dataset_and_points(26)
    points[3] = np.nan
    points[20, 1] = np.inf
    fns = {"logistic": logistic_objective(data_set, 0.1, 0.5),
           "gap": logistic_gap_objective(data_set, 0.1, points[0])}
    for name, fn in fns.items():
        whole = fn.batch(points)
        for start in range(0, _FOUR_BLOCKS, 8):
            rows = slice(start, start + 8)
            assert _same_bits(fn.batch(points[rows]), whole[rows]), (name,
                                                                     start)


def test_only_a_batch_of_several_blocks_uses_the_helpers(monkeypatch):
    submitted = []

    def record(tasks):
        submitted.extend(tasks)

    monkeypatch.setattr(helpers_module, "submit", record)
    monkeypatch.setattr(helpers_module, "_WORKERS", 2)
    data_set, points = _block_dataset_and_points(24)
    fn = logistic_objective(data_set, 0.1, 0.5)
    fn.batch(points[:8])
    assert submitted == []
    fn.batch(points)
    assert len(submitted) == 1


def test_a_batch_leaves_nothing_to_its_helpers(monkeypatch):
    # a helper that kept its last run would keep the dataset and the points
    monkeypatch.setattr(helpers_module, "_WORKERS", 2)
    data_set, points = _block_dataset_and_points(27)
    refs = [weakref.ref(data_set.features), weakref.ref(points)]
    sums = problems_module._sample_sums(points, data_set,
                                        problems_module._logistic_loss)
    assert np.isfinite(sums).all()
    del data_set, points
    assert [ref() for ref in refs] == [None, None]


_margins = st.one_of(
    st.floats(1e-3, 800.0),
    st.floats(-800.0, -1e-3),
    st.sampled_from([0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan]),
)


def _seven_pass_logistic_loss(z):
    """The reference: max(-z, 0) + log1p(exp(-|z|)) in seven passes."""
    scratch = np.abs(z)
    np.negative(scratch, out=scratch)
    np.exp(scratch, out=scratch)
    np.log1p(scratch, out=scratch)
    out = np.negative(z)
    np.maximum(out, 0.0, out=out)
    out += scratch
    return out


@settings(max_examples=200, deadline=None)
@given(values=st.lists(_margins, min_size=1, max_size=40))
def test_logistic_loss_matches_logaddexp(values):
    z = np.array(values)[None, :]
    out = z.copy()
    problems_module._logistic_loss(out, np.empty_like(out))
    assert _same_bits(out, _seven_pass_logistic_loss(z))
    with np.errstate(invalid="ignore"):
        ref = np.logaddexp(0.0, -z)
    normal = np.isfinite(ref) & (ref >= np.finfo(float).tiny)
    np.testing.assert_allclose(out[normal], ref[normal], rtol=1e-15, atol=0)
    infinite = np.isinf(z)
    np.testing.assert_array_equal(out[infinite], ref[infinite])
    assert np.array_equal(np.isnan(out), np.isnan(z))


_sigmoid_inputs = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(-800.0, 800.0),
    st.sampled_from([0.0, -0.0, np.inf, -np.inf, np.nan]),
)


@settings(max_examples=200, deadline=None)
@given(values=st.lists(_sigmoid_inputs, min_size=1, max_size=40))
def test_sigmoid_matches_expit(values):
    from scipy.special import expit

    z = np.array(values)
    out = problems_module._sigmoid(z)
    ref = expit(z)
    normal = np.isfinite(ref) & (ref >= np.finfo(float).tiny)
    np.testing.assert_allclose(out[normal], ref[normal], rtol=1e-15, atol=0)
    infinite = np.isinf(z)
    np.testing.assert_array_equal(out[infinite], ref[infinite])
    assert np.array_equal(np.isnan(out), np.isnan(z))


def test_nan_coordinate_stops_logistic_run_numerical():
    data_set = make_synthetic_dataset(50, 3, RngStream(18))
    oracle = Oracle(logistic_objective(data_set, 0.1, 1.0 / 50), 3)
    config = SolverConfig(mu=1e-4, r_policy=FixedDirections(3),
                          max_iterations=5)
    trace = run(np.array([0.1, np.nan, -0.2]), oracle, config, RngStream(19))
    assert trace.status == STOPPED_NUMERICAL
    assert len(trace.records) == 1
    assert np.isnan(trace.records[0].f_value)
