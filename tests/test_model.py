import dataclasses
import inspect
import io
import itertools
import math
import pickle
import re
from collections import deque

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from firngas import model
from firngas.analysis import plan_run
from firngas.assembly import Tridiagonal
from firngas.errors import DomainError, ValidationError
from firngas.mesh import Mesh, build_uniform
from firngas.model import (AtmosphereSeries, CoefficientProfile, ModelParams,
                           RescaledContext, rescale)
from firngas.solver import Trajectory, levels, run, write_csv
from reference import ONE, ctx

# Values a number argument cannot take: each is refused with ValidationError.  numpy would
# take a complex scalar with no imaginary part for its real part, with a ComplexWarning.
BAD_NUMBERS = {"str": "x", "none": None, "object": object(), "list": [1.0],
               "nan": np.nan, "inf": np.inf, "-inf": -np.inf, "bool": True,
               "huge_int": 10**400, "complex64": np.complex64(0.5),
               "complex128": np.complex128(0.5), "clongdouble": np.clongdouble(0.5)}


def make_params(**overrides):
    base = dict(M_alpha=0.04, g=9.81, R=8.314, T=250.0, tau=0.3, lam=0.7,
                v=0.5, w_air=0.1, z_F=80.0, T_e=30.0)
    base.update(overrides)
    return ModelParams(**base)


class TestModelParams:
    def test_valid(self):
        p = make_params()
        assert p.z_F == 80.0

    @pytest.mark.parametrize("name", ["M_alpha", "g", "R", "T", "tau", "lam",
                                      "v", "w_air", "z_F", "T_e"])
    def test_nonpositive_rejected(self, name):
        with pytest.raises(ValidationError, match=name):
            make_params(**{name: 0.0})

    def test_decay_rate_warning(self):
        with pytest.warns(UserWarning, match="lam") as record:
            make_params(lam=0.1)
        assert record[0].filename == __file__  # the caller, not the generated __init__

    def test_decay_rate_warning_names_the_calling_line(self):
        constants = {**vars(make_params()), "lam": 2.0}
        with pytest.warns(UserWarning, match=r"^decay rate lam=2\.0 outside") as record:
            line = inspect.currentframe().f_lineno + 1
            ModelParams(**constants)
        assert (record[0].filename, record[0].lineno) == (__file__, line)

    def test_rescaled_coefficients(self):
        ctx = rescale(make_params())
        mcoef, gcoef, fcoef = ctx.mcoef, ctx.gcoef, ctx.fcoef
        assert mcoef == pytest.approx(0.04 * 9.81 / (8.314 * 250.0), rel=1e-15)
        assert gcoef == pytest.approx(1.0, rel=1e-15)
        assert fcoef == pytest.approx(0.6, rel=1e-15)

    def test_rescale_roundtrip(self):
        ctx = rescale(make_params())
        assert isinstance(ctx, RescaledContext)
        assert ctx.T_e == 30.0 and ctx.z_F == 80.0
        assert ctx.gcoef == pytest.approx(1.0)

    @pytest.mark.parametrize("value", [-1.0, 0.0])
    @pytest.mark.parametrize("record, name", [
        *((ModelParams, name) for name in ["M_alpha", "g", "R", "T", "tau", "lam",
                                           "v", "w_air", "z_F", "T_e"]),
        *((RescaledContext, name) for name in ["T_e", "z_F", "mcoef", "gcoef", "fcoef"])])
    def test_sign_rule_names_the_field_and_the_value(self, record, name, value):
        """Every field is refused below 0; at 0 only the fields that must be strictly positive are."""
        valid = vars(make_params() if record is ModelParams else ctx())
        nonnegative = record is RescaledContext and name in ("mcoef", "gcoef", "fcoef")
        if value == 0.0 and nonnegative:
            assert getattr(record(**{**valid, name: value}), name) == 0.0
        else:
            sign = "nonnegative" if nonnegative else "strictly positive"
            message = f"{record.__name__}.{name} must be {sign}, got {value!r}"
            with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
                record(**{**valid, name: value})

    def test_context_validation(self):
        with pytest.raises(ValidationError):
            RescaledContext(T_e=0.0, z_F=1.0, mcoef=0.0, gcoef=0.0, fcoef=0.0)
        with pytest.raises(ValidationError):
            RescaledContext(T_e=1.0, z_F=1.0, mcoef=-1.0, gcoef=0.0, fcoef=0.0)

    @pytest.mark.parametrize("name", ["T_e", "z_F", "mcoef", "gcoef", "fcoef"])
    @pytest.mark.parametrize("bad", list(BAD_NUMBERS.values()), ids=list(BAD_NUMBERS))
    def test_context_refuses_non_finite(self, name, bad):
        fields = dict(T_e=1.0, z_F=1.0, mcoef=0.0, gcoef=0.0, fcoef=0.0)
        with pytest.raises(ValidationError, match=f"{name} must be finite"):
            RescaledContext(**{**fields, name: bad})

    @pytest.mark.parametrize("number", [np.float32, np.float64, int, str],
                             ids=["float32", "float64", "int", "str"])
    def test_records_store_python_floats(self, number):
        params = make_params(**{name: number(value) for name, value in dict(
            T=250, z_F=80, T_e=30, R=8).items()})
        for record in (params, rescale(params)):
            for name, value in vars(record).items():
                assert type(value) is float, (name, value)
        assert (params.T, params.z_F, params.T_e, params.R) == (250.0, 80.0, 30.0, 8.0)


class TestCoefficientProfile:
    def test_constant(self):
        p = CoefficientProfile.constant(2.0)
        assert p(0.3) == 2.0
        np.testing.assert_allclose(p(np.array([0.0, 1.0])), [2.0, 2.0])

    def test_affine(self):
        p = CoefficientProfile.affine(1.0, -1.0)
        assert p(0.25) == pytest.approx(0.75)
        assert p(1.0) == 0.0

    def test_sampled_interpolates(self):
        p = CoefficientProfile.sampled([0.0, 0.5, 1.0], [1.0, 0.6, 0.0])
        assert p(0.25) == pytest.approx(0.8)
        assert p(0.75) == pytest.approx(0.3)

    def test_sampled_keeps_a_read_only_copy_of_its_table(self):
        z, values = np.array([0.0, 0.5, 1.0]), np.array([1.0, 0.6, 0.0])
        p = CoefficientProfile.sampled(z, values)
        values[1], z[1] = 5.0, 0.9
        assert p(0.5) == 0.6

    def test_sampled_must_cover_unit_interval(self):
        with pytest.raises(ValidationError):
            CoefficientProfile.sampled([0.1, 1.0], [1.0, 1.0])
        with pytest.raises(ValidationError):
            CoefficientProfile.sampled([0.0, 0.5], [1.0, 1.0])

    def test_firn_diffusion_branches(self):
        d_eddy = CoefficientProfile.constant(3.0)
        d_air = CoefficientProfile.constant(2.0)
        p = CoefficientProfile.firn_diffusion(z_eddy=0.4, r_alpha=0.5, c_f=1.0,
                                              d_eddy=d_eddy, d_co2_air=d_air)
        # surface layer: d_eddy + r*c_f*d_air; below: r*d_air
        assert p(0.2) == pytest.approx(4.0)
        assert p(0.8) == pytest.approx(1.0)

    def test_domain_guard(self):
        p = CoefficientProfile.constant(1.0)
        with pytest.raises(DomainError):
            p(1.5)
        with pytest.raises(DomainError):
            p(np.array([-0.1, 0.5]))
        for bad in (np.nan, "x"):  # not a depth at all: no domain test can place it
            with pytest.raises(ValidationError, match="profile depths must be finite numbers"):
                p(bad)

    @pytest.mark.parametrize("bad", list(BAD_NUMBERS.values()), ids=list(BAD_NUMBERS))
    @pytest.mark.parametrize("build", [
        lambda x: CoefficientProfile.constant(x),
        lambda x: CoefficientProfile.constant(1.0, upper_bound="x" if x is None else x),
        lambda x: CoefficientProfile.affine(x, -1.0),
        lambda x: CoefficientProfile.affine(1.0, x),
        lambda x: CoefficientProfile.sampled([0.0, 0.5, 1.0], [1.0, x, 0.0]),
        lambda x: CoefficientProfile.sampled([0.0, x, 1.0], [1.0, 0.5, 0.0]),
        lambda x: CoefficientProfile.firn_diffusion(x, 0.5, 1.0, ONE, ONE),
        lambda x: CoefficientProfile.firn_diffusion(0.4, x, 1.0, ONE, ONE),
        lambda x: CoefficientProfile.firn_diffusion(0.4, 0.5, x, ONE, ONE),
    ], ids=["constant", "upper_bound", "intercept", "slope", "sampled_value", "sampled_z",
            "z_eddy", "r_alpha", "c_f"])
    def test_constructors_refuse_non_finite(self, build, bad):
        # upper_bound=None means no cap (test_upper_bound_none_is_no_cap), so "x" stands in
        with pytest.raises(ValidationError, match="finite"):
            build(bad)

    def test_upper_bound_none_is_no_cap(self):
        assert CoefficientProfile.constant(1.0, upper_bound=None).upper_bound is None

    @pytest.mark.parametrize("evaluate", [
        lambda z: 1.0,
        lambda z: [1.0],
        lambda z: z[:, None],
        lambda z: np.full(z.shape, "x"),
        lambda z: [object()] * len(z),
    ], ids=["scalar", "short_list", "column", "str", "object"])
    def test_call_refuses_a_result_that_is_not_a_float_array_of_the_depths_shape(self, evaluate):
        with pytest.raises(ValidationError, match=r"float array of shape \(5,\)"):
            CoefficientProfile(evaluate)(np.linspace(0.0, 1.0, 5))

    def test_call_converts_a_list_of_the_depths_shape(self):
        z = np.linspace(0.0, 1.0, 5)
        values = CoefficientProfile(lambda z: list(1.0 - z))(z)
        assert values.dtype == float
        np.testing.assert_array_equal(values, 1.0 - z)

    def test_plan_refuses_a_wrong_shape_profile(self):
        with pytest.raises(ValidationError, match="float array of shape"):
            plan_run(CoefficientProfile(lambda z: np.ones(3)), ONE, build_uniform(5), ctx())

    def test_pickle_round_trip(self):
        """Profiles cross process boundaries, as an ensemble over worker processes needs."""
        z = np.linspace(0.0, 1.0, 9)
        for profile in (ONE, CoefficientProfile.affine(1.0, -1.0, upper_bound=2.0),
                        CoefficientProfile.sampled([0.0, 0.5, 1.0], [1.0, 0.6, 0.0]),
                        CoefficientProfile.firn_diffusion(0.4, 0.5, 1.0, ONE, ONE)):
            copy = pickle.loads(pickle.dumps(profile))
            assert copy.upper_bound == profile.upper_bound
            np.testing.assert_array_equal(copy(z), profile(z))

    def test_firn_diffusion_needs_profiles(self):
        with pytest.raises(ValidationError, match="profiles"):
            CoefficientProfile.firn_diffusion(0.4, 0.5, 1.0, lambda z: z, ONE)


# Tables that both sampled profiles and atmosphere series refuse, as (x, y).
BAD_TABLES = {
    "two_dimensional": ([[0.0, 1.0]], [[0.0, 1.0]]),
    "length_mismatch": ([0.0, 0.5, 1.0], [0.0, 1.0]),
    "single_sample": ([0.0], [0.0]),
    "nan_value": ([0.0, 0.5, 1.0], [0.0, np.nan, 1.0]),
    "inf_point": ([0.0, np.inf], [0.0, 1.0]),
    "not_increasing": ([0.0, 0.5, 0.5, 1.0], [0.0, 1.0, 1.0, 1.0]),
    "short_of_one": ([0.0, 0.5], [0.0, 1.0]),
}


@pytest.mark.parametrize("name", BAD_TABLES)
@pytest.mark.parametrize("build", [CoefficientProfile.sampled, AtmosphereSeries],
                         ids=["sampled", "atmosphere"])
def test_one_table_check(build, name):
    with pytest.raises(ValidationError):
        build(*BAD_TABLES[name])


class TestAtmosphereSeries:
    def test_ramp(self):
        atm = AtmosphereSeries.ramp(2.0)
        assert atm(0.0) == 0.0
        assert atm(0.5) == pytest.approx(1.0)
        assert atm(1.0) == pytest.approx(2.0)

    def test_zero(self):
        atm = AtmosphereSeries.zero()
        assert atm(0.7) == 0.0

    def test_keeps_a_read_only_copy_of_its_samples(self):
        times, values = np.array([0.0, 0.5, 1.0]), np.array([0.0, 0.6, 1.0])
        atm = AtmosphereSeries(times, values)
        values[1], times[1] = 5.0, 0.9
        assert atm(0.5) == 0.6
        for array in (atm.times, atm.values):
            with pytest.raises(ValueError, match="read-only"):
                array[1] = 0.9

    def test_initial_value_must_vanish(self):
        with pytest.raises(ValidationError):
            AtmosphereSeries(np.array([0.0, 1.0]), np.array([0.1, 1.0]))

    def test_times_must_cover(self):
        with pytest.raises(ValidationError):
            AtmosphereSeries(np.array([0.0, 0.5]), np.array([0.0, 1.0]))
        with pytest.raises(ValidationError):
            AtmosphereSeries(np.array([0.1, 1.0]), np.array([0.0, 1.0]))

    def test_domain_guard(self):
        with pytest.raises(DomainError):
            AtmosphereSeries.ramp()(1.5)
        for bad in (np.nan, "x"):
            with pytest.raises(ValidationError, match="atmosphere times must be finite numbers"):
                AtmosphereSeries.ramp()(bad)


# Every other site that takes a caller's number: one value in a valid call is replaced.
NUMBER_SITES = {
    "params": lambda x: make_params(g=x),
    "atmosphere_value": lambda x: AtmosphereSeries([0.0, 0.5, 1.0], [0.0, x, 1.0]),
    "ramp": lambda x: AtmosphereSeries.ramp(x),
    "mesh_node": lambda x: Mesh([0.0, x, 1.0]),
    "band_entry": lambda x: Tridiagonal([x], [1.0, 1.0], [0.0]),
    "c_D": lambda x: plan_run(ONE, ONE, build_uniform(5), ctx(), c_D=x),
    "trajectory_times": lambda x: Trajectory([0.0, x], np.zeros((2, 2)), [0.0, 1.0],
                                             build_uniform(3)),
    "trajectory_interior": lambda x: Trajectory([0.0, 1.0], [[0.0, 0.0], [x, 0.0]],
                                                [0.0, 1.0], build_uniform(3)),
    "trajectory_boundary": lambda x: Trajectory([0.0, 1.0], np.zeros((2, 2)), [0.0, x],
                                                build_uniform(3)),
    "profile_depth": lambda x: ONE([0.25, x]),
    "history_time": lambda x: AtmosphereSeries.ramp()([0.25, x]),
    "profile_result": lambda x: CoefficientProfile(lambda z: [1.0, x])([0.25, 0.75]),
    "csv_time": lambda x: write_csv(io.StringIO(), [0.0, 0.5, 1.0], [(x, 0.0, [0.0, 0.0])]),
    "csv_surface": lambda x: write_csv(io.StringIO(), [0.0, 0.5, 1.0], [(0.0, x, [0.0, 0.0])]),
}


@pytest.mark.parametrize("bad", list(BAD_NUMBERS.values()), ids=list(BAD_NUMBERS))
@pytest.mark.parametrize("site", NUMBER_SITES)
def test_every_number_site_refuses_with_validation_error(site, bad):
    """Never a raw TypeError, ValueError or AttributeError."""
    NUMBER_SITES[site](1.0 if site == "c_D" else 0.5)  # the valid call
    with pytest.raises(ValidationError):
        NUMBER_SITES[site](bad)


# Every site that takes an array, given one through ``lift``: each refuses a complex array
# even with no imaginary part, which numpy would cast to its real part with a ComplexWarning.
ARRAY_SITES = {
    "sampled_z": lambda lift: CoefficientProfile.sampled(lift([0.0, 0.5, 1.0]), [1.0, 0.5, 0.0]),
    "sampled_value": lambda lift: CoefficientProfile.sampled([0.0, 0.5, 1.0],
                                                             lift([1.0, 0.5, 0.0])),
    "atmosphere_times": lambda lift: AtmosphereSeries(lift([0.0, 1.0]), [0.0, 1.0]),
    "atmosphere_values": lambda lift: AtmosphereSeries([0.0, 1.0], lift([0.0, 1.0])),
    "mesh": lambda lift: Mesh(lift([0.0, 0.5, 1.0])),
    "band": lambda lift: Tridiagonal(lift([1.0]), [1.0, 1.0], [0.0]),
    "trajectory_times": lambda lift: Trajectory(lift([0.0, 1.0]), np.zeros((2, 2)), [0.0, 1.0],
                                                build_uniform(3)),
    "trajectory_interior": lambda lift: Trajectory([0.0, 1.0], lift(np.zeros((2, 2))),
                                                   [0.0, 1.0], build_uniform(3)),
    "trajectory_boundary": lambda lift: Trajectory([0.0, 1.0], np.zeros((2, 2)),
                                                   lift([0.0, 1.0]), build_uniform(3)),
    "profile_depths": lambda lift: ONE(lift([0.0, 0.5])),
    "profile_result": lambda lift: CoefficientProfile(lambda z: lift(1.0 - z))([0.0, 0.75]),
    "history_times": lambda lift: AtmosphereSeries.ramp()(lift([0.0, 0.5])),
    "plain_atmosphere_levels": lambda lift: list(levels(
        plan_run(ONE, ONE, build_uniform(5), ctx(), dt=0.04).operators, lift)),
    "plain_atmosphere_run": lambda lift: run(build_uniform(5), ONE, ONE, ctx(), lift, dt=0.04),
    "csv_nodes": lambda lift: csv_text(lift([0.0, 0.5, 1.0]), []),
    "csv_interior": lambda lift: csv_text([0.0, 0.5, 1.0], [(0.0, 0.0, lift([0.0, 0.0]))]),
}


def csv_text(nodes, rows):
    write_csv(out := io.StringIO(), nodes, rows)
    return out.getvalue()


def held_floats(result):
    """What an ``ARRAY_SITES`` call built, as values ``np.testing.assert_equal`` compares."""
    if isinstance(result, CoefficientProfile):
        return result(np.linspace(0.0, 1.0, 5))
    if dataclasses.is_dataclass(result):
        return {name: value for name, value in vars(result).items()
                if isinstance(value, np.ndarray)}
    return result


def nest(leaves, shape, kinds):
    """``leaves`` as a nest of ``shape``; each inner node is built by the next of ``kinds``."""
    if not shape:
        return leaves[0]
    step = len(leaves) // shape[0]
    return next(kinds)(nest(leaves[i:i + step], shape[1:], kinds)
                       for i in range(0, len(leaves), step))


def held_by_a_deque(swap):
    """A ``lift`` to nested deques of floats whose first 0.0 or 1.0 becomes ``swap`` of it."""
    def lift(values):
        array = np.asarray(values, dtype=float)
        leaves = array.ravel().tolist()
        first = next(i for i, leaf in enumerate(leaves) if leaf in (0.0, 1.0))
        leaves[first] = swap(leaves[first])
        return nest(leaves, array.shape, itertools.repeat(deque))
    return lift


@pytest.mark.parametrize("dtype", [np.complex64, np.complex128, np.clongdouble])
@pytest.mark.parametrize("site", ARRAY_SITES)
def test_every_array_site_refuses_a_complex_array_with_no_imaginary_part(site, dtype):
    ARRAY_SITES[site](lambda values: np.asarray(values, dtype=float))  # the valid call
    with pytest.raises(ValidationError):
        ARRAY_SITES[site](lambda values: np.asarray(values, dtype=dtype))


@pytest.mark.parametrize("site", ARRAY_SITES)
def test_every_array_site_takes_a_deque_of_floats(site):
    expected = held_floats(ARRAY_SITES[site](lambda values: np.asarray(values, dtype=float)))
    np.testing.assert_equal(held_floats(ARRAY_SITES[site](held_by_a_deque(float))), expected)


@pytest.mark.parametrize("swap", [bool, np.bool_, np.complex128],
                         ids=["bool", "numpy_bool", "complex128"])
@pytest.mark.parametrize("site", ARRAY_SITES)
def test_every_array_site_refuses_a_bool_or_complex_value_held_by_a_deque(site, swap):
    with pytest.raises(ValidationError):
        ARRAY_SITES[site](held_by_a_deque(swap))


FINITE = st.floats(allow_nan=False, allow_infinity=False)
REAL_LEAVES = st.one_of(FINITE, st.integers(-2**70, 2**70), FINITE.map(repr),
                        st.integers(-10**6, 10**6).map(str))
NOT_REAL_LEAVES = st.sampled_from([True, False, np.True_, np.False_, np.complex64(1.0),
                                   np.complex128(0.5), np.clongdouble(0.0)])


@st.composite
def real_nests(draw):
    """A rectangular nest of lists, tuples and deques of real leaves, and one of its leaves spoiled.

    The spoiled copy is the same nest with one leaf replaced by a bool or a complex value.
    """
    shape = draw(st.lists(st.integers(1, 3), max_size=3))
    size = math.prod(shape)
    leaves = draw(st.lists(REAL_LEAVES, min_size=size, max_size=size))
    kinds = draw(st.lists(st.sampled_from([list, tuple, deque]), min_size=13, max_size=13))
    spoiled = leaves.copy()
    spoiled[draw(st.integers(0, size - 1))] = draw(NOT_REAL_LEAVES)
    return nest(leaves, shape, iter(kinds)), nest(spoiled, shape, iter(kinds))


@given(real_nests())
def test_real_converts_held_real_values_as_numpy_does_and_refuses_any_held_bool_or_complex(nests):
    real, spoiled = nests
    converted, expected = model._real(real), np.asarray(real, dtype=float)
    assert (converted.dtype, converted.shape) == (expected.dtype, expected.shape)
    assert converted.tobytes() == expected.tobytes()
    with pytest.raises(model._NotReal):
        model._real(spoiled)


# Every site that takes a caller's count or index: the one integer rule, then the site's range.
INTEGER_SITES = {
    "node count": build_uniform,
    "stride": lambda k: levels(plan_run(ONE, ONE, build_uniform(5), ctx(), dt=0.01).operators,
                               AtmosphereSeries.ramp(), stride=k),
    "level index": Trajectory(np.linspace(0.0, 1.0, 4), np.zeros((4, 2)), np.zeros(4),
                              build_uniform(3)).reconstruct_full,
}


@pytest.mark.parametrize("bad", [True, 1.0, "1", None], ids=["bool", "float", "str", "none"])
@pytest.mark.parametrize("site", INTEGER_SITES)
def test_every_integer_site_takes_a_numpy_integer_and_refuses_the_rest(site, bad):
    INTEGER_SITES[site](np.int64(3))
    message = f"{site} must be an integer, got {bad!r}"
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        INTEGER_SITES[site](bad)


def test_two_dimensional_band_refused():
    with pytest.raises(ValidationError, match="inconsistent band lengths"):
        Tridiagonal([[1.0]], [1.0, 1.0], [0.0])


@pytest.mark.parametrize("mesh", [None, np.linspace(0.0, 1.0, 3)], ids=["none", "array"])
def test_trajectory_needs_a_mesh(mesh):
    with pytest.raises(ValidationError, match="needs a Mesh"):
        Trajectory([0.0, 1.0], np.zeros((2, 2)), [0.0, 1.0], mesh)
