import pickle

import numpy as np
import pytest

from firngas.errors import DomainError, ValidationError
from firngas.model import (AtmosphereSeries, CoefficientProfile, ModelParams,
                           RescaledContext, rescale)
from reference import ONE


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

    def test_context_validation(self):
        with pytest.raises(ValidationError):
            RescaledContext(T_e=0.0, z_F=1.0, mcoef=0.0, gcoef=0.0, fcoef=0.0)
        with pytest.raises(ValidationError):
            RescaledContext(T_e=1.0, z_F=1.0, mcoef=-1.0, gcoef=0.0, fcoef=0.0)

    @pytest.mark.parametrize("name", ["T_e", "z_F", "mcoef", "gcoef", "fcoef"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_context_refuses_non_finite(self, name, bad):
        fields = dict(T_e=1.0, z_F=1.0, mcoef=0.0, gcoef=0.0, fcoef=0.0)
        with pytest.raises(ValidationError, match=f"{name} must be finite"):
            RescaledContext(**{**fields, name: bad})


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

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("build", [
        lambda x: CoefficientProfile.constant(x),
        lambda x: CoefficientProfile.constant(1.0, upper_bound=x),
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
        with pytest.raises(ValidationError, match="finite"):
            build(bad)

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
