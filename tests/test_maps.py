import math
import random

import numpy as np
import pytest

from repeater_scaling.exceptions import FidelityClampWarning
import repeater_scaling.maps as maps
from repeater_scaling.maps import (
    ErrorParams,
    _clamp_unit,
    _purify_kernel,
    decay,
    purify,
    purify_coefficients,
    purify_ideal,
    swap_fidelity,
    swap_preimage,
)

ZERO = ErrorParams()


def ideal_map(f):
    # independent transcription used as the oracle for the library's map
    w = (1.0 - f) / 3.0
    return (f * f + w * w) / (f * f + 2.0 * f * w + 5.0 * w * w)


class TestErrorParams:
    def test_defaults(self):
        err = ErrorParams(eps_g=0.01, eps_r=0.02)
        assert err.p_z == 0.5
        assert err.p_x + err.p_y == 0.5
        assert err.eta == pytest.approx(0.98, abs=1e-15)
        assert err.eta_s == err.eta

    def test_eta_s_override(self):
        err = ErrorParams(eps_r=0.1, eta_s=0.95)
        assert err.eta_s == 0.95

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"eps_g": -0.1},
            {"eps_g": 1.0},
            {"eps_r": 0.5},
            {"eps_r": -1e-9},
            {"p_x": 0.5, "p_y": 0.5, "p_z": 0.5},
            {"p_x": -0.1, "p_y": 0.6, "p_z": 0.5},
            {"eta_s": 0.5},
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(ValueError):
            ErrorParams(**kwargs)

    def test_pauli_weights_must_sum_to_one(self):
        with pytest.raises(ValueError):
            ErrorParams(p_x=0.25, p_y=0.25, p_z=0.5 + 1e-10)


class TestPurifyIdeal:
    def test_upper_fixed_point(self):
        assert purify_ideal(1.0) == pytest.approx(1.0, abs=1e-15)

    def test_lower_fixed_point(self):
        assert purify_ideal(0.5) == pytest.approx(0.5, abs=1e-15)

    def test_hand_evaluated_point(self):
        # 0.6444444.../0.7688888... evaluated by hand
        assert purify_ideal(0.8) == pytest.approx(0.838150289017341, abs=1e-12)

    def test_rejects_out_of_range(self):
        for bad in (0.0, -0.2, 1.0 + 1e-9):
            with pytest.raises(ValueError):
                purify_ideal(bad)

    def test_array_broadcast(self):
        grid = np.linspace(0.3, 1.0, 11)
        out = purify_ideal(grid)
        assert out.shape == grid.shape
        for f, v in zip(grid, out):
            assert v == pytest.approx(purify_ideal(float(f)), abs=1e-15)


class TestPurify:
    def test_zero_error_reduces_to_ideal(self):
        for f in np.linspace(0.501, 1.0, 40):
            fid, _ = purify(float(f), ZERO)
            assert abs(float(fid) - float(purify_ideal(float(f)))) <= 1e-12

    def test_zero_error_acceptance_is_ideal_denominator(self):
        fid, acc = purify(0.9, ZERO)
        w = 0.1 / 3.0
        assert float(acc) == pytest.approx(0.81 + 2 * 0.9 * w + 5 * w * w, abs=1e-15)
        assert float(fid) == pytest.approx(ideal_map(0.9), abs=1e-15)

    def test_half_point(self):
        fid, acc = purify(0.5, ZERO)
        assert float(fid) == pytest.approx(0.5, abs=1e-12)
        assert float(acc) == pytest.approx(5.0 / 9.0, abs=1e-12)

    def test_acceptance_independent_of_gate_error(self):
        _, acc0 = purify(0.85, ErrorParams(eps_r=0.01))
        _, acc1 = purify(0.85, ErrorParams(eps_g=0.04, eps_r=0.01))
        assert float(acc0) == pytest.approx(float(acc1), abs=1e-15)

    def test_perfect_acceptance_at_unit_fidelity(self):
        _, acc = purify(1.0, ZERO)
        assert float(acc) == 1.0

    def test_acceptance_bounds(self):
        for f in np.linspace(0.01, 1.0, 25):
            for er in np.linspace(0.0, 0.49, 8):
                _, acc = purify(float(f), ErrorParams(eps_r=float(er)))
                assert 4.0 / 9.0 - 1e-12 <= float(acc) <= 1.0 + 1e-12

    @pytest.mark.parametrize("fixed_er", [0.0, 0.02])
    def test_monotone_degradation_in_gate_error(self, fixed_er):
        for f in np.linspace(0.6, 0.99, 9):
            values = [
                float(purify(float(f), ErrorParams(eps_g=float(eg), eps_r=fixed_er)).fidelity)
                for eg in np.linspace(0.0, 0.05, 11)
            ]
            assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))

    @pytest.mark.parametrize("fixed_eg", [0.0, 0.02])
    def test_monotone_degradation_in_readout_error(self, fixed_eg):
        for f in np.linspace(0.6, 0.99, 9):
            values = [
                float(purify(float(f), ErrorParams(eps_g=fixed_eg, eps_r=float(er))).fidelity)
                for er in np.linspace(0.0, 0.05, 11)
            ]
            assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))


def _bits(value):
    return np.asarray(value, dtype=float).tobytes()


class TestPurifyKernel:
    # The lock-step scan runs the kernel unchecked; the public map must be the
    # same arithmetic with its checks around it.
    FIDELITIES = np.concatenate(
        ([1.0, 0.25, 0.5], 1.0 - np.random.default_rng(20241020).uniform(0.0, 1.0, 509))
    )

    @pytest.mark.parametrize(
        "err",
        [ErrorParams(eps_r=0.004), ErrorParams(eps_g=0.004, eps_r=0.006),
         ErrorParams(eps_g=0.0289, eps_r=0.0)],
        ids=["eps_g-0", "moderate", "below-threshold"],
    )
    def test_bit_identical_to_purify(self, err):
        inputs = [self.FIDELITIES]
        for v in self.FIDELITIES[:40].tolist():
            inputs += [v, np.float64(v), np.array(v)]
        for f in inputs:
            expected = purify(f, err)
            got = _purify_kernel(f, err)
            assert type(got[0]) is type(expected.fidelity)
            assert _bits(got[0]) == _bits(expected.fidelity)
            assert _bits(got[1]) == _bits(expected.p_accept)

    def test_public_checks_are_kept(self, monkeypatch):
        with pytest.raises(ValueError, match=r"^fidelity must lie in \(0\.0, 1\], got 1\.5$"):
            purify(1.5, ZERO)
        monkeypatch.setattr(maps, "_purify_kernel", lambda f, err: (1.0 + 1e-12, 1.0))
        with pytest.warns(FidelityClampWarning, match="fidelity clamped to 1.0") as record:
            assert purify(0.9, ZERO).fidelity == 1.0
        # the warning names purify's caller, not purify itself
        assert record[0].filename == __file__
        monkeypatch.setattr(maps, "_purify_kernel", lambda f, err: (1.0 + 1e-6, 1.0))
        with pytest.raises(ValueError, match="exceeds 1 beyond tolerance"):
            purify(0.9, ZERO)


class TestPurifyCoefficients:
    @pytest.mark.parametrize(
        "err",
        [ZERO, ErrorParams(eps_g=0.01, eps_r=0.005), ErrorParams(eps_g=0.03, eps_r=0.02),
         ErrorParams(eps_g=0.008, eps_r=0.002, p_x=0.1, p_y=0.2, p_z=0.7)],
    )
    def test_polynomials_reproduce_the_map(self, err):
        a, b, c, n2, n1, n0 = purify_coefficients(err)
        f = np.linspace(0.26, 1.0, 75)
        result = purify(f, err)
        accept9 = a * f * f + b * f + c
        assert np.allclose(accept9, 9.0 * result.p_accept, rtol=1e-14, atol=0.0)
        cubic = -a * f**3 + n2 * f * f + n1 * f + n0
        assert np.allclose(cubic / accept9, result.fidelity - f, rtol=0.0, atol=1e-14)

    def test_quarter_is_a_root_of_the_gain(self):
        # purify(1/4) == 1/4 for every error model
        rng = random.Random(3)
        for _ in range(200):
            err = ErrorParams(eps_g=rng.uniform(0.0, 0.05), eps_r=rng.uniform(0.0, 0.05))
            a, _, _, n2, n1, n0 = purify_coefficients(err)
            assert abs(-a / 64.0 + n2 / 16.0 + n1 / 4.0 + n0) <= 1e-15


class TestSwapPreimage:
    def test_inverts_the_two_link_swap_within_four_ulp(self):
        rng = random.Random(20241022)
        for eps_r in (0.0, 1e-4, 3e-3, 0.02, 0.2):
            err = ErrorParams(eps_r=eps_r)
            for _ in range(4000):
                f = rng.uniform(0.25, err.eta_s**2)
                back = float(swap_fidelity(swap_preimage(f, err.eta_s), 2, err))
                assert abs(back - f) <= 4 * math.ulp(f), (eps_r, f)

    def test_uses_the_swap_read_out_efficiency(self):
        err = ErrorParams(eps_r=0.01, eta_s=0.97)
        assert float(swap_fidelity(swap_preimage(0.8, 0.97), 2, err)) == pytest.approx(0.8)


class TestSwapFidelity:
    def test_perfect_everything(self):
        assert float(swap_fidelity(1.0, 2, ErrorParams(eta_s=1.0))) == pytest.approx(
            1.0, abs=1e-15
        )

    def test_hand_evaluated_two_links(self):
        # 1/4 * (1 + 3 * (2.8/3)^2)
        assert float(swap_fidelity(0.95, 2, ErrorParams(eta_s=1.0))) == pytest.approx(
            0.9033333333333333, abs=1e-12
        )

    def test_unabsorbed_gate_error(self):
        err = ErrorParams(eps_g=0.01, eps_r=0.0)
        expected = 0.25 * (1.0 + 3.0 * (1.0 - 0.01) ** 3 * (2.8 / 3.0) ** 2)
        assert float(swap_fidelity(0.95, 2, err, absorbed=False)) == pytest.approx(
            expected, abs=1e-12
        )

    def test_contraction(self):
        for f in np.linspace(0.26, 1.0, 20):
            for eta_s in np.linspace(0.51, 1.0, 8):
                out = float(swap_fidelity(float(f), 2, ErrorParams(eps_r=0.1, eta_s=float(eta_s))))
                assert out <= float(f) + 1e-12
                assert out > 0.25

    def test_equality_only_at_perfect_point(self):
        assert float(swap_fidelity(1.0, 3, ErrorParams())) == pytest.approx(1.0, abs=1e-12)
        assert float(swap_fidelity(0.999, 2, ErrorParams())) < 0.999

    def test_composition_identity(self):
        # joining four links equals joining two twice, feeding the result back
        for f in np.linspace(0.3, 1.0, 15):
            for eta_s in (1.0, 0.95, 0.8):
                err = ErrorParams(eps_r=0.2, eta_s=eta_s)
                once = float(swap_fidelity(float(f), 4, err))
                stage = float(swap_fidelity(float(f), 2, err))
                twice = float(swap_fidelity(stage, 2, err))
                assert once == pytest.approx(twice, abs=1e-12)

    def test_rejects_single_link(self):
        with pytest.raises(ValueError):
            swap_fidelity(0.9, 1, ZERO)

    def test_rejects_low_fidelity(self):
        with pytest.raises(ValueError):
            swap_fidelity(0.25, 2, ZERO)


class TestDecay:
    def test_no_elapsed_time(self):
        assert decay(0.9, 0.0, 1.0) == pytest.approx(0.9, abs=1e-15)

    def test_one_coherence_time(self):
        assert decay(1.0, 2.5, 2.5) == pytest.approx(math.exp(-1.0), abs=1e-15)

    def test_half_coherence_time(self):
        assert decay(0.95, 0.5, 1.0) == pytest.approx(0.95 * math.exp(-0.25), abs=1e-15)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            decay(0.9, 1.0, 0.0)
        with pytest.raises(ValueError):
            decay(0.9, -1.0, 1.0)


# Floats take a plain-Python path through the range checks and the clamp;
# everything else goes through numpy.  Both must behave the same.
INPUT_KINDS = pytest.mark.parametrize(
    "kind",
    [float, np.float64, np.array, lambda v: np.array([v])],
    ids=["float", "float64", "array0d", "array1d"],
)


class TestClamp:
    @INPUT_KINDS
    def test_small_excursion_clamped_with_warning(self, kind):
        value = kind(1.0 + 1e-12)
        with pytest.warns(FidelityClampWarning):
            out = _clamp_unit(value)
        assert np.ndim(out) == (1 if np.ndim(value) else 0)
        assert np.all(out == 1.0)

    @INPUT_KINDS
    def test_large_excursion_raises(self, kind):
        with pytest.raises(ValueError, match="exceeds 1 beyond tolerance"):
            _clamp_unit(kind(1.0 + 1e-6))

    @INPUT_KINDS
    @pytest.mark.parametrize("value", [0.73, 1.0])
    def test_in_range_untouched(self, kind, value):
        wrapped = kind(value)
        assert _clamp_unit(wrapped) is wrapped

    @INPUT_KINDS
    def test_nan_passes_through(self, kind):
        wrapped = kind(math.nan)
        assert _clamp_unit(wrapped) is wrapped


class TestRangeChecks:
    @INPUT_KINDS
    @pytest.mark.parametrize("value", [1e-300, 0.25, 0.5, 1.0])
    def test_in_range_accepted(self, kind, value):
        out = purify_ideal(kind(value))
        assert float(np.ravel(out)[0]) == pytest.approx(ideal_map(value), abs=1e-12)
        assert float(np.ravel(decay(kind(value), 0.0, 1.0))[0]) == value

    @INPUT_KINDS
    @pytest.mark.parametrize("value", [0.0, -0.1, 1.0 + 1e-15, 1.5, math.inf, -math.inf])
    def test_out_of_range_rejected(self, kind, value):
        for check in (purify_ideal, lambda f: purify(f, ZERO), lambda f: decay(f, 0.0, 1.0)):
            with pytest.raises(ValueError, match=r"^fidelity must lie in \(0\.0, 1\], got "):
                check(kind(value))

    @INPUT_KINDS
    @pytest.mark.parametrize("value", [0.25, 0.0, 1.0 + 1e-15, math.inf])
    def test_swap_out_of_range_rejected(self, kind, value):
        with pytest.raises(ValueError, match=r"^swap input fidelity must lie in \(1/4, 1\], got "):
            swap_fidelity(kind(value), 2, ZERO)

    @INPUT_KINDS
    def test_swap_in_range_accepted(self, kind):
        for value in (0.25 + 1e-12, 0.9, 1.0):
            x = (4.0 * value - 1.0) / 3.0
            expected = 0.25 * (1.0 + 3.0 * x * x)
            out = swap_fidelity(kind(value), 2, ZERO)
            assert float(np.ravel(out)[0]) == pytest.approx(expected, rel=1e-15)

    @INPUT_KINDS
    def test_nan_is_not_rejected(self, kind):
        # np.any over a NaN comparison is False, so NaN passes every check
        for out in (purify_ideal(kind(math.nan)), purify(kind(math.nan), ZERO).fidelity,
                    swap_fidelity(kind(math.nan), 2, ZERO), decay(kind(math.nan), 0.0, 1.0)):
            assert np.all(np.isnan(out))


class TestSwapArrayBits:
    # Array and float inputs must give the same bits: callers swap whole
    # target grids in one call and compare with scalar traces.
    ERR = ErrorParams(eps_g=0.003, eps_r=0.004)

    @pytest.mark.parametrize("n_links", [2, 3, 4])
    @pytest.mark.parametrize("absorbed", [True, False])
    def test_array_equals_float_path(self, n_links, absorbed):
        # 512 is the size of one stage of the target scan
        for seed, size in ((20241019, 20000), (20241021, 512)):
            fidelities = 1.0 - np.random.default_rng(seed).uniform(0.0, 0.75, size)
            got = swap_fidelity(fidelities, n_links, self.ERR, absorbed)
            expected = [swap_fidelity(v, n_links, self.ERR, absorbed) for v in fidelities.tolist()]
            assert got.tolist() == expected
        square = swap_fidelity(fidelities.reshape(32, 16), n_links, self.ERR, absorbed)
        assert square.shape == (32, 16)
        assert square.ravel().tolist() == expected

    @INPUT_KINDS
    @pytest.mark.parametrize(
        "n_links, value",
        # numpy's own powers round these unlike pow() on a float
        [(2, 0.9463902934058411), (3, 0.9558561406506846), (4, 0.9949858689895528)],
    )
    def test_kinds_equal_float_path(self, kind, n_links, value):
        out = swap_fidelity(kind(value), n_links, self.ERR)
        assert float(np.ravel(out)[0]) == swap_fidelity(value, n_links, self.ERR)
