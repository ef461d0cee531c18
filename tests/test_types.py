from fractions import Fraction

import pytest

from zhangforge import Direction, Interval, MeasureValue


class TestInterval:
    def test_invariant_lo_le_hi(self):
        with pytest.raises(ValueError):
            Interval(Fraction(1), Fraction(0))

    def test_length(self):
        assert Interval(Fraction(-1, 2), Fraction(3, 2)).length == 2


class TestDirection:
    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            Direction((0, 0))

    def test_exact_norm(self):
        assert Direction((3, 4)).exact_norm() == 5
        assert Direction((1, 1)).exact_norm() is None


class TestMeasureValue:
    def test_exact_consistency(self):
        mv = MeasureValue.from_exact(Fraction(22, 7))
        assert mv.abs_error == 0.0
        assert abs(mv.value - 22 / 7) <= abs(mv.value) * 2**-52

    def test_approx(self):
        mv = MeasureValue.approx(1.5, 1e-9)
        assert mv.exact is None and mv.abs_error == 1e-9
