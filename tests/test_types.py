import copy
import pickle
from fractions import Fraction

import pytest

import zhangforge.cli  # noqa: F401  (loads every module that defines a value type)
import zhangforge.inequalities as ineq
from zhangforge import Direction, Interval, MeasureValue, make_polytope
from zhangforge.errors import ConfigError, FrozenRecord, Record
from zhangforge.harness import BodySpec, SuiteConfig
from zhangforge.lattice import RayDecomposition
from zhangforge.lp import LPResult
from zhangforge.moments import SectionDistribution, section_distribution
from zhangforge.verdict import InequalityReport


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


F = Fraction
_MV = MeasureValue(0.5, F(1, 2), 0.0, F(1, 2), F(1, 2))
_SYM = make_polytope([(-1, -1), (1, -1), (-1, 1), (1, 1)], 2)
_DIST = section_distribution(_SYM)


def _other(value):
    """A value of the same kind that differs from ``value``."""
    if isinstance(value, bool):
        return not value
    if isinstance(value, (int, float, Fraction)):
        return value + 1
    if isinstance(value, str):
        return value + "x"
    if isinstance(value, MeasureValue):
        return MeasureValue.from_exact(7)
    if isinstance(value, tuple) and value and isinstance(value[0], Fraction):
        return tuple(x + 1 for x in value)
    if isinstance(value, (tuple, list, dict)):
        return type(value)()
    if value is _SYM:
        return make_polytope([(0, 0), (1, 0), (0, 1)], 2)
    if callable(value):
        return _other
    raise AssertionError(value)


# (type, its fields in constructor order, a value per field, the defaults of
# the trailing fields, frozen); a default of {} or [] is a fresh one per instance
_VALUE_TYPES = [
    (Interval, ("lo", "hi"), (F(-1, 2), F(3, 2)), {}, True),
    (Direction, ("raw",), ((F(1), F(-2, 3)),), {}, True),
    (MeasureValue, ("value", "exact", "abs_error", "lo", "hi"),
     (0.25, F(1, 4), 0.0, F(1, 4), F(1, 4)),
     {"exact": None, "abs_error": 0.0, "lo": None, "hi": None}, True),
    (InequalityReport, ("id", "lhs", "rhs", "slack", "verdict", "context"),
     ("zhang_volume", _MV, MeasureValue.from_exact(1), 0.5, "holds", {"decided_by": "exact"}),
     {"context": {}}, False),
    (LPResult, ("x", "value"), ((F(1), F(2, 3)), F(5, 3)), {}, False),
    (RayDecomposition, ("entries", "open_cube"), ((((0, 0), F(1)), ((0, 1), F(1, 2))), True),
     {}, True),
    (SectionDistribution, ("pieces", "symmetral", "reach"), (_DIST.pieces, _SYM, _DIST.reach),
     {}, False),
    (ineq.SectionProfiles, ("n", "f", "f_tilde", "M", "G_proj", "zero_count", "max_count"),
     (2, {0: 3, 1: 2}, {0: 5, 1: 4}, 1, 3, 3, 3), {}, True),
    (ineq.CheckerEntry, ("run", "applicable", "statement"),
     (ineq._chk_zhang_volume, ineq._needs_full_dim, "a <= b"), {}, True),
    (BodySpec, ("family", "dim", "params", "affine", "anchor", "name"),
     ("cube", 2, {"edge": [0, 1]}, ([[1, 0], [0, 1]], [0, 0]), True, "c"),
     {"params": {}, "affine": None, "anchor": False, "name": ""}, True),
    (SuiteConfig, ("bodies", "checkers", "checker_params", "sweeps", "seed", "output_json",
                   "output_csv"),
     ([BodySpec("cube", 2, name="c")], ["zhang_volume"], {"berwald_discrete": {}},
      [{"target": "gn_volume", "body": "c"}], 7, "a.json", "a.csv"),
     {"checkers": ineq.checker_ids(), "checker_params": {}, "sweeps": [], "seed": 20240,
      "output_json": "report.json", "output_csv": "report.csv"}, False),
]
_IDS = [row[0].__name__ for row in _VALUE_TYPES]


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def test_the_table_has_every_value_type():
    assert {c for c in _subclasses(Record) if c is not FrozenRecord} == \
        {row[0] for row in _VALUE_TYPES}


@pytest.mark.parametrize("cls, fields, values, defaults, frozen", _VALUE_TYPES, ids=_IDS)
class TestValueTypeContract:
    def test_construction(self, cls, fields, values, defaults, frozen):
        obj = cls(*values)
        assert obj == cls(**dict(zip(fields, values)))
        assert tuple(getattr(obj, name) for name in fields) == values
        with pytest.raises(TypeError):
            cls(*values, None)
        required = values[:len(fields) - len(defaults)]
        for _ in range(len(defaults) + 1):  # every count of trailing defaults, none to all
            assert cls(*required) == cls(**dict(zip(fields, required)))
            required = values[:len(required) + 1]
        a, b = cls(*values[:len(fields) - len(defaults)]), cls(*values[:len(fields) - len(defaults)])
        for name, default in defaults.items():
            assert getattr(a, name) == default
            if isinstance(default, (dict, list)):
                assert getattr(a, name) is not getattr(b, name)

    def test_field_wise_equality_and_hash(self, cls, fields, values, defaults, frozen):
        obj = cls(*values)
        assert obj == cls(*values) and not obj != cls(*values)
        assert obj != values and obj != object()
        for i in range(len(fields)):
            changed = values[:i] + (_other(values[i]),) + values[i + 1:]
            assert obj != cls(*changed), fields[i]
        hashable = frozen and not any(isinstance(v, (dict, list)) for v in values)
        if hashable:
            assert hash(obj) == hash(cls(*values)) == hash(values)
        else:  # a mutable record, or a frozen one holding a dict: as the field would be
            with pytest.raises(TypeError):
                hash(obj)

    def test_assignment(self, cls, fields, values, defaults, frozen):
        obj = cls(*values)
        for i, name in enumerate(fields):
            new = _other(values[i])
            if frozen:
                with pytest.raises(AttributeError):
                    setattr(obj, name, new)
                with pytest.raises(AttributeError):
                    delattr(obj, name)
                assert getattr(obj, name) == values[i]
            else:
                setattr(obj, name, new)
                assert getattr(obj, name) is new

    def test_repr_names_the_fields(self, cls, fields, values, defaults, frozen):
        body = ", ".join(f"{name}={value!r}" for name, value in zip(fields, values))
        assert repr(cls(*values)) == f"{cls.__name__}({body})"

    @pytest.mark.parametrize("roundtrip", [lambda x: pickle.loads(pickle.dumps(x)),
                                           copy.deepcopy, copy.copy],
                             ids=["pickle", "deepcopy", "copy"])
    def test_roundtrip(self, cls, fields, values, defaults, frozen, roundtrip):
        obj = cls(*values)
        back = roundtrip(obj)
        assert type(back) is cls and back is not obj and back == obj
        if frozen:
            with pytest.raises(AttributeError):
                setattr(back, fields[0], values[0])


def test_the_section_distribution_caches_its_projection_volume():
    dist = SectionDistribution(_DIST.pieces, _SYM, _DIST.reach)
    assert "projvol" not in vars(dist)
    assert dist.projvol == 2 == vars(dist)["projvol"]
    assert pickle.loads(pickle.dumps(dist)).projvol == 2


def test_a_zero_theta_is_a_config_error():
    with pytest.raises(ConfigError):
        ineq._theta({"theta": [0, 0]})
