"""Record against dataclasses.dataclass(frozen=True): the same class bodies
must construct, refuse, compare, hash, print and copy alike."""

import dataclasses

import numpy as np
import pytest

from casokit import FrozenInstanceError, LayerSpec, Network, NetworkSpec, init_network
from casokit._record import Record


def _check_point(self):
    if self.x < 0:
        raise ValueError("x must be nonnegative")
    object.__setattr__(self, "label", str(self.label))


POINT = {"__annotations__": {"x": "int", "y": "int", "label": "str"}, "y": 0, "label": "p",
         "__post_init__": _check_point}
BOX = {"__annotations__": {"a": "np.ndarray", "n": "int"}}


def twins(body, name="Point"):
    """The class body built as a frozen dataclass and as a Record."""
    dc = dataclasses.dataclass(frozen=True)(type(name, (), dict(body)))
    return dc, type(name, (Record,), dict(body))


def outcome(fn):
    """fn()'s value, or the type of the exception it raised."""
    try:
        return fn()
    except Exception as e:  # noqa: BLE001
        return type(e)


CALLS = [
    ((1,), {}),
    ((1, 2), {}),
    ((1, 2, 3), {}),
    ((), {"x": 1, "label": 7}),
    ((1,), {"label": "q", "y": 4}),
    ((), {}),  # missing x
    ((), {"y": 1}),  # missing x
    ((1, 2, 3, 4), {}),  # too many positional
    ((1,), {"z": 2}),  # unexpected
    ((1,), {"x": 2}),  # duplicate
    ((-1,), {}),  # __post_init__ refuses
]


class TestAgainstDataclass:
    @pytest.mark.parametrize("args, kwargs", CALLS)
    def test_construction_and_refusals(self, args, kwargs):
        dc, rec = twins(POINT)
        want = outcome(lambda: dc(*args, **kwargs))
        got = outcome(lambda: rec(*args, **kwargs))
        if isinstance(want, type):
            assert got is want
        else:
            assert repr(got) == repr(want)
            assert vars(got) == vars(want)

    def test_error_messages_name_the_argument(self):
        _, rec = twins(POINT)
        with pytest.raises(TypeError, match="missing 1 required argument.*'x'"):
            rec(y=1)
        with pytest.raises(TypeError, match="unexpected keyword argument 'z'"):
            rec(1, z=2)
        with pytest.raises(TypeError, match="multiple values for argument 'x'"):
            rec(1, x=2)
        with pytest.raises(TypeError, match="takes 3 positional arguments but 4"):
            rec(1, 2, 3, 4)

    def test_field_order_and_defaults(self):
        dc, rec = twins(POINT)
        assert rec.__match_args__ == dc.__match_args__ == ("x", "y", "label")
        match rec(5, 6):
            case rec(x, y, label):
                assert (x, y, label) == (5, 6, "p")

    @pytest.mark.parametrize("kind", [0, 1])
    def test_frozen(self, kind):
        p = twins(POINT)[kind](1)
        error = (dataclasses.FrozenInstanceError, FrozenInstanceError)[kind]
        assert issubclass(error, AttributeError)
        for act in (lambda: setattr(p, "x", 2), lambda: setattr(p, "new", 2),
                    lambda: delattr(p, "x")):
            with pytest.raises(error):
                act()
        assert (p.x, p.y, p.label) == (1, 0, "p")

    def test_equality_and_hash(self):
        dc, rec = twins(POINT)
        for cls in (dc, rec):
            assert cls(1, 2) == cls(1, 2) and cls(1, 2) != cls(1, 3)
            assert cls(1, 2) != (1, 2, "p")
        assert hash(rec(1, 2)) == hash(dc(1, 2)) == hash((1, 2, "p"))
        assert rec(1, 2) != dc(1, 2)
        assert len({rec(1), rec(1), rec(2)}) == 2

    def test_array_fields(self):
        a = np.arange(3.0)
        for cls in twins(BOX, "Box"):
            assert cls(a, 1) == cls(a, 1)  # the same array: tuple identity
            with pytest.raises(ValueError):
                cls(a, 1) == cls(a.copy(), 1)  # noqa: B015
            with pytest.raises(TypeError):
                hash(cls(a, 1))
        dc, rec = twins(BOX, "Box")
        assert repr(rec(a, 2)) == repr(dc(a, 2)) == "Box(a=array([0., 1., 2.]), n=2)"

    def test_replace(self):
        dc, rec = twins(POINT)
        for change in ({}, {"y": 9}, {"label": 3}, {"x": -1}, {"z": 1}):
            want = outcome(lambda: dataclasses.replace(dc(1, 2), **change))
            got = outcome(lambda: rec(1, 2).replace(**change))
            if isinstance(want, type):
                assert got is want
            else:
                assert vars(got) == vars(want)
        p = rec(1, 2)
        assert p.replace(y=3) is not p and p.y == 2


class TestPackageRecords:
    def test_network_caches_the_first_layer_factors(self):
        spec = NetworkSpec((LayerSpec(5, 3, "relu"), LayerSpec(3, 2, "identity")))
        net = init_network(spec, seed=1)
        assert "input_r" not in vars(net)
        R = net.input_r
        assert net.input_r is R and vars(net)["input_r"] is R
        assert net.input_gram is net.input_gram
        assert not net.input_gram.flags.writeable
        assert net.input_gram.tobytes() == (net.weights[0] @ net.weights[0].T).tobytes()
        assert np.array_equal(R, np.triu(R))  # the Cholesky factor, R^T R = W_0 W_0^T
        np.testing.assert_allclose(R.T @ R, net.input_gram, rtol=1e-12, atol=1e-12)
        with pytest.raises(FrozenInstanceError):
            net.input_r = R
        assert not net.weights[0].flags.writeable  # __post_init__ froze the copies
        copy = Network(spec, net.weights, net.biases)
        assert "input_r" not in vars(copy)
