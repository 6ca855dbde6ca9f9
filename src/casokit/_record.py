"""Frozen record classes built from shared methods.

A subclass of Record lists its fields as class annotations, in order, with
optional defaults, and gets the contract of dataclasses.dataclass(frozen=True):
a positional-or-keyword __init__ that calls __post_init__, assignment and
deletion that raise errors.FrozenInstanceError (an AttributeError, like
dataclasses.FrozenInstanceError), field-tuple __eq__ and __hash__, a
dataclass-style __repr__ and __match_args__. The methods are
defined once, here; no source is generated and compiled per class, which
dataclasses does (6 methods a class), so importing the package stays cheap.
Instances keep their __dict__: __post_init__ may set a field with
object.__setattr__, and functools.cached_property works. replace() stands in
for dataclasses.replace; dataclasses.fields/asdict/replace do not apply.
"""

from .errors import FrozenInstanceError


class Record:
    __match_args__ = ()
    _defaults = {}

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls.__match_args__ = tuple(cls.__dict__.get("__annotations__", ()))
        cls._defaults = {n: cls.__dict__[n] for n in cls.__match_args__ if n in cls.__dict__}

    def __init__(self, *args, **kwargs):
        cls = type(self)
        names = cls.__match_args__
        if len(args) > len(names):
            raise TypeError(f"{cls.__qualname__}() takes {len(names)} positional "
                            f"arguments but {len(args)} were given")
        values = self.__dict__
        values.update(zip(names, args))
        missing = []
        for name in names[len(args):]:
            if name in kwargs:
                values[name] = kwargs.pop(name)
            elif name in cls._defaults:
                values[name] = cls._defaults[name]
            else:
                missing.append(name)
        for name in kwargs:
            if name in names:
                raise TypeError(f"{cls.__qualname__}() got multiple values for argument {name!r}")
            raise TypeError(f"{cls.__qualname__}() got an unexpected keyword argument {name!r}")
        if missing:
            raise TypeError(f"{cls.__qualname__}() missing {len(missing)} required "
                            f"argument(s): {', '.join(map(repr, missing))}")
        self.__post_init__()

    def __post_init__(self):
        pass

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def _values(self):
        return tuple(getattr(self, n) for n in self.__match_args__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{n}={getattr(self, n)!r}" for n in self.__match_args__)
        return f"{type(self).__qualname__}({fields})"

    def replace(self, **changes):
        """A copy with the given fields changed, built (and checked) anew."""
        return type(self)(**{n: getattr(self, n) for n in self.__match_args__} | changes)
