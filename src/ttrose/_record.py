"""Frozen records: what the package used of @dataclass(frozen=True), built
from closures rather than from generated source.

A record's fields are its class's own annotations, in order, and a class
attribute of a field's name is that field's default.  The decorator adds
the methods dataclasses would generate, with the same values:
- __init__ binds its arguments as def __init__(self, <fields>) would,
  with CPython's messages, then calls self.__post_init__() when the
  record has one, looked up on each call;
- __repr__ in the dataclass format, Name(field=value, ...);
- __eq__ compares the field tuples of two records of one class, and
  returns NotImplemented for any other operand;
- __hash__ is the hash of the field tuple;
- __setattr__ and __delattr__ raise FrozenInstanceError;
- __match_args__ names the fields.

Instances keep a __dict__, so functools.cached_property works on them.
Importing dataclasses loads inspect, ast and tokenize, and each
decoration compiles its methods from source: together more time than a
verdict on a small target.
"""

from __future__ import annotations

from operator import attrgetter

_set = object.__setattr__


class FrozenInstanceError(AttributeError):
    """An assignment to, or deletion of, an attribute of a record."""


def record(cls: type) -> type:
    """Make cls a frozen record over its annotated fields."""
    names = tuple(cls.__dict__.get("__annotations__", {}))
    defaults = {name: cls.__dict__[name] for name in names if name in cls.__dict__}
    init_name = f"{cls.__qualname__}.__init__"
    getter = attrgetter(*names)
    values = getter if len(names) > 1 else lambda self: (getter(self),)

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != len(names):
            args = _bind(init_name, names, defaults, args, kwargs)
        for name, value in zip(names, args):
            _set(self, name, value)
        post_init = getattr(self, "__post_init__", None)
        if post_init is not None:
            post_init()

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(names, values(self)))
        return f"{self.__class__.__qualname__}({fields})"

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return values(self) == values(other)
        return NotImplemented

    def __hash__(self):
        return hash(values(self))

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    for method in (__init__, __repr__, __eq__, __hash__, __setattr__, __delattr__):
        method.__qualname__ = f"{cls.__qualname__}.{method.__name__}"
        setattr(cls, method.__name__, method)
    cls.__match_args__ = names
    return cls


def _bind(init_name: str, names: tuple[str, ...], defaults: dict, args: tuple,
          kwargs: dict) -> list:
    """The field values for these arguments, or the TypeError CPython
    raises for them, checked in its order."""
    bound = dict(zip(names, args))
    for name, value in kwargs.items():
        if name not in names:
            raise TypeError(f"{init_name}() got an unexpected keyword argument {name!r}")
        if name in bound:
            raise TypeError(f"{init_name}() got multiple values for argument {name!r}")
        bound[name] = value
    if len(args) > len(names):
        # self counts as a positional argument
        most = len(names) + 1
        takes = f"from {most - len(defaults)} to {most}" if defaults else most
        raise TypeError(f"{init_name}() takes {takes} positional arguments "
                        f"but {len(args) + 1} were given")
    missing = [repr(name) for name in names if name not in bound and name not in defaults]
    if missing:
        listed = (" and ".join(missing) if len(missing) < 3
                  else ", ".join(missing[:-1]) + ", and " + missing[-1])
        raise TypeError(f"{init_name}() missing {len(missing)} required positional "
                        f"argument{'s' * (len(missing) > 1)}: {listed}")
    return [bound[name] if name in bound else defaults[name] for name in names]
