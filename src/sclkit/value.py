"""Immutable value classes: slotted records with a hash stored at construction.

    @value_class
    class PsiAnd:
        left: Psi
        right: Psi

rebuilds the class as a slotted subclass of `Value` whose fields are its
annotations, in order, with their defaults.  (A metaclass would make every
`isinstance` against the class take the slow `__instancecheck__` path.)  A
field is set once; assigning or deleting one raises AttributeError.  The hash
is `hash((field1, field2, ...))`, as a frozen dataclass has it, but computed
once from the fields' stored hashes, so a lookup costs O(1) at any depth.
Equality compares class and fields with an explicit stack; `repr` is the
dataclass text.  Every field must be hashable.  A class may write its own
`__init__` (calling `super().__init__`, or setting each field and `_hash`)
and its own `__eq__`, which keeps the stored hash.
"""
from __future__ import annotations

_set = object.__setattr__


class Value:
    __slots__ = ("_hash",)
    _fields: tuple = ()
    _defaults: dict = {}
    _setters: tuple = ()

    def __init__(self, *args, **kwargs):
        cls = type(self)
        if kwargs or len(args) != len(cls._fields):
            args = cls._bind(args, kwargs)
        for set_field, value in zip(cls._setters, args):
            set_field(self, value)
        _set_hash(self, hash(args))

    @classmethod
    def _bind(cls, args: tuple, kwargs: dict) -> tuple:
        """The field values of a call with keywords or defaulted fields."""
        if len(args) > len(cls._fields):
            raise TypeError(f"{cls.__name__}() takes {len(cls._fields)} arguments, got {len(args)}")
        values = list(args)
        for field in cls._fields[len(args):]:
            if field in kwargs:
                values.append(kwargs.pop(field))
            elif field in cls._defaults:
                values.append(cls._defaults[field])
            else:
                raise TypeError(f"{cls.__name__}() missing argument {field!r}")
        if kwargs:
            raise TypeError(f"{cls.__name__}() got an unexpected or repeated argument {next(iter(kwargs))!r}")
        return tuple(values)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other):
        if self is other:
            return True
        if type(other) is not type(self):
            return NotImplemented
        pending = [(self, other)]
        while pending:
            a, b = pending.pop()
            if a._hash != b._hash:
                return False
            for field in a._fields:
                x, y = getattr(a, field), getattr(b, field)
                if x is y:
                    continue
                if type(x) is type(y) and isinstance(x, Value):
                    pending.append((x, y))
                elif x != y:
                    return False
        return True

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):  # for copy and pickle, which would assign the slots
        return type(self), tuple(getattr(self, f) for f in self._fields)


_set_hash = Value._hash.__set__


def _generated_init(cls: type):
    """An `__init__` that takes the fields of `cls`, with their defaults, and
    sets each in a line of its own, generated as dataclasses generate theirs:
    `Value.__init__`, with its argument binding and loop, takes about half as
    long again, and some classes are built in hot loops."""
    fields, defaults = cls._fields, cls._defaults
    namespace = {"_set_hash_": _set_hash, "_hash_": hash,
                 **{f"_default_{f}_": value for f, value in defaults.items()},
                 **{f"_set_{f}_": setter for f, setter in zip(fields, cls._setters)}}
    params = "".join(f", {f}=_default_{f}_" if f in defaults else f", {f}" for f in fields)
    body = "".join(f"    _set_{f}_(self, {f})\n" for f in fields)
    values = "".join(f"{f}, " for f in fields)
    exec(f"def __init__(self{params}):\n{body}    _set_hash_(self, _hash_(({values})))\n", namespace)
    return namespace["__init__"]


def value_class(cls: type) -> type:
    """`cls` rebuilt as a value class: its annotations become slots, and a
    class without its own `__init__` gets one that takes its fields."""
    namespace = dict(vars(cls), __qualname__=cls.__qualname__)
    for name in ("__dict__", "__weakref__", *namespace.get("__slots__", ())):
        namespace.pop(name, None)
    if namespace.get("__hash__", 0) is None:  # set so by an own __eq__
        namespace["__hash__"] = Value.__hash__
    own = tuple(cls.__annotations__)
    defaults = {f: namespace.pop(f) for f in own if f in namespace}  # would shadow the slots
    namespace["__slots__"] = own + tuple(namespace.get("__slots__", ()))
    base = cls.__base__ if issubclass(cls, Value) else Value
    new = type(cls.__name__, (base,), namespace)
    new._fields = base._fields + own
    new._defaults = {**base._defaults, **defaults}
    new._setters = tuple(getattr(new, f).__set__ for f in new._fields)
    new.__match_args__ = new._fields
    if "__init__" not in namespace:
        new.__init__ = _generated_init(new)
    for attr in namespace.values():  # zero-argument super() names the class
        for cell in getattr(attr, "__closure__", None) or ():
            if cell.cell_contents is cls:
                cell.cell_contents = new
    return new
