"""Frozen, the base of the package's value classes; it imports no other overq module."""

from operator import attrgetter, ge, gt, le, lt


class Frozen:
    """Base of the package's immutable value classes.

    A subclass's fields are its own annotations, in order; a class
    attribute gives its field's default.  The constructor takes the fields
    by position or keyword, then calls __post_init__.  Instances are equal
    only to instances of their own class with equal fields, hash as their
    field tuple, print as Name(field=value, ...) and refuse every
    assignment and deletion.  class C(Frozen, order=True) also orders C's
    instances by their field tuples.  A value is not a tuple: it never
    equals the bare tuple of its fields, so no cache key merges the two.
    """

    _fields: tuple = ()
    _defaults: dict = {}

    def __init_subclass__(cls, order: bool = False, **kwargs):
        super().__init_subclass__(**kwargs)
        fields = cls._fields = tuple(cls.__dict__.get("__annotations__", ()))
        cls._defaults = {f: cls.__dict__[f] for f in fields if f in cls.__dict__}
        # the field tuple, read in C when there are two fields or more
        many = len(fields) > 1
        cls._values = property(attrgetter(*fields) if many else lambda self: (getattr(self, *fields),))
        if order:
            cls.__lt__, cls.__le__, cls.__gt__, cls.__ge__ = map(_by_fields, (lt, le, gt, ge))

    def __init__(self, *args, **kwargs):
        fields = self._fields
        if kwargs or len(args) != len(fields):
            # a field given both by position and by name fails in this call
            values = dict(self._defaults, **dict(zip(fields, args)), **kwargs)
            if len(args) > len(fields) or values.keys() != set(fields):
                raise TypeError(f"{type(self).__name__} takes the fields {', '.join(fields)}")
            args = [values[f] for f in fields]
        # set in field order, as a dataclass does, so instances share one key table
        for f, v in zip(fields, args):
            object.__setattr__(self, f, v)
        self.__post_init__()

    def __post_init__(self):
        pass

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values == other._values
        return NotImplemented

    def __hash__(self):
        return hash(self._values)

    def __repr__(self) -> str:
        inner = ", ".join(f"{f}={v!r}" for f, v in zip(self._fields, self._values))
        return f"{type(self).__qualname__}({inner})"

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} is immutable")

    __delattr__ = __setattr__


def _by_fields(op):
    """The comparison op between two instances of one Frozen class, by field tuples."""

    def compare(self, other):
        if other.__class__ is self.__class__:
            return op(self._values, other._values)
        return NotImplemented

    return compare
