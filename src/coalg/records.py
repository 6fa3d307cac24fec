"""Slotted record classes, in place of ``dataclasses``: every CLI command
is a fresh process, and importing ``dataclasses`` (which imports
``inspect``) and decorating with it cost more than a short command's work.

``@record`` rebuilds a class from the fields its body annotates, with
``__slots__``; construction by position or keyword, then
``__post_init__`` if the class has one; ``repr`` as ``Name(field=value,
...)``; and ``==`` only within the class.  A frozen record (the default)
hashes as the tuple of its fields and refuses assignment and deletion;
``@record(frozen=False)`` gives a mutable, unhashable one.  Names in a
``__slots__`` of the body are extra slots, not fields.  Copy and pickle
rebuild a record through its constructor.
"""


def record(cls=None, *, frozen=True):
    if cls is None:
        return lambda cls: record(cls, frozen=frozen)
    fields = tuple(cls.__dict__.get("__annotations__", ()))
    extra = tuple(cls.__dict__.get("__slots__", ()))
    ns = {k: v for k, v in cls.__dict__.items() if k not in (*extra, "__dict__", "__weakref__")}
    ns.update(__slots__=fields + extra, _fields=fields, __repr__=_repr, __reduce__=_reduce)
    if frozen:
        ns.update(__setattr__=_refuse, __delattr__=_refuse)
    else:
        ns["__hash__"] = None
    new = type(cls.__name__, cls.__bases__, ns)
    # generated code, as in dataclasses: an __init__ of its own per class is
    # much faster than a loop over the fields; a frozen record sets its
    # slots through their descriptors, past its own __setattr__
    init = [f"_set_{f}(self, {f})" if frozen else f"self.{f} = {f}" for f in fields]
    if hasattr(new, "__post_init__"):
        init.append("self.__post_init__()")
    mine, theirs = ("".join(f"{who}.{f}, " for f in fields) for who in ("self", "other"))
    scope = {f"_set_{f}": getattr(new, f).__set__ for f in fields}
    exec(
        f"def __init__(self, {', '.join(fields)}):\n    {'; '.join(init) or 'pass'}\n"
        "def __eq__(self, other):\n    if other.__class__ is self.__class__:\n"
        f"        return ({mine}) == ({theirs})\n    return NotImplemented\n"
        f"def __hash__(self):\n    return hash(({mine}))\n",
        scope,
    )
    for name in ("__init__", "__eq__", "__hash__") if frozen else ("__init__", "__eq__"):
        setattr(new, name, scope[name])
    return new


def _repr(self):
    body = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
    return f"{self.__class__.__qualname__}({body})"


def _reduce(self):
    return self.__class__, tuple(getattr(self, f) for f in self._fields)


def _refuse(self, name, *value):
    raise AttributeError(f"cannot {'assign to' if value else 'delete'} field {name!r}")
