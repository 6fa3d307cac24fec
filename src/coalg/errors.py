"""Exception types shared across the analysis modules, and the header and
key checks of the JSON input documents.

The command line maps two families to exit codes: a
:class:`NotWellFoundedError` to 1, and any other :class:`AnalysisError`
to 3.  A new verdict error joins one of them."""


class AnalysisError(Exception):
    """Base class for every error raised by this package."""


class InputError(AnalysisError):
    """Malformed input: bad JSON document, schema violation, invalid value."""


class UnknownStateError(AnalysisError):
    """A state id was referenced that the relevant map or carrier lacks."""


class ContainerMismatchError(AnalysisError):
    """Two objects that must share a shape functor do not."""


class NameClashError(AnalysisError):
    """New state names collide with an existing carrier."""


class DanglingRefError(InputError):
    """A structure references a state outside the states it may reference."""


class NotWellFoundedError(AnalysisError):
    """An operation requiring a well-founded system was given one that is not."""


class CycleError(NotWellFoundedError):
    """The recursion solver hit a state lying on a transition cycle.

    This does not prove the system has no recursion solution; it only means
    the structural solver cannot bottom out.  See the integer-ladder system
    in :mod:`coalg.wellfounded` for a system where every algebra still has
    a (constant) solution despite every state lying on an infinite path.
    """

    def __init__(self, state):
        super().__init__(f"state {state!r} lies on a transition cycle")
        self.state = state


class ZeroStateError(AnalysisError):
    """State 0 was queried on the integer-ladder system (0 is not a state)."""


class UnknownLabelError(InputError):
    """A control label is not declared by the transition-system spec."""


class VerificationFailedError(AnalysisError):
    """An internal re-check of a computed result failed (indicates a bug)."""


class FoundInfinitePathEvidence(NotWellFoundedError):
    """Closure extraction found proof that the input is not well-founded.

    The extracted finite restriction contains a reachable cycle, so the
    queried state has an infinite outgoing path.
    """

    def __init__(self, state, report):
        super().__init__(
            f"state {state!r} reaches a cycle inside its successor closure"
        )
        self.state = state
        self.report = report


def check_header(doc, kind: str, fields) -> None:
    """Check the header of a JSON input document: an object carrying
    ``"version": 1`` (the integer; ``true`` is not accepted) and ``kind``,
    and no key outside them and the kind's ``fields``."""
    if not isinstance(doc, dict):
        raise InputError("$: expected a JSON object")
    version = doc.get("version")
    if version != 1 or isinstance(version, bool):
        raise InputError("$.version: expected 1")
    if doc.get("kind") != kind:
        raise InputError(f"$.kind: expected {kind!r}, got {doc.get('kind')!r}")
    check_fields(doc, ("version", "kind", *fields), "$")


def check_fields(doc: dict, fields, where: str) -> None:
    """Refuse the first key of the object ``doc`` outside ``fields``, by its
    JSON path: ``$.bogus: unknown field``."""
    for key in doc:
        if key not in fields:
            raise InputError(f"{where}.{key}: unknown field")
