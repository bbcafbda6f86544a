"""Reader for the ``kind:key=value,...`` specs that name models and graphs,
and the ``kind:key=value:...`` specs that name test functions."""

from __future__ import annotations

from .errors import BadSpec


def read_spec(spec: str, fields: dict, required=(), sep: str = ",") -> dict:
    """Typed values of the ``key=value`` list after the first colon of
    ``spec``, its entries separated by ``sep``.

    ``fields`` maps each allowed key to its type; keys in ``required`` must
    appear. Any other input raises :class:`BadSpec` naming spec and key.
    """
    values = {}
    for part in filter(None, spec.partition(":")[2].split(sep)):
        key, eq, raw = (s.strip() for s in part.partition("="))
        if not eq:
            raise BadSpec(f"spec {spec!r}: {part!r} is not key=value")
        if key not in fields or key in values:
            problem = "is repeated" if key in values else "is not allowed"
            raise BadSpec(f"spec {spec!r}: key {key!r} {problem}")
        try:
            values[key] = fields[key](raw)
        except ValueError:
            type_name = fields[key].__name__.replace("_", " ")
            raise BadSpec(f"spec {spec!r}: {key}={raw!r} is not "
                          f"a valid {type_name}") from None
    for key in required:
        if key not in values:
            raise BadSpec(f"spec {spec!r} is missing key {key!r}")
    return values
