"""Spec strings: ``kind:key=value,...`` names a model or a graph, and
``kind:key=value:...`` a test function. :data:`MODELS` builds a model from
its spec, where ``/`` separates a list value: ``degree:n=200,c=2,degrees=1/2``
(or ``pi=`` for ``c=``), ``gauss:n=200,rho=0.1,psi=square`` (psi square,
exp or indicator; rho defaults to 0), ``multinomial:n=100,k=2,psi=square``
(n*k balls in n cells) and ``color:graph=regular,n=400,d=3,colors=0.3/0.7``
(graph cycle, complete, matching or regular; only regular takes d). A
caller may set keys itself, as ``sweep --n`` sets n; a spec that sets them
too is refused. Each builder takes the run's seed (only a random regular
graph draws from it) and imports its model module when called.
"""

from __future__ import annotations

from math import isfinite

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


def list_of(kind, sep: str = "/"):
    """Spec value type: ``kind`` values separated by ``sep``."""
    def parse(raw: str) -> tuple:
        return tuple(kind(x) for x in raw.split(sep))
    parse.__name__ = f"{kind.__name__}_list"  # read_spec's name for the type
    return parse


# A builder names a bad value by its spec key; the CLI's own flags pass
# ``flag="--"`` so that the message names the flag instead.

def degree_model(n, degrees, c=None, pi=None, seed=0, flag=""):
    """Degree counts in G(n, pi), for exactly one of pi and c = pi (n-1)."""
    from .degrees import DegreeCountCoupler, ErdosRenyiConfig
    if (c is None) == (pi is None):
        raise BadSpec("a degree model takes exactly one of c and pi")
    name, value = (f"{flag}pi", pi) if pi is not None else (f"{flag}c", c)
    if not isfinite(value):
        raise BadSpec(f"{name} must be finite, got {value}")
    if n >= 2:  # below that the config names n, and c/(n-1) is undefined
        edge = pi if pi is not None else c / (n - 1)
        if not 0.0 < edge < 1.0:
            implied = "" if pi is not None else (
                f" at n = {n}, so pi = c/(n-1) = {edge:g}")
            raise BadSpec(f"{name} = {value}{implied}: the edge "
                          f"probability must lie strictly in (0, 1)")
    cfg = (ErdosRenyiConfig(n, pi, tuple(degrees)) if pi is not None else
           ErdosRenyiConfig.from_c(n, c, tuple(degrees)))
    return DegreeCountCoupler(cfg)


def gauss_model(n, psi, rho=0.0, seed=0):
    from . import nonlinear as nl
    return nl.GaussianSumCoupler(nl.GaussianSumConfig(n, nl.parse_psi(psi),
                                                      rho=rho))


def multinomial_model(n, k, psi, seed=0):
    from . import nonlinear as nl
    return nl.MultinomialSumCoupler(nl.MultinomialSumConfig(n, k,
                                                            nl.parse_psi(psi)))


def graph_color_model(graph, colors, seed=0, flag=""):
    """Monochromatic edge counts on the graph named by the graph spec
    ``graph`` (``cycle:64``, ``regular:n=400,d=3``, ...)."""
    from . import coloring
    if len(colors) < 2:
        raise BadSpec(f"{flag}colors needs at least 2 colors: with one color "
                      f"every edge is monochromatic, so W is constant")
    return coloring.ColoringModel(coloring.parse_graph_spec(graph, seed=seed),
                                  coloring.ColoringConfig(tuple(colors)),
                                  graph)


def color_model(graph, n, colors, d=None, seed=0):
    if d is not None and graph != "regular":
        raise BadSpec(f"graph {graph!r} takes no d; only regular does")
    # without d, the graph spec's reader names the missing key
    spec = (f"{graph}:{n}" if graph != "regular" else
            f"regular:n={n}" + ("" if d is None else f",d={d}"))
    return graph_color_model(spec, colors, seed)


# kind -> (key types, required keys, builder)
MODELS = {
    "degree": ({"n": int, "c": float, "pi": float, "degrees": list_of(int)},
               ("n", "degrees"), degree_model),
    "gauss": ({"n": int, "rho": float, "psi": str}, ("n", "psi"), gauss_model),
    "multinomial": ({"n": int, "k": int, "psi": str}, ("n", "k", "psi"),
                    multinomial_model),
    "color": ({"graph": str, "n": int, "d": int,
               "colors": list_of(float)}, ("graph", "n", "colors"),
              color_model),
}


def build_model(spec: str, seed: int = 0, **given):
    """The model named by ``spec``, with the keys in ``given`` set by the
    caller (``n`` by ``sweep --n``, ``psi`` by ``nonlinear --psi``)."""
    kind = spec.partition(":")[0]
    if kind not in MODELS:
        raise BadSpec(f"unknown model {spec!r}")
    fields, required, build = MODELS[kind]
    values = read_spec(spec, fields, [k for k in required if k not in given])
    twice = sorted(given.keys() & values.keys())
    if twice:
        raise BadSpec(f"spec {spec!r}: key {twice[0]!r} is also set by "
                      f"--{twice[0]}")
    return build(**values, **given, seed=seed)
