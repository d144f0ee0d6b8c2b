"""Scenario documents: a JSON description of maps, germs, curves, points,
the cohomology action and forms, from which the CLI builds its objects.

The three bundled fixtures (remark42, remark43, cubic-d4) live in the
package's fixtures/ directory as committed documents.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from importlib import resources

from .errors import ScenarioError
from .forms import FormGerm
from .germs import MapGerm
from .parsing import parse_expression
from .polys import PolynomialMap, rat
from .surd import Surd
from .surface import (
    CohomologyAction,
    CurveWitness,
    ExplicitTraces,
    FixedCurveRecord,
    FixedPointRecord,
    H1Trivial,
    K3Mode,
    SurfaceModel,
    TorusMode,
    TraceRecurrence,
)

FIXTURE_NAMES = ("remark42", "remark43", "cubic-d4")


@dataclass
class GermOrigin:
    """Where a map germ came from: a global map localized at a fixed point."""

    map_label: str
    base_point: tuple[Fraction, Fraction]


@dataclass
class Scenario:
    maps: dict[str, PolynomialMap]
    germs: dict[str, MapGerm]
    germ_origins: dict[str, GermOrigin]   # the map germs only
    forms: dict[str, FormGerm]
    model: SurfaceModel | None
    intersections: list[tuple[str, str]] = field(default_factory=list)

    def require_model(self) -> SurfaceModel:
        if self.model is None:
            raise ScenarioError("scenario carries no surface model / action")
        return self.model


_KINDS = {int: "an integer", bool: "true or false", list: "a list"}


def _typed(value, kind, what: str):
    """value itself, which must be a JSON value of `kind` (int, bool or
    list): a float is not an integer, and a boolean is not an integer
    either."""
    if type(value) is not kind:
        raise ScenarioError(f"{what} must be {_KINDS[kind]}, got {value!r}")
    return value


def _pair(value, what: str) -> list:
    """value itself, which must be a JSON list of exactly two entries."""
    if len(_typed(value, list, what)) != 2:
        raise ScenarioError(f"{what} must have two entries, got {value!r}")
    return value


def _lookup(table: dict, label, who: str, kind: str):
    """table[label], which `who` refers to; a label that names nothing is
    refused."""
    if label not in table:
        raise ScenarioError(f"{who} references unknown {kind} {label!r}")
    return table[label]


_REQUIRED = object()


def _field(spec: dict, key: str, kind, default=_REQUIRED):
    """spec[key] read by `_typed`; an absent key gives the default, or a
    KeyError when the field has none."""
    if key not in spec and default is not _REQUIRED:
        return default
    return _typed(spec[key], kind, key)


# The keys each object of a document may carry: those the loader reads, and
# the free-text comments "description" and "note" anywhere.  Any other key
# is refused, so a misspelled field cannot silently take its default.
_COMMENTS = {"description", "note"}
_DOCUMENT_KEYS = {"meta", "maps", "germs", "forms", "action", "curves", "points",
                  "intersections"}
# meta.precision is the truncation degree of older documents, loaded unread
_META_KEYS = {"precision"}
_GERM_KEYS = {"map", "base_point", "images"}
_FORM_KEYS = {"z1_valuation", "unit"}
_ACTION_KEYS = {"mode", "picard_number", "algebraically_stable",
                "kodaira_nonnegative", "growth_constant"}
_MODE_KEYS = {
    "h1trivial": {"matrix"},
    "k3": {"matrix", "hodge_scalar"},
    "torus": {"delta", "epsilon"},
    "explicit_traces": {"traces", "h11_trace_recurrence", "dynamical_degree"},
}
_RECURRENCE_KEYS = {"coefficients", "initial", "offset"}
_SURD_KEYS = {"a", "b", "c", "e", "d"}
_CURVE_KEYS = {"label", "prime_period", "type", "nu_C", "self_intersection",
               "euler_characteristic", "witnesses"}
_WITNESS_KEYS = {"germ", "point", "curve_equation"}
_POINT_KEYS = {"label", "prime_period", "germ", "declared_index", "on_curves"}


def _known(spec, keys: set, what: str) -> dict:
    """spec itself, which must be a JSON object with no key outside `keys`
    and the comments."""
    if not isinstance(spec, dict):
        raise ScenarioError(f"{what} must be an object, not {type(spec).__name__}")
    unknown = sorted(set(spec) - keys - _COMMENTS)
    if unknown:
        raise ScenarioError(f"{what} has unknown keys: {', '.join(unknown)}")
    return spec


def _surd(value, what: str) -> Surd:
    """A Surd literal: a rational literal or an object of its components."""
    if isinstance(value, dict):
        _known(value, _SURD_KEYS, what)
    return Surd.from_json(value)


def _int_matrix(rows) -> list[list[int]]:
    return [[_typed(x, int, "a matrix entry") for x in row] for row in rows]


def _build_action(data) -> CohomologyAction:
    mode_name = data.get("mode")
    if mode_name not in _MODE_KEYS:
        raise ScenarioError(f"unknown action mode {mode_name!r}")
    _known(data, _ACTION_KEYS | _MODE_KEYS[mode_name], f"{mode_name} action")
    kwargs = dict(
        picard_number=_field(data, "picard_number", int, 1),
        algebraically_stable=_field(data, "algebraically_stable", bool, False),
        kodaira_nonnegative=_field(data, "kodaira_nonnegative", bool, False),
        growth_constant=_field(data, "growth_constant", int, None),
    )
    if mode_name == "h1trivial":
        mode = H1Trivial(_int_matrix(data["matrix"]))
    elif mode_name == "k3":
        mode = K3Mode(_int_matrix(data["matrix"]),
                      _surd(data["hodge_scalar"], "hodge_scalar"))
    elif mode_name == "torus":
        mode = TorusMode(_surd(data["delta"], "delta"), _surd(data["epsilon"], "epsilon"))
    else:
        mode = _explicit_traces(data)
    return CohomologyAction(mode=mode, **kwargs)


def _explicit_traces(data) -> ExplicitTraces | TraceRecurrence:
    """The mode of an explicit_traces action: a trace table, or the
    recurrence that generates one."""
    if ("traces" in data) == ("h11_trace_recurrence" in data):
        raise ScenarioError(
            "explicit_traces needs one of 'traces' and 'h11_trace_recurrence'")
    declared = (_surd(data["dynamical_degree"], "dynamical_degree")
                if "dynamical_degree" in data else None)
    if "traces" in data:
        return ExplicitTraces({
            int(n_str): {tuple(int(x) for x in key.split(",")): _typed(v, int, "a trace")
                         for key, v in table.items()}
            for n_str, table in data["traces"].items()}, declared_degree=declared)
    rec = _known(data["h11_trace_recurrence"], _RECURRENCE_KEYS, "h11_trace_recurrence")
    return TraceRecurrence(
        traces=[_typed(v, int, "an initial trace") for v in rec["initial"]],
        coefficients=[_typed(c, int, "a recurrence coefficient")
                      for c in rec["coefficients"]],
        offset=_field(rec, "offset", int, 0), declared_degree=declared)


def load_scenario(doc: dict) -> Scenario:
    """Build a Scenario from a parsed JSON document, resolving all labels.
    A document of the wrong shape (a key missing, a value of the wrong type
    or out of range, a label that names nothing) raises ScenarioError."""
    try:
        return _build_scenario(doc)
    except (LookupError, TypeError, ValueError, AttributeError) as exc:
        raise ScenarioError(
            f"malformed scenario document: {type(exc).__name__}: {exc}") from exc


def _build_scenario(doc: dict) -> Scenario:
    _known(doc, _DOCUMENT_KEYS, "the document")
    _known(doc.get("meta", {}), _META_KEYS, "meta")

    maps = {}
    for label, exprs in (doc.get("maps") or {}).items():
        maps[label] = PolynomialMap(*map(parse_expression, _pair(exprs, f"map {label!r}")))

    germs: dict[str, MapGerm] = {}
    origins: dict[str, GermOrigin] = {}
    for label, spec in (doc.get("germs") or {}).items():
        _known(spec, _GERM_KEYS, f"germ {label!r}")
        if "images" in spec and ("map" in spec or "base_point" in spec):
            raise ScenarioError(
                f"germ {label!r} has 'images' beside 'map' or 'base_point'")
        if "map" in spec:
            pmap = _lookup(maps, spec["map"], f"germ {label!r}", "map")
            point = spec.get("base_point", [0, 0])
            a, b = map(rat, _pair(point, f"base_point of germ {label!r}"))
            # the chart germ is built on the map conjugated to the point,
            # whose chain the oracle reads too
            local = pmap.localized((a, b))
            if not local.fixes_origin():
                raise ScenarioError(f"point ({a}, {b}) is not fixed by the map")
            germs[label] = MapGerm(local)
            origins[label] = GermOrigin(spec["map"], (a, b))
        elif "images" in spec:
            images = _pair(spec["images"], f"images of germ {label!r}")
            germs[label] = MapGerm.from_polynomials(*map(parse_expression, images))
        else:
            raise ScenarioError(f"germ {label!r} needs 'map' or 'images'")

    forms = {}
    for label, spec in (doc.get("forms") or {}).items():
        _known(spec, _FORM_KEYS, f"form {label!r}")
        forms[label] = FormGerm(_field(spec, "z1_valuation", int, 0),
                                parse_expression(spec.get("unit", "1")))

    model = None
    if doc.get("action"):
        action = _build_action(doc["action"])
        curves = []
        for c in doc.get("curves", []):
            _known(c, _CURVE_KEYS, "a curve")
            witnesses = []
            for w in c.get("witnesses", []):
                _known(w, _WITNESS_KEYS, f"a witness of curve {c['label']!r}")
                witnesses.append(CurveWitness(
                    point_label=w.get("point", w["germ"]),
                    germ=_lookup(germs, w["germ"], f"curve {c['label']!r} witness",
                                 "germ"),
                    curve_local_equation=parse_expression(w["curve_equation"]),
                ))
            curves.append(FixedCurveRecord(
                label=c["label"],
                prime_period=_field(c, "prime_period", int, 1),
                curve_type=c["type"],
                nu_C=_field(c, "nu_C", int),
                self_intersection=_field(c, "self_intersection", int),
                euler_characteristic=_field(c, "euler_characteristic", int, None),
                germ_witnesses=witnesses,
            ))
        points = []
        for p in doc.get("points", []):
            _known(p, _POINT_KEYS, "a point")
            germ = (_lookup(germs, p["germ"], f"point {p['label']!r}", "germ")
                    if "germ" in p else None)
            declared = None
            if "declared_index" in p:
                declared = {int(k): _typed(v, int, "a declared index")
                            for k, v in p["declared_index"].items()}
            points.append(FixedPointRecord(
                label=p["label"],
                prime_period=_field(p, "prime_period", int, 1),
                germ=germ,
                declared_index_per_n=declared,
                on_curves=_field(p, "on_curves", list, []),
            ))
        model = SurfaceModel(points=points, curves=curves, action=action)

    intersections = [tuple(_pair(pair, "an intersection"))
                     for pair in doc.get("intersections", [])]
    labels = {c.label for c in model.curves} if model is not None else set()
    if not labels.issuperset(x for pair in intersections for x in pair):
        raise ScenarioError("an intersection names a curve the model lacks")
    return Scenario(
        maps=maps,
        germs=germs,
        germ_origins=origins,
        forms=forms,
        model=model,
        intersections=intersections,
    )


def load_scenario_file(path) -> Scenario:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"scenario is not valid JSON: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ScenarioError(f"scenario file is not UTF-8 text: {exc}") from exc
    except RecursionError as exc:
        raise ScenarioError(f"scenario JSON is nested too deeply: {exc}") from exc
    return load_scenario(doc)


def fixture_document(name: str) -> dict:
    file_name = name.replace("-", "_") + ".json"
    ref = resources.files("germindex.fixtures").joinpath(file_name)
    if not ref.is_file():
        raise ScenarioError(
            f"unknown fixture {name!r}; bundled fixtures: {', '.join(FIXTURE_NAMES)}")
    return json.loads(ref.read_text(encoding="utf-8"))


def load_fixture(name: str) -> Scenario:
    return load_scenario(fixture_document(name))
