"""Scenario documents: a JSON description of maps, germs, curves, points,
the cohomology action and forms, from which the CLI builds its objects.

Each object of a document goes through one reader, so a field is named
once, where it is read: `_object` checks the object and copies it without
the free-text comments "description" and "note", `_take` removes one field
and types it, and `_done` refuses any key left over, so a misspelled field
cannot silently take its default.

The three bundled fixtures (remark42, remark43, cubic-d4) live in the
package's fixtures/ directory as committed documents.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from importlib import resources

from .errors import ParseError, ScenarioError
from .forms import FormGerm
from .germs import MapGerm
from .parsing import parse_expression
from .polys import Poly2, PolynomialMap, rat
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


_KINDS = {int: "an integer", bool: "true or false", list: "a list", str: "a string",
          dict: "an object"}


def _typed(value, kind, what: str):
    """value itself, which must be a JSON value of `kind` (int, bool, list,
    str or dict): a float is not an integer, and a boolean is not an integer
    either."""
    if type(value) is not kind:
        raise ScenarioError(f"{what} must be {_KINDS[kind]}, got {value!r}")
    return value


def _pair(value, what: str) -> list:
    """value itself, which must be a JSON list of exactly two entries."""
    if len(_typed(value, list, what)) != 2:
        raise ScenarioError(f"{what} must have two entries, got {value!r}")
    return value


def _expression(value, what: str) -> Poly2:
    """The polynomial written by value, which must be a string in the
    expression grammar; a refusal names the field."""
    try:
        return parse_expression(_typed(value, str, what))
    except ParseError as exc:
        raise ScenarioError(f"{what} does not parse: {exc}") from exc


def _lookup(table: dict, label, who: str, kind: str):
    """table[label], which `who` refers to; a label that names nothing is
    refused."""
    if label not in table:
        raise ScenarioError(f"{who} references unknown {kind} {label!r}")
    return table[label]


def _object(spec, what: str) -> dict:
    """A copy of spec, which must be a JSON object, without its comments."""
    if not isinstance(spec, dict):
        raise ScenarioError(f"{what} must be an object, not {type(spec).__name__}")
    return {k: v for k, v in spec.items() if k not in ("description", "note")}


_REQUIRED = object()


def _take(spec: dict, key: str, kind=None, default=_REQUIRED):
    """spec[key], removed from spec and, given a kind, read by `_typed`; an
    absent key gives the default, or a KeyError when the field has none."""
    if key not in spec and default is not _REQUIRED:
        return default
    value = spec.pop(key)
    return value if kind is None else _typed(value, kind, key)


def _done(spec: dict, what: str) -> None:
    """Refuse the keys of spec that no read has taken."""
    if spec:
        raise ScenarioError(f"{what} has unknown keys: {', '.join(sorted(spec))}")


def _surd(spec: dict, key: str) -> Surd:
    """The Surd literal spec[key]: a rational literal (an integer or a
    string such as "-1/2", read by `rat`), or an object of the components
    a, b, c, e of a + b*sqrt(d) + i*(c + e*sqrt(d)) and the integer d."""
    value = _take(spec, key)
    if not isinstance(value, dict):
        return Surd(a=value)
    parts = _object(value, key)
    surd = Surd(a=_take(parts, "a", default=0), b=_take(parts, "b", default=0),
                c=_take(parts, "c", default=0), e=_take(parts, "e", default=0),
                d=_take(parts, "d", int, None))
    _done(parts, key)
    return surd


def _integer_key(key: str, what: str) -> int:
    """The integer an object key writes: a rational literal without a
    denominator, read by `rat`, so " 1 " and "+1" are 1 while "١", "0_1",
    "1.0" and a key of more digits than int() reads are refused."""
    try:
        if "/" not in key:
            return int(rat(key))
    except (TypeError, ValueError):
        pass
    raise ScenarioError(f"{what} is not an integer: {key!r}")


def _int_matrix(rows) -> list[list[int]]:
    return [[_typed(x, int, "a matrix entry") for x in row] for row in rows]


def _build_action(spec) -> CohomologyAction:
    """The action: its mode first, then that mode's fields, then the
    fields every mode shares."""
    spec = _object(spec, "the action")
    mode_name = _take(spec, "mode", default=None)
    if mode_name in ("h1trivial", "k3"):
        matrix = _int_matrix(_take(spec, "matrix"))
        mode = (H1Trivial(matrix) if mode_name == "h1trivial"
                else K3Mode(matrix, _surd(spec, "hodge_scalar")))
    elif mode_name == "torus":
        mode = TorusMode(_surd(spec, "delta"), _surd(spec, "epsilon"))
    elif mode_name == "explicit_traces":
        mode = _explicit_traces(spec)
    else:
        raise ScenarioError(f"unknown action mode {mode_name!r}")
    action = CohomologyAction(
        mode=mode,
        picard_number=_take(spec, "picard_number", int, 1),
        algebraically_stable=_take(spec, "algebraically_stable", bool, False),
        kodaira_nonnegative=_take(spec, "kodaira_nonnegative", bool, False),
        growth_constant=_take(spec, "growth_constant", int, None),
    )
    _done(spec, f"{mode_name} action")
    return action


def _explicit_traces(spec: dict) -> ExplicitTraces | TraceRecurrence:
    """The mode of an explicit_traces action: a trace table, or the
    recurrence that generates one."""
    if ("traces" in spec) == ("h11_trace_recurrence" in spec):
        raise ScenarioError(
            "explicit_traces needs one of 'traces' and 'h11_trace_recurrence'")
    declared = (_surd(spec, "dynamical_degree")
                if "dynamical_degree" in spec else None)
    if "traces" in spec:
        return ExplicitTraces({
            _integer_key(n, "a level of the trace table"): {
                tuple(_integer_key(i, f"an index of the trace table key {key!r}")
                      for i in key.split(",")): _typed(v, int, "a trace")
                for key, v in table.items()}
            for n, table in _take(spec, "traces").items()}, declared_degree=declared)
    rec = _object(_take(spec, "h11_trace_recurrence"), "h11_trace_recurrence")
    mode = TraceRecurrence(
        traces=[_typed(v, int, "an initial trace") for v in _take(rec, "initial")],
        coefficients=[_typed(c, int, "a recurrence coefficient")
                      for c in _take(rec, "coefficients")],
        offset=_take(rec, "offset", int, 0), declared_degree=declared)
    _done(rec, "h11_trace_recurrence")
    return mode


def load_scenario(doc: dict) -> Scenario:
    """Build a Scenario from a parsed JSON document, resolving all labels.
    A document of the wrong shape (a key missing, a value of the wrong type
    or out of range, a zero denominator, a label that names nothing) raises
    ScenarioError."""
    try:
        return _build_scenario(doc)
    except (LookupError, TypeError, ValueError, AttributeError,
            ZeroDivisionError) as exc:
        raise ScenarioError(
            f"malformed scenario document: {type(exc).__name__}: {exc}") from exc


def _build_scenario(doc) -> Scenario:
    doc = _object(doc, "the document")
    meta = _object(_take(doc, "meta", default={}), "meta")
    # the truncation degree of older documents, loaded unread
    _take(meta, "precision", default=None)
    _done(meta, "meta")

    maps = {}
    for label, exprs in _take(doc, "maps", dict, {}).items():
        maps[label] = PolynomialMap(*(_expression(e, f"an image of map {label!r}")
                                      for e in _pair(exprs, f"map {label!r}")))

    germs: dict[str, MapGerm] = {}
    origins: dict[str, GermOrigin] = {}
    for label, spec in _take(doc, "germs", dict, {}).items():
        what = f"germ {label!r}"
        spec = _object(spec, what)
        if "images" in spec and ("map" in spec or "base_point" in spec):
            raise ScenarioError(f"{what} has 'images' beside 'map' or 'base_point'")
        if "map" in spec:
            map_label = _take(spec, "map", str)
            pmap = _lookup(maps, map_label, what, "map")
            point = _take(spec, "base_point", default=[0, 0])
            a, b = map(rat, _pair(point, f"base_point of {what}"))
            # the chart germ is built on the map conjugated to the point,
            # whose chain the oracle reads too
            local = pmap.localized((a, b))
            if not local.fixes_origin():
                raise ScenarioError(f"point ({a}, {b}) is not fixed by the map")
            germs[label] = MapGerm(local)
            origins[label] = GermOrigin(map_label, (a, b))
        elif "images" in spec:
            images = _pair(_take(spec, "images"), f"images of {what}")
            germs[label] = MapGerm.from_polynomials(
                *(_expression(e, f"an image of {what}") for e in images))
        else:
            raise ScenarioError(f"{what} needs 'map' or 'images'")
        _done(spec, what)

    forms = {}
    for label, spec in _take(doc, "forms", dict, {}).items():
        spec = _object(spec, f"form {label!r}")
        forms[label] = FormGerm(_take(spec, "z1_valuation", int, 0),
                                _expression(_take(spec, "unit", default="1"),
                                            f"the unit of form {label!r}"))
        _done(spec, f"form {label!r}")

    # a present action is read whatever the subcommand, and the curves and
    # points, read only into a model, need one
    model = None
    if "action" in doc:
        action = _build_action(_take(doc, "action"))
        points = []
        for p in _take(doc, "points", list, []):
            p = _object(p, "a point")
            label = _take(p, "label", str)
            germ = (_lookup(germs, _take(p, "germ", str), f"point {label!r}", "germ")
                    if "germ" in p else None)
            declared = None
            if "declared_index" in p:
                declared = {_integer_key(k, f"a declared_index key of point {label!r}"):
                            _typed(v, int, "a declared index")
                            for k, v in _take(p, "declared_index").items()}
            points.append(FixedPointRecord(
                label=label, prime_period=_take(p, "prime_period", int, 1),
                germ=germ, declared_index_per_n=declared,
                on_curves=_take(p, "on_curves", list, [])))
            _done(p, "a point")
        on_curves = {pt.label: pt.on_curves for pt in points}
        curves = []
        for c in _take(doc, "curves", list, []):
            c = _object(c, "a curve")
            label = _take(c, "label", str)
            witnesses = []
            for w in _take(c, "witnesses", list, []):
                what = f"a witness of curve {label!r}"
                w = _object(w, what)
                germ_label = _take(w, "germ", str)
                # the witness sits at a point of the curve, by default the
                # point named like its germ
                point_label = _take(w, "point", str, germ_label)
                if label not in _lookup(on_curves, point_label, what, "point"):
                    raise ScenarioError(f"{what} is at {point_label!r}, not on the curve")
                witnesses.append(CurveWitness(
                    point_label=point_label, germ=_lookup(germs, germ_label, what, "germ"),
                    curve_local_equation=_expression(_take(w, "curve_equation"),
                                                     f"the curve_equation of {what}")))
                _done(w, what)
            curves.append(FixedCurveRecord(
                label=label, prime_period=_take(c, "prime_period", int, 1),
                curve_type=_take(c, "type", str), nu_C=_take(c, "nu_C", int),
                self_intersection=_take(c, "self_intersection", int),
                euler_characteristic=_take(c, "euler_characteristic", int, None),
                germ_witnesses=witnesses))
            _done(c, "a curve")
        model = SurfaceModel(points=points, curves=curves, action=action)
    elif "curves" in doc or "points" in doc:
        raise ScenarioError("curves and points need an action")

    intersections = [tuple(_pair(pair, "an intersection"))
                     for pair in _take(doc, "intersections", default=[])]
    labels = {c.label for c in model.curves} if model is not None else set()
    if not labels.issuperset(x for pair in intersections for x in pair):
        raise ScenarioError("an intersection names a curve the model lacks")
    _done(doc, "the document")
    return Scenario(maps=maps, germs=germs, germ_origins=origins, forms=forms,
                    model=model, intersections=intersections)


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
