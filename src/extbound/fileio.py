"""JSON file formats for algebras, modules and corpora.

The on-disk representation keeps every coefficient as a decimal (or
"numerator/denominator") string, so values round-trip bit-exactly through
load and save; serialization is canonical (sorted keys, fixed indentation),
so saving a loaded file reproduces it byte for byte.
"""

from __future__ import annotations

import json
import os

from .exactla import FieldSpec, Matrix
from .algebra import (
    Algebra, AlgebraPresentation, Quiver, Representation, build_algebra,
    make_relation,
)
from .bounds import Corpus

SCHEMA_VERSION = "1"


class FileFormatError(ValueError):
    """A file does not match the expected schema; the message locates the problem."""


def dumps_canonical(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _require(cond: bool, where: str, message: str) -> None:
    if not cond:
        raise FileFormatError(f"{where}: {message}")


def _is_scalar(value) -> bool:
    # coefficients are decimal/fraction strings or integers; a float is not exact
    return type(value) in (str, int)


# ----- algebra files ----------------------------------------------------------


def algebra_to_json(algebra: Algebra) -> dict:
    pres = algebra.presentation
    field = {"p": pres.field.p} if pres.field.kind == "prime" else {"rationals": True}
    return {
        "schema_version": SCHEMA_VERSION,
        "field": field,
        "quiver": {
            "vertices": list(pres.quiver.vertices),
            "arrows": [{"name": a.name,
                        "from": pres.quiver.vertices[a.source],
                        "to": pres.quiver.vertices[a.target]}
                       for a in pres.quiver.arrows],
        },
        "relations": [
            [{"coef": pres.field.fmt(c),
              "path": [pres.quiver.arrows[i].name for i in p.arrows]}
             for c, p in rel]
            for rel in pres.relations],
        "nilpotency_bound": pres.nilpotency_bound,
    }


def algebra_from_json(data: dict, where: str = "algebra") -> Algebra:
    _require(isinstance(data, dict), where, "expected an object")
    fdata = data.get("field")
    _require(isinstance(fdata, dict), f"{where}.field", "expected an object")
    if fdata.get("rationals"):
        field = FieldSpec.rationals()
    else:
        _require(isinstance(fdata.get("p"), int), f"{where}.field", "need p or rationals")
        try:
            field = FieldSpec.prime(fdata["p"])
        except ValueError as exc:
            raise FileFormatError(f"{where}.field: {exc}") from None
    qdata = data.get("quiver")
    _require(isinstance(qdata, dict), f"{where}.quiver", "expected an object")
    vertices = qdata.get("vertices")
    _require(isinstance(vertices, list) and vertices
             and all(isinstance(v, str) for v in vertices),
             f"{where}.quiver.vertices", "expected a nonempty list of names")
    arrows_data = qdata.get("arrows", [])
    _require(isinstance(arrows_data, list), f"{where}.quiver.arrows", "expected a list")
    arrows = []
    for k, arr in enumerate(arrows_data):
        loc = f"{where}.quiver.arrows[{k}]"
        _require(isinstance(arr, dict), loc, "expected an object")
        for key in ("name", "from", "to"):
            _require(key in arr, loc, f"missing {key!r}")
            _require(isinstance(arr[key], str), f"{loc}.{key}", "expected a name")
        arrows.append((arr["name"], arr["from"], arr["to"]))
    try:
        quiver = Quiver.build(vertices, arrows)
    except ValueError as exc:
        raise FileFormatError(f"{where}.quiver: {exc}") from None
    relations_data = data.get("relations", [])
    _require(isinstance(relations_data, list), f"{where}.relations", "expected a list")
    relations = []
    for k, rel in enumerate(relations_data):
        loc = f"{where}.relations[{k}]"
        _require(isinstance(rel, list) and rel, loc, "expected a nonempty list of terms")
        terms = []
        for t, term in enumerate(rel):
            tloc = f"{loc}[{t}]"
            _require(isinstance(term, dict), tloc, "expected an object")
            _require("coef" in term and "path" in term, tloc, "need coef and path")
            _require(_is_scalar(term["coef"]), f"{tloc}.coef",
                     "expected an integer or a decimal/fraction string")
            _require(isinstance(term["path"], list), f"{tloc}.path",
                     "expected a list of arrow names")
            try:
                path = quiver.path(term["path"])
            except ValueError as exc:
                raise FileFormatError(f"{tloc}.path: {exc}") from None
            terms.append((term["coef"], path))
        try:
            relations.append(make_relation(field, terms))
        except ValueError as exc:
            raise FileFormatError(f"{loc}: {exc}") from None
    nbound = data.get("nilpotency_bound")
    _require(isinstance(nbound, int), f"{where}.nilpotency_bound", "expected an integer")
    try:
        pres = AlgebraPresentation(field, quiver, tuple(relations), nbound)
        return build_algebra(pres)
    except ValueError as exc:
        raise FileFormatError(f"{where}: {exc}") from None


def save_algebra(algebra: Algebra, path: str) -> None:
    with open(path, "w") as fh:
        fh.write(dumps_canonical(algebra_to_json(algebra)))


def load_algebra(path: str) -> Algebra:
    with open(path) as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise FileFormatError(f"{path}: invalid JSON ({exc})") from None
    return algebra_from_json(data, where=path)


# ----- module files -----------------------------------------------------------


def _matrix_rows_json(field: FieldSpec, m: Matrix) -> list[list[str]]:
    return [[field.fmt(x) for x in m.row_list(i)] for i in range(m.rows)]


def _matrix_from_rows_json(field: FieldSpec, rows, d_target: int, d_source: int,
                           where: str) -> Matrix:
    _require(isinstance(rows, list), where, "expected a list of rows")
    _require(len(rows) == d_target, where,
             f"expected {d_target} rows, found {len(rows)}")
    entries = []
    for i, row in enumerate(rows):
        _require(isinstance(row, list) and len(row) == d_source, f"{where}[{i}]",
                 f"expected {d_source} entries")
        for x in row:
            _require(_is_scalar(x), f"{where}[{i}]", f"bad entry {x!r} (not exact)")
            try:
                entries.append(field.coerce(x))
            except (ValueError, ZeroDivisionError) as exc:
                raise FileFormatError(f"{where}[{i}]: bad entry {x!r} ({exc})") from None
    return Matrix(field, d_target, d_source, tuple(entries))


def module_to_json(module: Representation, name: str | None = None,
                   inline_algebra: bool = True, algebra_path: str | None = None) -> dict:
    alg = module.algebra
    q = alg.quiver
    out: dict = {"schema_version": SCHEMA_VERSION}
    if name is not None:
        out["name"] = name
    out["algebra"] = algebra_to_json(alg) if inline_algebra else algebra_path
    out["dims"] = {q.vertices[v]: module.dims[v] for v in range(q.vertex_count)}
    out["matrices"] = {
        a.name: _matrix_rows_json(alg.field, module.arrow_matrices[i])
        for i, a in enumerate(q.arrows)}
    return out


def module_from_json(data: dict, algebra: Algebra | None = None,
                     base_dir: str = ".", where: str = "module"):
    _require(isinstance(data, dict), where, "expected an object")
    if algebra is None:
        adata = data.get("algebra")
        _require(adata is not None, f"{where}.algebra", "missing (no ambient algebra given)")
        if isinstance(adata, str):
            algebra = load_algebra(os.path.join(base_dir, adata))
        else:
            algebra = algebra_from_json(adata, where=f"{where}.algebra")
    q = algebra.quiver
    dims_data = data.get("dims")
    _require(isinstance(dims_data, dict), f"{where}.dims", "expected an object")
    dims = []
    for v in q.vertices:
        _require(v in dims_data, f"{where}.dims", f"missing vertex {v!r}")
        d = dims_data[v]
        _require(isinstance(d, int) and d >= 0, f"{where}.dims.{v}",
                 "expected a non-negative integer")
        dims.append(d)
    _require(set(dims_data) == set(q.vertices), f"{where}.dims", "unknown vertex name")
    mdata = data.get("matrices", {})
    _require(isinstance(mdata, dict), f"{where}.matrices", "expected an object")
    for key in mdata:
        _require(any(a.name == key for a in q.arrows), f"{where}.matrices",
                 f"unknown arrow {key!r}")
    mats = []
    for a in q.arrows:
        _require(a.name in mdata, f"{where}.matrices", f"missing arrow {a.name!r}")
        mats.append(_matrix_from_rows_json(
            algebra.field, mdata[a.name], dims[a.target], dims[a.source],
            f"{where}.matrices.{a.name}"))
    try:
        rep = Representation(algebra, tuple(dims), tuple(mats))
    except ValueError as exc:
        raise FileFormatError(f"{where}: {exc}") from None
    return data.get("name"), rep


def save_module(module: Representation, path: str, name: str | None = None) -> None:
    with open(path, "w") as fh:
        fh.write(dumps_canonical(module_to_json(module, name=name)))


def load_module(path: str, algebra: Algebra | None = None):
    with open(path) as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise FileFormatError(f"{path}: invalid JSON ({exc})") from None
    return module_from_json(data, algebra=algebra,
                            base_dir=os.path.dirname(path) or ".", where=path)


# ----- corpus files -----------------------------------------------------------


def corpus_to_json(corpus: Corpus) -> dict:
    alg = corpus.algebra
    return {
        "schema_version": SCHEMA_VERSION,
        "algebra": algebra_to_json(alg),
        "provenance": corpus.provenance,
        "modules": [
            {"name": name,
             "dims": module_to_json(rep)["dims"],
             "matrices": module_to_json(rep)["matrices"]}
            for name, rep in corpus.members],
    }


def corpus_from_json(data: dict, where: str = "corpus") -> Corpus:
    _require(isinstance(data, dict), where, "expected an object")
    algebra = algebra_from_json(data.get("algebra"), where=f"{where}.algebra")
    modules_data = data.get("modules", [])
    _require(isinstance(modules_data, list), f"{where}.modules", "expected a list")
    members = []
    for k, mdata in enumerate(modules_data):
        loc = f"{where}.modules[{k}]"
        _require(isinstance(mdata, dict), loc, "expected an object")
        name = mdata.get("name")
        _require(isinstance(name, str) and name, loc, "missing module name")
        _, rep = module_from_json(mdata, algebra=algebra, where=loc)
        members.append((name, rep))
    provenance = data.get("provenance", {})
    _require(isinstance(provenance, dict), f"{where}.provenance", "expected an object")
    try:
        return Corpus(algebra, tuple(members), provenance)
    except ValueError as exc:
        raise FileFormatError(f"{where}: {exc}") from None


def save_corpus(corpus: Corpus, path: str) -> None:
    with open(path, "w") as fh:
        fh.write(dumps_canonical(corpus_to_json(corpus)))


def load_corpus(path: str) -> Corpus:
    with open(path) as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise FileFormatError(f"{path}: invalid JSON ({exc})") from None
    return corpus_from_json(data, where=path)
