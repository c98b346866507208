"""Definition files: named algebras, algebra maps, bimodules, Morita data
and contexts in one JSON document.

Schema (scalars are integers or strings like "3/7" or "2 mod 5", the
characteristic an integer; a JSON true or false is neither):

    {
      "field": {"characteristic": 2},
      "algebras": {"A": {"structure": [[[..]]], "unit": [..]}},
      "algebra_maps": {"f": {"source": "B", "target": "A", "matrix": [[..]]}},
      "bimodules": {"M": {"left": "B", "right": "A",
                          "left_action": [[[..]]], "right_action": [[[..]]]}},
      "morita": {"md": {"n": "N", "m": "M", "sigma": [[..]], "tau_tilde": [[..]]}},
      "contexts": {"c": {"n": "N", "m": "M", "sigma": [[..]], "tau": [[..]]}}
    }

Pairing matrices are given on the field tensor product of the factors
(rows of sigma are base-algebra coordinates, columns run over the pairs
in row-major order); the loader projects them onto the presented tensor
products.  Every entity is validated at load time.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field as dc_field
from pathlib import Path

import numpy as np

from .algebra import Algebra, AlgebraMap, check_algebra_map
from .bimodule import Bimodule, BimoduleMap, regular_bimodule, tensor_over
from .comatrix import MoritaData, context_from_tau
from .coring import Coring
from .errors import CoringLabError, DefinitionError
from .fields import Field, field_of_characteristic

__all__ = ["DefinitionFile", "load", "loads", "bundled_path", "BUNDLED_NAMES"]

BUNDLED_NAMES = ["matrix2", "dual-numbers", "product-field", "morita-rows-cols",
                 "regular-module"]


def bundled_path(name: str) -> Path:
    """Path of one of the definition files shipped with the package."""
    return Path(__file__).parent / "data" / f"{name}.json"


@dataclass
class DefinitionFile:
    field: Field
    algebras: dict = dc_field(default_factory=dict)
    algebra_maps: dict = dc_field(default_factory=dict)
    bimodules: dict = dc_field(default_factory=dict)
    morita: dict = dc_field(default_factory=dict)
    contexts: dict = dc_field(default_factory=dict)


def _parse_tensor(fld: Field, data, shape, where: str):
    try:
        arr = np.array(data, dtype=object)
    except ValueError as exc:
        raise DefinitionError(f"{where}: ragged tensor ({exc})")
    if arr.shape != shape:
        raise DefinitionError(f"{where}: expected shape {shape}, got {arr.shape}")
    flat = arr.reshape(-1)
    out = fld.zeros(arr.shape).reshape(-1)
    for i, v in enumerate(flat):
        if type(v) not in (int, str):  # bool is an int subclass
            raise DefinitionError(f"{where}: scalar {v!r} must be an int or string")
        try:
            out[i] = fld.parse_scalar(v)
        except (ValueError, ZeroDivisionError) as exc:
            raise DefinitionError(f"{where}: bad scalar {v!r} ({exc})")
    return fld.asarray(out.reshape(shape))


def _resolve(table: dict, name, kind: str, where: str):
    if not isinstance(name, str) or name not in table:
        raise DefinitionError(f"{where}: unresolved {kind} reference {name!r}")
    return table[name]


def _entries(doc: dict, section: str):
    """The (name, spec) pairs of one top-level section, each spec an object."""
    table = doc.get(section) or {}
    if not isinstance(table, dict) or not all(isinstance(v, dict) for v in table.values()):
        raise DefinitionError(f"{section} must be an object of named objects")
    return table.items()


def loads(text: str) -> DefinitionFile:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DefinitionError(f"not valid JSON: {exc}")
    if not isinstance(doc, dict) or not isinstance(doc.get("field"), dict):
        raise DefinitionError("document must be an object with a 'field' object")
    char = doc["field"].get("characteristic")
    if type(char) is not int or char < 0:
        raise DefinitionError("field.characteristic must be a non-negative integer")
    try:
        fld = field_of_characteristic(char)
    except ValueError as exc:
        raise DefinitionError(str(exc))
    out = DefinitionFile(fld)

    for name, spec in _entries(doc, "algebras"):
        if not isinstance(spec.get("unit"), list):
            raise DefinitionError(f"algebra {name!r}: unit must be a list")
        dim = len(spec["unit"])
        structure = _parse_tensor(fld, spec.get("structure"), (dim, dim, dim),
                                  f"algebra {name!r}")
        unit = _parse_tensor(fld, spec.get("unit"), (dim,), f"algebra {name!r} unit")
        try:
            out.algebras[name] = Algebra(fld, structure, unit, name=name)
        except CoringLabError as exc:
            raise DefinitionError(f"algebra {name!r}: {exc}")

    for name, spec in _entries(doc, "algebra_maps"):
        source = _resolve(out.algebras, spec.get("source"), "algebra",
                          f"algebra map {name!r}")
        target = _resolve(out.algebras, spec.get("target"), "algebra",
                          f"algebra map {name!r}")
        matrix = _parse_tensor(fld, spec.get("matrix"), (target.dim, source.dim),
                               f"algebra map {name!r}")
        amap = AlgebraMap(source, target, matrix)
        if not check_algebra_map(amap):
            raise DefinitionError(f"algebra map {name!r} is not a unital algebra map")
        out.algebra_maps[name] = amap

    for name, spec in _entries(doc, "bimodules"):
        left = _resolve(out.algebras, spec.get("left"), "algebra", f"bimodule {name!r}")
        right = _resolve(out.algebras, spec.get("right"), "algebra", f"bimodule {name!r}")
        left_action = spec.get("left_action")
        if not (isinstance(left_action, list) and left_action
                and isinstance(left_action[0], list)):
            raise DefinitionError(f"bimodule {name!r}: left_action must be a list of matrices")
        dim = len(left_action[0])
        lam = _parse_tensor(fld, left_action, (left.dim, dim, dim),
                            f"bimodule {name!r} left action")
        rho = _parse_tensor(fld, spec.get("right_action"), (dim, right.dim, dim),
                            f"bimodule {name!r} right action")
        try:
            out.bimodules[name] = Bimodule(left, right, lam, rho, name=name)
        except CoringLabError as exc:
            raise DefinitionError(f"bimodule {name!r}: {exc}")

    for name, spec in _entries(doc, "morita"):
        out.morita[name] = _load_morita(out, fld, name, spec)

    for name, spec in _entries(doc, "contexts"):
        out.contexts[name] = _load_context(out, fld, name, spec)

    return out


def _load_pairing(out: DefinitionFile, fld: Field, where: str, spec):
    """The bimodules n and m of a morita or contexts entry, both tensor
    presentations N (x)_B M and M (x)_A N, and sigma on the first."""
    n = _resolve(out.bimodules, spec.get("n"), "bimodule", where)
    m = _resolve(out.bimodules, spec.get("m"), "bimodule", where)
    ts_nm = tensor_over(n, m)
    ts_mn = tensor_over(m, n)
    sigma_amb = _parse_tensor(fld, spec.get("sigma"), (m.right_alg.dim, n.dim * m.dim),
                              f"{where} sigma")
    return n, m, ts_nm, ts_mn, sigma_amb[:, ts_nm.free]


def _load_morita(out: DefinitionFile, fld: Field, name: str, spec) -> MoritaData:
    where = f"morita {name!r}"
    n, m, ts_nm, ts_mn, sigma_mat = _load_pairing(out, fld, where, spec)
    b_alg = m.left_alg
    tau_amb = _parse_tensor(fld, spec.get("tau_tilde"), (b_alg.dim, m.dim * n.dim),
                            f"{where} tau_tilde")
    try:
        sigma = BimoduleMap(ts_nm.space, regular_bimodule(m.right_alg), sigma_mat)
        tau_tilde = BimoduleMap(ts_mn.space, regular_bimodule(b_alg),
                                tau_amb[:, ts_mn.free])
        md = MoritaData(n, m, sigma, tau_tilde, ts_nm, ts_mn)
        md.validate()
    except CoringLabError as exc:
        raise DefinitionError(f"{where}: {exc}")
    return md


def _load_context(out: DefinitionFile, fld: Field, name: str, spec) -> Coring:
    where = f"context {name!r}"
    n, m, ts_nm, ts_mn, sigma_mat = _load_pairing(out, fld, where, spec)
    b_alg = m.left_alg
    tau_amb = _parse_tensor(fld, spec.get("tau"), (m.dim * n.dim, b_alg.dim), f"{where} tau")
    try:
        tau = BimoduleMap(regular_bimodule(b_alg), ts_mn.space,
                          fld.matmul(ts_mn.projection, tau_amb))
        return context_from_tau(ts_nm, ts_mn, sigma_mat, tau.matrix)
    except CoringLabError as exc:
        raise DefinitionError(f"{where}: {exc}")


def load(path) -> DefinitionFile:
    """Parse and validate a definition file."""
    p = Path(path)
    if not p.exists():
        raise DefinitionError(f"no such file: {p}")
    return loads(p.read_text(encoding="utf-8"))
