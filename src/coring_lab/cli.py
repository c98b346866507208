"""Batch front end: validate definition files, run constructions, analyze
bimodules and emit deterministic reports.

Exit codes: 0 when the requested analysis completed (whatever the flags),
1 for input problems, 2 when a proven implication failed, which signals an
implementation bug rather than a mathematical outcome, and 3 when a question
needs the pre-cointegral space of a coring whose carrier has dimension above
32 (a capacity limit kept for the benchmark, not an answer).
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time

import numpy as np

from . import __version__
from .bimodule import BimoduleMap, left_dual, right_dual, target_bs, target_sb
from .comatrix import comatrix_data, context_from_morita
from .coring import (
    Cointegral,
    FrobeniusSystem,
    f_of_gamma,
    left_dual_ring,
    splits,
    sweedler_coring,
    verify_cointegral,
    verify_frobenius_system,
)
from .definitions import DefinitionFile, _parse_tensor, _resolve, load
from .errors import (
    CoringLabError,
    DefinitionError,
    InternalInconsistencyError,
    NotProjectiveError,
    TooLargeToValidateError,
)
from .structure import (FLAG_NAMES, analyze, bimodule_tower, dual_evaluation, hom_to_s,
                        iota_from_frobenius, retracts)

_SEED_ENV = "CORING_LAB_SEED"


def _serialize_array(field, arr):
    """Nested lists of scalar texts; each distinct value is formatted once."""
    values, inverse = np.unique(np.asarray(arr), return_inverse=True)
    texts = np.array([field.format_scalar(v) for v in values], dtype=object)
    return texts[inverse.reshape(np.shape(arr))].tolist()


def _flag_text(value) -> str:
    return {True: "true", False: "false"}.get(value, "inconclusive")


def report_document(deffile: DefinitionFile, name: str, seed: int) -> dict:
    module = deffile.bimodules[name]
    report = analyze(module, seed=seed)
    fld = deffile.field
    witnesses = {}
    for key, data in report.witnesses.items():
        witnesses[key] = {part: _serialize_array(fld, arr) for part, arr in data.items()}
    return {
        "tool": "coring-lab",
        "version": __version__,
        "subject": name,
        "seed": seed,
        "field": {"characteristic": fld.characteristic},
        "flags": {k: _flag_text(v) for k, v in report.flags.items()},
        "witnesses": witnesses,
        "implication_audit": [
            {"rule": e.rule, "hypotheses": e.hypotheses, "conclusion": e.conclusion,
             "kind": e.kind, "status": e.status}
            for e in report.implication_audit
        ],
    }


def render_text(doc: dict) -> str:
    lines = [f"coring-lab {doc['version']} analysis of {doc['subject']!r} "
             f"(seed {doc['seed']}, characteristic {doc['field']['characteristic']})"]
    lines.append("")
    width = max(len(n) for n in FLAG_NAMES)
    for name in FLAG_NAMES:
        lines.append(f"  {name.ljust(width)}  {doc['flags'][name]}")
    lines.append("")
    lines.append("implication audit:")
    for entry in doc["implication_audit"]:
        hyp = " & ".join(entry["hypotheses"]) or "(none)"
        arrow = "<=>" if entry["kind"] == "equivalence" else "=>"
        lines.append(f"  [{entry['status']:>20}] {hyp} {arrow} {entry['conclusion']}"
                     f"  ({entry['rule']})")
    witnesses = sorted(doc["witnesses"])
    lines.append("")
    lines.append(f"witnesses recorded: {', '.join(witnesses) if witnesses else 'none'}")
    return "\n".join(lines) + "\n"


def verify_report_witnesses(deffile: DefinitionFile, doc: dict) -> bool:
    """Re-verify every witness of a serialized report, False when one fails
    its check.  A missing or malformed witness entry, a witness of the wrong
    shape or with a bad scalar, or a witness key with no check raises
    DefinitionError."""
    if not isinstance(doc, dict) or not isinstance(doc.get("witnesses"), dict):
        raise DefinitionError("report must be an object with a 'witnesses' object")
    module = _resolve(deffile.bimodules, doc.get("subject"), "bimodule", "report subject")
    fld = deffile.field
    tower = bimodule_tower(module)
    comatrix, sweedler, b_to_s = tower.comatrix.coring, tower.sweedler, tower.b_to_s
    wit = doc["witnesses"]

    def parse(key, part, shape):
        if not isinstance(wit.get(key), dict) or part not in wit[key]:
            raise DefinitionError(f"witness {key} has no entry {part!r}")
        return _parse_tensor(fld, wit[key][part], shape, f"witness {key}.{part}")

    def cointegral(key, c, part="cointegral"):
        f_mat = f_of_gamma(c, parse(key, part, (c.base.dim, c.dim * c.dim)))
        return f_mat is not None and verify_cointegral(Cointegral(c, f_mat))

    def frobenius(key, c):
        f_mat = f_of_gamma(c, parse(key, "gamma", (c.base.dim, c.dim * c.dim)))
        e = parse(key, "invariant", (c.dim,))
        return f_mat is not None and verify_frobenius_system(FrobeniusSystem(c, f_mat, e))

    def section(key, c):
        return splits(c.carrier, c.counit_mat, parse(key, "section", (c.dim, c.base.dim)))

    def splitting(key, m):
        ts, evaluation = dual_evaluation(m)
        return splits(ts.space, evaluation, parse(key, "splitting", (ts.dim, m.left_alg.dim)))

    def iso(key, part, source, target):  # the map when it is an isomorphism, else None
        found = BimoduleMap(source, target, parse(key, part, (target.dim, source.dim)),
                            _validate=False)
        return found if found.is_invertible() and found.commutes_with_actions() else None

    @functools.cache  # checked once for both m_frobenius and iota
    def theta():
        return iso("m_frobenius", "theta", right_dual(module), left_dual(module))

    def iota(key):  # re-derived from a theta that passes its check
        expected, frob = parse(key, "matrix", (comatrix.dim, comatrix.dim)), theta()
        try:
            return frob is not None and np.array_equal(
                iota_from_frobenius(module, frob), expected)
        except (InternalInconsistencyError, NotProjectiveError):
            return False

    checks = {
        "m_separable": lambda k: splitting(k, module),
        "mstar_separable": lambda k: splitting(k, right_dual(module)),
        "m_frobenius": lambda k: theta() is not None,
        "comatrix_cosplit": lambda k: section(k, comatrix),
        "comatrix_coseparable": lambda k: cointegral(k, comatrix),
        "comatrix_frobenius": lambda k: frobenius(k, comatrix),
        "extension_split": lambda k: retracts(
            b_to_s, parse(k, "retraction", (b_to_s.source.dim, b_to_s.target.dim))),
        "extension_frobenius": lambda k: iso(k, "iso", right_dual(target_sb(b_to_s)),
                                             target_bs(b_to_s)) is not None,
        "sweedler_cosplit": lambda k: section(k, sweedler),
        "sweedler_coseparable": lambda k: cointegral(k, sweedler),
        "sweedler_frobenius": lambda k: frobenius(k, sweedler),
        "williard": lambda k: iso(k, "iso", hom_to_s(tower), right_dual(module)) is not None,
        "sweedler_cosplit_lift": lambda k: section(k, sweedler),
        "comatrix_cointegral_constructed": lambda k: cointegral(k, comatrix, "gamma"),
        "sweedler_cointegral_lift": lambda k: cointegral(k, sweedler, "gamma"),
        "iota": iota,
        "sweedler_frobenius_lift": lambda k: frobenius(k, sweedler),
    }
    unchecked = sorted(set(wit) - set(checks))
    if unchecked:
        raise DefinitionError(f"witness {unchecked[0]} has no check")
    return all([checks[key](key) for key in wit])


def _coring_document(coring, what: str, name: str, field) -> dict:
    return {
        "tool": "coring-lab",
        "version": __version__,
        "construction": what,
        "name": name,
        "field": {"characteristic": field.characteristic},
        "carrier_dim": coring.dim,
        "coproduct_representative": _serialize_array(field, coring.delta_amb),
        "counit": _serialize_array(field, coring.counit_mat),
        "validation": coring.validation,
    }


def cmd_construct(deffile: DefinitionFile, what: str, name: str) -> dict:
    fld = deffile.field
    if what == "comatrix":
        if name not in deffile.bimodules:
            raise DefinitionError(f"no bimodule named {name!r}")
        return _coring_document(comatrix_data(deffile.bimodules[name]).coring,
                                what, name, fld)
    if what == "sweedler":
        if name not in deffile.algebra_maps:
            raise DefinitionError(f"no algebra map named {name!r}")
        return _coring_document(sweedler_coring(deffile.algebra_maps[name]),
                                what, name, fld)
    if what == "context-coring":
        if name in deffile.contexts:
            ctx = deffile.contexts[name]
        elif name in deffile.morita:
            ctx = context_from_morita(deffile.morita[name])
            if ctx is None:
                raise DefinitionError(
                    f"morita data {name!r} has a non-surjective pairing")
        else:
            raise DefinitionError(f"no context or morita data named {name!r}")
        return _coring_document(ctx, what, name, fld)
    if what == "dual-ring":
        if name not in deffile.bimodules:
            raise DefinitionError(f"no bimodule named {name!r}")
        ring = left_dual_ring(comatrix_data(deffile.bimodules[name]).coring)
        return {
            "tool": "coring-lab",
            "version": __version__,
            "construction": what,
            "name": name,
            "field": {"characteristic": fld.characteristic},
            "dim": ring.dim,
            "structure": [_serialize_array(fld, ring.structure[i])
                          for i in range(ring.dim)],
            "unit": _serialize_array(fld, ring.unit),
        }
    raise DefinitionError(f"unknown construction {what!r}")


def cmd_validate(deffile: DefinitionFile) -> dict:
    return {
        "tool": "coring-lab",
        "version": __version__,
        "field": {"characteristic": deffile.field.characteristic},
        "algebras": {n: a.dim for n, a in sorted(deffile.algebras.items())},
        "algebra_maps": sorted(deffile.algebra_maps),
        "bimodules": {n: b.dim for n, b in sorted(deffile.bimodules.items())},
        "morita": sorted(deffile.morita),
        "contexts": sorted(deffile.contexts),
        "status": "ok",
    }


def _emit(doc: dict, fmt: str) -> None:
    if fmt == "text" and "flags" in doc:
        sys.stdout.write(render_text(doc))
    else:
        sys.stdout.write(json.dumps(doc, indent=1, sort_keys=True) + "\n")


def _usage_error(message):
    raise argparse.ArgumentError(None, message)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="coring-lab")
    sub = parser.add_subparsers(dest="command", required=True)

    p_analyze = sub.add_parser("analyze", help="run all deciders on one bimodule")
    p_analyze.add_argument("file")
    p_analyze.add_argument("--bimodule", required=True)
    # a string default is parsed like the option, and only when it is used
    p_analyze.add_argument("--seed", type=int, default=os.environ.get(_SEED_ENV, "0"),
                           help=f"default: ${_SEED_ENV}, else 0")
    p_analyze.add_argument("--format", choices=["text", "json"], default="text")

    p_construct = sub.add_parser("construct", help="build a coring or dual ring")
    p_construct.add_argument("file")
    p_construct.add_argument("--what", required=True,
                             choices=["comatrix", "sweedler", "context-coring",
                                      "dual-ring"])
    p_construct.add_argument("--name", required=True)

    p_validate = sub.add_parser("validate", help="load and validate a definition file")
    p_validate.add_argument("file")
    # a usage error is an input error, which main reports and exits 1 on
    for p in (parser, p_analyze, p_construct, p_validate):
        p.error = _usage_error
    return parser


def main(argv=None) -> int:
    started = time.monotonic()
    try:
        args = build_parser().parse_args(argv)
        deffile = load(args.file)
        if args.command == "analyze":
            if args.bimodule not in deffile.bimodules:
                raise DefinitionError(f"no bimodule named {args.bimodule!r}")
            doc = report_document(deffile, args.bimodule, args.seed)
            _emit(doc, args.format)
        elif args.command == "construct":
            _emit(cmd_construct(deffile, args.what, args.name), "json")
        else:
            _emit(cmd_validate(deffile), "json")
    except InternalInconsistencyError as exc:
        print(f"internal inconsistency: {exc}", file=sys.stderr)
        return 2
    except TooLargeToValidateError as exc:
        print(f"capacity: {exc}", file=sys.stderr)
        return 3
    except (CoringLabError, OSError, argparse.ArgumentError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(f"elapsed: {time.monotonic() - started:.3f}s", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
