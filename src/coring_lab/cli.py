"""Batch front end: validate definition files, run constructions, analyze
bimodules and emit deterministic reports.

``construct`` writes a coring N (x)_B M as its context: the pairs of
tau(1), the counit and the carrier dimension (``_coring_document``), never
its coproduct on the field tensor square of the carrier.

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
from .bimodule import BimoduleMap, left_dual, regular_bimodule, right_dual, target_bs, target_sb
from .comatrix import comatrix_data, context_from_morita
from .coring import (
    Cointegral,
    FrobeniusSystem,
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
from .structure import (FLAG_NAMES, WITNESS_PARTS, _generates, analyze, bimodule_tower,
                        cointegral_from_separability, dual_evaluation, hom_to_s,
                        iota_from_frobenius, lift_cointegral, lift_cosplit,
                        lift_frobenius_system, retracts)

_SEED_ENV = "CORING_LAB_SEED"
# 2: cointegrals and Frobenius systems written as their maps f of P, and
# each witness written once
REPORT_FORMAT = 2


def _serialize_array(field, arr):
    """Nested lists of scalar texts; each distinct value is formatted once."""
    values, inverse = np.unique(np.asarray(arr), return_inverse=True)
    texts = np.array([field.format_scalar(v) for v in values], dtype=object)
    return texts[inverse.reshape(np.shape(arr))].tolist()


_FLAG_TEXTS = {True: "true", False: "false", None: "inconclusive"}


def _document(field, **entries) -> dict:
    """A document of the tool: its name and version, the field, the entries."""
    return {"tool": "coring-lab", "version": __version__,
            "field": {"characteristic": field.characteristic}, **entries}


def report_document(deffile: DefinitionFile, name: str, seed: int) -> dict:
    report = analyze(deffile.bimodules[name], seed=seed)
    fld = deffile.field
    return _document(
        fld, format=REPORT_FORMAT, subject=name, seed=seed,
        flags={k: _FLAG_TEXTS[v] for k, v in report.flags.items()},
        witnesses={key: {part: _serialize_array(fld, arr) for part, arr in data.items()}
                   for key, data in report.witnesses.items()},
        implication_audit=[{"rule": e.rule, "hypotheses": e.hypotheses,
                            "conclusion": e.conclusion, "kind": e.kind, "status": e.status}
                           for e in report.implication_audit])


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
    """Re-verify a serialized report: False when a witness fails its check,
    a true flag has no witness (``structure.WITNESS_PARTS``) or a witness
    stands under a flag that is not true, or a transport fails or proves a
    flag the report calls false.  The transports are re-derived from the
    witnesses that pass their checks: ``lift_cosplit`` from
    ``comatrix_cosplit``, ``cointegral_from_separability`` and
    ``lift_cointegral`` from ``m_separable``, ``lift_frobenius_system`` from
    ``comatrix_frobenius``, and the written ``iota`` from ``m_frobenius``.
    ``b_s_faithfully_flat`` has no witness, and ``williard`` needs none when
    the right dual of the module generates A.  A report of another format, a
    malformed flags object or witness entry, a witness of the wrong shape or
    with a bad scalar, or a witness key with no check raises DefinitionError."""
    if not isinstance(doc, dict) or not isinstance(doc.get("witnesses"), dict):
        raise DefinitionError("report must be an object with a 'witnesses' object")
    if doc.get("format") != REPORT_FORMAT:
        raise DefinitionError(f"report format {doc.get('format')!r} is not {REPORT_FORMAT}, "
                              "which writes each cointegral and Frobenius gamma as its f")
    flags = doc.get("flags")
    if (not isinstance(flags, dict) or sorted(flags) != sorted(FLAG_NAMES)
            or not set(flags.values()) <= set(_FLAG_TEXTS.values())):
        raise DefinitionError("report must have a 'flags' object with a value for each flag")
    module = _resolve(deffile.bimodules, doc.get("subject"), "bimodule", "report subject")
    tower = bimodule_tower(module)
    comatrix, sweedler, b_to_s = tower.comatrix.coring, tower.sweedler, tower.b_to_s
    wit = doc["witnesses"]

    @functools.cache  # each entry is parsed once, for its check and its transport
    def parse(key, part, shape):
        if part not in wit.get(key, {}):
            raise DefinitionError(f"witness {key} has no entry {part!r}")
        return _parse_tensor(deffile.field, wit[key][part], shape, f"witness {key}.{part}")

    def split(key, part, space, value_mat):  # the map when it splits value_mat, else None
        mat = parse(key, part, (space.dim, space.left_alg.dim))
        return (BimoduleMap(regular_bimodule(space.left_alg), space, mat, _validate=False)
                if splits(space, value_mat, mat) else None)

    def separability(key, m):
        ts, evaluation = dual_evaluation(m)
        return split(key, "splitting", ts.space, evaluation)

    def cointegral(key, c):
        return verify_cointegral(Cointegral(c, parse(key, "f", (c.middle.space.dim,) * 2)))

    def frobenius(key, c):  # the system when it verifies, else None
        fs = FrobeniusSystem(c, parse(key, "f", (c.middle.space.dim,) * 2),
                             parse(key, "invariant", (c.dim,)))
        return fs if verify_frobenius_system(fs) else None

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

    def carried(witness, transport, *proved) -> bool:  # from a witness that passed
        try:
            return (witness is not None and transport(module, witness) is not None
                    and "false" not in [flags[name] for name in proved])
        except InternalInconsistencyError:
            return False

    checks = {
        "m_separable": lambda k: carried(
            separability(k, module), lambda m, nu: lift_cointegral(
                m, cointegral_from_separability(m, nu)),
            "comatrix_coseparable", "sweedler_coseparable"),
        "mstar_separable": lambda k: separability(k, right_dual(module)) is not None,
        "m_frobenius": lambda k: theta() is not None,
        "comatrix_cosplit": lambda k: carried(
            split(k, "section", comatrix.carrier, comatrix.counit_mat), lift_cosplit,
            "sweedler_cosplit"),
        "comatrix_coseparable": lambda k: cointegral(k, comatrix),
        "comatrix_frobenius": lambda k: carried(
            frobenius(k, comatrix), lift_frobenius_system, "sweedler_frobenius"),
        "extension_split": lambda k: retracts(
            b_to_s, parse(k, "retraction", (b_to_s.source.dim, b_to_s.target.dim))),
        "extension_frobenius": lambda k: iso(k, "iso", right_dual(target_sb(b_to_s)),
                                             target_bs(b_to_s)) is not None,
        "sweedler_cosplit": lambda k: split(k, "section", sweedler.carrier,
                                            sweedler.counit_mat) is not None,
        "sweedler_coseparable": lambda k: cointegral(k, sweedler),
        "sweedler_frobenius": lambda k: frobenius(k, sweedler) is not None,
        "williard": lambda k: iso(k, "iso", hom_to_s(tower), right_dual(module)) is not None,
        "iota": iota,
    }
    for key in sorted(wit):
        if key not in checks:
            raise DefinitionError(f"witness {key} has no check")
        if not isinstance(wit[key], dict) or sorted(wit[key]) != sorted(WITNESS_PARTS[key]):
            raise DefinitionError(f"witness {key} must have the entries {WITNESS_PARTS[key]}")
    passed = [checks[key](key) for key in wit]
    owed = {name for name in WITNESS_PARTS if flags.get(name) == "true"} - set(wit)
    if "williard" in owed and _generates(right_dual(module), module.right_alg):
        owed.remove("williard")  # the generator test of its decider
    under = {"iota": ["m_frobenius", "comatrix_frobenius"]}
    return (all(passed) and not owed
            and all(flags[name] == "true" for key in wit for name in under.get(key, [key])))


def _coring_document(coring, what: str, name: str, field) -> dict:
    """A coring C = N (x)_B M written as its context: the dimension of the
    carrier, the pairs (m_i, n_i) of tau(1) as coordinate vectors of M and
    N, the counit on the carrier and the validation mode.  They fix the
    coproduct n (x) m -> sum_i (n (x) m_i) (x) (n_i (x) m), which is not
    written: on the field tensor square it has d^2 rows."""
    return _document(field, construction=what, name=name, carrier_dim=coring.dim,
                     tau_pairs=[{"m": _serialize_array(field, m_vec),
                                 "n": _serialize_array(field, n_vec)}
                                for m_vec, n_vec in coring.tau_pairs],
                     counit=_serialize_array(field, coring.counit_mat),
                     validation=coring.validation)


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
        return _document(fld, construction=what, name=name, dim=ring.dim,
                         structure=[_serialize_array(fld, part) for part in ring.structure],
                         unit=_serialize_array(fld, ring.unit))
    raise DefinitionError(f"unknown construction {what!r}")


def cmd_validate(deffile: DefinitionFile) -> dict:
    return _document(deffile.field,
                     algebras={n: a.dim for n, a in sorted(deffile.algebras.items())},
                     algebra_maps=sorted(deffile.algebra_maps),
                     bimodules={n: b.dim for n, b in sorted(deffile.bimodules.items())},
                     morita=sorted(deffile.morita), contexts=sorted(deffile.contexts),
                     status="ok")


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
