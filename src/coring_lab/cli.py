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
    _pair_matrices,
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
from .structure import (FLAG_NAMES, WITNESS_PARTS, _RULES, _generates, analyze,
                        bimodule_tower, dual_evaluation, hom_to_s, retracts)

_SEED_ENV = "CORING_LAB_SEED"
# 3: cointegrals and Frobenius systems written as their maps f of P, each
# witness written once, and no transported witness (format 2 wrote iota)
REPORT_FORMAT = 3


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
    flag the report calls false.  Each rule of ``structure._RULES`` with a
    transport runs it once, from the report's witness of the rule's first
    hypothesis when that witness passes its check; the transport's result
    feeds no other rule.  ``b_s_faithfully_flat`` has no witness, and
    ``williard`` needs none when the right dual of the module generates A.
    A report of another format, a malformed flags object or witness entry, a
    witness of the wrong shape or with a bad scalar, or a witness key with
    no check raises DefinitionError."""
    if not isinstance(doc, dict) or not isinstance(doc.get("witnesses"), dict):
        raise DefinitionError("report must be an object with a 'witnesses' object")
    if doc.get("format") != REPORT_FORMAT:
        raise DefinitionError(f"report format {doc.get('format')!r} is not {REPORT_FORMAT}, "
                              "which writes each cointegral and Frobenius gamma as its f")
    flags = doc.get("flags")
    if (not isinstance(flags, dict) or sorted(flags) != sorted(FLAG_NAMES)
            or not all(v in _FLAG_TEXTS.values() for v in flags.values())):
        raise DefinitionError("report must have a 'flags' object with a value for each flag")
    module = _resolve(deffile.bimodules, doc.get("subject"), "bimodule", "report subject")
    tower = bimodule_tower(module)
    comatrix, sweedler, b_to_s = tower.comatrix.coring, tower.sweedler, tower.b_to_s
    wit = doc["witnesses"]

    def parse(key, part, shape):
        if part not in wit.get(key, {}):
            raise DefinitionError(f"witness {key} has no entry {part!r}")
        return _parse_tensor(deffile.field, wit[key][part], shape, f"witness {key}.{part}")

    # each check returns the witness when it passes, else None
    def split(key, part, space, value_mat):
        mat = parse(key, part, (space.dim, space.left_alg.dim))
        return (BimoduleMap(regular_bimodule(space.left_alg), space, mat, _validate=False)
                if splits(space, value_mat, mat) else None)

    def separability(key, m):
        ts, evaluation = dual_evaluation(m)
        return split(key, "splitting", ts.space, evaluation)

    def cointegral(key, c):
        ci = Cointegral(c, parse(key, "f", (c.middle.space.dim,) * 2))
        return ci if verify_cointegral(ci) else None

    def frobenius(key, c):
        fs = FrobeniusSystem(c, parse(key, "f", (c.middle.space.dim,) * 2),
                             parse(key, "invariant", (c.dim,)))
        return fs if verify_frobenius_system(fs) else None

    def iso(key, part, source, target):
        found = BimoduleMap(source, target, parse(key, part, (target.dim, source.dim)),
                            _validate=False)
        return found if found.is_invertible() and found.commutes_with_actions() else None

    def retraction(key):
        mat = parse(key, "retraction", (b_to_s.source.dim, b_to_s.target.dim))
        return mat if retracts(b_to_s, mat) else None

    checks = {
        "m_separable": lambda k: separability(k, module),
        "mstar_separable": lambda k: separability(k, right_dual(module)),
        "m_frobenius": lambda k: iso(k, "theta", right_dual(module), left_dual(module)),
        "comatrix_cosplit": lambda k: split(k, "section", comatrix.carrier, comatrix.counit_mat),
        "comatrix_coseparable": lambda k: cointegral(k, comatrix),
        "comatrix_frobenius": lambda k: frobenius(k, comatrix),
        "extension_split": retraction,
        "extension_frobenius": lambda k: iso(k, "iso", right_dual(target_sb(b_to_s)),
                                             target_bs(b_to_s)),
        "sweedler_cosplit": lambda k: split(k, "section", sweedler.carrier, sweedler.counit_mat),
        "sweedler_coseparable": lambda k: cointegral(k, sweedler),
        "sweedler_frobenius": lambda k: frobenius(k, sweedler),
        "williard": lambda k: iso(k, "iso", hom_to_s(tower), right_dual(module)),
    }
    for key in sorted(wit):
        if key not in checks:
            raise DefinitionError(f"witness {key} has no check")
        if not isinstance(wit[key], dict) or sorted(wit[key]) != sorted(WITNESS_PARTS[key]):
            raise DefinitionError(f"witness {key} must have the entries {WITNESS_PARTS[key]}")
    passed = {key: checks[key](key) for key in wit}
    owed = {name for name in WITNESS_PARTS if flags[name] == "true"} - set(wit)
    if "williard" in owed and _generates(right_dual(module), module.right_alg):
        owed.remove("williard")  # the generator test of its decider

    def carried(transport, premise, conclusion) -> bool:
        try:
            transport(module, premise)
        except (InternalInconsistencyError, NotProjectiveError):
            return False
        return flags[conclusion] != "false"

    transported = [carried(transport, passed[hyps[0]], concl)
                   for _, _, hyps, concl, transport in _RULES
                   if transport is not None and passed.get(hyps[0]) is not None]
    return (all(w is not None for w in passed.values()) and not owed
            and all(flags[key] == "true" for key in wit) and all(transported))


def _coring_document(coring, what: str, name: str, field) -> dict:
    """A coring C = N (x)_B M written as its context: the dimension of the
    carrier, the pairs (m_i, n_i) of tau(1) as coordinate vectors of M and
    N, the counit on the carrier and the validation mode.  They fix the
    coproduct n (x) m -> sum_i (n (x) m_i) (x) (n_i (x) m), which is not
    written: on the field tensor square it has d^2 rows.  The m_i and the
    n_i are each serialized as one stack."""
    ts = coring.carrier_tensor
    ms, ns = _pair_matrices(field, coring.tau_pairs, ts.right_factor.dim, ts.left_factor.dim)
    return _document(field, construction=what, name=name, carrier_dim=coring.dim,
                     tau_pairs=[{"m": m_vec, "n": n_vec} for m_vec, n_vec in
                                zip(_serialize_array(field, ms.T), _serialize_array(field, ns.T))],
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
                         structure=_serialize_array(fld, ring.structure),
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
