"""Batch front end: validate definition files, run constructions, analyze
bimodules and emit deterministic reports.

Exit codes: 0 when the requested analysis completed (whatever the flags),
1 for input problems, 2 when a proven implication failed, which signals an
implementation bug rather than a mathematical outcome, and 3 when a question
needs the tensor square of a coring too large for it (a capacity limit, not
an answer).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

import numpy as np

from . import __version__
from .bimodule import right_dual
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
    TooLargeToValidateError,
)
from .structure import FLAG_NAMES, analyze, bimodule_tower, dual_evaluation, retracts

_SEED_ENV = "CORING_LAB_SEED"


def _serialize_array(field, arr):
    """Nested lists of scalar texts; each distinct value is formatted once."""
    values, inverse = np.unique(np.asarray(arr), return_inverse=True)
    texts = np.array([field.format_scalar(v) for v in values], dtype=object)
    return texts[inverse.reshape(np.shape(arr))].tolist()


def _flag_text(value) -> str:
    if value is True:
        return "true"
    if value is False:
        return "false"
    return "inconclusive"


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
    """Re-verify the re-checkable witnesses of a serialized report.  A
    missing or malformed witness entry, a witness of the wrong shape or with
    a bad scalar raises DefinitionError."""
    if not isinstance(doc, dict) or not isinstance(doc.get("witnesses"), dict):
        raise DefinitionError("report must be an object with a 'witnesses' object")
    module = _resolve(deffile.bimodules, doc.get("subject"), "bimodule", "report subject")
    fld = deffile.field
    tower = bimodule_tower(module)
    comatrix, sweedler = tower.comatrix.coring, tower.sweedler
    wit = doc["witnesses"]

    def parse(key, part, shape):
        if not isinstance(wit[key], dict) or part not in wit[key]:
            raise DefinitionError(f"witness {key} has no entry {part!r}")
        return _parse_tensor(fld, wit[key][part], shape, f"witness {key}.{part}")

    def gamma(key, part, c):
        return parse(key, part, (c.base.dim, c.dim * c.dim))

    ok = True
    for key, part, c in (("comatrix_coseparable", "cointegral", comatrix),
                         ("sweedler_coseparable", "cointegral", sweedler),
                         ("comatrix_cointegral_constructed", "gamma", comatrix),
                         ("sweedler_cointegral_lift", "gamma", sweedler)):
        if key in wit:
            ok &= verify_cointegral(Cointegral(c, gamma(key, part, c)))
    for key, c in (("comatrix_frobenius", comatrix), ("sweedler_frobenius", sweedler),
                   ("sweedler_frobenius_lift", sweedler)):
        if key in wit:
            fs = FrobeniusSystem(c, gamma(key, "gamma", c), parse(key, "invariant", (c.dim,)))
            ok &= verify_frobenius_system(fs)

    for key, c in (("comatrix_cosplit", comatrix), ("sweedler_cosplit", sweedler),
                   ("sweedler_cosplit_lift", sweedler)):
        if key in wit:
            ok &= splits(c.carrier, c.counit_mat, parse(key, "section", (c.dim, c.base.dim)))
    for key, m in (("m_separable", module), ("mstar_separable", right_dual(module))):
        if key in wit:
            ts, evaluation = dual_evaluation(m)
            ok &= splits(ts.space, evaluation,
                         parse(key, "splitting", (ts.dim, m.left_alg.dim)))
    if "extension_split" in wit:
        shape = (tower.b_to_s.source.dim, tower.b_to_s.target.dim)
        ok &= retracts(tower.b_to_s, parse("extension_split", "retraction", shape))
    return bool(ok)


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


def _seed(text: str) -> int:
    """A seed of the random searches, which take non-negative integers."""
    try:
        seed = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    if seed < 0:
        raise argparse.ArgumentTypeError(f"seed must be non-negative, got {seed}")
    return seed


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="coring-lab")
    sub = parser.add_subparsers(dest="command", required=True)

    p_analyze = sub.add_parser("analyze", help="run all deciders on one bimodule")
    p_analyze.add_argument("file")
    p_analyze.add_argument("--bimodule", required=True)
    # a string default is parsed like the option, and only when it is used
    p_analyze.add_argument("--seed", type=_seed, default=os.environ.get(_SEED_ENV, "0"),
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
