"""Spans and counters around the library's layer boundaries, installed from
outside the library.

``Tracer.install`` rebinds module attributes: every copy of a wrapped
function (``from .linalg import _solve`` binds one in each importing module)
is replaced by one wrapper, and methods of ``PrimeField``, ``Algebra``,
``Bimodule``, ``Coring`` and ``QuotientPresentation``, and the
``Coring.square`` property, are replaced on their classes.  An untraced
worker never imports this module.

A span is ``(name, start, end, parent, case)``; spans stay in memory and are
written out once, by ``Tracer.write``.  A call made while a span of the same
name is open records no span of its own, so inclusive times never count a
nested call twice.  Counters are attributed at the wrapper that sees the
work (shapes, ranks, statuses), and count inside the timed region only.
"""

from __future__ import annotations

import gzip
import json
import sys
import time
from collections import Counter
from contextlib import contextmanager
from functools import wraps
from pathlib import Path

import numpy as np

FIELD_KERNELS = ("matmul", "tensordot", "kron", "asarray")

FLAGS = ("m_separable", "mstar_separable", "m_frobenius", "comatrix_cosplit",
         "comatrix_coseparable", "comatrix_frobenius", "extension_split",
         "extension_frobenius", "sweedler_cosplit", "sweedler_coseparable",
         "sweedler_frobenius", "b_s_faithfully_flat", "williard")

TRANSPORTS = ("lift_cosplit", "cointegral_from_separability", "lift_cointegral",
              "iota_from_frobenius", "lift_frobenius_system")

OUTCOMES = ("ok", "size_error", "too_large", "timeout", "memory", "error", "wrong")

# (span name, metric suffixes) for the per-layer metrics; ".s" is the
# inclusive time of the span, the other suffixes are counters.
_SPAN_METRICS = (
    [(f"fields.fp.{k}", ("calls", "s") + {"matmul": ("madds",), "asarray": ("elems",)}
      .get(k, ())) for k in FIELD_KERNELS]
    + [("linalg.solve", ("calls", "s", "inconsistent")), ("linalg.kernel", ("calls", "s")),
       ("linalg.quotient", ("calls", "s")),
       ("algebra.construct", ("calls", "s")), ("algebra.check_map", ("calls", "s")),
       ("bimodule.validate", ("calls", "s")),
       ("bimodule.tensor_over", ("calls", "s", "ambient")),
       ("bimodule.right_dual", ("calls", "s")), ("bimodule.left_dual", ("calls", "s")),
       ("bimodule.dual_basis", ("calls", "s")), ("bimodule.end_algebra", ("calls", "s")),
       ("bimodule.hom", ("calls", "s")), ("bimodule.s_iso", ("calls", "s")),
       ("bimodule.iso_search", ("calls", "s", "solves", "found", "none", "inconclusive")),
       ("coring.validate", ("calls", "s", "full", "light")),
       ("coring.square", ("calls", "s", "refused")),
       ("coring.sweedler", ("calls", "s")), ("coring.dual_ring", ("calls", "s")),
       ("coring.verify", ("calls", "s")),
       ("comatrix.data", ("calls", "s")), ("comatrix.context", ("calls", "s")),
       ("comatrix.context_iso", ("calls", "s")), ("comatrix.anti_iso", ("calls", "s")),
       ("structure.tower", ("calls", "s")),
       ("definitions.loads", ("calls", "s"))]
    + [(f"structure.decider.{flag}", ("s",)) for flag in FLAGS]
    + [(f"structure.transport.{fn}", ("s",)) for fn in TRANSPORTS]
    + [("cli.report_document", ("s",)), ("cli.construct_doc", ("s",)),
       ("cli.verify_witnesses", ("s",))]
)
_RREF_METRICS = ("calls", "self_s", "cells", "max_cells", "rank")


def metric_names() -> list[str]:
    """Every per-layer metric a traced run reports, in order."""
    names = [f"{span}.{suffix}" for span, suffixes in _SPAN_METRICS for suffix in suffixes]
    names += [f"linalg.rref.fp.{k}" for k in _RREF_METRICS]
    names += ["coring.cointegral.unknowns", "coring.frobenius.invariants",
              "coring.frobenius.found", "coring.frobenius.none",
              "coring.frobenius.inconclusive", "cli.serialize.s"]
    names += [f"outcome.{o}" for o in OUTCOMES]
    return names


def self_times(spans) -> list[float]:
    """Self time of each span: its duration minus the part of its interval
    that its direct children cover (children never overlap each other)."""
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent is not None:
            own[parent] -= end - start
    return own


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter()
        self._stack: list = []
        self._open: Counter = Counter()
        self.case = None
        self._case_start = 0
        self.subject = None  # the bimodule of the running analysis
        self.sweedler_ids: set = set()  # Sweedler corings built in this case

    # -- recording ------------------------------------------------------------

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self.case])
        idx = len(self.spans) - 1
        self._stack.append(idx)
        self._open[name] += 1
        return idx

    def close(self, idx: int) -> None:
        span = self.spans[idx]
        span[2] = time.perf_counter()
        self._stack.pop()
        self._open[span[0]] -= 1

    def is_open(self, name: str) -> bool:
        return self._open[name] > 0

    def parent_name(self) -> str | None:
        return self.spans[self._stack[-1]][0] if self._stack else None

    @contextmanager
    def span(self, name: str):
        idx = self.open(name)
        try:
            yield
        finally:
            self.close(idx)

    def abort(self) -> None:
        """End every span of the case that is still open.  A case interrupted
        by its time cap can leave spans open, even half-recorded inside
        ``open`` or ``close``."""
        now = time.perf_counter()
        for span in self.spans[self._case_start:]:
            if span[2] is None:
                span[2] = now
        self._stack.clear()
        self._open.clear()

    def add(self, key: str, n: int = 1) -> None:
        """Add to a counter; counters count inside the timed region only."""
        if self._open["case"]:
            self.counts[key] += n

    def peak(self, key: str, value: int) -> None:
        """Raise a counter that keeps a maximum."""
        if self._open["case"] and value > self.counts[key]:
            self.counts[key] = value

    def begin_case(self, cid: str) -> None:
        self.case = cid
        self._case_start = len(self.spans)
        self.subject = None
        self.sweedler_ids.clear()

    # -- wrapping -------------------------------------------------------------

    def wrap(self, fn, name, after=None, before=None):
        """``fn`` inside a span; ``name`` is a string or a function of the
        call's arguments; ``after(args, result)`` updates counters."""
        tracer = self

        @wraps(fn)
        def wrapped(*args, **kwargs):
            label = name if isinstance(name, str) else name(args)
            if tracer.is_open(label):
                return fn(*args, **kwargs)
            if before is not None:
                before(args)
            idx = tracer.open(label)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if after is not None:
                after(args, result)
            return result

        return wrapped

    def install(self) -> None:
        from coring_lab import (algebra, bimodule, cli, comatrix, coring, definitions,
                                linalg, structure)
        from coring_lab.fields import PrimeField

        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "coring_lab" or n.startswith("coring_lab.")]
        add, peak = self.add, self.peak

        def rebind(module, attr, name, after=None, before=None):
            orig = getattr(module, attr)
            new = self.wrap(orig, name, after, before)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, key, new)

        # fields: the F_p kernels, counters from shapes
        def madds(args, result):
            a, b = np.shape(args[1]), np.shape(args[2])
            inner = a[-1] if a else 1
            rows = int(np.prod(a[:-1])) if len(a) > 1 else 1
            cols = b[-1] if len(b) > 1 else 1
            add("fields.fp.matmul.madds", rows * inner * cols)

        def elems(args, result):
            add("fields.fp.asarray.elems", getattr(result, "size", 0))

        hooks = {"matmul": madds, "asarray": elems}
        for kernel in FIELD_KERNELS:
            setattr(PrimeField, kernel, self.wrap(PrimeField.__dict__[kernel],
                                                  f"fields.fp.{kernel}", hooks.get(kernel)))

        # linalg
        def rref_count(args, result):
            cells = int(result[0].size)
            add("linalg.rref.fp.cells", cells)
            peak("linalg.rref.fp.max_cells", cells)
            add("linalg.rref.fp.rank", len(result[1]))

        rebind(linalg, "rref", "linalg.rref.fp", rref_count)

        def solve_count(args, result):
            if result is None:
                add("linalg.solve.inconsistent", 1)
            if self.is_open("bimodule.iso_search"):
                add("bimodule.iso_search.solves", 1)
            parent = self.parent_name()
            if parent in ("structure.decider.comatrix_coseparable",
                          "structure.decider.sweedler_coseparable"):
                add("coring.cointegral.unknowns", int(args[1].shape[1]))
            elif parent in ("structure.decider.comatrix_frobenius",
                            "structure.decider.sweedler_frobenius"):
                add("coring.frobenius.invariants", 1)

        # solve_linear and kernel_basis reach these through linalg's globals
        rebind(linalg, "_solve", "linalg.solve", solve_count)
        rebind(linalg, "_kernel", "linalg.kernel")
        qp = linalg.QuotientPresentation
        qp.from_relations = classmethod(self.wrap(qp.__dict__["from_relations"].__func__,
                                                  "linalg.quotient"))

        # algebra
        algebra.Algebra.__init__ = self.wrap(algebra.Algebra.__init__, "algebra.construct")
        rebind(algebra, "check_algebra_map", "algebra.check_map")

        # bimodule
        bimodule.Bimodule.validate = self.wrap(bimodule.Bimodule.validate, "bimodule.validate")

        def ambient(args, result):
            peak("bimodule.tensor_over.ambient", args[0].dim * args[1].dim)

        rebind(bimodule, "tensor_over", "bimodule.tensor_over", ambient)
        rebind(bimodule, "right_dual", "bimodule.right_dual")
        rebind(bimodule, "left_dual", "bimodule.left_dual")
        for attr in ("dual_basis", "left_dual_basis"):
            rebind(bimodule, attr, "bimodule.dual_basis")
        for attr in ("endomorphism_algebra", "left_endomorphism_algebra"):
            rebind(bimodule, attr, "bimodule.end_algebra")
        for attr in ("hom_bimodule", "one_sided_hom"):
            rebind(bimodule, attr, "bimodule.hom")
        rebind(bimodule, "canonical_s_iso", "bimodule.s_iso")

        def iso_status(args, result):
            add(f"bimodule.iso_search.{result.status}", 1)

        rebind(bimodule, "random_bimodule_iso", "bimodule.iso_search", iso_status)

        # coring
        cor = coring.Coring

        def validation_mode(args, result):
            add(f"coring.validate.{args[0].validation}", 1)

        cor.validate = self.wrap(cor.validate, "coring.validate", validation_mode)
        square_fget = cor.__dict__["square"].fget
        build_square = self.wrap(square_fget, "coring.square")

        def square(c):
            if c._square is not None:
                return c._square
            try:
                return build_square(c)
            except coring.CoringAxiomError:
                add("coring.square.refused", 1)
                raise

        cor.square = property(square, doc=cor.__dict__["square"].__doc__)

        def remember_sweedler(args, result):
            self.sweedler_ids.add(id(result))

        rebind(coring, "sweedler_coring", "coring.sweedler", remember_sweedler)
        rebind(coring, "left_dual_ring", "coring.dual_ring")
        rebind(coring, "verify_cointegral", "coring.verify")
        rebind(coring, "verify_frobenius_system", "coring.verify")
        rebind(coring, "_frobenius_via_dual_ring_iso", "coring.frobenius_dual_ring_iso")

        def on_coring(flag):
            def name(args):
                which = "sweedler" if id(args[0]) in self.sweedler_ids else "comatrix"
                return f"structure.decider.{which}_{flag}"
            return name

        def frobenius_status(args, result):
            add(f"coring.frobenius.{result.status}", 1)

        rebind(coring, "is_cosplit", on_coring("cosplit"))
        rebind(coring, "find_cointegral", on_coring("coseparable"))
        rebind(coring, "find_frobenius_system", on_coring("frobenius"), frobenius_status)

        # comatrix
        rebind(comatrix, "comatrix_data", "comatrix.data")
        rebind(comatrix, "context_from_bimodule", "comatrix.context")
        rebind(comatrix, "context_iso", "comatrix.context_iso")
        rebind(comatrix, "left_dual_anti_iso", "comatrix.anti_iso")

        # structure
        rebind(structure, "bimodule_tower", "structure.tower")

        def separable_name(args):
            mine = self.subject is None or args[0] is self.subject
            return f"structure.decider.{'m' if mine else 'mstar'}_separable"

        rebind(structure, "is_separable_bimodule", separable_name)
        for attr, flag in (("is_frobenius_bimodule", "m_frobenius"),
                           ("split_extension_check", "extension_split"),
                           ("frobenius_extension_check", "extension_frobenius"),
                           ("faithfully_flat_check", "b_s_faithfully_flat"),
                           ("williard_check", "williard")):
            rebind(structure, attr, f"structure.decider.{flag}")
        for fn in TRANSPORTS:
            rebind(structure, fn, f"structure.transport.{fn}")

        def set_subject(args):
            self.subject = args[0]

        rebind(structure, "analyze", "structure.analyze", before=set_subject)

        # definitions and cli
        rebind(definitions, "loads", "definitions.loads")
        rebind(cli, "report_document", "cli.report_document")
        rebind(cli, "cmd_construct", "cli.construct_doc")
        rebind(cli, "_coring_document", "cli.construct_doc")
        rebind(cli, "verify_report_witnesses", "cli.verify_witnesses")

    # -- reporting ------------------------------------------------------------

    def metrics(self) -> dict:
        """Per-layer metrics over the spans under the ``case`` roots (the
        timed region), plus ``cli.verify_witnesses`` from the ``check`` roots."""
        spans = self.spans
        own = self_times(spans)
        root = [None] * len(spans)
        for i, (name, _, _, parent, _) in enumerate(spans):
            root[i] = name if parent is None else root[parent]
        calls: Counter = Counter()
        secs: Counter = Counter()
        self_s: Counter = Counter()
        for i, (name, start, end, _, _) in enumerate(spans):
            if root[i] == "case" or name == "cli.verify_witnesses":
                calls[name] += 1
                secs[name] += end - start
                self_s[name] += own[i]
        out = {}
        for name in metric_names():
            span, _, suffix = name.rpartition(".")
            if suffix == "calls":
                out[name] = calls[span]
            elif suffix == "s":
                out[name] = secs[span]
            elif suffix == "self_s":
                out[name] = self_s[span]
            else:
                out[name] = self.counts[name]
        out["cli.serialize.s"] = (secs["cli.report_document"] - secs["structure.analyze"]
                                  + secs["cli.dump"])
        return out

    def write(self, path: Path) -> dict:
        """Write every span (gzipped JSON lines) and return ``metrics()``."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
        return self.metrics()
