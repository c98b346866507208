"""Worker process of the benchmark: the only process that imports the library.

It is started by ``run.py`` with the checkout root, the workload and the seed,
sets up (imports, builds the definition texts, runs one warm-up case), prints
a ``ready`` line, and then answers one JSON request per line on stdin with
one JSON reply per line on stdout:

* ``{"op": "case", "id": ..., "cap": ..., "check": ...}`` runs one case the
  way the command line does (``definitions.loads``, then
  ``cli.report_document`` or the constructions, then ``json.dumps``), times
  it, interrupts it when it runs past ``cap`` seconds, and replies with the
  digest of its output and, when ``check`` is set, with what the client
  checks: flags and witness verification, or dimensions;
* ``{"op": "spans", "path": ...}`` (traced workers only, started with
  ``--trace 1``) writes the recorded spans and replies with the per-layer
  metrics.

Library exceptions are classified here, from outside the library.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import json
import resource
import signal
import sys
import time
from pathlib import Path

CLI_SEED = 0  # the default seed of `coring-lab analyze`
# Heap limit of a worker.  A case that outgrows it fails with MemoryError
# (outcome "memory") instead of taking the memory of the machine: the k^4
# ladder rungs grow past 4 GB within five seconds.
HEAP_LIMIT_BYTES = 1 << 30

SIZE_ERROR_TEXT = "too large for a dense tensor-square"


class CaseTimeout(BaseException):
    """Raised by the interval timer at a case's time cap.  It is not an
    ``Exception``, so no ``except Exception`` in the library can catch it."""


def _import_library(root: Path):
    src = root / "src"
    if not (src / "coring_lab" / "__init__.py").is_file():
        raise SystemExit(f"no coring_lab package under {src}")
    sys.path.insert(0, str(src))
    import coring_lab

    if Path(coring_lab.__file__).resolve().parent != (src / "coring_lab").resolve():
        raise SystemExit(f"coring_lab imported from {coring_lab.__file__}, not {src}")


def classify(exc: BaseException) -> str:
    """Outcome class of an exception raised by a case."""
    from coring_lab.errors import CoringAxiomError, TooLargeToValidateError

    if isinstance(exc, TooLargeToValidateError):
        return "too_large"
    if isinstance(exc, MemoryError):
        return "memory"
    if isinstance(exc, CoringAxiomError) and SIZE_ERROR_TEXT in str(exc):
        return "size_error"
    return "error"


def analyze_case(text: str, name: str, span) -> tuple[str, dict]:
    """The calls of `coring-lab analyze --format json`; returns (stdout, doc).
    ``span(name)`` is a context manager around the JSON dump."""
    from coring_lab import cli, definitions

    deffile = definitions.loads(text)
    doc = cli.report_document(deffile, name, CLI_SEED)
    with span("cli.dump"):
        out = json.dumps(doc, indent=1, sort_keys=True)
    return out, doc


def construct_case(text: str, name: str, span) -> tuple[str, dict]:
    """The comatrix coring, left dual ring, Sweedler coring of B -> End_A(M),
    context iso and dual-ring anti-iso of one bimodule, each serialized the
    way `coring-lab construct` serializes a coring."""
    from coring_lab import cli, definitions
    from coring_lab.bimodule import endomorphism_algebra
    from coring_lab.comatrix import context_from_bimodule, context_iso, left_dual_anti_iso
    from coring_lab.coring import sweedler_coring

    deffile = definitions.loads(text)
    fld = deffile.field
    module = deffile.bimodules[name]
    comatrix = cli.cmd_construct(deffile, "comatrix", name)
    dual_ring = cli.cmd_construct(deffile, "dual-ring", name)
    sweedler = cli._coring_document(sweedler_coring(endomorphism_algebra(module).b_to_s),
                                    "sweedler", name, fld)
    ciso = context_iso(context_from_bimodule(module))
    anti = left_dual_anti_iso(module)
    docs = {
        "comatrix": comatrix,
        "dual-ring": dual_ring,
        "sweedler": sweedler,
        "context-iso": {"forward": cli._serialize_array(fld, ciso.forward.matrix),
                        "backward": cli._serialize_array(fld, ciso.backward.matrix)},
        "anti-iso": {"forward": cli._serialize_array(fld, anti.forward),
                     "backward": cli._serialize_array(fld, anti.backward)},
    }
    with span("cli.dump"):
        out = "".join(json.dumps(docs[k], indent=1, sort_keys=True) + "\n" for k in docs)
    return out, docs


def analyze_summary(text: str, out: str, doc: dict) -> dict:
    """Flags of a report, and whether its witnesses re-verify from the
    printed JSON."""
    from coring_lab import cli, definitions

    return {"flags": doc["flags"], "witnesses_ok": bool(
        cli.verify_report_witnesses(definitions.loads(text), json.loads(out)))}


def construct_summary(text: str, out: str, docs: dict) -> dict:
    """Basis-independent dimensions of the constructions."""
    fwd = docs["context-iso"]["forward"]
    anti = docs["anti-iso"]["forward"]
    return {"dims": {
        "comatrix": docs["comatrix"]["carrier_dim"],
        "dual-ring": docs["dual-ring"]["dim"],
        "sweedler": docs["sweedler"]["carrier_dim"],
        "context-iso": [len(fwd), len(fwd[0]) if fwd else 0],
        "anti-iso": [len(anti), len(anti[0]) if anti else 0],
    }}


OPS = {"analyze-fp": (analyze_case, analyze_summary),
       "construct-fp": (construct_case, construct_summary)}

WARMUP_ID = "bundled/gf2/dual-numbers/M"


class Worker:
    def __init__(self, root: Path, workload: str, seed: int):
        self.run_case, self.summarize = OPS[workload]
        _import_library(root)
        sys.path.insert(0, str(Path(__file__).resolve().parent))
        import corpus

        data = root / "src" / "coring_lab" / "data"
        self.texts = corpus.build_texts(workload, seed, data)
        self.tracer = None
        self.alarm_fired = False
        signal.signal(signal.SIGALRM, self._on_alarm)
        text, name = corpus.case_text(WARMUP_ID, seed, data)
        self.run_case(text, name, _no_span)
        gc.collect()
        gc.freeze()  # later collections skip the objects of the set-up

    def _on_alarm(self, signum, frame):
        self.alarm_fired = True
        raise CaseTimeout

    def case(self, cid: str, cap: float, check: bool) -> dict:
        """Run, time and classify one case; with ``check``, also summarize
        its output for the client to check (outside the timed region)."""
        text, name = self.texts[cid]
        span = _no_span if self.tracer is None else self.tracer.span
        if self.tracer is not None:
            self.tracer.begin_case(cid)
        self.alarm_fired = False
        gc.collect()  # every case starts from a collected heap, as a CLI run does
        t0 = time.perf_counter()
        try:
            signal.setitimer(signal.ITIMER_REAL, cap)
            try:
                with span("case"):
                    out, doc = self.run_case(text, name, span)
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
        except (CaseTimeout, Exception) as exc:  # every failure is an outcome
            elapsed = time.perf_counter() - t0
            if self.tracer is not None:
                self.tracer.abort()
            # C code that calls back into Python turns the timer's exception
            # into a SystemError, so the flag decides
            if self.alarm_fired:
                return {"id": cid, "status": "timeout", "time_s": elapsed}
            return {"id": cid, "status": classify(exc), "time_s": elapsed,
                    "error": f"{type(exc).__name__}: {exc}"[:300]}
        reply = {"id": cid, "status": "ok", "time_s": time.perf_counter() - t0,
                 "digest": hashlib.sha256(out.encode()).hexdigest()}
        if check:
            with span("check"):
                try:
                    reply.update(self.summarize(text, out, doc))
                except Exception as exc:  # noqa: BLE001 - an output that cannot be checked is wrong
                    reply.update(witnesses_ok=False, error=f"check failed: {exc!r}"[:300])
        return reply

    def install_trace(self) -> None:
        import tracing

        self.tracer = tracing.Tracer()
        self.tracer.install()


@contextlib.contextmanager
def _no_span(name):
    yield


def _maxrss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--root", required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, default=0)
    args = parser.parse_args(argv)
    resource.setrlimit(resource.RLIMIT_DATA, (HEAP_LIMIT_BYTES, HEAP_LIMIT_BYTES))
    worker = Worker(Path(args.root), args.workload, args.seed)
    if args.trace:
        worker.install_trace()
    out = sys.stdout
    out.write(json.dumps({"ready": True, "rss_kb": _maxrss_kb()}) + "\n")
    out.flush()
    for line in sys.stdin:
        req = json.loads(line)
        if req["op"] == "case":
            reply = worker.case(req["id"], req["cap"], req["check"])
        elif req["op"] == "spans":
            reply = {"metrics": worker.tracer.write(Path(req["path"]))}
        else:
            raise SystemExit(f"unknown request {req!r}")
        reply["rss_kb"] = _maxrss_kb()
        out.write(json.dumps(reply) + "\n")
        out.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
