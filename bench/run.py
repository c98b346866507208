"""The coring-lab benchmark: time to a verified verdict, case by case.

    python3 bench/run.py --workload analyze-fp --seed 0 --seconds 30 --trace 0

One client (this process) drives one worker process (``worker.py``) in a
closed loop: it sends the next case only after the previous one has
answered.  A run sets up a worker several times (``setup_s``), then runs
whole passes over the workload's cases (``corpus.py``) until ``--seconds``
have gone by, at least two passes were made and ``MIN_DECIDED`` cases were
decided.  A case that fails, times out or answers wrongly is charged the
workload's time cap.  A case that failed in an earlier pass of the same run
is not run again and is charged the cap again: the library is deterministic
and the charge does not depend on its time.

With ``--trace 0`` the last line of stdout holds the end-to-end metrics; with
``--trace 1`` it holds the per-layer metrics of a traced pass
(``tracing.py``) together with the tracing overhead.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import selectors
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
sys.path.insert(0, str(BENCH))

import corpus  # noqa: E402
from tracing import OUTCOMES  # noqa: E402

# Per-case time cap in seconds, charged to every case that is not ok.
CAP_S = {"analyze-fp": 1.5, "construct-fp": 5.0}
SETUPS = 3  # worker set-ups per run; setup_s is their median
# Decided cases a run collects at least: the median over many passes drops
# the slow ones.
MIN_DECIDED = {"analyze-fp": 200, "construct-fp": 130}
MIN_ABOVE_P90 = 10  # decided samples a run leaves above case_s.p90
SETUP_TIMEOUT_S = 120.0
GRACE_S = 10.0  # a worker silent this long past the cap is killed
# A run starts no case after this many seconds; the cases left are charged
# the cap as timeouts, so that every run ends within its time limit.
RUN_LIMIT_S = 150.0
# The worker's BLAS runs on one thread: the client and the worker share a
# machine of few cores, and idle BLAS threads that spin for work make the
# time of a case depend on the load of the other cores.
WORKER_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def percentile(values, q: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least q percent
    of the samples at or below it."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("no samples")
    rank = max(1, -(-len(ordered) * q // 100))  # ceil(n * q / 100)
    return ordered[int(rank) - 1]


def above(values, threshold: float) -> int:
    return sum(1 for v in values if v > threshold)


def pass_percentile(passes: list, q: float, cap: float) -> float:
    """The q-th percentile of the decided cases of each pass, median over
    the passes.  A burst of load on the machine slows every case of a pass
    or two; pooled, those samples would fill the top tenth."""
    return statistics.median(
        percentile([r["charged_s"] for r in p if r["status"] == "ok"] or [cap], q)
        for p in passes)


def above_p90(passes: list, cap: float) -> int:
    """Decided samples of all passes above case_s.p90."""
    decided = [r["charged_s"] for p in passes for r in p if r["status"] == "ok"]
    return above(decided, pass_percentile(passes, 90, cap))


class WorkerProcess:
    """One worker; ``setup_s`` is the wall time from spawn to ready."""

    def __init__(self, workload: str, seed: int, trace: bool):
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH / "worker.py"), "--root", str(ROOT),
             "--workload", workload, "--seed", str(seed), "--trace", str(int(trace))],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, cwd=str(ROOT), text=True,
            bufsize=1, env={**os.environ, **WORKER_ENV})
        self.selector = selectors.DefaultSelector()
        self.selector.register(self.proc.stdout, selectors.EVENT_READ)
        self.peak_kb = 0
        ready = self._reply(SETUP_TIMEOUT_S)
        if ready is None or not ready.get("ready"):
            self.kill()
            raise RuntimeError(f"worker for {workload} did not start")
        self.setup_s = time.perf_counter() - t0

    def _reply(self, timeout: float):
        if not self.selector.select(timeout):
            return None
        line = self.proc.stdout.readline()
        if not line:
            return None
        reply = json.loads(line)
        self.peak_kb = max(self.peak_kb, reply.get("rss_kb", 0))
        return reply

    def request(self, msg: dict, timeout: float):
        """The reply, or None when the worker timed out or died."""
        try:
            self.proc.stdin.write(json.dumps(msg) + "\n")
            self.proc.stdin.flush()
        except BrokenPipeError:
            return None
        return self._reply(timeout)

    def _read_hwm_kb(self) -> None:
        try:
            with open(f"/proc/{self.proc.pid}/status", encoding="ascii") as fh:
                for line in fh:
                    if line.startswith("VmHWM:"):
                        self.peak_kb = max(self.peak_kb, int(line.split()[1]))
        except OSError:
            pass

    def kill(self) -> None:
        self._read_hwm_kb()
        self.proc.kill()
        self.proc.wait()
        self._close_pipes()

    def close(self) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self._close_pipes()

    def _close_pipes(self) -> None:
        self.selector.close()
        for pipe in (self.proc.stdin, self.proc.stdout):
            try:
                pipe.close()
            except (BrokenPipeError, ValueError):
                pass


def load_answers(workload: str) -> dict:
    path = BENCH / "answers" / f"{workload}.json"
    return json.loads(path.read_text(encoding="utf-8"))["cases"]


def check(reply: dict, expected: dict | None) -> str:
    """'ok' or 'wrong' for the first output of a case."""
    if reply.get("witnesses_ok") is False:
        return "wrong"
    if expected is None:
        return "ok"
    if "flags" in reply:
        for flag, want in expected.get("flags", {}).items():
            got = reply["flags"].get(flag)
            if "inconclusive" not in (want, got) and want != got:
                return "wrong"
    if "dims" in reply and expected.get("dims") not in (None, reply["dims"]):
        return "wrong"
    return "ok"


class Session:
    """The worker of one run: restarted when it stops answering."""

    def __init__(self, workload: str, seed: int, trace: bool, cap: float | None = None):
        self.workload, self.seed, self.trace = workload, seed, trace
        self.cap = CAP_S[workload] if cap is None else cap
        self.setups: list[float] = []
        self.peak_kb = 0
        self.worker = None
        self.restart()

    def restart(self) -> None:
        if self.worker is not None:
            self.worker.kill()
            self.peak_kb = max(self.peak_kb, self.worker.peak_kb)
        self.worker = WorkerProcess(self.workload, self.seed, self.trace)
        self.setups.append(self.worker.setup_s)

    def case(self, cid: str, check: bool = True) -> dict:
        reply = self.worker.request({"op": "case", "id": cid, "cap": self.cap,
                                     "check": check}, self.cap + GRACE_S)
        if reply is None:
            status = "timeout" if self.worker.proc.poll() is None else "error"
            self.restart()
            return {"id": cid, "status": status, "time_s": self.cap,
                    "error": "worker killed" if status == "timeout" else "worker died"}
        return reply

    def close(self) -> None:
        self.worker.close()
        self.peak_kb = max(self.peak_kb, self.worker.peak_kb)


def run_passes(session: Session, ids: list, answers: dict, seconds: float,
               min_ok: int, min_passes: int, started: float, min_above: int = 0) -> list:
    """Whole passes over ``ids``: at least ``min_passes``, and more while
    fewer than ``seconds`` have gone by, fewer than ``min_ok`` cases were
    decided or fewer than ``min_above`` decided samples lie above
    ``case_s.p90``.  Returns one result list per pass.

    The worker is restarted after the first pass, so that ``session.peak_kb``
    is the peak of workers that ran decided cases only."""
    passes: list = []
    failed: dict = {}
    digests: dict = {}  # case id -> digest of its first, checked output
    t0 = time.perf_counter()
    while True:
        pass_started = time.perf_counter()
        results = []
        for cid in ids:
            if cid in failed:
                results.append(dict(failed[cid], replayed=True))
                continue
            if time.perf_counter() - started > RUN_LIMIT_S:
                reply = {"id": cid, "status": "timeout", "time_s": session.cap,
                         "error": "not started: run time limit"}
            else:
                reply = session.case(cid, check=cid not in digests)
            if reply["status"] == "ok" and cid not in digests:
                digests[cid] = reply["digest"]
                reply["status"] = check(reply, answers.get(cid))
            elif reply["status"] == "ok" and reply["digest"] != digests[cid]:
                reply.update(status="wrong", error="output bytes changed between passes")
            reply["charged_s"] = reply["time_s"] if reply["status"] == "ok" else session.cap
            if reply["status"] != "ok":
                failed[cid] = reply
            results.append(reply)
        passes.append(results)
        now = time.perf_counter()
        ok = sum(1 for p in passes for r in p if r["status"] == "ok")
        if not any(r["status"] == "ok" for r in results):
            return passes
        if (len(passes) >= min_passes and now - t0 >= seconds and ok >= min_ok
                and above_p90(passes, session.cap) >= min_above):
            return passes
        if now - started + (now - pass_started) > RUN_LIMIT_S:
            return passes
        if len(passes) == 1:
            session.restart()
            session.peak_kb = 0


def end_to_end(passes: list, setups: list, peak_kb: int, cap: float) -> dict:
    """name -> (value, unit).  The percentiles are over the decided cases
    (see README.md); total_s charges the cap to every other case."""
    totals = [sum(r["charged_s"] for r in p) for p in passes]
    ok = sum(1 for p in passes for r in p if r["status"] == "ok")
    return {
        "case_s.p50": (pass_percentile(passes, 50, cap), "s"),
        "case_s.p90": (pass_percentile(passes, 90, cap), "s"),
        "total_s": (statistics.median(totals), "s"),
        "ok_frac": (ok / sum(len(p) for p in passes), "fraction"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (peak_kb / 1024.0, "MB"),
    }


def per_layer(session: Session, results: list, untraced_total: float) -> dict:
    """name -> (value, unit): the per-layer metrics of the traced pass, its
    outcome counts and the tracing overhead against the untraced pass."""
    path = OUT / f"spans-{session.workload}-{session.seed}.jsonl.gz"
    reply = session.worker.request({"op": "spans", "path": str(path)}, SETUP_TIMEOUT_S)
    if reply is None:
        raise RuntimeError("traced worker did not return its spans")
    metrics = reply["metrics"]
    for outcome in OUTCOMES:
        metrics[f"outcome.{outcome}"] = sum(1 for r in results if r["status"] == outcome)
    traced_total = sum(r["charged_s"] for r in results)
    metrics["trace.total_s"] = traced_total
    metrics["trace.overhead_s"] = traced_total - untraced_total
    return {name: (value, unit_of(name)) for name, value in metrics.items()}


def unit_of(name: str) -> str:
    suffix = name.rsplit(".", 1)[-1]
    return "s" if suffix in ("s", "self_s", "total_s", "overhead_s") else "count"


def environment() -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "nproc": os.cpu_count(), "machine": platform.machine(),
            "worker_env": WORKER_ENV}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=corpus.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "coring_lab" / "__init__.py").is_file():
        print(f"error: no coring_lab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    started = time.perf_counter()
    answers = load_answers(args.workload)
    ids = corpus.case_ids(args.workload, args.seed)
    env = environment()
    OUT.mkdir(exist_ok=True)
    (OUT / "environment.json").write_text(json.dumps(env, indent=1) + "\n", encoding="utf-8")

    if args.trace:
        plain = Session(args.workload, args.seed, trace=False)
        try:
            untraced = run_passes(plain, ids, answers, 0, 0, 1, started)[0]
        finally:
            plain.close()
        traced_session = Session(args.workload, args.seed, trace=True)
        try:
            traced = run_passes(traced_session, ids, answers, 0, 0, 1, started)[0]
            metrics = per_layer(traced_session, traced,
                                sum(r["charged_s"] for r in untraced))
        finally:
            traced_session.close()
        results = traced
        wrong = any(r["status"] == "wrong" for r in untraced + traced)
    else:
        setups = []
        for _ in range(SETUPS - 1):
            extra = WorkerProcess(args.workload, args.seed, trace=False)
            setups.append(extra.setup_s)
            extra.close()
        session = Session(args.workload, args.seed, trace=False)
        try:
            passes = run_passes(session, ids, answers, args.seconds,
                                MIN_DECIDED[args.workload], 2, started, MIN_ABOVE_P90)
        finally:
            session.close()
        metrics = end_to_end(passes, setups + session.setups, session.peak_kb, session.cap)
        results = [r for p in passes for r in p]
        wrong = any(r["status"] == "wrong" for r in results)
        decided = [r["charged_s"] for r in results if r["status"] == "ok"]
        print(f"passes {len(passes)}, decided samples {len(decided)}, above p90 "
              f"{above(decided, metrics['case_s.p90'][0])}, "
              f"setups {len(setups) + len(session.setups)}, cap {session.cap} s")

    first_pass = results[:len(ids)]
    counts = {o: sum(1 for r in first_pass if r["status"] == o) for o in OUTCOMES}
    print(f"{args.workload} seed {args.seed}: " + ", ".join(f"{k} {v}" for k, v in counts.items()))
    for r in first_pass:
        times = [x["time_s"] for x in results if x["id"] == r["id"]]
        print(f"  {r['id']:36s} {r['status']:10s} {statistics.median(times):8.3f} s"
              f"  {r.get('error', '')}")
    for name, (value, unit) in metrics.items():
        print(f"{name:48s} {value:14.6f} {unit}" if isinstance(value, float)
              else f"{name:48s} {value:14d} {unit}")
    print(json.dumps({
        "correct": not wrong,
        "attempted": len(results),
        "failed": sum(1 for r in results if r["status"] != "ok"),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
