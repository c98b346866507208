"""Record the answer tables the benchmark checks its outputs against.

    python3 bench/record_answers.py

Runs every case of every workload once at seed 0 with a generous cap and
writes ``answers/<workload>.json``: the flags of every decided analysis, or
the carrier and ring dimensions of every decided construction.  Both are
isomorphism invariants, so one table serves every seed.  A case that is not
decided at recording time gets no entry and is checked by its witnesses only.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import corpus  # noqa: E402
import run  # noqa: E402

RECORD_CAP_S = 30.0


def record(workload: str) -> dict:
    session = run.Session(workload, 0, trace=False, cap=RECORD_CAP_S)
    cases = {}
    try:
        for cid in corpus.case_ids(workload, 0):
            reply = session.case(cid)
            print(f"{workload} {cid}: {reply['status']} {reply['time_s']:.2f} s", flush=True)
            if reply["status"] != "ok":
                continue
            if reply.get("witnesses_ok") is False:
                raise SystemExit(f"{cid}: witnesses fail to verify")
            entry = {k: reply[k] for k in ("flags", "dims") if k in reply}
            cases[cid] = entry
    finally:
        session.close()
    return cases


def main() -> int:
    stamp = time.strftime("%Y-%m-%d")
    for workload in corpus.WORKLOADS:
        doc = {"recorded": stamp, "seed": 0, "cap_s": RECORD_CAP_S,
               "cases": record(workload)}
        path = BENCH / "answers" / f"{workload}.json"
        path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")
        print(f"wrote {path} ({len(doc['cases'])} cases)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
