"""Load generator for ``serve-mixed``: runs in its own process, talks over the socket.

    python3 -m perfbench.loadgen <spec.json> <results.json>

The spec holds the daemon socket, the phase lengths, the offered rate and
the operations to send (planned by the host from the workload seed).

* **Phase A, open loop** — operation ``i`` is due at ``start + i / rate``
  whatever the daemon is doing, as independent users send.  A dispatcher
  thread hands each operation to whichever of the connections is free at
  its due time; latency is measured from the due time, so a stall also
  charges the requests queued behind it.  How late the dispatcher itself
  ran is reported, so a generator that fell behind its schedule shows.
* **Phase B, closed loop** — each connection sends its next operation as
  soon as the previous one is answered, which measures capacity.

Every request is recorded with its due, send and completion times, its
outcome and the rows it returned or changed.
"""

from __future__ import annotations

import json
import queue
import sys
import threading
import time


def _execute(client, op: dict, queries: list, spare: list) -> dict:
    """Send one operation; returns the fields to record about its outcome."""
    kind = op["kind"]
    if kind == "query":
        return {"rows": client.query({"tokens": queries[op["q"]]})}
    if kind in ("topk_exact", "topk_estimate"):
        rows = client.top_k(
            {"tokens": queries[op["q"]]}, k=op["k"], rank_by=kind.split("_")[1]
        )
        return {"rows": rows, "degraded": bool(client.last_response.get("degraded"))}
    if kind == "insert":
        return {"assigned": client.insert([{"tokens": spare[d]} for d in op["docs"]])}
    return {"deleted": client.delete(op["rows"])}


def _send(client, record: dict, op: dict, spec: dict) -> dict:
    record["sent"] = time.perf_counter()
    try:
        record.update(_execute(client, op, spec["queries"], spec["spare"]))
        record["ok"] = True
    except Exception as exc:  # every failure is a recorded miss, never a crash
        record["ok"] = False
        record["error"] = f"{type(exc).__name__}: {exc}"
    record["done"] = time.perf_counter()
    return record


def main(spec_path: str, out_path: str) -> int:
    from repro.serving.client import DaemonClient

    with open(spec_path) as handle:
        spec = json.load(handle)
    clients = [
        DaemonClient(spec["socket"], timeout=60.0) for _ in range(spec["connections"])
    ]
    records: list = []
    lock = threading.Lock()

    # ---------------- phase A: open loop ----------------
    handoff: queue.Queue = queue.Queue()

    def open_connection(client):
        while (item := handoff.get()) is not None:
            index, op, due, dispatched = item
            record = {"i": index, "phase": "A", "kind": op["kind"], "due": due,
                      "dispatched": dispatched}
            _send(client, record, op, spec)
            with lock:
                records.append(record)

    threads = [threading.Thread(target=open_connection, args=(c,)) for c in clients]
    for thread in threads:
        thread.start()
    rate = float(spec["rate"])
    start_a = time.perf_counter() + 0.05
    for index, op in enumerate(spec["phase_a"]):
        due = start_a + index / rate
        delay = due - time.perf_counter()
        if delay > 0:
            time.sleep(delay)
        handoff.put((index, op, due, time.perf_counter()))
    for _ in threads:
        handoff.put(None)
    for thread in threads:
        thread.join()
    end_a = time.perf_counter()

    # ---------------- phase B: closed loop ----------------
    pending = iter(enumerate(spec["phase_b"]))
    start_b = time.perf_counter()
    end_b = start_b + float(spec["phase_b_seconds"])

    def closed_connection(client):
        while time.perf_counter() < end_b:
            with lock:
                item = next(pending, None)
            if item is None:
                return
            index, op = item
            record = {"i": index, "phase": "B", "kind": op["kind"]}
            record["due"] = time.perf_counter()
            _send(client, record, op, spec)
            with lock:
                records.append(record)

    threads = [threading.Thread(target=closed_connection, args=(c,)) for c in clients]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    for client in clients:
        client.close()

    with open(out_path, "w") as handle:
        json.dump(
            {
                "start_a": start_a,
                "end_a": end_a,
                "start_b": start_b,
                "end_b": end_b,
                "records": records,
            },
            handle,
        )
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:3]))
