"""Per-document kernel A/B: two trees' PDF kernels in one process.

    python scripts/kernel_ab.py PARENT_DIR CHANGE_DIR --seed 7 [--convs 700] [--reps 5]

Generates ``pdf_mix`` traffic (``perfbench.workloads.gen_pdf_mix`` of
CHANGE_DIR) and runs every PDF payload through both trees'
``pdf4py_ray.kernel.text.extract_pdf_text``. Each tree is imported
under the same package name, one after the other; the functions keep
their own module globals, so both kernels stay callable side by side.

Each document's output ``(text, spans, n_objects)``, or its exception
type and message, must be equal on both sides; the script exits 1 on
the first difference. Each document is timed ``--reps`` times per side,
in rounds that run both sides back to back, the side that goes first
alternating from document to document; the minimum counts. The table
sums those minima by class: ``plain``, ``enc V2`` (RC4), ``enc V4``
(AESV2), ``enc V5`` (AESV3), ``objstm``, ``big`` (a document of 100
pages or more) and ``error`` (truncated payloads). A repeated payload
is timed once.

The minimum of a few repetitions is robust to a host whose speed
drifts, which makes this the tool for attributing a kernel change to
document classes. It is not a measure of end-to-end throughput:
perfbench is.
"""

from __future__ import annotations

import argparse
import base64
import importlib
import json
import os
import re
import sys
import tempfile
import time

BIG_PAGES = 100


def _purge(prefixes=("pdf4py_ray", "perfbench")) -> None:
    for name in list(sys.modules):
        if name.split(".")[0] in prefixes:
            del sys.modules[name]


def load_kernel(tree: str):
    """``extract_pdf_text`` of ``tree``'s package, imported afresh."""
    tree = os.path.abspath(tree)
    _purge()
    sys.path.insert(0, tree)
    try:
        mod = importlib.import_module("pdf4py_ray.kernel.text")
    finally:
        sys.path.remove(tree)
        _purge()
    if not os.path.abspath(mod.__file__).startswith(tree + os.sep):
        raise RuntimeError(f"imported {mod.__file__}, not from {tree}")
    return mod.extract_pdf_text


def pdf_payloads(tree: str, seed: int, convs: int) -> list:
    """The distinct PDF payloads of one ``pdf_mix`` input, in row order."""
    tree = os.path.abspath(tree)
    _purge()
    sys.path.insert(0, tree)
    try:
        import pyarrow.parquet as pq

        from perfbench import workloads

        with tempfile.TemporaryDirectory() as work:
            inp = workloads.gen_pdf_mix(seed, work, n_conv=convs)
            table = pq.read_table(inp.input_dir, columns=["tool", "text"])
    finally:
        sys.path.remove(tree)
        _purge()
    seen, out = set(), []
    for tool, text in zip(table["tool"].to_pylist(), table["text"].to_pylist()):
        if tool != "pdf_reader" or text in seen:
            continue
        seen.add(text)
        out.append(base64.b64decode(json.loads(text)["pdf_b64"]))
    return out


def run(fn, data: bytes):
    try:
        return fn(data)
    except Exception as e:  # error rows compare by type and message
        return (type(e).__name__, str(e))


def doc_class(data: bytes, result) -> str:
    if isinstance(result[0], str) and isinstance(result[1], str):
        return "error"
    if sum(kind == "page" for _, _, kind in result[1]) >= BIG_PAGES:
        return "big"
    if b"/Encrypt" in data:
        m = re.search(rb"/V (\d)", data)
        return f"enc V{m.group(1).decode() if m else '?'}"
    if b"/ObjStm" in data:
        return "objstm"
    return "plain"


def timed_min(kernels: dict, order: tuple, data: bytes, reps: int) -> dict:
    """Minimum time per side over ``reps`` rounds; each round runs the
    sides in ``order``, so a drift in host speed falls on both."""
    best = dict.fromkeys(order, float("inf"))
    for _ in range(reps):
        for side in order:
            t0 = time.perf_counter()
            run(kernels[side], data)
            best[side] = min(best[side], time.perf_counter() - t0)
    return best


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent_dir")
    ap.add_argument("change_dir")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--convs", type=int, default=700, help="conversations (pdf_mix has 700)")
    ap.add_argument("--reps", type=int, default=5, help="timings per document and side")
    args = ap.parse_args(argv)

    docs = pdf_payloads(args.change_dir, args.seed, args.convs)
    kernels = {"parent": load_kernel(args.parent_dir), "change": load_kernel(args.change_dir)}
    totals: dict = {}
    for i, data in enumerate(docs):
        results = {side: run(fn, data) for side, fn in kernels.items()}
        if results["parent"] != results["change"]:
            print(f"document {i}: outputs differ\n  parent {results['parent']!r:.300}\n"
                  f"  change {results['change']!r:.300}")
            return 1
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        times = timed_min(kernels, order, data, args.reps)
        row = totals.setdefault(doc_class(data, results["parent"]), [0, 0.0, 0.0])
        row[0] += 1
        row[1] += times["parent"]
        row[2] += times["change"]

    all_p = sum(r[1] for r in totals.values())
    all_c = sum(r[2] for r in totals.values())
    gain = all_p - all_c
    print(f"seed {args.seed}: {len(docs)} distinct PDFs, outputs equal on every one")
    print("| class | docs | parent ms | change ms | speedup | share of parent time "
          "| share of gain |")
    print("|---|---|---|---|---|---|---|")
    for name in sorted(totals, key=lambda k: -totals[k][1]):
        n, p, c = totals[name]
        print(f"| {name} | {n} | {p * 1e3:.1f} | {c * 1e3:.1f} | {p / c:.2f}x "
              f"| {p / all_p:.2f} | {(p - c) / gain if gain else float('nan'):.2f} |")
    print(f"| all | {len(docs)} | {all_p * 1e3:.1f} | {all_c * 1e3:.1f} | {all_p / all_c:.2f}x "
          f"| 1.00 | 1.00 |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
