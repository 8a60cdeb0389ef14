"""Per-document kernel A/B: two trees' kernels in one process.

    python scripts/kernel_ab.py PARENT_DIR CHANGE_DIR --seed 7 \
        [--workload pdf_mix|chat_sorted] [--convs N] [--reps 5]

Generates one perfbench input (``perfbench.workloads`` of CHANGE_DIR)
and runs its payloads through both trees' kernels. Each tree is
imported under the same package name, one after the other; the
functions keep their own module globals, so both kernels stay callable
side by side.

- ``pdf_mix`` (the default): every PDF payload through
  ``pdf4py_ray.kernel.text.extract_pdf_text``. Each document's output
  ``(text, spans, n_objects)``, or its exception type and message,
  must be equal on both sides. Classes: ``plain``, ``enc V2`` (RC4),
  ``enc V4`` (AESV2), ``enc V5`` (AESV3), ``objstm``, ``big`` (a
  document of 100 pages or more) and ``error`` (truncated payloads).
- ``chat_sorted``: every HTML page through
  ``pdf4py_ray.kernel.html_extract.extract_html_text`` (classes
  ``html`` and ``html link_farm``, the pages with a link sidebar),
  then the extracted texts of all pages as one batch through
  ``pdf4py_ray.stages.dedup.MinHashSignatures`` (class ``sketch``, one
  timed unit, as the serial job sketches them). Each page's
  ``(text, spans)`` and the sketch table must be equal on both sides.

The script exits 1 on the first difference. Each unit is timed
``--reps`` times per side, in rounds that run both sides back to back,
the side that goes first alternating from unit to unit; the minimum
counts, and the table sums those minima by class. A repeated payload
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
import operator
import os
import re
import sys
import tempfile
import time

BIG_PAGES = 100
SIDEBAR = "<div id='side'>"  # make_doc_html's link farm


def _purge(prefixes=("pdf4py_ray", "perfbench")) -> None:
    for name in list(sys.modules):
        if name.split(".")[0] in prefixes:
            del sys.modules[name]


def load(tree: str, *names: str) -> list:
    """The objects ``module:attr`` of ``tree``'s package, imported afresh."""
    tree = os.path.abspath(tree)
    _purge()
    sys.path.insert(0, tree)
    try:
        out = []
        for name in names:
            module, attr = name.split(":")
            mod = importlib.import_module(module)
            if not os.path.abspath(mod.__file__).startswith(tree + os.sep):
                raise RuntimeError(f"imported {mod.__file__}, not from {tree}")
            out.append(getattr(mod, attr))
    finally:
        sys.path.remove(tree)
        _purge()
    return out


def payloads(tree: str, workload: str, seed: int, convs) -> list:
    """The distinct PDF (``pdf_mix``) or HTML (``chat_sorted``) payloads
    of one perfbench input, in row order."""
    tree = os.path.abspath(tree)
    _purge()
    sys.path.insert(0, tree)
    try:
        import pyarrow.parquet as pq

        from perfbench import workloads

        gen = {"pdf_mix": workloads.gen_pdf_mix, "chat_sorted": workloads.gen_chat_sorted}
        kwargs = {} if convs is None else {"n_conv": convs}
        with tempfile.TemporaryDirectory() as work:
            inp = gen[workload](seed, work, **kwargs)
            table = pq.read_table(inp.input_dir, columns=["tool", "text"])
    finally:
        sys.path.remove(tree)
        _purge()
    tool = "pdf_reader" if workload == "pdf_mix" else "web_fetch"
    seen, out = set(), []
    for t, text in zip(table["tool"].to_pylist(), table["text"].to_pylist()):
        if t != tool or text in seen:
            continue
        seen.add(text)
        out.append(base64.b64decode(json.loads(text)["pdf_b64"]) if tool == "pdf_reader"
                   else text)
    return out


def run(fn, data):
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


def page_class(page: str) -> str:
    return "html link_farm" if SIDEBAR in page else "html"


def timed_min(fns: dict, order: tuple, data, reps: int) -> dict:
    """Minimum time per side over ``reps`` rounds; each round runs the
    sides in ``order``, so a drift in host speed falls on both."""
    best = dict.fromkeys(order, float("inf"))
    for _ in range(reps):
        for side in order:
            t0 = time.perf_counter()
            run(fns[side], data)
            best[side] = min(best[side], time.perf_counter() - t0)
    return best


def compare(units, totals: dict, reps: int) -> bool:
    """Time each ``(class, {side: fn}, data, equal)`` unit into
    ``totals``; False on the first unit whose outputs differ."""
    for i, (cls, fns, data, equal) in enumerate(units):
        results = {side: run(fn, data) for side, fn in fns.items()}
        if not equal(results["parent"], results["change"]):
            print(f"{cls} unit {i}: outputs differ\n  parent {results['parent']!r:.300}\n"
                  f"  change {results['change']!r:.300}")
            return False
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        times = timed_min(fns, order, data, reps)
        row = totals.setdefault(cls(results["parent"]) if callable(cls) else cls, [0, 0.0, 0.0])
        row[0] += 1
        row[1] += times["parent"]
        row[2] += times["change"]
    return True


def pdf_units(args):
    docs = payloads(args.change_dir, "pdf_mix", args.seed, args.convs)
    name = "pdf4py_ray.kernel.text:extract_pdf_text"
    fns = {"parent": load(args.parent_dir, name)[0], "change": load(args.change_dir, name)[0]}
    for data in docs:
        yield (lambda result, data=data: doc_class(data, result)), fns, data, operator.eq
    print(f"seed {args.seed}: {len(docs)} distinct PDFs, outputs equal on every one")


def chat_units(args):
    import pyarrow as pa

    pages = payloads(args.change_dir, "chat_sorted", args.seed, args.convs)
    names = ("pdf4py_ray.kernel.html_extract:extract_html_text",
             "pdf4py_ray.stages.dedup:MinHashSignatures")
    html, sketch = {}, {}
    for side, tree in (("parent", args.parent_dir), ("change", args.change_dir)):
        html[side], sketcher = load(tree, *names)
        sketch[side] = sketcher(text_col="text")
    texts = []
    for page in pages:
        texts.append(html["change"](page)[0])
        yield page_class(page), html, page, operator.eq
    docs = pa.table({"doc_id": pa.array(range(len(texts)), pa.int64()), "text": texts})
    yield "sketch", sketch, docs, pa.Table.equals
    print(f"seed {args.seed}: {len(pages)} distinct pages and their sketch, "
          f"outputs equal on every one")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent_dir")
    ap.add_argument("change_dir")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--workload", choices=("pdf_mix", "chat_sorted"), default="pdf_mix")
    ap.add_argument("--convs", type=int, default=None,
                    help="conversations (default: the workload's own, 700 / 1000)")
    ap.add_argument("--reps", type=int, default=5, help="timings per unit and side")
    args = ap.parse_args(argv)

    totals: dict = {}
    units = (pdf_units if args.workload == "pdf_mix" else chat_units)(args)
    if not compare(units, totals, args.reps):
        return 1
    all_p = sum(r[1] for r in totals.values())
    all_c = sum(r[2] for r in totals.values())
    gain = all_p - all_c
    print("| class | units | parent ms | change ms | speedup | share of parent time "
          "| share of gain |")
    print("|---|---|---|---|---|---|---|")
    for name in sorted(totals, key=lambda k: -totals[k][1]):
        n, p, c = totals[name]
        print(f"| {name} | {n} | {p * 1e3:.1f} | {c * 1e3:.1f} | {p / c:.2f}x "
              f"| {p / all_p:.2f} | {(p - c) / gain if gain else float('nan'):.2f} |")
    print(f"| all | {sum(r[0] for r in totals.values())} | {all_p * 1e3:.1f} | "
          f"{all_c * 1e3:.1f} | {all_p / all_c:.2f}x | 1.00 | 1.00 |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
