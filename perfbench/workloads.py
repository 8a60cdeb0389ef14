"""Workloads: seeded generators, serial (no-Ray) jobs, Ray jobs, checks.

Each workload turns a seed into Parquet files under a work directory;
the engine only ever sees those files. The serial job does the same
work in one process without Ray. For the extraction workloads its
output is the oracle that every Ray output is compared with, row by
row; the generator also knows what text each payload must yield and
which PDFs it truncated on purpose, which checks the oracle itself.

Sizes and shares are fixed counts, not draws, so every seed carries the
same amount of work and only the content changes.
"""

from __future__ import annotations

import base64
import contextlib
import gc
import hashlib
import io
import json
import os
import random
import time
from dataclasses import dataclass, field

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from pdf4py_ray.kernel import pdfgen
from pdf4py_ray.pipelines import extract_pipeline as xp
from pdf4py_ray.sources.transcripts import PDF_VARIANTS, make_doc_html, make_doc_pdf
from pdf4py_ray.stages import dedup
from pdf4py_ray.stages.extract import ExtractTurns
from pdf4py_ray.stages.partition import add_part_id

# engine settings every Ray job passes explicitly (stall guard: no
# stage is left on a default actor-pool range); the actor-pool size is
# each workload's ``pool``
NUM_PARTITIONS = 64
SALT_TURNS = 16
SORT_BUCKETS = 16
N_FILES = 8

TURN_SCHEMA = pa.schema([("conv_id", pa.string()), ("turn_idx", pa.int32()),
                         ("role", pa.string()), ("text", pa.string()),
                         ("tool", pa.string())])
CHECK_COLS = ["conv_id", "turn_idx", "extracted_text", "spans", "status"]

_SYL = [c + v for c in "bdfgklmnprstvz" for v in "aeiou"]
VOCAB = [a + b for a in _SYL for b in _SYL]  # 4900 words


def _words(rng: random.Random, lo: int, hi: int) -> str:
    return " ".join(rng.choices(VOCAB, k=rng.randint(lo, hi)))


@dataclass
class Inputs:
    """One generated input set. ``expect`` maps (conv_id, turn_idx) to
    the text the row must yield, or None for an expected error row."""

    input_dir: str
    warm_dir: str
    rows: int
    payload_bytes: int
    parquet_bytes: int
    digest: str
    mix: dict
    expect: dict = field(default_factory=dict)
    extra: dict = field(default_factory=dict)


def table_digest(table: pa.Table) -> str:
    sink = io.BytesIO()
    with pa.ipc.new_stream(sink, table.schema) as w:
        w.write_table(table)
    return hashlib.blake2b(sink.getvalue(), digest_size=16).hexdigest()


def _write_parts(table: pa.Table, out_dir: str, n_files: int) -> int:
    os.makedirs(out_dir, exist_ok=True)
    step = -(-len(table) // n_files)
    total = 0
    for k in range(n_files):
        path = os.path.join(out_dir, f"part-{k:05d}.parquet")
        pq.write_table(table.slice(k * step, step), path)
        total += os.path.getsize(path)
    return total


def _finish(table: pa.Table, work: str, warm_rows: int, mix: dict, expect=None,
            extra=None) -> Inputs:
    input_dir = os.path.join(work, "input")
    warm_dir = os.path.join(work, "warm")
    parquet_bytes = _write_parts(table, input_dir, N_FILES)
    _write_parts(table.slice(0, warm_rows), warm_dir, 1)
    payload = sum(len(s) for s in table["text"].to_pylist())
    return Inputs(input_dir, warm_dir, len(table), payload, parquet_bytes,
                  table_digest(table), mix, expect or {}, extra or {})


# ------------------------------------------------------------- pdf_mix

PDF_MIX_CONVS = 700
REPEAT_SHARE = 0.15        # tool turns that re-send an earlier attachment
TRUNCATED_SHARE = 0.03     # PDFs cut to 120 bytes: expected error rows
MULTIPAGE_EVERY = 4        # every 4th classic/xrefstream/objstm PDF has 2-6 pages
BIG_PAGES = 140            # >256 objects: past the per-document object cache
_MULTIPAGE_VARIANTS = ("classic", "xrefstream", "objstm")


def expected_pdf_text(text: str, variant: str) -> str:
    """What extraction must return for ``make_doc_pdf(text, variant)``."""
    if variant == "multiline":
        w = text.split()
        return "\n".join(" ".join(w[i:i + 8]) for i in range(0, len(w), 8))
    if variant == "incremental":
        return "Updated text"
    if variant == "hybrid":
        return "Hybrid xref text"
    return text


def _multipage_pdf(variant: str, pages: tuple) -> bytes:
    if variant == "objstm":
        return pdfgen.object_stream_pdf(pages)
    return pdfgen.minimal_pdf(pages, xref_stream=variant == "xrefstream")


def gen_pdf_mix(seed: int, work: str, n_conv: int = PDF_MIX_CONVS) -> Inputs:
    """Four turns per conversation; the tool turn carries a PDF envelope.
    All eleven ``make_doc_pdf`` variants in equal counts, multi-page
    PDFs, two PDFs past the object cache, truncated PDFs and repeated
    attachments."""
    rng = random.Random(f"pdf_mix:{seed}")
    n_rep, n_trunc, n_big = round(n_conv * REPEAT_SHARE), round(n_conv * TRUNCATED_SHARE), 2
    roles = (["repeat"] * n_rep + ["trunc"] * n_trunc + ["big"] * n_big
             + ["new"] * (n_conv - n_rep - n_trunc - n_big))
    rng.shuffle(roles)
    first_new = roles.index("new")  # a repeat needs an earlier attachment
    roles[0], roles[first_new] = roles[first_new], roles[0]
    variants = [PDF_VARIANTS[i % len(PDF_VARIANTS)] for i in range(n_conv)]
    rng.shuffle(variants)

    rows, expect, sent = [], {}, []
    mix = {"variants": {}, "pages": 0, "repeats": 0, "truncated": 0,
           "multipage": 0, "big": 0, "pdf_bytes": 0}
    multipage_seen = 0
    for i, role in enumerate(roles):
        conv = f"conv-{i:06d}"
        if role == "repeat":
            env, want, variant, pages = sent[rng.randrange(len(sent))]
            mix["repeats"] += 1
        else:
            variant, text = variants[i], _words(rng, 8, 40)
            multipage = role == "new" and variant in _MULTIPAGE_VARIANTS
            multipage_seen += multipage
            if role == "big":
                variant = "objstm" if mix["big"] else "classic"
                pages_t = tuple(_words(rng, 6, 12) for _ in range(BIG_PAGES))
                pdf, want, pages = _multipage_pdf(variant, pages_t), "\n".join(pages_t), BIG_PAGES
                mix["big"] += 1
            elif role == "trunc":
                pdf, want, pages = make_doc_pdf(text, variant)[:120], None, 0
                mix["truncated"] += 1
            elif multipage and multipage_seen % MULTIPAGE_EVERY == 0:
                n_pages = 2 + (multipage_seen // MULTIPAGE_EVERY) % 5
                pages_t = tuple(_words(rng, 6, 20) for _ in range(n_pages))
                pdf, want, pages = _multipage_pdf(variant, pages_t), "\n".join(pages_t), n_pages
                mix["multipage"] += 1
            else:
                pdf, want, pages = make_doc_pdf(text, variant), expected_pdf_text(text, variant), 1
            env = json.dumps({"pdf_b64": base64.b64encode(pdf).decode("ascii")})
            mix["pdf_bytes"] += len(pdf)
            if role == "new":
                sent.append((env, want, variant, pages))
        mix["variants"][variant] = mix["variants"].get(variant, 0) + 1
        mix["pages"] += pages
        turns = [("user", f"Please read the attached file about {_words(rng, 3, 12)}", ""),
                 ("assistant", _words(rng, 3, 10), ""),
                 ("tool", env, "pdf_reader"),
                 ("assistant", _words(rng, 5, 25), "")]
        for t, (role_name, text, tool) in enumerate(turns):
            rows.append({"conv_id": conv, "turn_idx": t, "role": role_name,
                         "text": text, "tool": tool})
            expect[(conv, t)] = want if t == 2 else text
    mix["repeat_share"] = mix["repeats"] / n_conv
    table = pa.Table.from_pylist(rows, schema=TURN_SCHEMA)
    return _finish(table, work, 8, mix, expect)


# --------------------------------------------------------- chat_sorted

CHAT_CONVS = 1000
CHAT_MAX_TURNS = 500       # the longest conversation; rank r gets max/(r+1)^s
CHAT_ZIPF_S = 0.8
CHAT_MIN_TURNS = 4
HTML_EVERY = 5             # every 5th turn of a conversation is a fetched page
PAGE_WORDS = (20, 60)
PAGE_CLIQUES = 60          # planted near-duplicate page groups, sizes 2, 3, 4
CLIQUE_WORDS = (120, 200)
DEDUP_THRESHOLD = 0.8


def page_id(conv_idx: int, turn_idx: int) -> int:
    """Document id of a fetched page (turn_idx < CHAT_MAX_TURNS < 1000)."""
    return conv_idx * 1000 + turn_idx


def gen_chat_sorted(seed: int, work: str, n_conv: int = CHAT_CONVS) -> Inputs:
    """Short text turns and an HTML page every few turns, no PDFs.
    Conversation lengths follow a Zipf law by rank (a few conversations
    of hundreds of turns); rows arrive interleaved, in seeded order.
    Some pages are planted near-duplicates: members of a clique carry
    the same article but for one word at one position, so a planted
    pair's shingle Jaccard is above 0.95 and an unrelated pair's is
    about 0."""
    rng = random.Random(f"chat_sorted:{seed}")
    lengths = [max(CHAT_MIN_TURNS, int(CHAT_MAX_TURNS / (r + 1) ** CHAT_ZIPF_S))
               for r in range(n_conv)]
    rng.shuffle(lengths)
    slots = [(i, t) for i, length in enumerate(lengths)
             for t in range(HTML_EVERY - 1, length, HTML_EVERY)]
    sizes = [2 + c % 3 for c in range(min(PAGE_CLIQUES, len(slots) // 6))]
    picked = iter(rng.sample(slots, sum(sizes)))
    articles, cliques = {}, []
    for size in sizes:
        base = rng.choices(VOCAB, k=rng.randint(*CLIQUE_WORDS))
        pos = rng.randrange(len(base))
        members = []
        for _ in range(size):
            slot = next(picked)
            base[pos] = rng.choice(VOCAB)
            articles[slot] = " ".join(base)
            members.append(page_id(*slot))
        cliques.append(sorted(members))

    rows, expect = [], {}
    for i, length in enumerate(lengths):
        conv = f"conv-{i:06d}"
        for t in range(length):
            if t % HTML_EVERY == HTML_EVERY - 1:
                article = articles.get((i, t)) or _words(rng, *PAGE_WORDS)
                link_farm = (t // HTML_EVERY) % 2 == 1
                text, role, tool = make_doc_html(article, link_farm), "tool", "web_fetch"
            else:
                text, role, tool = _words(rng, 3, 18), ("user", "assistant")[t % 2], ""
                expect[(conv, t)] = text
            rows.append({"conv_id": conv, "turn_idx": t, "role": role,
                         "text": text, "tool": tool})
    rng.shuffle(rows)
    planted = {(a, b) for members in cliques for i, a in enumerate(members) for b in members[i + 1:]}
    mix = {"conversations": n_conv, "html": len(slots), "text": len(rows) - len(slots),
           "longest": max(lengths), "top10_share": sum(sorted(lengths)[-10:]) / len(rows),
           "page_cliques": len(cliques), "clique_pages": sum(sizes),
           "planted_pairs": len(planted)}
    table = pa.Table.from_pylist(rows, schema=TURN_SCHEMA)
    extra = {"pages": len(slots), "cliques": cliques, "planted": planted}
    return _finish(table, work, 100, mix, expect, extra)  # ~10 pages to warm the dedup pass


def page_docs(batch: pa.Table) -> pa.Table:
    """The extracted HTML pages of a turn table as documents
    ``(doc_id, extracted_text)``; ``doc_id`` is ``page_id``."""
    pages = batch.filter(pc.and_(pc.equal(batch["kind"], "html"),
                                 pc.equal(batch["status"], "ok")))
    conv = pc.cast(pc.utf8_slice_codeunits(pages["conv_id"], 5), pa.int64())
    doc_id = pc.add(pc.multiply(conv, 1000), pc.cast(pages["turn_idx"], pa.int64()))
    return pa.table({"doc_id": doc_id, "extracted_text": pages["extracted_text"]})


# ---------------------------------------------------------- serial jobs


def serial_extract(input_dir: str) -> pa.Table:
    """The extraction job in this process, without Ray: the oracle."""
    extractor = ExtractTurns()
    out = []
    for name in sorted(os.listdir(input_dir)):
        t = pq.read_table(os.path.join(input_dir, name),
                          columns=["conv_id", "turn_idx", "text", "tool"])
        out.append(extractor(add_part_id(t, NUM_PARTITIONS, SALT_TURNS)))
    return pa.concat_tables(out)


def serial_dedup(docs: pa.Table) -> tuple:
    """MinHash-LSH pairs and union-find clusters in this process: the
    same sketches, bands and estimate threshold as the Ray job."""
    sk = dedup.MinHashSignatures(text_col="extracted_text")(docs)
    ids = sk["doc_id"].to_pylist()
    bands = sk["band_hashes"].to_pylist()
    sigs = sk["signature"].to_pylist()
    buckets: dict = {}
    for row, bh in enumerate(bands):
        for band, h in enumerate(bh):
            buckets.setdefault((band, h), []).append(row)
    cand = {(min(r1, r2), max(r1, r2)) for rows in buckets.values() if len(rows) > 1
            for i, r1 in enumerate(rows) for r2 in rows[i + 1:]}
    pairs = set()
    for r1, r2 in cand:
        est = sum(x == y for x, y in zip(sigs[r1], sigs[r2])) / len(sigs[r1])
        if est >= DEDUP_THRESHOLD:
            pairs.add((min(ids[r1], ids[r2]), max(ids[r1], ids[r2])))
    return pairs, union_find_labels(ids, pairs)


def union_find_labels(ids, pairs) -> dict:
    parent = {i: i for i in ids}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in pairs:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
    return {i: find(i) for i in ids}


# ------------------------------------------------------------- Ray jobs
#
# Each Ray job calls the package's public entry points through module
# attributes looked up at call time, so the traced run can wrap them.
# ``clock.span(name)`` times a layer call made in this process; it is a no-op
# clock in untraced runs.


class NullClock:
    def span(self, name):
        return contextlib.nullcontext()


def quiesce(timeout: float = 20.0) -> None:
    """Wait until every logical CPU is free again. Ray Data releases an
    execution's actor pool only when its executor is garbage collected;
    until then the idle actor keeps a CPU, and the next execution's
    tasks can wait many seconds for it. Called untimed before each
    execution and between the executions a job chains."""
    import ray

    gc.collect()
    total = ray.cluster_resources().get("CPU", 0)
    deadline = time.monotonic() + timeout
    while ray.available_resources().get("CPU", 0) < total and time.monotonic() < deadline:
        time.sleep(0.01)


def _extract_ds(inp: Inputs, pool: int):
    return xp.extraction_from_parquet(inp.input_dir, num_partitions=NUM_PARTITIONS,
                                      salt_turns=SALT_TURNS, concurrency=pool, sort=False)


def _blocks(ds) -> list:
    return list(ds.iter_batches(batch_format="pyarrow", batch_size=None))


class PdfMix:
    """Production shape: ``extraction_from_parquet(sort=False)`` and
    every output block consumed in this process. The kernel bounds it, so
    two extraction actors spread it over two CPUs."""

    name, rows_unit, pool = "pdf_mix", "turns", 2
    generate = staticmethod(gen_pdf_mix)

    def serial(self, inp: Inputs, work: str) -> pa.Table:
        return serial_extract(inp.input_dir)

    def ray(self, inp: Inputs, out_dir: str, clock) -> tuple:
        ds = _extract_ds(inp, self.pool)
        return [b.select(CHECK_COLS) for b in _blocks(ds)], [ds]

    def result(self, output) -> pa.Table:
        return pa.concat_tables(output) if output else None

    def oracle(self, inp: Inputs, serial_out: pa.Table) -> dict:
        return oracle_digests(serial_out)

    def same(self, a: pa.Table, b: pa.Table) -> bool:
        """Whether two serial outputs are identical."""
        return a.equals(b)

    def check(self, inp: Inputs, oracle: dict, result) -> int:
        if result is None:
            return inp.rows
        return check_extraction(inp, oracle, result.select(CHECK_COLS))


class ChatSorted(PdfMix):
    """Gate shape: ``sample_split_points`` then ``stable_sorted_write``
    of the extraction output, then ``minhash_dup_pairs`` and
    ``dedup_clusters`` over the extracted pages read back from it.
    Plumbing bounds it, and every actor costs a process start per
    execution, so its pools have one actor."""

    name, pool = "chat_sorted", 1
    generate = staticmethod(gen_chat_sorted)

    def serial(self, inp: Inputs, work: str) -> tuple:
        table = serial_extract(inp.input_dir).sort_by([(k, "ascending") for k in xp.SORT_KEYS])
        pq.write_table(table, os.path.join(work, "serial_sorted.parquet"))
        return (table, *serial_dedup(page_docs(table)))

    def ray(self, inp: Inputs, out_dir: str, clock) -> tuple:
        import ray.data as rd

        with clock.span("sort.split_sample_s"):
            splits = xp.sample_split_points(inp.input_dir, num_buckets=SORT_BUCKETS)
        ds = _extract_ds(inp, self.pool)
        with clock.span("sort.write_s"):
            xp.stable_sorted_write(ds, out_dir, splits)
        del ds
        quiesce()
        pages = rd.read_parquet(out_dir, columns=CHECK_COLS + ["kind"]).map_batches(
            page_docs, batch_format="pyarrow")
        with clock.span("dedup.pairs_s"):
            pairs = dedup.minhash_dup_pairs(pages, text_col="extracted_text",
                                            threshold=DEDUP_THRESHOLD, concurrency=self.pool,
                                            rows_hint=inp.extra["pages"]).materialize()
        with clock.span("dedup.clusters_s"):
            clusters = dedup.dedup_clusters(pages, pairs)
            cluster_blocks = _blocks(clusters)
        return (out_dir, _blocks(pairs), cluster_blocks), [pairs, clusters]

    def result(self, output) -> tuple:
        out_dir, pair_blocks, cluster_blocks = output
        files = sorted((int(d.split("=", 1)[1]), os.path.join(out_dir, d, "sorted.parquet"))
                       for d in os.listdir(out_dir) if d.startswith("sort_bucket="))
        tables = [pq.read_table(f, columns=CHECK_COLS) for _, f in files]
        pairs, labels = set(), {}
        for b in pair_blocks:
            pairs.update(zip(b["id_a"].to_pylist(), b["id_b"].to_pylist()))
        for b in cluster_blocks:
            labels.update(zip(b["doc_id"].to_pylist(), b["cluster_id"].to_pylist()))
        return pa.concat_tables(tables) if tables else None, pairs, labels

    def same(self, a: tuple, b: tuple) -> bool:
        return a[0].equals(b[0]) and a[1:] == b[1:]

    def oracle(self, inp: Inputs, serial_out: tuple) -> tuple:
        pages = page_docs(serial_out[0])
        return (oracle_digests(serial_out[0]),
                dict(zip(pages["doc_id"].to_pylist(), pages["extracted_text"].to_pylist())))

    def check(self, inp: Inputs, oracle: tuple, result: tuple) -> int:
        """Extraction rows as in ``pdf_mix``; rows out of stable
        (conv_id, turn_idx) order, since bucket order must be the global
        order; and the near-duplicate result: planted pairs missed,
        reported pairs under the threshold by exact shingle Jaccard, and
        pages outside their planted cluster (id = smallest member)."""
        digests, texts = oracle
        table, pairs, labels = result
        if table is None:
            return inp.rows
        keys = list(zip(table["conv_id"].to_pylist(), table["turn_idx"].to_pylist()))
        bad = check_extraction(inp, digests, table.select(CHECK_COLS))
        bad += sum(a > b for a, b in zip(keys, keys[1:]))
        bad += len(inp.extra["planted"] - pairs)
        for a, b in pairs:
            sa, sb = shingles(texts.get(a, "")), shingles(texts.get(b, ""))
            bad += len(sa & sb) < DEDUP_THRESHOLD * len(sa | sb)
        want = {d: d for d in texts}
        for members in inp.extra["cliques"]:
            for m in members:
                want[m] = members[0]
        bad += sum(labels.get(d) != c for d, c in want.items()) + len(set(labels) - set(want))
        return bad


def shingles(text: str) -> set:
    """Word 3-gram set of a document, as the MinHash stage shingles it."""
    words = text.lower().split()
    k = dedup.SHINGLE_WORDS
    if len(words) < k:
        return {" ".join(words)} if words else set()
    return {" ".join(words[i:i + k]) for i in range(len(words) - k + 1)}


# --------------------------------------------------------------- checks


def _row_digests(table: pa.Table) -> dict:
    out = {}
    for conv, turn, text, spans, status in zip(*(table[c].to_pylist() for c in CHECK_COLS)):
        spans = [(s["start"], s["end"], s["kind"]) for s in spans or ()]
        digest = hashlib.blake2b(repr((text, spans, status)).encode(), digest_size=16).digest()
        out[(conv, turn)] = (digest, text, status)
    return out


def oracle_digests(oracle: pa.Table) -> dict:
    return _row_digests(oracle.select(CHECK_COLS))


def check_extraction(inp: Inputs, oracle: dict, out: pa.Table) -> int:
    """Rows that are missing, extra or duplicated, differ from the
    oracle, carry an unexpected error, or do not yield the text the
    generator put in."""
    got = _row_digests(out)
    bad = len(set(oracle) ^ set(got)) + (len(out) - len(got))
    for key, (digest, text, status) in got.items():
        want = inp.expect.get(key, "")
        if key in oracle and digest != oracle[key][0]:
            bad += 1
        elif want is None:
            bad += status != "error"
        elif status == "error" or (key in inp.expect and text != want):
            bad += 1
    return bad


WORKLOADS = {w.name: w for w in (PdfMix(), ChatSorted())}
