"""``scripts/kernel_ab.py`` on one tree against itself (a small run)."""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "scripts"))

import kernel_ab  # noqa: E402


def test_doc_class():
    ok = ("text", [(0, 4, "text"), (0, 4, "page")], 7)
    assert kernel_ab.doc_class(b"%PDF-1.4 /Encrypt 9 0 R /V 4", ok) == "enc V4"
    assert kernel_ab.doc_class(b"%PDF-1.5 /Type /ObjStm", ok) == "objstm"
    assert kernel_ab.doc_class(b"%PDF-1.4", ok) == "plain"
    assert kernel_ab.doc_class(b"%PDF-1.4", ("PdfSyntaxError", "truncated")) == "error"
    big = ("text", [(0, 0, "page")] * kernel_ab.BIG_PAGES, 7)
    assert kernel_ab.doc_class(b"%PDF-1.5 /Type /ObjStm", big) == "big"


def test_same_tree_gives_equal_outputs():
    # the script imports both trees' package in turn and purges it from
    # sys.modules, so it runs in its own process
    proc = subprocess.run(
        [sys.executable, "scripts/kernel_ab.py", ROOT, ROOT, "--seed", "3", "--convs", "24",
         "--reps", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr[-2000:]
    assert "outputs equal on every one" in proc.stdout
    assert "| all |" in proc.stdout


def test_page_class():
    from pdf4py_ray.sources.transcripts import make_doc_html

    assert kernel_ab.page_class(make_doc_html("a b c", link_farm=True)) == "html link_farm"
    assert kernel_ab.page_class(make_doc_html("a b c", link_farm=False)) == "html"


def test_chat_sorted_pages_and_sketch_equal_on_one_tree():
    proc = subprocess.run(
        [sys.executable, "scripts/kernel_ab.py", ROOT, ROOT, "--seed", "3", "--workload",
         "chat_sorted", "--convs", "40", "--reps", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr[-2000:]
    assert "pages and their sketch, outputs equal on every one" in proc.stdout
    assert "| sketch | 1 |" in proc.stdout and "| html" in proc.stdout
