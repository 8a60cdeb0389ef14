"""The paired-run summary of ``scripts/perf_pairs.py`` (no runs made)."""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                "scripts"))

import perf_pairs  # noqa: E402


def test_parse_seeds():
    assert perf_pairs.parse_seeds("5-9") == [5, 6, 7, 8, 9]
    assert perf_pairs.parse_seeds("3,7,11-12") == [3, 7, 11, 12]


def test_verdicts():
    parent = [100, 102, 98, 101, 99, 100, 103, 97, 100, 101]
    faster = [p * 1.3 for p in parent]
    v = perf_pairs.verdict(parent, faster, "higher", 0.25)
    assert (v["wins"], v["pairs"], v["verdict"]) == (10, 10, "gain")
    assert perf_pairs.verdict(parent, faster, "lower", 0.25)["verdict"] == "worse"
    assert perf_pairs.verdict(parent, parent, "higher", 0.25)["verdict"] == "within bound"
    noisy = [50, 150, 60, 140, 100, 100, 55, 145, 100, 100]
    assert perf_pairs.verdict(noisy, noisy, "higher", 0.25)["verdict"] == "unresolved"
    clear = perf_pairs.verdict(noisy, [n + 200 for n in noisy], "higher", 0.25)
    assert clear["verdict"] == "gain"  # every change run beats every parent run
