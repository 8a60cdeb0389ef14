"""pdf4py_ray — a Ray-Data-native document/transcript extraction engine.

A from-scratch reimplementation of the capabilities of the reference
library ``dipietrantonio/pdf4py`` (a pure-Python low-level PDF parser),
re-expressed as an idiomatic Ray Data pipeline over Arrow batches of
multi-turn transcript rows, plus the text-extraction / HTML
main-content layers the reference deliberately leaves out.

Layout
------
- ``pdf4py_ray.kernel``    — the per-document kernel: tokenizer, object
  parser, xref resolution, stream filters, crypto, content-stream text
  extraction, HTML boilerplate stripping. Pure Python, no Ray imports.
- ``pdf4py_ray.stages``    — Ray Data batch transforms (map_batches
  callables / task-stage classes) built on the kernel.
- ``pdf4py_ray.sources``   — input readers and the deterministic
  transcript-table synthesizer.
- ``pdf4py_ray.pipelines`` — end-to-end Dataset pipelines + checkpoint
  manifests.
- ``pdf4py_ray.functions`` — small shared vectorized helpers.
"""

__version__ = "0.1.0"
