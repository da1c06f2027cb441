"""repro.obs.trace — the happens-before graph as a causal trace.

Two pieces:

* :mod:`repro.obs.trace.export` — causal trace exporters that turn a
  happens-before graph into Chrome trace-event / Perfetto JSON, an
  OTLP-style span tree, or a plain per-router text timeline, with
  HBG edges rendered as span parent / flow links;
* :mod:`repro.obs.trace.attribution` — the latency-attribution pass
  that walks HBG paths from each root cause to its downstream FIB
  updates and emits per-hop / per-HBR-rule propagation-latency
  histograms into the metrics registry.

This package deliberately imports nothing from the domain layers
(``capture``, ``hbr``, ...): graphs and events are duck-typed, so
``repro.obs`` stays importable from every layer without cycles.
Both are plain submodules — import them explicitly
(``from repro.obs.trace import export``).
"""
