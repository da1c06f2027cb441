"""Happens-before relationships and the happens-before graph (§4).

The paper's central claim: observing a router's control-plane I/Os
and tracking dependencies *between* them — without modelling router
internals — suffices to verify and repair the network.  This package
implements:

* :mod:`repro.hbr.graph` — the happens-before graph (HBG) of §4.3;
* :mod:`repro.hbr.rules` — the declarative protocol rules of §4.1;
* :mod:`repro.hbr.inference` — §4.2's inference: prefix and
  timestamp filters plus rule matching (the naive and pattern
  techniques are benchmark C-INF's ablation, in
  :mod:`repro.testkit.oracles`);
* :mod:`repro.hbr.distributed` — per-router subgraphs and partial
  path exchange (§5, "Construction and analysis of the HBG can also
  be distributed").
"""

from repro.hbr.graph import Edge, EdgeEvidence, HappensBeforeGraph
from repro.hbr.rules import HbrRule, default_rules
from repro.hbr.inference import (
    InferenceConfig,
    InferenceEngine,
    score_inference,
)
from repro.hbr.distributed import (
    BoundarySummary,
    DistributedHbg,
    DistributionUnsupported,
    RouterSubgraph,
    supports_distribution,
)

__all__ = [
    "BoundarySummary",
    "DistributedHbg",
    "DistributionUnsupported",
    "Edge",
    "EdgeEvidence",
    "HappensBeforeGraph",
    "HbrRule",
    "InferenceConfig",
    "InferenceEngine",
    "RouterSubgraph",
    "default_rules",
    "score_inference",
    "supports_distribution",
]
