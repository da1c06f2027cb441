"""repro — Integrating Verification and Repair into the Control Plane.

A faithful, laptop-scale reproduction of Gember-Jacobson, Raiciu and
Vanbever's HotNets-XVI (2017) position paper.  The package provides:

* a deterministic discrete-event network simulator with full BGP
  (vendor-profiled decision process, iBGP, soft reconfiguration,
  Add-Path) and OSPF engines (:mod:`repro.net`,
  :mod:`repro.protocols`);
* control-plane I/O capture (:mod:`repro.capture`);
* happens-before relationship inference and the happens-before graph
  (:mod:`repro.hbr`);
* HBG-consistent data-plane snapshots (:mod:`repro.snapshot`);
* centralized and distributed data-plane verification
  (:mod:`repro.verify`);
* provenance tracing and root-cause rollback (:mod:`repro.repair`);
* the integrated Fig.-3 pipeline (:mod:`repro.core`);
* the paper's example scenarios (:mod:`repro.scenarios`).

Quick start::

    from repro.core import IntegratedControlPlane, PipelineMode
    from repro.scenarios import Fig2Scenario, paper_policy
    from repro.scenarios.fig2 import bad_lp_change

    scenario = Fig2Scenario()
    net = scenario.run_baseline()
    pipeline = IntegratedControlPlane(
        net, [paper_policy()], mode=PipelineMode.REPAIR
    ).arm()
    net.apply_config_change(bad_lp_change())
    net.run(120)
    print(pipeline.summary())
"""

__version__ = "1.0.0"

from repro.net.addr import Prefix
from repro.core.pipeline import IntegratedControlPlane, PipelineMode

__all__ = ["IntegratedControlPlane", "PipelineMode", "Prefix", "__version__"]
