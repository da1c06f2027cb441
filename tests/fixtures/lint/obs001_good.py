# repro: lint-module=repro.verify.verifier
"""Good: the stage entry point records a metric AND a verdict (OBS001
checks both the metrics rows and the verdict rows of SITES here)."""

from repro import obs


class DataPlaneVerifier:
    def verify(self, snapshot):
        registry = obs.get_registry()
        registry.counter("verify.verifications_total").inc()
        verdicts = obs.get_verdicts()
        if verdicts.enabled:
            verdicts.record(kind="snapshot", at=0.0, ok=True)
        return []

