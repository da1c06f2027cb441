# repro: lint-module=repro.verify.verifier
"""Bad: metrics instrumentation alone must not satisfy a verdict site
— the function never touches the verdict ledger (OBS001)."""

from repro import obs


class DataPlaneVerifier:
    def verify(self, snapshot):
        registry = obs.get_registry()
        registry.counter("verify.verifications_total").inc()
        return []
