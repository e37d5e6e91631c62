"""The four benchmark workloads; each module provides build(rng, workdir)."""
