"""Independent, unoptimised transcriptions of the paper's solvers.

:mod:`tests.spec.protected_cg` is protected CG under the three schemes
(the oracle ``tests/test_spec_engine.py`` holds the resilience engine
to, bit for bit); :mod:`tests.spec.plain` holds the fault-free
BiCGstab and Jacobi-PCG references.
"""
