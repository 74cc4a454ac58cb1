"""The repository's pipeline benchmark: sweep to Tables 1-4, end to end.

Two workloads, each one request a user of ``repro-bt`` makes, are
driven in-process through :mod:`repro.api` and the public analysis
functions the CLI calls:

* ``batch-grow`` -- a batch-fidelity sweep grown from N to 2N seeds
  against a shard cache that already holds the first N, spilled into a
  SQLite store and analysed from it (what ``repro-bt analyze`` prints);
* ``bit-sweep`` -- a bit-fidelity sweep into the in-memory repository,
  then the pooled table and the summary render.

``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` runs one of them from the root of a checkout.  See
:mod:`perfbench.run` for the output contract, :mod:`perfbench.pipeline`
for the workloads and :mod:`perfbench.trace` for the per-layer split.
"""
