"""Golden-trace regression suite: canonical scenario runs, committed.

The JSON traces in this directory pin the exact telemetry and result of
two small canonical scenario runs (one per arrival model).  The
comparator test recomputes them and fails on any byte-level drift; after
an *intentional* engine-behaviour change, regenerate with
``make regen-golden`` and review the diff like any other code change.
"""
