"""Cost-sensitive classification with a reject option.

One-vs-rest score ensembles trained with a cost-weighted surrogate, a
three-way decision rule (predict / reject-by-distance / reject-by-ambiguity),
oracle and calibration audits, baselines, weak supervision, and an
experiment harness. Each name has one import path, csreject.<module>.<name>.
"""

__version__ = "0.1.0"
