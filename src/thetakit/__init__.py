"""Spectral graph analysis around the theta function: closed forms for
strongly regular graphs, eigenvalue bounds for strong products, Ramanujan
thresholds, chromatic and capacity certificates, all cross-checked by
exact solvers."""

__version__ = "0.1.0"
