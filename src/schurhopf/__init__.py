"""Exact skew Schur function identities via the shape Hopf algebra."""

__version__ = "0.1.0"
