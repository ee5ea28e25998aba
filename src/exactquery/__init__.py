"""Exact quantum query algorithms and low-degree Boolean functions; import names from their modules."""

__version__ = "0.1.0"
