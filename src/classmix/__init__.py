"""Explicit finite groups, character tables, and class-product mixing experiments."""

__version__ = "0.1.0"
