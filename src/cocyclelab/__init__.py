"""Numerical laboratory for Markov operator cocycles on finite measure spaces.

The package root re-exports nothing: import from its modules.  The scalar
references the tests hold the routes against live in ``tests/references.py``.
"""
