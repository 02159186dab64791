"""Exact-arithmetic toolkit for quivers of line bundles.  Each name lives
in one module and is imported from there, e.g.
``from quiverstab.stability import stability_report``; ``import quiverstab``
loads none of them.

- ``quiver``: arrows, paths, quivers, binomial relations, grading
  certificates, JSON round trips and the library's two error bases.
- ``points``: representation points, the torus action, path evaluation.
- ``stability``: King (semi)stability, supports, the stability cone and
  good/great character certificates.
- ``invariants``: cycle enumeration and the generic-separation experiment.
- ``helix``: spiral extension of chain quivers and Picard-degree checks.
- ``catalog``: the built-in toric examples and their tautological points.
- ``cli``: the ``quiverstab`` command line.
"""
