"""Largeness detectors and progression-lift witnesses on integer windows.

Everything operates on finite windows [lo, hi] of positive integers. The
package detects structural largeness (syndetic, thick, blockwise-syndetic),
searches arithmetic progressions and simultaneous sum witnesses, lifts sets
to (start, step) pair spaces, checks decreasing chains for the translate
property, and emits tamper-evident JSON certificates for positive findings.

The package root exports only ``__version__``, so importing it loads no
other module; the API is the submodules (``aplift.sets``, ``aplift.cli``,
``aplift.certificates`` and the rest).
"""

from ._version import __version__
