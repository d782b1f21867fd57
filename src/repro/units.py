"""Unit conventions used throughout the library.

All physical quantities are plain floats in a single consistent unit system
chosen so that resistance times capacitance is directly a time:

==============  =========  =======================================
Quantity        Unit       Notes
==============  =========  =======================================
distance        micron     rectilinear (Manhattan) metric
capacitance     femtofarad sink loads, wire cap, buffer input caps
resistance      kiloohm    drive and wire resistance
time            picosecond kOhm * fF = ps exactly
area            um^2       buffer cell areas
==============  =========  =======================================

The module also provides the default 0.35um-process magnitudes used by the
synthetic technology (see :mod:`repro.tech.library`).  They are chosen so
that, per the paper's Table 1 setup, the interconnect delay across a net
bounding box is comparable to a gate delay.
"""

from __future__ import annotations

#: Tolerance of the quantized float comparators below.  1e-9 is far
#: below every physical quantum in this unit system (1e-9 um is a
#: nanometer's thousandth; curve buckets are ~1 fF / ~30 um^2), so the
#: comparators only ever merge values that differ by arithmetic noise.
FLOAT_EQ_TOL = 1e-9


def feq(a: float, b: float, tol: float = FLOAT_EQ_TOL) -> bool:
    """Quantized float equality: ``|a - b| <= tol``.

    Exact ``==`` between floats that went through arithmetic is banned
    in the engine packages (staticcheck rule ``NUM-FLOAT-EQ``); this is
    the sanctioned comparator.
    """
    return abs(a - b) <= tol


def fzero(x: float, tol: float = FLOAT_EQ_TOL) -> bool:
    """Quantized zero test: ``|x| <= tol`` (see :func:`feq`)."""
    return abs(x) <= tol


#: Wire sheet resistance per micron of routed length (kOhm/um).
#: 0.075 Ohm/um is typical for a 0.35um-process metal-3 wire.
DEFAULT_WIRE_RESISTANCE = 7.5e-5

#: Wire capacitance per micron of routed length (fF/um).
DEFAULT_WIRE_CAPACITANCE = 0.15

#: Default driver (net source) output resistance (kOhm).
DEFAULT_DRIVER_RESISTANCE = 2.0

#: Default driver intrinsic delay (ps).
DEFAULT_DRIVER_INTRINSIC = 60.0

#: Nominal input slew used by the four-parameter gate delay model (ps).
DEFAULT_NOMINAL_SLEW = 80.0

#: Characteristic bounding-box side (um) at which the Elmore delay of a
#: corner-to-corner wire roughly equals one mid-strength buffer delay.
#: Used by the synthetic net generator to size net bounding boxes.
GATE_EQUIVALENT_BOX_SIDE = 2000.0
