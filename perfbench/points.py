"""The fixed reference points of the ``point_checks`` workload.

Every point is built from closed forms written out here (curve points from
the paper's parameterization in ``closedform.curve_point``), never from tristab.
``expect`` says what the program must return at the point:

* ``value``    a wave exists; each J method is checked against the oracle;
* ``none``     no wave exists; each J method must raise NoStandingWave;
* ``sentinel`` the point is on the nonexistence curve; each method must
               return a diverging infinity with the paper's sign;
* ``j0``       an ``eval_J0`` call at (0, gamma), checked against the oracle.

The points do not depend on the benchmark seed, so the operations that fail
on them fail in every run; the README names the program fault behind each.
"""

from __future__ import annotations

import math

from closedform import curve_a_range, curve_point

FF234 = (2.0, 3.0, 4.0, 1, 1)
FD367 = (3.0, 6.0, 7.0, 1, -1)
DD357 = (3.0, 5.0, 7.0, -1, -1)
DF357 = (3.0, 5.0, 7.0, -1, 1)
DF234 = (2.0, 3.0, 4.0, -1, 1)
DD234 = (2.0, 3.0, 4.0, -1, -1)
# a seeded random draw of the kind acceptance criterion 9 makes
DF_DRAW = (1.309, 2.690, 3.222, -1, 1)

DISTANCES = (1e-2, 1e-4, 1e-6, 1e-8)


def _pt(name, case, omega, gamma, expect):
    p, q, r, s1, s3 = case
    return {"name": name, "p": p, "q": q, "r": r, "s1": s1, "s3": s3,
            "omega": omega, "gamma": gamma, "expect": expect}


def _near_curve(label, case, a, both_sides_exist):
    """On-curve point at amplitude a and points at relative omega distances
    DISTANCES below and above it, at the same gamma."""
    w0, g0 = curve_point(*case, a)
    out = [_pt("%s on curve" % label, case, w0, g0, "sentinel")]
    for d in DISTANCES:
        out.append(_pt("%s -%g" % (label, d), case, w0 * (1 - d), g0, "value"))
        out.append(_pt("%s +%g" % (label, d), case, w0 * (1 + d), g0,
                       "value" if both_sides_exist else "none"))
    return out


def reference_points():
    """All points in a fixed order; the benchmark shuffles them per seed."""
    pts = [
        _pt("FF interior w=0.05 g=0", FF234, 0.05, 0.0, "value"),
        _pt("FF interior w=0.3 g=4", FF234, 0.3, 4.0, "value"),
        _pt("FF interior w=2 g=-1", FF234, 2.0, -1.0, "value"),
        _pt("FD interior w=0.1 g=0", FD367, 0.1, 0.0, "value"),
        _pt("FD interior w=1 g=-10", FD367, 1.0, -10.0, "value"),
        _pt("DD interior w=1 g=-5", DD357, 1.0, -5.0, "value"),
        _pt("DD interior w=5 g=-8", DD357, 5.0, -8.0, "value"),
        _pt("DF interior w=1 g=0", DF357, 1.0, 0.0, "value"),
        _pt("DF interior w=0.5 g=2", DF357, 0.5, 2.0, "value"),
        _pt("DF interior w=3 g=-2", DF357, 3.0, -2.0, "value"),
        _pt("FD no wave w=1 g=0", FD367, 1.0, 0.0, "none"),
        _pt("DD no wave above gamma1", DD357, 0.5, 0.0, "none"),
    ]
    a_sharp = curve_a_range(*FF234)[1]
    pts += _near_curve("FF a#/2", FF234, a_sharp / 2, True)
    w0, g0 = curve_point(*FF234, a_sharp / 2)
    pts.append(_pt("FF a#/2 +1e-05", FF234, w0 * (1 + 1e-5), g0, "value"))
    w0, g0 = curve_point(*FF234, 0.3)
    pts.append(_pt("FF a=0.3 on curve", FF234, w0, g0, "sentinel"))
    pts += _near_curve("FD a=1", FD367, 1.0, False)
    a_b = curve_a_range(*DD357)[0]
    pts += _near_curve("DD a=2ab", DD357, 2.0 * a_b, False)
    for w in (1e-2, 1e-4, 1e-6):
        pts.append(_pt("DF234 small w=%g g=0" % w, DF234, w, 0.0, "value"))
        pts.append(_pt("DD234 small w=%g g=-4" % w, DD234, w, -4.0, "value"))
    pts.append(_pt("DF draw w=0.0116 g=1.626", DF_DRAW, 0.0116, 1.626,
                   "value"))
    for g in (-2.0, 0.0, 1.0, 4.0):
        pts.append(_pt("DF234 J0 g=%g" % g, DF234, 0.0, g, "j0"))
    for g in (-8.0, -4.0, -2.5):
        pts.append(_pt("DD234 J0 g=%g" % g, DD234, 0.0, g, "j0"))
    assert len({p["name"] for p in pts}) == len(pts)
    assert all(math.isfinite(p["omega"]) for p in pts)
    return pts
