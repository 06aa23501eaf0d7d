"""Numerical policy: every finite-difference step, margin and tolerance.

The package decides integrability by comparing finite-difference
residuals and curvature norms against steps and thresholds.  They are all
defined here, once, and each stage imports the ones it reads;
tests/test_numerics.py fails if another module defines one.  This module
holds constants only and imports nothing.

Every value is absolute, so none follows a rescaling g -> lam^2 g, under
which curvatures scale by lam^-2 (the xfail tests of
tests/test_harness.py).  The values date from the first version of the
package, and neither the history nor CHANGES.md records a reason for any
of them.  Each provenance line names the tests that fail when the value
alone is multiplied or divided by 10 or 100 ("x10", "/100"), or says
that none fails within a factor of 100.

The stencil weight tables stay in riemann and calculus: the closed-form
geometry and the finite-difference oracle are kept apart, each with its
own table.
"""

# -- finite-difference steps -------------------------------------------------

#: Metric step of the geometry stencil, relative to the box:
#: MetricSpec.fd_step = FD_STEP_FACTOR * (hi - lo) / 2, read by riemann.
# No recorded reason; pinned by test_cli::test_oracle_verb_output_is_pinned (x10, /10).
FD_STEP_FACTOR = 1e-3

#: Default step of the vector calculus: calculus.partial and the brackets.
# No recorded reason; pinned only at x100, by test_acceptance::test_criterion_7_bracket_calculus; none fails at /100.
DEFAULT_STEP = 1e-3

#: Step of the oracle's chart stencil, which nijenhuis_numeric always
#: uses; it also evaluates at half of it for its noise estimate.
# No recorded reason; pinned by test_cli::test_oracle_verb_output_is_pinned (x10, /10).
DEFAULT_ORACLE_STEP = 1e-2

# -- margins -----------------------------------------------------------------

#: Sampling margin of MetricSpec.interior_points, a fraction of the box
#: edge per side; the oracle verb widens it to oracle.oracle_margin.
# No recorded reason; pinned by test_cli::test_oracle_verb_output_is_pinned (x10, /10).
SAMPLE_MARGIN = 0.05

#: Minimum of 1 + pole * a3 before the oracle's stereographic chart
#: refuses a fiber point and asks for the opposite pole.
# No recorded reason; pinned by test_oracle::test_pole_choice_does_not_change_verdicts (x10), not below.
POLE_MARGIN = 0.1

#: Rounding allowance of oracle.oracle_margin, in ulps of the box's largest
#: coordinate: a metric point is the chart point plus two offsets, and the
#: guard adds lo + margin, three roundings of at most half an ulp each.
# Those 1.5 ulps, with room for a reach measured by subtraction; none fails at x10 or /10, and at 0
# the test_properties and test_oracle reach tests do (s4: 0.022000000000000006 against 0.022).
ORACLE_REACH_ULPS = 4

# -- verdict bounds, read by harness -----------------------------------------

#: Curvature sup-norm under which a flag counts as "zero".
# No recorded reason; no test fails within a factor of 100.
DEFAULT_FLAG_THRESHOLD = 1e-4

#: Residual bound for an "integrable" verdict; check(tol=) and --tol
#: override it.
# No recorded reason; within a factor of 100 only the xfail scale tests of test_harness react (x100, /100).
DEFAULT_TOL = 1e-4

#: Residuals above this are called "obstructed"; the band between the
#: two bounds is reported as "inconclusive", never silently classified.
# No recorded reason; within a factor of 100 only test_harness's xfail small-sphere test reacts (x10).
OBSTRUCTION_FLOOR = 1e-3

# -- roundoff and input checks -----------------------------------------------

#: Bound on the FD roundoff of one curvature operator in riemann.decompose:
#: its asymmetry defect and the mismatch of its two scalar readings.
# Two equal bounds of the first version, merged; no recorded reason; only the xfail fubini-study test reacts (x10).
OPERATOR_TOL = 1e-5

#: riemann's symmetry test of the metric, np.isclose's rule written out:
#: |g - g^T| <= METRIC_SYMMETRY_ATOL + METRIC_SYMMETRY_RTOL |g^T|.
# No recorded reason; the first version's np.allclose(g, g.T, atol=1e-12); no test fails within a factor of 100.
METRIC_SYMMETRY_ATOL = 1e-12
# np.allclose's default rtol, which that call kept; no test fails within a factor of 100.
METRIC_SYMMETRY_RTOL = 1e-5

#: np.allclose's atol in gca's identities (m @ m = -Id, m^T Q m = Q) and
#: antisymmetry checks; np.allclose's default rtol, 1e-5, applies as well.
# No recorded reason; no test fails within a factor of 100.
ALGEBRA_TOL = 1e-10

#: Relative singular-value cutoff of gca's rank, against max(s[0], 1).
# No recorded reason; no test fails within a factor of 100.
RANK_RTOL = 1e-8

#: How far from 1 the norm of a twistor.FiberPoint vector may be.
# No recorded reason; no test fails within a factor of 100.
UNIT_TOL = 1e-12
