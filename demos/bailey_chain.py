"""
Bailey pairs, the lemma, and the two-square proof chains
========================================================

The deepest two identities in the package are proved by specializing a
Bailey-type lemma and then rewriting the result through a long chain of
exact series manipulations.  Every link of that chain is checkable on its
own, and this script walks the whole ladder.
"""

from overq import (
    Monomial,
    bailey_check,
    chain_stage_reports,
    chain_summary,
    lemma_sides,
    pair,
)

ORDER = 80

# A Bailey pair couples two sequences alpha_n, beta_n through a finite sum.
# The check below rebuilds the defining relation for each n with running
# products and compares both sides exactly.
for name in ("lovejoy-q2", "slater-h1"):
    p = pair(name)
    print(f"pair {name}: relative {p.relative},",
          "relation ok" if bailey_check(name, 12, ORDER).ok else "BROKEN")
    print("   beta_2 =", p.beta(2, 10))

# The lemma turns a pair into an identity between an Euler-product-weighted
# sum over beta and a lattice sum over alpha.  Both specializations used by
# the two-square theorems:
for name, a in (("lovejoy-q2", Monomial(-1, 1)), ("slater-h1", Monomial(-1, 0))):
    lhs, rhs = lemma_sides(name, a, ORDER)
    print(f"lemma at {name}, a={a}: sides agree:", lhs.equal_up_to(rhs, ORDER))

# From the lemma output to the printed theorems runs a chain of rewriting
# steps; each stage pins one manipulation against an independent rebuild.
reports = chain_stage_reports(ORDER)
print(f"\n{len(reports)} chain stages at order {ORDER}:")
for report in reports:
    print(f"   {'ok ' if report.ok else 'FAIL'} {report.name}")

print("\naggregate:", chain_summary(reports, ORDER).note)
