"""Grammars, group word problems and the experiment suites.

Multiple context-free grammars rewrite tuples of strings; they are
enumerated to a length bound, and membership is decided by a chart over
span tuples.  Pushdown automata translate
to tree stack machines that never move up, and word problems of groups
decide rational-subset membership.  The gap test
and the direct-product experiment reproduce the negative results at desk
scale.

Run:  python demos/03_grammars_groups_experiments.py
"""

from tsalab import (
    SearchOptions,
    accepts,
    f2f2_experiment,
    fixture_wpz_pda,
    fixture_wpz_tsa,
    gap_check,
    mcfg_enumerate,
    mcfg_member,
    parse_mcfg,
    pda_accepts,
    pda_to_tsa1,
    rational_membership,
    regex_to_fsa,
)
from tsalab.langlab import WPZ_ALPHABET, unary_lengths
from tsalab.mcfg import EXAMPLE_ANBMCNDM, EXAMPLE_WPZ

print("Grammar enumeration (tuple rewriting, bounded) and chart membership:")
g = parse_mcfg(EXAMPLE_ANBMCNDM)
print("  a^n b^m c^n d^m up to length 6:", sorted(mcfg_enumerate(g, 6), key=lambda w: (len(w), w)))
wpz = parse_mcfg(EXAMPLE_WPZ)
print("  the integer word problem grammar derives (tT)^32:", mcfg_member(wpz, "tT" * 32))

print("\nThe integer word problem as a pushdown automaton, translated to a")
print("tree stack machine with no up moves:")
pda = fixture_wpz_pda()
tsa = pda_to_tsa1(pda)
word = "ttTtTT"
print(f"  {word!r}: pda says {bool(pda_accepts(pda, word))}, "
      f"translated machine says "
      f"{bool(accepts(tsa, word, SearchOptions(accept_mode='any')))}")

print("\nRational subset membership: is t^2 in the image of t+ ?")
B = regex_to_fsa("t+", ("t", "T"))
ans = rational_membership(fixture_wpz_tsa(), B, "tt", WPZ_ALPHABET)
print(f"  verdict: {ans.verdict}, witness: {ans.witness!r}")
ans = rational_membership(fixture_wpz_tsa(), B, "T", WPZ_ALPHABET)
print(f"  and for T (a negative instance): {ans.verdict}")

print("\nGap test: lengths whose consecutive gaps outgrow every bound cannot")
print("have a semi-linear Parikh image:")
for family in ("pow2", "square"):
    rep = gap_check(unary_lengths(family, 20), 30)
    print(f"  {family}: {rep.verdict}")
print("  multiples of three:", gap_check(list(range(3, 60, 3)), 30).verdict)

print("\nDirect-product experiment (small instance): membership in the word")
print("problem coincides with all block exponents being equal:")
rep = f2f2_experiment(2, 2)
print(f"  {rep.total} words checked, {rep.members} members, "
      f"mismatches: {len(rep.mismatches)}, erased image exact: "
      f"{rep.psi_image == rep.psi_expected}")
