"""Run surgery: factorisations, history arrays, swapping and pumping.

Fixing a vertex of the final tree cuts an accepted word into the parts
read above it (the u factors) and below it (the w factors).  The history
array records the machine's label/state each time the pointer crosses
that vertex's parent edge.  Two runs with equal history arrays can trade
their u factors and stay in the language; a long stay at one vertex
yields a pumpable factor.

Run:  python demos/02_run_surgery.py
"""

from tsalab import (
    SearchOptions,
    accepts,
    collect_upsets,
    find_pumpable,
    history_array,
    level1_arrays,
    nu_factorisation,
    single_swap,
)
from tsalab.fixtures import abcd_tsa, astar_tsa

tsa = abcd_tsa()
opts = SearchOptions(k=2, proper_only=True)

small = accepts(tsa, "abcd", opts)
big = accepts(tsa, "aabbccdd", opts)

print("Factorisation of aabbccdd at vertex 1:")
f = nu_factorisation(big, (1,))
print(f"  w0={f.w0!r}  parts={f.parts}")

print("\nHistory arrays at vertex 1 of both runs:")
print(" ", history_array(small, (1,)))
print(" ", history_array(big, (1,)))

print("\nThey match, so the u factors can be swapped:")
rep = single_swap(small, (1,), big, (1,))
print(f"  abcd with the big run's factors spliced in -> {rep.word!r}, "
      f"accepted: {rep.accepted}, explicit splice replays: {rep.spliced_replay_ok}")

print("\nCollecting u tuples per history array over m = 1..5:")
ups = collect_upsets(tsa, ["a" * m + "b" * m + "c" * m + "d" * m for m in range(1, 6)], opts)
for h, tuples in ups.entries.items():
    sample = sorted(tuples)[:3]
    print(f"  {h}: {len(tuples)} tuple(s), e.g. {sample}")

print("\nLevel-1 view of the aabbccdd run (crossings of the root edge):")
l1 = level1_arrays(big)
print(f"  l={l1.ls} m={l1.ms} child={l1.ns}")

print("\nPumping: the a* machine sits at the root while reading, so any")
print("long enough word pumps:")
tr = accepts(astar_tsa(), "aaaaa", SearchOptions(accept_mode="any"))
pump = find_pumpable(tr, 1)
print(f"  x={pump.x!r} y={pump.y!r} z={pump.z!r}; "
      f"re-accepted at exponents {sorted(pump.verified)}: "
      f"{all(pump.verified.values())}")
