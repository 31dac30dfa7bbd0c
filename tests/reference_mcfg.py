"""Reference MCFG enumeration: the naive fixpoint that `derivable_tuples`
replaced.  Every round re-sorts every body pool, joins all of it again and
only then drops the results that are too long.  It is slow but plain;
test_mcfg.py checks the semi-naive fixpoint against it.
"""

from __future__ import annotations

import itertools

from tsalab.mcfg import Mcfg, McfgRule


def _apply_rule(rule: McfgRule, values: dict[str, tuple[str, ...]]) -> tuple[str, ...]:
    out = []
    for argument in rule.head_args:
        parts = []
        for kind, tok in argument:
            parts.append(values[tok] if kind == "v" else tok)
        out.append("".join(parts))
    return tuple(out)


def ref_derivable_tuples(mcfg: Mcfg, max_total_len: int) -> dict[str, set[tuple[str, ...]]]:
    """Least fixpoint of the rules over value tuples of total length at
    most the bound, iterating rules in file order until stable.  The bound
    also cuts components that a deleting rule drops later; `mcfg_enumerate`
    avoids that by enumerating the `non_deleting` grammar."""
    values: dict[str, set[tuple[str, ...]]] = {nt: set() for nt, _ in mcfg.ranks}
    changed = True
    while changed:
        changed = False
        for rule in mcfg.rules:
            if not rule.body:
                tup = _apply_rule(rule, {})
                if sum(len(x) for x in tup) <= max_total_len and tup not in values[rule.head]:
                    values[rule.head].add(tup)
                    changed = True
                continue
            pools = [sorted(values[nt]) for nt, _ in rule.body]
            if any(not p for p in pools):
                continue
            for combo in itertools.product(*pools):
                env: dict[str, tuple[str, ...]] = {}
                for (nt, vs), tup in zip(rule.body, combo):
                    for v, val in zip(vs, tup):
                        env[v] = val
                out = _apply_rule(rule, env)
                if sum(len(x) for x in out) <= max_total_len and out not in values[rule.head]:
                    values[rule.head].add(out)
                    changed = True
    return values
