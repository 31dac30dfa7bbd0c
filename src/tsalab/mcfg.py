"""Multiple context-free grammars: ranked nonterminals rewriting tuples
of strings, bottom-up enumeration to a length bound, chart membership
over span tuples, and productive-nonterminal emptiness.

Semantics is substitution-then-drop: a body variable may go unused in the
head ("at most once"), in which case its value is deleted.  Enumeration
and membership first rewrite such deleting rules away (`non_deleting`).
"""

from __future__ import annotations

import itertools
import re
from collections import defaultdict, namedtuple
from dataclasses import dataclass
from operator import itemgetter

from .treestack import InputError
from .tsa import Names, ParseError, read_sections

# tokens of this shape are always variables in head fields
_VAR_PATTERN = re.compile(r"[xy][0-9]+")


class McfgError(ParseError):
    pass


class RankMismatch(McfgError):
    pass


class VariableReused(McfgError):
    pass


# a head-argument token: ("t", terminal) or ("v", variable name)
Token = tuple[str, str]


@dataclass(frozen=True)
class McfgRule:
    """A rule head(head_args) <- body; a body entry is (nonterminal, vars)."""

    head: str
    head_args: tuple[tuple[Token, ...], ...]
    body: tuple[tuple[str, tuple[str, ...]], ...]

    def variables(self) -> list[str]:
        return [v for _, vs in self.body for v in vs]

    def __str__(self):
        def arg(ts):
            return " ".join(tok for _, tok in ts)

        head = f"{self.head}({', '.join(arg(a) for a in self.head_args)})"
        if not self.body:
            return f"{head} <-"
        body = ", ".join(f"{n}({', '.join(vs)})" for n, vs in self.body)
        return f"{head} <- {body}"


@dataclass(frozen=True)
class Mcfg:
    """A multiple context-free grammar: ranks, terminals, rules, start."""

    ranks: tuple[tuple[str, int], ...]  # nonterminal -> rank, insertion order
    terminals: tuple[str, ...]
    rules: tuple[McfgRule, ...]
    start: str


def _validate_rule(rule: McfgRule, lineno: int):
    """The rule checks the parse loop leaves over: it fixes every
    nonterminal's arity, and a head token is a variable only if the body
    binds it."""
    vars_ = rule.variables()
    if len(vars_) != len(set(vars_)):
        raise VariableReused(f"body variables not pairwise distinct in {rule}", lineno)
    used = _head_variables(rule)
    if len(used) != len(set(used)):
        raise VariableReused(f"variable used twice in the head of {rule}", lineno)


def _head_variables(rule: McfgRule) -> list[str]:
    return [tok for argument in rule.head_args for kind, tok in argument if kind == "v"]


def parse_mcfg(text: str) -> Mcfg:
    """Parse the grammar file format: `rule: A(f1, f2) <- B(x1, x2), ...`
    with whitespace-separated tokens inside fields and empty fields for eps.
    A head token is a variable iff the rule's body declares it."""
    start = None
    start_line = 1
    raw_rules: list[tuple[int, str]] = []
    for lineno, key, rest, _ in read_sections(text, "mcfg"):
        if key == "start":
            if start is not None:
                raise ParseError("start is declared twice", lineno)
            start, start_line = rest.strip(), lineno
        elif key == "rule":
            raw_rules.append((lineno, rest.strip()))
        else:
            raise ParseError(f"unknown section {key!r}", lineno)
    if start is None:
        raise ParseError("missing start nonterminal", 1)

    def parse_call(text: str, lineno: int) -> tuple[str, list[str]]:
        if "(" not in text or not text.endswith(")"):
            raise ParseError(f"expected NT(...), got {text!r}", lineno)
        name, inner = text.split("(", 1)
        return name.strip(), [f.strip() for f in inner[:-1].split(",")]

    ranks: dict[str, int] = {}
    rules = []
    terminals: list[str] = []
    for lineno, body_text in raw_rules:
        if "<-" not in body_text:
            raise ParseError("rule needs '<-'", lineno)
        head_text, tail = body_text.split("<-", 1)
        head, fields = parse_call(head_text.strip(), lineno)
        body = []
        tail = tail.strip()
        if tail:
            depth = 0
            parts = []
            cur = ""
            for ch in tail:
                if ch == "(":
                    depth += 1
                elif ch == ")":
                    depth -= 1
                if ch == "," and depth == 0:
                    parts.append(cur)
                    cur = ""
                else:
                    cur += ch
            parts.append(cur)
            for part in parts:
                nt, vs = parse_call(part.strip(), lineno)
                for v in vs:
                    if not v or " " in v:
                        raise ParseError(f"bad variable {v!r}", lineno)
                body.append((nt, tuple(vs)))
        declared_vars = {v for _, vs in body for v in vs}
        head_args = []
        for fld in fields:
            toks = []
            for tok in fld.split():
                if tok in declared_vars:
                    toks.append(("v", tok))
                elif _VAR_PATTERN.fullmatch(tok):
                    raise McfgError(f"variable {tok!r} not bound by the body", lineno)
                else:
                    toks.append(("t", tok))
                    if tok not in terminals:
                        terminals.append(tok)
            head_args.append(tuple(toks))
        rule = McfgRule(head, tuple(head_args), tuple(body))
        for nt, arity in [(head, len(head_args))] + [(n, len(vs)) for n, vs in body]:
            if nt in ranks:
                if ranks[nt] != arity:
                    raise RankMismatch(f"{nt} used with ranks {ranks[nt]} and {arity}", lineno)
            else:
                ranks[nt] = arity
        rules.append((lineno, rule))

    if start not in ranks:
        raise ParseError(f"start nonterminal {start!r} has no rules", start_line)
    if ranks[start] != 1:
        raise RankMismatch(f"start nonterminal must have rank 1, has {ranks[start]}", start_line)
    for lineno, rule in rules:
        _validate_rule(rule, lineno)
    return Mcfg(tuple(ranks.items()), tuple(terminals), tuple(rule for _, rule in rules), start)


def _rule_args(rule: McfgRule) -> tuple:
    """The head arguments in the form both engines read: per argument, its
    leading terminals, then one (slot, terminals that follow it) pair per
    variable, where a slot is the variable's (body position, component)."""
    slot = {v: (p, c) for p, (_, vs) in enumerate(rule.body) for c, v in enumerate(vs)}
    args = []
    for argument in rule.head_args:
        pre, parts = "", []
        for kind, tok in argument:
            if kind == "v":
                parts.append((slot[tok], ""))
            elif parts:
                parts[-1] = (parts[-1][0], parts[-1][1] + tok)
            else:
                pre += tok
        args.append((pre, tuple(parts)))
    return tuple(args)


_weight = itemgetter(0)  # of a (weight, tuple) pool entry


def derivable_tuples(mcfg: Mcfg, max_total_len: int) -> dict[str, set[tuple[str, ...]]]:
    """Least fixpoint of the rules over value tuples of total length at
    most the bound (Seki et al. 1991), with every nonterminal a key.

    It is computed semi-naively (Bancilhon & Ramakrishnan 1986): round r
    fires a rule only on body combinations that take a tuple first derived
    in round r-1.  The positions before that one take older tuples and the
    positions after it take any, so no combination is joined twice.  A
    pool holds a nonterminal's tuples sorted by their letters, and a join
    stops at the first tuple that no longer fits in the bound less the
    rule's own letters.  A deleting grammar raises `InputError`: the bound
    would also cut the components its rules drop, so rewrite it with
    `non_deleting` first, as `mcfg_enumerate` does."""
    if non_deleting(mcfg) is not mcfg:
        raise InputError("derivable_tuples takes a non-deleting grammar; "
                         "rewrite it with non_deleting first")
    values: dict[str, set[tuple[str, ...]]] = {nt: set() for nt, _ in mcfg.ranks}
    newest: dict[str, list[tuple[str, ...]]] = {nt: [] for nt in values}
    rules = []
    for rule in mcfg.rules:
        args = _rule_args(rule)
        const = sum(len(pre) + sum(len(post) for _, post in parts) for pre, parts in args)
        if rule.body:
            rules.append((rule.head, const, tuple(nt for nt, _ in rule.body), args))
        elif const <= max_total_len:
            tup = tuple(pre for pre, _ in args)
            if tup not in values[rule.head]:
                values[rule.head].add(tup)
                newest[rule.head].append(tup)
    # a pool is a list of (weight, tuple) pairs in order of weight; per
    # body nonterminal, the tuples older than the last round
    older = {nt: [] for _, _, body, _ in rules for nt in body}
    while any(newest[nt] for nt in older):  # else no join has a new tuple
        fresh: dict[str, list[tuple[str, ...]]] = {nt: [] for nt in values}
        pools = {}  # nonterminal -> (older, newest, all)
        for nt, old in older.items():
            new = sorted([(sum(map(len, tup)), tup) for tup in newest[nt]], key=_weight)
            # sorting the two sorted runs only merges them
            pools[nt] = (old, new, sorted(old + new, key=_weight) if new else old)
        for head, const, body, args in rules:
            for i in range(len(body)):
                chosen = [pools[nt][0 if p < i else 1 if p == i else 2]
                          for p, nt in enumerate(body)]
                if all(chosen):
                    _bounded_join(args, chosen, max_total_len - const, values[head], fresh[head])
        older = {nt: pool[2] for nt, pool in pools.items()}
        newest = fresh
    return values


def _bounded_join(args: tuple, pools: list, budget: int, seen: set, found: list):
    """Add to `seen` and `found` the head tuples (built from the head
    arguments `args`, in `_rule_args` form) not in `seen` of every
    combination of one entry per pool whose weights sum to at most the
    budget; each pool is sorted by weight."""
    n = len(pools)
    rest = [0] * n  # the least weight the later positions add
    for k in range(n - 2, -1, -1):
        rest[k] = rest[k + 1] + pools[k + 1][0][0]
    combo = [()] * n

    def walk(k, left):
        limit = left - rest[k]
        for weight, tup in pools[k]:
            if weight > limit:
                break
            combo[k] = tup
            if k + 1 < n:
                walk(k + 1, left - weight)
                continue
            out = tuple(pre + "".join([combo[p][c] + post for (p, c), post in parts])
                        for pre, parts in args)
            if out not in seen:
                seen.add(out)
                found.append(out)

    walk(0, budget)


def non_deleting(mcfg: Mcfg) -> Mcfg:
    """An equivalent grammar in which every body variable occurs in the
    head (Seki et al. 1991, Lemma 2.2); `mcfg` itself when no rule deletes.

    Its nonterminals are the pairs (A, components of A that are kept)
    reachable from the start symbol.  A pair keeping every component keeps
    the name A; any other is named like `A[1,3]` (1-based components),
    primed by `tsa.Names` if the grammar already has that name.  A
    body occurrence whose components are all dropped becomes the condition
    that its nonterminal is productive.  Every component of a tuple derived
    in the result is a substring of the word derived from it, so a bound
    on the word length bounds every tuple."""
    if all(set(_head_variables(rule)) == set(rule.variables()) for rule in mcfg.rules):
        return mcfg
    ranks = dict(mcfg.ranks)
    productive = productive_nonterminals(mcfg)
    rules_of: dict[str, list[McfgRule]] = defaultdict(list)
    for rule in mcfg.rules:
        rules_of[rule.head].append(rule)
    invented = Names(ranks)
    names: dict[tuple[str, tuple[int, ...]], str] = {}
    todo: list[tuple[str, tuple[int, ...]]] = []

    def name(nt: str, kept: tuple[int, ...]) -> str:
        if (nt, kept) not in names:
            names[nt, kept] = (nt if len(kept) == ranks[nt] else
                               invented.new(f"{nt}[{','.join(str(c + 1) for c in kept)}]"))
            todo.append((nt, kept))
        return names[nt, kept]

    name(mcfg.start, (0,))
    rules = []
    for nt, kept in todo:  # grows while it is walked
        for rule in rules_of[nt]:
            head_args = tuple(rule.head_args[c] for c in kept)
            used = {tok for argument in head_args for kind, tok in argument if kind == "v"}
            body = []
            for b, vs in rule.body:
                sub = tuple(c for c, v in enumerate(vs) if v in used)
                if sub:
                    body.append((name(b, sub), tuple(vs[c] for c in sub)))
                elif b not in productive:
                    break
            else:
                rules.append(McfgRule(names[nt, kept], head_args, tuple(body)))
    ranks_out = tuple((new, len(kept)) for (_, kept), new in names.items())
    return Mcfg(ranks_out, mcfg.terminals, tuple(rules), mcfg.start)


def mcfg_enumerate(mcfg: Mcfg, max_total_len: int) -> set[str]:
    """All words of the grammar with length <= the bound."""
    g = non_deleting(mcfg)
    values = derivable_tuples(g, max_total_len)
    return {tup[0] for tup in values[g.start]}


# A non-deleting rule compiled for `mcfg_member`: head nonterminal, body
# nonterminals, head arguments in `_rule_args` form and join plans.
# `plans[p]` orders the other body positions for an item that fills
# position p: each step (position, component, anchor slot, gap, side)
# looks the component up by its start, gap characters after the anchor
# ends (side "start"); by its end, gap characters before the anchor starts
# ("end"); or among all items of the nonterminal (None).  A namedtuple,
# because defining a dataclass adds about a millisecond to every import of
# this module.
_ChartRule = namedtuple("_ChartRule", "head body args plans")


def _chart_rule(rule: McfgRule) -> _ChartRule:
    args = _rule_args(rule)
    # (slot a, slot b, gap): b starts gap characters after a ends
    adjacent = [(a, b, len(gap)) for _, parts in args
                for (a, gap), (b, _) in zip(parts, parts[1:])]
    n = len(rule.body)
    plans = []
    for p in range(n):
        bound, plan = {p}, []
        while len(bound) < n:
            step = (min(set(range(n)) - bound), 0, None, 0, None)
            for a, b, gap in adjacent:
                if a[0] in bound and b[0] not in bound:
                    step = (b[0], b[1], a, gap, "start")
                    break
                if b[0] in bound and a[0] not in bound:
                    step = (a[0], a[1], b, gap, "end")
                    break
            plan.append(step)
            bound.add(step[0])
        plans.append(tuple(plan))
    return _ChartRule(rule.head, tuple(nt for nt, _ in rule.body), args, tuple(plans))


def _compiled(mcfg: Mcfg) -> tuple[str, list[_ChartRule], dict[str, list[tuple[_ChartRule, int]]]]:
    """The grammar as `mcfg_member` reads it: the start symbol of
    `non_deleting(mcfg)`, its rules compiled by `_chart_rule`, and each
    nonterminal's triggers (rule, body position it fills).  Cached on the
    grammar, one form for every query on it, since grammars are immutable."""
    compiled = mcfg.__dict__.get("_compiled")
    if compiled is None:
        g = non_deleting(mcfg)
        rules = [_chart_rule(rule) for rule in g.rules]
        triggers: dict[str, list[tuple[_ChartRule, int]]] = {}
        for rule in rules:
            for p, nt in enumerate(rule.body):
                triggers.setdefault(nt, []).append((rule, p))
        compiled = mcfg.__dict__["_compiled"] = (g.start, rules, triggers)
    return compiled


def mcfg_member(mcfg: Mcfg, w: str) -> bool:
    """Whether the grammar derives w: an agenda-driven chart over span
    tuples (Seki et al. 1991; Kallmeyer 2010), polynomial in |w|
    for a fixed grammar.

    An item (A, ((i1, j1), ..., (ir, jr))) records that A derives the
    tuple (w[i1:j1], ..., w[ir:jr]).  Body-less rules are the axioms.  A
    rule fires when all its body items are in the chart; its head
    arguments are then matched against w, terminals as substrings.  The
    chart indexes items by (A, component, start) and (A, component, end),
    so a join looks up only the items adjacent to the one that fired it.
    Deleting rules are first rewritten by `non_deleting`."""
    start, rules, triggers = _compiled(mcfg)
    by_start: dict[tuple[str, int, int], list] = defaultdict(list)
    by_end: dict[tuple[str, int, int], list] = defaultdict(list)
    by_nt: dict[str, list] = defaultdict(list)
    occurrences: dict[str, list[tuple[int, int]]] = {}
    seen: set = set()
    agenda: list = []

    def constant(s: str) -> list[tuple[int, int]]:
        if s not in occurrences:
            occurrences[s] = [(i, i + len(s)) for i in range(len(w) - len(s) + 1)
                              if w.startswith(s, i)]
        return occurrences[s]

    def conclude(rule: _ChartRule, spans: list) -> None:
        options = []
        for pre, parts in rule.args:
            if not parts:
                options.append(constant(pre))
                continue
            (p, c), _ = parts[0]
            start = spans[p][c][0] - len(pre)
            if start < 0 or not w.startswith(pre, start):
                return
            pos = start + len(pre)
            for (p, c), post in parts:
                i, j = spans[p][c]
                if i != pos or not w.startswith(post, j):
                    return
                pos = j + len(post)
            options.append(((start, pos),))
        for head_spans in itertools.product(*options):
            item = (rule.head, head_spans)
            if item not in seen:
                seen.add(item)
                agenda.append(item)

    def join(rule: _ChartRule, plan: tuple, k: int, spans: list) -> None:
        if k == len(plan):
            conclude(rule, spans)
            return
        q, c, anchor, gap, side = plan[k]
        nt = rule.body[q]
        if side == "start":
            found = by_start.get((nt, c, spans[anchor[0]][anchor[1]][1] + gap), ())
        elif side == "end":
            found = by_end.get((nt, c, spans[anchor[0]][anchor[1]][0] - gap), ())
        else:
            found = by_nt.get(nt, ())
        for item_spans in found:
            spans[q] = item_spans
            join(rule, plan, k + 1, spans)

    for rule in rules:
        if not rule.body:
            conclude(rule, [])
    goal = (start, ((0, len(w)),))
    while agenda and goal not in seen:
        nt, item_spans = agenda.pop()
        for c, (i, j) in enumerate(item_spans):
            by_start[nt, c, i].append(item_spans)
            by_end[nt, c, j].append(item_spans)
        by_nt[nt].append(item_spans)
        for rule, p in triggers.get(nt, ()):
            spans = [None] * len(rule.body)
            spans[p] = item_spans
            join(rule, rule.plans[p], 0, spans)
    return goal in seen


def productive_nonterminals(mcfg: Mcfg) -> set[str]:
    """Nonterminals that derive at least one value tuple; the language is
    nonempty iff the start symbol is productive."""
    productive: set[str] = set()
    changed = True
    while changed:
        changed = False
        for rule in mcfg.rules:
            if rule.head in productive:
                continue
            if all(nt in productive for nt, _ in rule.body):
                productive.add(rule.head)
                changed = True
    return productive


def is_empty(mcfg: Mcfg) -> bool:
    return mcfg.start not in productive_nonterminals(mcfg)


EXAMPLE_ABCD = """\
mcfg
start: S
rule: T(,) <-
rule: T(a x1 b, c x2 d) <- T(x1, x2)
rule: S(x1 x2) <- T(x1, x2)
"""

EXAMPLE_ANBMCNDM = """\
mcfg
start: S
rule: P(,) <-
rule: Q(,) <-
rule: P(a x1, c x2) <- P(x1, x2)
rule: Q(b x1, d x2) <- Q(x1, x2)
rule: S(x1 y1 x2 y2) <- P(x1, x2), Q(y1, y2)
"""

# the word problem of Z = <t>, T = t^-1: words with as many t as T
EXAMPLE_WPZ = """\
mcfg
start: S
rule: S() <-
rule: S(t x1 T) <- S(x1)
rule: S(T x1 t) <- S(x1)
rule: S(x1 y1) <- S(x1), S(y1)
"""
