"""Multiple context-free grammars: ranked nonterminals rewriting tuples
of strings, bottom-up enumeration to a length bound, membership at desk
scale, and productive-nonterminal emptiness.

Semantics is substitution-then-drop: a body variable may go unused in the
head ("at most once"), in which case its value is deleted.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass

from .tsa import ParseError, read_sections

# tokens of this shape are always variables in head fields
_VAR_PATTERN = re.compile(r"[xy][0-9]+")


class McfgError(Exception):
    pass


class RankMismatch(McfgError):
    pass


class VariableReused(McfgError):
    pass


# a head-argument token: ("t", terminal) or ("v", variable name)
Token = tuple[str, str]


@dataclass(frozen=True)
class McfgRule:
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
    ranks: tuple[tuple[str, int], ...]  # nonterminal -> rank, insertion order
    terminals: tuple[str, ...]
    rules: tuple[McfgRule, ...]
    start: str

    def rank_of(self, nt: str) -> int:
        return dict(self.ranks)[nt]


def _validate_rule(rule: McfgRule, ranks: dict[str, int]):
    if len(rule.head_args) != ranks[rule.head]:
        raise RankMismatch(
            f"{rule.head} declared rank {ranks[rule.head]}, rule has {len(rule.head_args)} fields")
    vars_ = rule.variables()
    if len(vars_) != len(set(vars_)):
        raise VariableReused(f"body variables not pairwise distinct in {rule}")
    for nt, vs in rule.body:
        if len(vs) != ranks[nt]:
            raise RankMismatch(f"{nt} used with {len(vs)} variables, rank is {ranks[nt]}")
    used = [tok for argument in rule.head_args for kind, tok in argument if kind == "v"]
    if len(used) != len(set(used)):
        raise VariableReused(f"variable used twice in the head of {rule}")
    undeclared = set(used) - set(vars_)
    if undeclared:
        raise McfgError(f"undeclared variables {sorted(undeclared)} in {rule}")


def rank(mcfg: Mcfg) -> int:
    """The grammar's rank: the largest nonterminal rank."""
    return max(r for _, r in mcfg.ranks)


def parse_mcfg(text: str) -> Mcfg:
    """Parse the grammar file format: `rule: A(f1, f2) <- B(x1, x2), ...`
    with whitespace-separated tokens inside fields and empty fields for eps.
    A head token is a variable iff the rule's body declares it."""
    start = None
    raw_rules: list[tuple[int, str]] = []
    for lineno, key, rest, _ in read_sections(text, "mcfg"):
        if key == "start":
            start = rest.strip()
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
                    raise McfgError(f"line {lineno}: variable {tok!r} not bound by the body")
                else:
                    toks.append(("t", tok))
                    if tok not in terminals:
                        terminals.append(tok)
            head_args.append(tuple(toks))
        rule = McfgRule(head, tuple(head_args), tuple(body))
        for nt, arity in [(head, len(head_args))] + [(n, len(vs)) for n, vs in body]:
            if nt in ranks:
                if ranks[nt] != arity:
                    raise RankMismatch(f"line {lineno}: {nt} used with ranks {ranks[nt]} and {arity}")
            else:
                ranks[nt] = arity
        rules.append(rule)

    if start not in ranks:
        raise ParseError(f"start nonterminal {start!r} has no rules", 1)
    if ranks[start] != 1:
        raise RankMismatch(f"start nonterminal must have rank 1, has {ranks[start]}")
    for rule in rules:
        _validate_rule(rule, ranks)
    return Mcfg(tuple(ranks.items()), tuple(terminals), tuple(rules), start)


def _apply_rule(rule: McfgRule, values: dict[str, tuple[str, ...]]) -> tuple[str, ...]:
    out = []
    for argument in rule.head_args:
        parts = []
        for kind, tok in argument:
            parts.append(values[tok] if kind == "v" else tok)
        out.append("".join(parts))
    return tuple(out)


def derivable_tuples(mcfg: Mcfg, max_total_len: int) -> dict[str, set[tuple[str, ...]]]:
    """Least fixpoint of the rules over value tuples of total length at
    most the bound, iterating rules in file order until stable."""
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


def mcfg_enumerate(mcfg: Mcfg, max_total_len: int) -> set[str]:
    """All words of the grammar with length <= the bound."""
    values = derivable_tuples(mcfg, max_total_len)
    return {tup[0] for tup in values[mcfg.start]}


def mcfg_member(mcfg: Mcfg, w: str) -> bool:
    return w in mcfg_enumerate(mcfg, len(w))


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
