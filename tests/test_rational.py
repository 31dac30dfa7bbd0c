"""Rational subset membership against Benois's saturation.

`rational_membership` decides whether the group element of w lies in the
rational subset of an FSA B by entry/exit summaries over the states of
B . w^-1.  The oracle here decides the same question on B . w^-1 alone,
for free groups (Benois 1969, *Parties rationnelles du groupe libre*): it
adds an eps edge p -> q whenever p -x-> r, r reaches r' by eps edges and
r' -x^-1-> q, closes the edge set, and asks whether an eps path joins the
initial state to the final one.  It is stdlib only and runs no search,
no summaries and no chart.  Z is the free group of rank 1, over t and T;
F2 is the free group over a, b, with A and B their inverses.
"""

from conftest import words_upto

from tsalab.convert import fixture_wpz_tsa, parse_pda, pda_to_tsa1
from tsalab.langlab import (
    WPZ_ALPHABET,
    build_Bw,
    eps_free,
    fsa_accepts,
    group_alphabet,
    rational_membership,
    regex_to_fsa,
)
from tsalab.tsa import is_accepting_run, make_root_accepting, replay

# WP(F2) as a PDA in the shape of WPZ_PDA_FILE: the stack holds the freely
# reduced word read so far, a letter pops its inverse or pushes itself, and
# the empty stack accepts
F2_PDA_FILE = """\
pda
states: q qf
initial: q
final: qf
stack: a A b B
alphabet: a A b B
trans: q a push @ a q
trans: q a push a a q
trans: q a push b a q
trans: q a push B a q
trans: q a pop A q
trans: q A push @ A q
trans: q A push A A q
trans: q A push b A q
trans: q A push B A q
trans: q A pop a q
trans: q b push @ b q
trans: q b push a b q
trans: q b push A b q
trans: q b push b b q
trans: q b pop B q
trans: q B push @ B q
trans: q B push a B q
trans: q B push A B q
trans: q B push B B q
trans: q B pop b q
trans: q eps push @ - qf
"""

F2_ALPHABET = group_alphabet(("a", "A"), ("b", "B"))

Z_REGEXES = ["t+", "tT", "(t|T)*", "t*", "T(tt)*", "(tt|TT)*", "t(tT)*", "(ttT)*T", "T+t+"]
F2_REGEXES = ["(a|b)*", "(ab)*", "a*b*", "(aA|bB)*a", "(abAB)*", "a(bA)*", "(aB|Ba)+", "(a|A)*b"]


def benois(fsa, inverse) -> bool:
    """Whether some word of fsa reduces freely to the empty word."""
    reads: dict[str, list[tuple[str, str]]] = {q: [] for q in fsa.states}
    eps = {q: {q} for q in fsa.states}  # state -> the states its eps paths reach
    for p, x, q in fsa.delta:
        if x is None:
            eps[p].add(q)
        else:
            reads[p].append((x, q))
    grown = True
    while grown:
        for p in eps:  # close under eps paths
            todo = list(eps[p])
            while todo:
                for q in list(eps[todo.pop()]):
                    if q not in eps[p]:
                        eps[p].add(q)
                        todo.append(q)
        grown = False
        for p in fsa.states:
            for x, r in reads[p]:
                for r2 in list(eps[r]):
                    for y, q in reads[r2]:
                        if y == inverse[x] and q not in eps[p]:
                            eps[p].add(q)
                            grown = True
    return bool(eps[fsa.initial] & fsa.finals)


def free_reduce(word: str) -> str:
    out: list[str] = []
    for x in word:
        if out and out[-1] == x.swapcase():
            out.pop()
        else:
            out.append(x)
    return "".join(out)


def diff_against_benois(machine, pairing, regexes, words) -> dict[str, int]:
    verdicts = {"yes": 0, "no": 0}
    inverse = dict(pairing.pairing)
    for regex in regexes:
        B = regex_to_fsa(regex, pairing.letters)
        for w in words:
            bw = build_Bw(B, w, pairing)
            ans = rational_membership(machine, B, w, pairing)
            assert ans.verdict == ("yes" if benois(bw, inverse) else "no"), (regex, w)
            verdicts[ans.verdict] += 1
            if ans.verdict == "yes":
                assert fsa_accepts(eps_free(bw), ans.witness) and free_reduce(ans.witness) == ""
                again = replay(machine, ans.witness, ans.trace.transition_indices())
                assert again.steps == ans.trace.steps and is_accepting_run(again), (regex, w)
    return verdicts


def test_benois_oracle_on_hand_cases():
    inverse = dict(WPZ_ALPHABET.pairing)
    B = regex_to_fsa("t+", WPZ_ALPHABET.letters)
    assert benois(build_Bw(B, "tt", WPZ_ALPHABET), inverse)
    assert not benois(build_Bw(B, "T", WPZ_ALPHABET), inverse)
    assert not benois(build_Bw(B, "", WPZ_ALPHABET), inverse)
    # the cancellation nests: a b B A
    B = regex_to_fsa("a(bB)*A", F2_ALPHABET.letters)
    assert benois(build_Bw(B, "", F2_ALPHABET), dict(F2_ALPHABET.pairing))


def test_rational_membership_matches_benois_on_z():
    words = list(words_upto("tT", 4))
    verdicts = diff_against_benois(fixture_wpz_tsa(), WPZ_ALPHABET, Z_REGEXES, words)
    assert sum(verdicts.values()) == 279 and min(verdicts.values()) > 50, verdicts


def test_rational_membership_matches_benois_on_f2():
    machine = make_root_accepting(pda_to_tsa1(parse_pda(F2_PDA_FILE)))
    words = list(words_upto("aAbB", 3))
    verdicts = diff_against_benois(machine, F2_ALPHABET, F2_REGEXES, words)
    assert sum(verdicts.values()) == 680 and min(verdicts.values()) > 50, verdicts
