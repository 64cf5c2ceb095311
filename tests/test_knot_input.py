import random
import tracemalloc
from itertools import groupby

import pytest
from hypothesis import given, reject, seed, settings, strategies as st

from brute import peval, pinv, pmul, subgroup_of, two_bridge_skg
from handlecoset import knot_input
from handlecoset.coset_enumeration import EnumerationLimits
from handlecoset.errors import (DuplicateGenerator, MissingSection,
                                SkgSyntaxError, UnknownGenerator)
from handlecoset.handle_classifier import validate
from handlecoset.knot_input import (MAX_WORD_LETTERS, SurfaceKnotInput,
                                    format_word, parse_input, parse_word,
                                    serialize)
from handlecoset.word_algebra import (GeneratorSymbol, GroupPresentation, Word,
                                      free_reduce)

D8_CASE3 = ("group: r s\nrel: r^4\nrel: s^2\nrel: r s r s\n"
            "P: r^2 , s\nP+: r^2\nn: s\norientable: false")
D4_MODEL = ((1, 2, 3, 0), (0, 3, 2, 1))


def test_parse_minimal():
    parsed = parse_input("group: t\nP: t\norientable: true")
    assert parsed.presentation.generator_names == ("t",)
    assert parsed.presentation.relators == ()
    assert parsed.p_generators == (Word(((0, 1),)),)
    assert parsed.p_plus_generators is None
    assert parsed.n_word is None
    assert parsed.surface_orientable


def test_parse_dihedral_case3():
    parsed = parse_input(D8_CASE3)
    # oracle: every relator must act trivially in the 8-element dihedral model
    identity = (0, 1, 2, 3)
    for rel in parsed.presentation.relators:
        assert peval(rel, D4_MODEL) == identity
    # and the model realizes the full group of order 8
    assert len(subgroup_of([Word(((0, 1),)), Word(((1, 1),))], D4_MODEL)) == 8
    assert not parsed.surface_orientable
    assert len(parsed.p_generators) == 2
    assert parsed.p_plus_generators == (parse_word("r^2", parsed.presentation),)
    assert parsed.n_word == parse_word("s", parsed.presentation)


def test_parse_unknown_generator():
    with pytest.raises(UnknownGenerator):
        parse_input("group: a\nrel: a a\nP: b\norientable: true")


def test_parse_word_syntax():
    parsed = parse_input("group: a b\nP: a\norientable: true")
    assert parse_word("1", parsed.presentation).is_identity
    assert parse_word("a^-2", parsed.presentation) == Word(((0, -1), (0, -1)))
    assert parse_word("a^0 b", parsed.presentation) == Word(((1, 1),))
    assert parse_word("a 1 b", parsed.presentation) == Word(((0, 1), (1, 1)))
    with pytest.raises(SkgSyntaxError):
        parse_word("a^x", parsed.presentation)
    with pytest.raises(UnknownGenerator):
        parse_word("c", parsed.presentation)


@pytest.mark.parametrize("text, error", [
    ("P: t\norientable: true", SkgSyntaxError),          # group not first
    ("group: t\ngroup: t\nP: t\norientable: true", SkgSyntaxError),
    ("group: t t\nP: t\norientable: true", DuplicateGenerator),
    ("group: t\norientable: true", MissingSection),      # no P
    ("group: t\nP: t", MissingSection),                  # no orientable
    ("group: t\nP: t\norientable: maybe", SkgSyntaxError),
    ("group: t\nP: t ,\norientable: true", SkgSyntaxError),   # empty segment
    ("group: t\nrel: t t^-1\nP: t\norientable: true", SkgSyntaxError),
    ("group: t\nP: t\nQ: t\norientable: true", SkgSyntaxError),
    ("group: t\nP: t\nwhatever\norientable: true", SkgSyntaxError),
    ("group: t\nP: t\nP+: t\norientable: true", SkgSyntaxError),
    ("group: t\nP: t\nn: t\norientable: true", SkgSyntaxError),
    ("group: r s\nrel: r^4\nP: r\nP+: r\norientable: false", MissingSection),
    ("group: 2x\nP: 1\norientable: true", SkgSyntaxError),
])
def test_parse_errors(text, error):
    with pytest.raises(error):
        parse_input(text)


CASE3_TAIL = "P+: t\nn: t\norientable: false"


@pytest.mark.parametrize("text, error, message", [
    pytest.param("group: t\nP: t\nP: t\norientable: true", SkgSyntaxError,
                 "line 3, column 1: 'P:' may appear only once", id="P-twice"),
    pytest.param(f"group: t\nP: t\nP+: t\n{CASE3_TAIL}", SkgSyntaxError,
                 "line 4, column 1: 'P+:' may appear only once", id="P+-twice"),
    pytest.param(f"group: t\nP: t\nn: t\n{CASE3_TAIL}", SkgSyntaxError,
                 "line 5, column 1: 'n:' may appear only once", id="n-twice"),
    pytest.param("group: t\nP: t\norientable: true\norientable: true",
                 SkgSyntaxError,
                 "line 4, column 1: 'orientable:' may appear only once",
                 id="orientable-twice"),
    pytest.param("group:\nP: 1\norientable: true", SkgSyntaxError,
                 "line 1, column 7: at least one generator is required",
                 id="no-generators"),
    pytest.param("", MissingSection, "missing required section 'group:'",
                 id="empty"),
    pytest.param("group: t\nP: t\nn: t\norientable: false", MissingSection,
                 "missing required section 'P+:' "
                 "(required for non-orientable input)", id="no-P+"),
    # an exponent is -?[0-9]+ in ASCII, though int() reads all three
    pytest.param("group: a\nP: a a^1_0\norientable: true", SkgSyntaxError,
                 "line 2, column 6: bad exponent in token 'a^1_0'",
                 id="exponent-underscore"),
    pytest.param("group: a\nP: a^\u0663\norientable: true", SkgSyntaxError,
                 "line 2, column 4: bad exponent in token 'a^\u0663'",
                 id="exponent-arabic-indic-digit"),
    pytest.param("group: a\nrel: a^+2\nP: a\norientable: true", SkgSyntaxError,
                 "line 2, column 6: bad exponent in token 'a^+2'",
                 id="exponent-plus-sign"),
    pytest.param("group: a\nP: b^+2\norientable: true", UnknownGenerator,
                 "line 2, column 4: unknown generator 'b'",
                 id="unknown-generator-before-exponent"),
    # int() refuses a string of more than 4,300 digits; an exponent with
    # more significant digits than the letter budget is past the budget
    *(pytest.param(f"group: a\nP: a a^{'1' * n}\norientable: true", SkgSyntaxError,
                   "line 2, column 6: word expands to more than 100000 letters",
                   id=f"exponent-of-{n}-digits") for n in (4300, 4301)),
    pytest.param("group t", SkgSyntaxError,
                 "line 1, column 1: expected '<key>: <value>'", id="no-colon"),
    pytest.param("P: t\norientable: true", SkgSyntaxError,
                 "line 1, column 1: 'group:' must be the first non-comment line",
                 id="group-not-first"),
    pytest.param("group: t\nrel: t t^-1\nP: t\norientable: true", SkgSyntaxError,
                 "line 2, column 5: relator reduces to the identity",
                 id="identity-relator"),
    pytest.param("group: t\nP: t\norientable: maybe", SkgSyntaxError,
                 "line 3, column 12: expected 'true' or 'false'", id="orientable-maybe"),
    pytest.param("group: t\nP: t\nQ: t\norientable: true", SkgSyntaxError,
                 "line 3, column 1: unknown section 'Q'", id="unknown-section"),
    *(pytest.param(f"group: t\nP: t\n{section}: t\norientable: true", SkgSyntaxError,
                   f"line 3, column 1: '{section}:' is not allowed when orientable: true",
                   id=f"{section}-when-orientable") for section in ("P+", "n")),
    pytest.param("group: t t\nP: t\norientable: true", DuplicateGenerator,
                 "line 1, column 10: duplicate generator 't'", id="duplicate-generator"),
    # errors are reported in this order: those met while reading, in file
    # order; then a missing group:, P: or orientable:; then P+: and n:
    # against orientable:
    pytest.param("group: t\nP+: t\nP: t\nQ: t\norientable: true", SkgSyntaxError,
                 "line 4, column 1: unknown section 'Q'",
                 id="reading-error-before-orientation-rule"),
    pytest.param("group: t\nP+: t\nrel: t^3\norientable: true", MissingSection,
                 "missing required section 'P:'",
                 id="missing-section-before-orientation-rule"),
])
def test_parse_error_messages(text, error, message):
    with pytest.raises(error) as info:
        parse_input(text)
    assert type(info.value) is error
    assert str(info.value) == message


def test_syntax_error_carries_position():
    with pytest.raises(UnknownGenerator) as info:
        parse_input("group: a\nP: a zz\norientable: true")
    assert info.value.line == 2
    assert info.value.column == 6


def test_word_length_cap():
    pres = parse_input("group: a b\nP: a\norientable: true").presentation
    assert len(parse_word(f"a^{MAX_WORD_LETTERS}", pres)) == MAX_WORD_LETTERS
    # leading zeros are not significant, however many there are
    zeros = "0" * 4300
    assert len(parse_word(f"a^{zeros}{MAX_WORD_LETTERS}", pres)) == MAX_WORD_LETTERS
    assert parse_word(f"a^{zeros}1", pres) == Word(((0, 1),))
    assert parse_word(f"a^-{zeros}1", pres) == Word(((0, -1),))
    tracemalloc.start()
    try:
        with pytest.raises(SkgSyntaxError) as info:
            parse_word("b a^10000000", pres)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (info.value.line, info.value.column) == (1, 3)
    assert peak < 1_000_000  # rejected before its 10^7 letters are built
    # the cap counts letters before free reduction, across tokens
    half = MAX_WORD_LETTERS // 2 + 1
    with pytest.raises(SkgSyntaxError) as info:
        parse_input(f"group: a\nrel: a^{half} a^-{half}\nP: 1\norientable: true")
    assert (info.value.line, info.value.column) == (2, 6 + len(str(half)) + 3)


def test_a_word_past_the_cap_is_refused_where_it_is_built():
    # parse_input refuses a word of more than MAX_WORD_LETTERS letters, so
    # the constructor does too, and serialize writes only text that parses
    # back: a P of 100,001 letters once serialized to a syntax error
    s = parse_input(D8_CASE3)
    pres, p, p_plus, n = s.presentation, s.p_generators, s.p_plus_generators, s.n_word
    longest, long = (Word(((0, 1),) * k) for k in (MAX_WORD_LETTERS, MAX_WORD_LETTERS + 1))
    for build in (lambda: SurfaceKnotInput(pres, (long,), None, None, True),
                  lambda: SurfaceKnotInput(pres, p, (long,), n, False),
                  lambda: SurfaceKnotInput(pres, p, p_plus, long, False),
                  lambda: SurfaceKnotInput(
                      GroupPresentation(pres.generators, pres.relators + (long,)),
                      p, None, None, True)):
        with pytest.raises(ValueError, match=f"longer than {MAX_WORD_LETTERS} letters"):
            build()
    for t in (SurfaceKnotInput(pres, (longest,), p_plus, longest, False),
              SurfaceKnotInput(GroupPresentation(pres.generators, (longest,)),
                               p, None, None, True)):
        assert parse_input(serialize(t)) == t


def reference_parse(text, names):
    """A word read token by token: each token's letters, then free_reduce."""
    index = {name: i for i, name in enumerate(names)}
    letters = []
    for token in text.split():
        if token != "1":
            base, _, exponent = token.partition("^")
            k = int(exponent or "1")
            letters += [(index[base], 1 if k > 0 else -1)] * abs(k)
    return free_reduce(letters)


SEPARATORS = (" ", "  ", "\t", "\u00a0", "\u2028", "\u3000")


def test_parse_word_matches_a_token_by_token_reference(monkeypatch):
    # a word of one-letter tokens (a name, name^-1 or 1) is read by one
    # lookup per token, any other by the token loop; both read what the
    # reference reads, whatever whitespace separates the tokens
    pres = parse_input("group: a b x10\nP: a\norientable: true").presentation
    names = pres.generator_names
    one_letter = [*names, *(f"{n}^-1" for n in names), "1"]
    loops = [0]
    token = knot_input._TOKEN

    class Counted:
        def finditer(self, text):
            loops[0] += 1
            return token.finditer(text)

    monkeypatch.setattr(knot_input, "_TOKEN", Counted())
    rng = random.Random(50)
    for trial in range(400):
        tokens = [rng.choice(one_letter) for _ in range(rng.randint(1, 30))]
        if trial % 2:  # a token with an exponent sends the word through the loop
            # 1 to 4 of them from a pool of three, so that tokens repeat
            # in a word; name^-1 is a one-letter token
            pool = [f"{rng.choice(names)}^{rng.choice((-3, -2, 0, 1, 2, 3))}"
                    for _ in range(3)]
            for _ in range(rng.randint(1, 4)):
                tokens.insert(rng.randrange(len(tokens) + 1), rng.choice(pool))
        text = rng.choice(("", *SEPARATORS)) + tokens[0] + \
            "".join(rng.choice(SEPARATORS) + t for t in tokens[1:])
        assert parse_word(text, pres) == reference_parse(text, names), text
    assert loops[0] == 200


def test_str_split_cuts_the_tokens_the_token_pattern_cuts():
    # every code point between two letters: whitespace to one is
    # whitespace to the other, so both parse paths see the same tokens
    text = "x".join(map(chr, range(0x110000)))
    assert text.split() == knot_input._TOKEN.findall(text)


def test_one_letter_tokens_meet_the_budget_and_errors_of_the_loop():
    pres = parse_input("group: a b\nP: a\norientable: true").presentation
    assert len(parse_word(" ".join(["a"] * MAX_WORD_LETTERS), pres)) == MAX_WORD_LETTERS
    # the budget counts letters, not tokens
    assert len(parse_word(" ".join(["1"] + ["a"] * MAX_WORD_LETTERS), pres)) \
        == MAX_WORD_LETTERS
    with pytest.raises(SkgSyntaxError) as info:
        parse_word(" ".join(["a"] * (MAX_WORD_LETTERS + 1)), pres)
    assert str(info.value) == (f"line 1, column {2 * MAX_WORD_LETTERS + 1}: "
                               f"word expands to more than {MAX_WORD_LETTERS} letters")
    with pytest.raises(UnknownGenerator) as info:
        parse_word("a " * 10_000 + "zz", pres)
    assert str(info.value) == "line 1, column 20001: unknown generator 'zz'"


def test_comments_and_blank_lines():
    parsed = parse_input(
        "# a comment\n\ngroup: t   # trailing\n\nP: t\norientable: true\n")
    assert parsed.presentation.generator_names == ("t",)


def test_roundtrip():
    for text in (
        "group: t\nP: t\norientable: true",
        D8_CASE3,
        "group: a b\nrel: a^2\nrel: b^3\nrel: a b a b\nP: a\norientable: true",
        "group: a\nrel: a^5\nP: 1\norientable: true",
    ):
        parsed = parse_input(text, label="x")
        assert parse_input(serialize(parsed), label="x") == parsed


def test_format_word():
    parsed = parse_input("group: a b\nP: a\norientable: true")
    names = parsed.presentation.generator_names
    assert format_word(Word(), names) == "1"
    assert format_word(parse_word("a a a b^-2 a", parsed.presentation),
                       names) == "a^3 b^-2 a"


def groupby_format(word, names):
    """format_word as a groupby over the letters, its reference."""
    if word.is_identity:
        return "1"
    parts = []
    for (i, s), run in groupby(word):
        k = s * len(list(run))
        parts.append(names[i] if k == 1 else f"{names[i]}^{k}")
    return " ".join(parts)


ABC = parse_input("group: a b c\nP: a\norientable: true").presentation
# runs of either sign; free reduction merges or cancels neighbouring runs
runs_st = st.lists(st.tuples(st.integers(min_value=0, max_value=2),
                             st.integers(min_value=-4, max_value=4)),
                   max_size=10)


def _word_of_runs(runs):
    return free_reduce([(i, 1 if k > 0 else -1) for i, k in runs
                        for _ in range(abs(k))])


@given(runs_st)
def test_format_word_matches_groupby(runs):
    word = _word_of_runs(runs)
    assert format_word(word, ABC.generator_names) == \
        groupby_format(word, ABC.generator_names)


@given(runs_st)
def test_format_word_parses_back(runs):
    word = _word_of_runs(runs)
    assert parse_word(format_word(word, ABC.generator_names), ABC) == word


@st.composite
def surface_input_fields(draw):
    """SurfaceKnotInput arguments on either kind of surface, some of which
    the constructor must refuse: one P, P+ or n word in twenty uses a
    generator past the presentation, a tenth of orientable inputs carry an
    n, and a word list may be empty."""
    names = draw(st.lists(st.sampled_from(("a", "b", "T", "x1", "gen_2")),
                          min_size=1, max_size=3, unique=True))
    ngens = len(names)

    def words_over(count):
        letter = st.tuples(st.integers(0, count - 1), st.sampled_from((1, -1)))
        return st.lists(letter, max_size=6).map(free_reduce)

    word = st.integers(0, 19).flatmap(
        lambda k: words_over(ngens + 1 if k == 0 else ngens))
    relators = [w for w in draw(st.lists(words_over(ngens), max_size=3)) if w]
    presentation = GroupPresentation(tuple(map(GeneratorSymbol, names)), tuple(relators))
    orientable = draw(st.booleans())
    p = tuple(draw(st.lists(word, max_size=3)))
    p_plus = None if orientable else tuple(draw(st.lists(word, max_size=3)))
    n = draw(word) if not orientable or draw(st.integers(0, 9)) == 0 else None
    return presentation, p, p_plus, n, orientable, draw(st.text(max_size=4))


@seed(2014)
@settings(max_examples=100, deadline=None)
@given(surface_input_fields())
def test_every_accepted_input_round_trips(fields):
    # the constructor accepts only what parse_input can produce, so
    # serialize writes text that parses back to the same input
    try:
        data = SurfaceKnotInput(*fields)
    except ValueError:
        reject()
    assert parse_input(serialize(data), label=data.label) == data


def test_input_invariants():
    parsed = parse_input("group: t\nP: t\norientable: true")
    with pytest.raises(ValueError):
        SurfaceKnotInput(parsed.presentation, parsed.p_generators,
                         parsed.p_generators, None, True, "x")
    with pytest.raises(ValueError):
        SurfaceKnotInput(parsed.presentation, parsed.p_generators,
                         None, None, False, "x")


def test_validate_dihedral_case3_passes():
    report = validate(parse_input(D8_CASE3))
    named = {c.name: (c.status, c.detail) for c in report.checks}
    assert named["p_plus_in_p"][0] == "pass"
    assert named["n_in_p"][0] == "pass"
    assert named["n_vs_p_plus"][0] == "pass"
    assert "not in P+" in named["n_vs_p_plus"][1]
    assert named["twist_normalizes_p_plus"][0] == "pass"
    assert named["n_squared_in_p_plus"][0] == "pass"
    assert report.ok and report.twist_verified
    # oracle: brute force in the dihedral model
    h_plus = subgroup_of([parse_word("r^2", parse_input(D8_CASE3).presentation)],
                         D4_MODEL)
    s_img = D4_MODEL[1]
    r2_img = peval(parse_word("r^2", parse_input(D8_CASE3).presentation), D4_MODEL)
    assert pmul(pmul(s_img, r2_img), pinv(s_img)) in h_plus
    assert pmul(s_img, s_img) in h_plus


def test_validate_orientable_vacuous():
    report = validate(parse_input("group: t\nP: t\norientable: true"))
    assert all(c.status == "pass" for c in report.checks)
    assert len(report.checks) == 6
    assert report.twist_verified


def test_validate_p_plus_not_in_p_fails():
    # P = <r^2>, P+ = <s>: the P+ generator s is not in P
    text = ("group: r s\nrel: r^4\nrel: s^2\nrel: r s r s\n"
            "P: r^2\nP+: s\nn: r\norientable: false")
    report = validate(parse_input(text))
    named = {c.name: c for c in report.checks}
    assert named["p_plus_in_p"].status == "fail"
    assert "s" in named["p_plus_in_p"].detail
    assert not report.ok


@pytest.mark.parametrize("p, p_plus, status, detail", [
    ("r^2 , s", "r^2", "pass", "|P : P+| = 2"),
    ("r^2", "r^2", "pass", "|P : P+| = 1"),
    ("r , s", "s", "fail", "|P : P+| = 4"),
    ("r^2", "s", "fail", "P+ is not in P"),
])
def test_validate_p_plus_index_in_p(p, p_plus, status, detail):
    # |P : P+| from the two indices of D_4, over the P+ in P check
    text = (f"group: r s\nrel: r^4\nrel: s^2\nrel: r s r s\n"
            f"P: {p}\nP+: {p_plus}\nn: r^2\norientable: false")
    check = validate(parse_input(text)).checks[-1]
    assert (check.name, check.status, check.detail) == \
        ("p_plus_index_in_p", status, detail)


def test_validate_resource_exhaustion_is_unknown():
    # free group of rank 2 with cyclic P: infinite index, tiny budget
    text = "group: a b\nP: a\nP+: a\nn: b\norientable: false"
    report = validate(parse_input(text), EnumerationLimits(8, 8))
    assert any(c.status == "unknown" for c in report.checks)
    assert not report.twist_verified
    assert report.ok  # unknown is not a failure
    # an image in S_2 proves it before any enumeration: the P checks say so
    for check in report.checks[:2]:
        assert check.detail.startswith("P has infinite index:")


def test_validate_index_is_unknown_when_only_p_plus_runs_out():
    # S4 with P = G: the P table is complete, but P+ = <a> has index 12,
    # beyond 8 live cosets, and a finite group gives no certificate
    text = ("group: a b\nrel: a^2\nrel: b^3\nrel: a b a b a b a b\n"
            "P: a , b\nP+: a\nn: 1\norientable: false")
    report = validate(parse_input(text), EnumerationLimits(8, 8))
    assert [c.status for c in report.checks] == ["pass"] * 2 + ["unknown"] * 4
    check = report.checks[-1]
    assert check.name == "p_plus_index_in_p"
    assert check.detail == ("coset enumeration exhausted its budget (8 live "
                            "cosets, 8 defined; limits: 8 live / 8 total)")


def test_validate_without_a_certificate_reports_the_exhaustion():
    # b(17, 1) has no finite image that certifies P = <a>, so both tables
    # run out plainly, and every check carries that refusal
    text = two_bridge_skg(17, 1).replace("orientable: true",
                                         "P+: a\nn: b\norientable: false")
    report = validate(parse_input(text), EnumerationLimits(50, 500))
    assert [c.status for c in report.checks] == ["unknown"] * 6
    for check in report.checks:
        assert check.detail.startswith("coset enumeration exhausted its budget (")
